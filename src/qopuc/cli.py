"""Command-line interface: fixtures in, JSON/CSV reports out.

Every command embeds its configuration, seed, and library version in the
report, prints floats with 17 significant digits, and keeps key order
fixed, so identical configurations reproduce byte-identical output.

Exit codes: 0 ok, 2 invalid input (non-positive-definite moments, bad
coefficients, malformed fixture), 3 internal cross-check mismatch, 4 no
convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import baxter_check, cd_identity_check, sv_check, szego_entropy
from .errors import (
    HorizonExceeded, NoConvergence, NotChiImage, NotContraction, NotInImage,
    NotPositiveDefinite, NotPositiveOnGrid, RouteMismatch, ShiftResidual,
    SingularConstantTerm,
)
from .fixtures import random_gamma_seq
from .measures import (
    MomentSequence, QPositiveDensity, density_in_frame, moments_from_density,
)
from .polynomials import (
    VerblunskySeq, moments_from_verblunsky_q, orthonormal_polys,
    verblunsky_from_moments_q,
)
from .quaternions import Quaternion, SliceFrame
from .zeros import zeros_theorem_check

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CROSS_CHECK = 3
EXIT_NO_CONVERGENCE = 4

_INVALID_INPUT_ERRORS = (
    NotPositiveDefinite, NotContraction, HorizonExceeded, NotInImage,
    NotChiImage, ShiftResidual, SingularConstantTerm, NotPositiveOnGrid,
)


# ------------------------- deterministic JSON ------------------------------

def _fmt_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not representable in report JSON")
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


_INF = float("inf")


def _emit_key(key) -> str:
    return encode_basestring_ascii(key if type(key) is str else str(key))


def emit_json(obj) -> str:
    """Fixed-order JSON with 17-significant-digit floats.

    Exact floats take a fast path, inline in lists and dicts too; strings
    and keys come out as json.dumps writes them.
    """
    if type(obj) is float:
        return format(obj, ".17g") if -_INF < obj < _INF else _fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([
            _emit_key(k) + ": " + (format(v, ".17g") if type(v) is float and -_INF < v < _INF
                                   else emit_json(v))
            for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([
            format(v, ".17g") if type(v) is float and -_INF < v < _INF else emit_json(v)
            for v in obj]) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    raise TypeError(f"cannot serialise {type(obj)!r}")


def emit_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format(float(v), ".17g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------ fixture I/O --------------------------------

def _require_numbers(value, count: int, field: str) -> None:
    """ValueError naming ``field`` unless value is a list of count finite numbers."""
    if not (isinstance(value, list) and len(value) == count
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x) for x in value)):
        raise ValueError(f"{field} must be a list of {count} finite numbers, "
                         f"got {value!r}")


def _require_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _validate_frame(obj, field: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object with keys i and j")
    for key in ("i", "j"):
        _require_numbers(obj.get(key), 4, f"{field}.{key}")


def _validate_fixture(obj) -> None:
    """Shape and finiteness of every field a command reads, checked at load."""
    if not isinstance(obj, dict):
        raise ValueError("fixture must be a JSON object")
    if "frame" in obj:
        _validate_frame(obj["frame"], "frame")
    for k, g in enumerate(_require_list(obj, "gammas")):
        _require_numbers(g, 4, f"gammas[{k}]")
    for key in ("w1", "w2"):
        for k, entry in enumerate(_require_list(obj, key)):
            _require_numbers(entry, 3, f"{key}[{k}]")
            if not isinstance(entry[0], int):
                raise ValueError(f"{key}[{k}] index must be an integer, got {entry[0]!r}")
    for k, entry in enumerate(_require_list(obj, "moments")):
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], int) and not isinstance(entry[0], bool)):
            raise ValueError(f"moments[{k}] must be [index, quaternion], got {entry!r}")
        _require_numbers(entry[1], 4, f"moments[{k}][1]")
    if "w1" in obj and "frame" not in obj:
        raise ValueError("frame is missing: a density fixture (w1/w2 keys) needs "
                         "a frame object with keys i and j")


def load_fixture(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    _validate_fixture(obj)
    return obj


def parse_frame(spec: str | None) -> SliceFrame | None:
    if spec is None or spec == "standard":
        return None
    obj = json.loads(spec)
    _validate_frame(obj, "--frame")
    return SliceFrame.from_json(obj)


def fixture_frame(obj: dict, override: SliceFrame | None) -> SliceFrame:
    if override is not None:
        return override
    if "frame" in obj:
        return SliceFrame.from_json(obj["frame"])
    return SliceFrame.standard()


def density_from_fixture(obj: dict, override: SliceFrame | None) -> QPositiveDensity:
    if "w1" not in obj:
        raise ValueError("this command needs a density fixture (w1/w2 keys)")
    d = QPositiveDensity.from_json(obj)
    if override is not None and override != d.frame:
        d = density_in_frame(d, override)
    return d


def moments_from_fixture(obj: dict, n: int, override: SliceFrame | None) -> MomentSequence:
    if "moments" in obj:
        c = MomentSequence.from_json(obj["moments"])
        if c.horizon < n:
            raise HorizonExceeded(
                f"fixture horizon {c.horizon} below requested order {n}")
        return c
    if "w1" in obj:
        return moments_from_density(density_from_fixture(obj, override), n)
    if "gammas" in obj:
        gammas = VerblunskySeq([Quaternion.from_array(g) for g in obj["gammas"]])
        frame = fixture_frame(obj, override)
        return moments_from_verblunsky_q(gammas, min(n, len(gammas)), frame)
    raise ValueError("fixture holds neither moments, density, nor gammas")


# ------------------------------- commands ----------------------------------

def _require_flags(args) -> None:
    """--n (an order or a count), --samples and --grid must be at least 1;
    --tol-route finite and > 0, --tol-pd finite and >= 0, --rmax finite in
    [0.05, 1), the interval its radii are drawn from, --format csv only for
    commands with a CSV view, and --frame a valid frame."""
    for flag in ("n", "samples", "grid"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    if not (math.isfinite(args.tol_route) and args.tol_route > 0):
        raise ValueError(f"--tol-route must be finite and > 0, got {args.tol_route}")
    if not (math.isfinite(args.tol_pd) and args.tol_pd >= 0):
        raise ValueError(f"--tol-pd must be finite and >= 0, got {args.tol_pd}")
    rmax = getattr(args, "rmax", None)
    if rmax is not None and not 0.05 <= rmax < 1:
        raise ValueError(f"--rmax must be finite and in [0.05, 1), got {rmax}")
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        raise ValueError(f"--format csv has no view for command {args.command!r}")
    parse_frame(args.frame)   # every envelope echoes the frame, so check it here


def _envelope(args, result: dict) -> dict:
    frame = parse_frame(args.frame)
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": {
            "input": getattr(args, "input", None),
            "n": getattr(args, "n", None),
            "frame": (frame or SliceFrame.standard()).to_json(),
            "tol_route": getattr(args, "tol_route", None),
            "tol_pd": getattr(args, "tol_pd", None),
            "format": args.format,
        },
        "result": result,
    }


def cmd_moments_to_verblunsky(args) -> dict:
    obj = load_fixture(args.input)
    frame = parse_frame(args.frame) or fixture_frame(obj, None)
    c = moments_from_fixture(obj, args.n, parse_frame(args.frame))
    ext = verblunsky_from_moments_q(c, args.n, frame, route_tol=args.tol_route,
                                    pivot_tol=args.tol_pd)
    return {
        "gammas": [g.to_json() for g in ext.matrix_route],
        "route_residual": ext.route_residual,
    }


def cmd_verblunsky_to_moments(args) -> dict:
    obj = load_fixture(args.input)
    if "gammas" not in obj:
        raise ValueError("this command needs a gamma fixture")
    frame = parse_frame(args.frame) or fixture_frame(obj, None)
    gammas = VerblunskySeq([Quaternion.from_array(g) for g in obj["gammas"]])
    if len(gammas) < args.n:
        raise ValueError(f"fixture holds {len(gammas)} coefficients, need {args.n}")
    c = moments_from_verblunsky_q(gammas, args.n, frame)
    return {"moments": c.to_json()}


def cmd_orthopolys(args) -> dict:
    obj = load_fixture(args.input)
    c = moments_from_fixture(obj, args.n, parse_frame(args.frame))
    fam = orthonormal_polys(c, args.n, args.tol_pd)
    return {
        "right": [p.to_json() for p in fam.right],
        "left": [p.to_json() for p in fam.left],
    }


def cmd_zeros(args) -> dict:
    obj = load_fixture(args.input)
    frame = parse_frame(args.frame) or fixture_frame(obj, None)
    c = moments_from_fixture(obj, args.n, parse_frame(args.frame))
    fam = orthonormal_polys(c, args.n, args.tol_pd)
    rows, reports = zeros_theorem_check(fam, frame, route_tol=args.tol_route)
    families = [{"degree": n, "family": name, "report": report.to_json()}
                for n, per_family in enumerate(reports, start=1)
                for name, report in per_family.items()]
    return {"per_degree": rows, "reports": families}


def cmd_cd(args) -> dict:
    obj = load_fixture(args.input)
    c = moments_from_fixture(obj, args.n + 1, parse_frame(args.frame))
    residual = cd_identity_check(c, args.n, samples=args.samples, seed=args.seed)
    return {"max_residual": residual, "samples": args.samples}


def cmd_sv(args) -> dict:
    obj = load_fixture(args.input)
    d = density_from_fixture(obj, parse_frame(args.frame))
    rep = sv_check(d, args.n, allow_divergent=True)
    return rep.to_json()


def cmd_baxter(args) -> dict:
    obj = load_fixture(args.input)
    d = density_from_fixture(obj, parse_frame(args.frame))
    return baxter_check(d, args.n).to_json()


GRID_COLUMNS = ("theta", "w11_re", "w11_im", "w12_re", "w12_im",
                "w21_re", "w21_im", "w22_re", "w22_im")


def cmd_grid(args) -> dict:
    obj = load_fixture(args.input)
    d = density_from_fixture(obj, parse_frame(args.frame))
    thetas = 2.0 * np.pi * np.arange(args.grid) / args.grid
    W = d.grid_values(args.grid).reshape(len(thetas), 4)
    columns = [thetas.tolist()]
    for k in range(4):
        columns += [W[:, k].real.tolist(), W[:, k].imag.tolist()]
    rows = [dict(zip(GRID_COLUMNS, values)) for values in zip(*columns)]
    return {"grid": args.grid, "entropy": szego_entropy(d, allow_divergent=True),
            "rows": rows}


def cmd_random_gamma(args) -> dict:
    gammas = random_gamma_seq(args.seed, args.n, rmax=args.rmax)
    return {
        "frame": SliceFrame.standard().to_json(),
        "gammas": [g.to_json() for g in gammas],
    }


# ------------------------------- CSV views ---------------------------------

CSV_COMMANDS = ("zeros", "sv", "baxter", "grid", "verblunsky-to-moments",
                "moments-to-verblunsky")


def csv_view(command: str, payload: dict) -> str:
    result = payload["result"]
    if command == "zeros":
        rows = []
        for entry in result["reports"]:
            rep = entry["report"]
            for (re, im), mod in zip(rep["slice_roots"], rep["moduli"]):
                rows.append([entry["degree"], entry["family"], re, im, mod])
        return emit_csv(["degree", "family", "root_re", "root_im", "modulus"], rows)
    if command == "sv":
        rows = [[n, p, g] for n, (p, g) in enumerate(
            zip(result["partial_products"], result["gap_history"]))]
        return emit_csv(["n", "partial_product", "gap"], rows)
    if command == "baxter":
        rows = [[n, m, s] for n, (m, s) in enumerate(
            zip(result["gamma_moduli"], result["gamma_l1_partial"]))]
        return emit_csv(["n", "gamma_modulus", "l1_partial_sum"], rows)
    if command == "grid":
        rows = [[r[h] for h in GRID_COLUMNS] for r in result["rows"]]
        return emit_csv(GRID_COLUMNS, rows)
    if command == "verblunsky-to-moments":
        rows = [[n, *q] for n, q in result["moments"]]
        return emit_csv(["n", "w", "x", "y", "z"], rows)
    if command == "moments-to-verblunsky":
        rows = [[n, *q] for n, q in enumerate(result["gammas"])]
        return emit_csv(["n", "w", "x", "y", "z"], rows)
    raise ValueError(f"no CSV view for command {command!r}")


# --------------------------------- driver ----------------------------------

_COMMANDS = {
    "moments-to-verblunsky": cmd_moments_to_verblunsky,
    "verblunsky-to-moments": cmd_verblunsky_to_moments,
    "orthopolys": cmd_orthopolys,
    "zeros": cmd_zeros,
    "cd": cmd_cd,
    "sv": cmd_sv,
    "baxter": cmd_baxter,
    "grid": cmd_grid,
    "random-gamma": cmd_random_gamma,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qopuc",
        description="Orthogonal polynomials on the quaternionic unit sphere")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="fixture JSON path")
        p.add_argument("--frame", default=None,
                       help="frame JSON override, or 'standard'")
        p.add_argument("--n", type=int, default=8, help="horizon / max degree")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--tol-route", dest="tol_route", type=float, default=1e-8,
                       help="cross-route agreement tolerance")
        p.add_argument("--tol-pd", dest="tol_pd", type=float, default=1e-12,
                       help="positive-definiteness pivot tolerance")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    for name in ("moments-to-verblunsky", "verblunsky-to-moments",
                 "orthopolys", "zeros", "sv", "baxter"):
        common(sub.add_parser(name))
    p = sub.add_parser("cd")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p = sub.add_parser("grid")
    common(p)
    p.add_argument("--grid", type=int, default=2048)
    p = sub.add_parser("random-gamma")
    common(p, needs_input=False)
    p.add_argument("--rmax", type=float, default=0.8)
    return parser


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; building it costs about 3 ms per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _require_flags(args)
        result = _COMMANDS[args.command](args)
    except RouteMismatch as exc:
        _write(args, emit_json({"error": {"type": "RouteMismatch",
                                          "message": str(exc),
                                          "residual": exc.residual}}) + "\n")
        return EXIT_CROSS_CHECK
    except NoConvergence as exc:
        _write(args, emit_json({"error": {"type": "NoConvergence",
                                          "message": str(exc)}}) + "\n")
        return EXIT_NO_CONVERGENCE
    except _INVALID_INPUT_ERRORS as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotPositiveDefinite) and exc.order is not None:
            error["order"] = exc.order
        if isinstance(exc, NotContraction) and exc.index is not None:
            error["index"] = exc.index
        _write(args, emit_json({"error": error}) + "\n")
        return EXIT_INVALID_INPUT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _write(args, emit_json({"error": {"type": type(exc).__name__,
                                          "message": str(exc)}}) + "\n")
        return EXIT_INVALID_INPUT
    payload = _envelope(args, result)
    if args.format == "csv":
        _write(args, csv_view(args.command, payload))
    else:
        _write(args, emit_json(payload) + "\n")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
