"""Command-line interface: fixtures in, JSON/CSV reports out.

Every command embeds its configuration, seed, and library version in the
report, prints floats with 17 significant digits, and keeps key order
fixed, so identical configurations reproduce byte-identical output.

Exit codes: 0 ok, 2 invalid input (non-positive-definite moments, bad
coefficients, malformed fixture, a density beyond float64 on a grid, an
input too large to allocate), 3 internal cross-check mismatch, 4 no
convergence.

One loader per job reads and checks the fixture once and resolves the
frame the job runs in (``load_fixture``).  Report tables are built by
column: each distinct float of a float column is formatted once
(``_float_text``), and a ``grid`` report writes W21 and W22 from the text
of W12 and W11 (``_GridRows``), then fills one JSON row template or joins
the same strings for CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import baxter_check, cd_identity_check, sv_check, szego_entropy
from .errors import (
    HorizonExceeded, NoConvergence, NotContraction, NotInImage, NotPositiveDefinite,
    RouteMismatch, ShiftResidual, SingularConstantTerm,
)
from .fixtures import random_gamma_seq
from .measures import PIVOT_TOL, MomentSequence, QPositiveDensity, moments_from_density
from .polynomials import (
    ROUTE_TOL, VerblunskySeq, moments_from_verblunsky_q, orthonormal_polys,
    verblunsky_from_moments_q,
)
from .quaternions import SliceFrame
from .zeros import zeros_theorem_check

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CROSS_CHECK = 3
EXIT_NO_CONVERGENCE = 4

_INVALID_INPUT_ERRORS = (
    NotPositiveDefinite, NotContraction, HorizonExceeded, NotInImage,
    ShiftResidual, SingularConstantTerm,
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
    and keys come out as json.dumps writes them.  A grid report's rows
    (``_GridRows``) are one row template filled from their text columns.
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
    if isinstance(obj, _GridRows):
        return "[" + ", ".join(map(_GRID_ROW.__mod__, zip(*obj.text_columns()))) + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _float_text(values) -> list[str]:
    """format(x, '.17g') of each float of a 1-D array.  Each distinct float,
    told apart by its bits (so 0.0 and -0.0 stay apart), is formatted once,
    all of them by one '%.17g' format, which writes the same text."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    text = ("%.17g\n" * len(bits) % tuple(bits.view(float).tolist())).split("\n")
    return np.array(text[:-1], dtype=object)[inverse].tolist()


def emit_csv(header, columns) -> str:
    """CSV of a table given by its columns: a float array as in
    ``_float_text``, the cells of any other column (ints, strings, text
    already formatted) with str."""
    cells = [_float_text(c) if isinstance(c, np.ndarray) else map(str, c) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


# ------------------------------ fixture I/O --------------------------------

def _finite(x) -> bool:
    """Whether a JSON number is finite as a float: an integer too large for
    a float is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _require_numbers(value, count: int, field: str) -> None:
    """ValueError naming ``field`` unless value is a list of count finite numbers."""
    if not (isinstance(value, list) and len(value) == count
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    and _finite(x) for x in value)):
        raise ValueError(f"{field} must be a list of {count} finite numbers, "
                         f"got {value!r}")


def _require_list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _require_new_index(seen: set, n: int, field: str) -> None:
    """ValueError naming ``field`` if its index n was read before: building
    the map would keep the later entry and drop the earlier one silently."""
    if n in seen:
        raise ValueError(f"{field} repeats index {n}")
    seen.add(n)


def _validate_frame(obj, field: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object with keys i and j")
    for key in ("i", "j"):
        _require_numbers(obj.get(key), 4, f"{field}.{key}")


_FIXTURE_KINDS = {"moments": "moments", "w1": "density", "w2": "density", "gammas": "gammas"}


def _validate_fixture(obj) -> str | None:
    """Shape and finiteness of every field a command reads, checked at load;
    the kind: "moments", "density" (a w1 or a w2 key), "gammas" or None."""
    if not isinstance(obj, dict):
        raise ValueError("fixture must be a JSON object")
    if "frame" in obj:
        _validate_frame(obj["frame"], "frame")
    for k, g in enumerate(_require_list(obj, "gammas")):
        _require_numbers(g, 4, f"gammas[{k}]")
    for key in ("w1", "w2"):
        seen = set()
        for k, entry in enumerate(_require_list(obj, key)):
            _require_numbers(entry, 3, f"{key}[{k}]")
            if not isinstance(entry[0], int):
                raise ValueError(f"{key}[{k}] index must be an integer, got {entry[0]!r}")
            if abs(entry[0]) >= 2 ** 63:
                raise ValueError(f"{key}[{k}] index must be below 2**63 in magnitude, "
                                 f"got {entry[0]}")
            _require_new_index(seen, entry[0], f"{key}[{k}]")
    seen = set()
    for k, entry in enumerate(_require_list(obj, "moments")):
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], int) and not isinstance(entry[0], bool)):
            raise ValueError(f"moments[{k}] must be [index, quaternion], got {entry!r}")
        _require_numbers(entry[1], 4, f"moments[{k}][1]")
        _require_new_index(seen, entry[0], f"moments[{k}]")
    found = [key for key in _FIXTURE_KINDS if key in obj]
    kinds = {_FIXTURE_KINDS[key] for key in found}
    if len(kinds) > 1:   # commands would read such a fixture differently
        raise ValueError(f"fixture holds more than one of moments, w1/w2 and gammas "
                         f"(found {', '.join(found)})")
    kind = kinds.pop() if kinds else None
    if kind == "density" and "frame" not in obj:
        raise ValueError("frame is missing: a density fixture (w1/w2 keys) needs "
                         "a frame object with keys i and j")
    return kind


def _parse_json(text: str, what: str):
    """The JSON value of ``text``; ValueError naming ``what`` if it nests
    too deeply for the parser."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON nests too deeply to parse") from None


@dataclass(frozen=True)
class Fixture:
    """A loaded fixture: the frame its job runs in and at most one payload,
    the sparse moment map {n: c_n}, the density (held in ``frame``) or the
    Verblunsky coefficients."""

    frame: SliceFrame
    moments: dict | None = None
    density: QPositiveDensity | None = None
    gammas: VerblunskySeq | None = None


def load_fixture(path: str, override: SliceFrame | None) -> Fixture:
    """The fixture at ``path``, checked once, for a job in ``override``, else
    in the fixture's ``frame``, else in the standard frame.  A density's maps
    are read in its own frame, and the density is built once, in the job's."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = _parse_json(fh.read(), "fixture")
    kind = _validate_fixture(obj)
    if kind == "density":
        own = fixture_frame(obj, None)
        frame = override or own
        return Fixture(frame, density=QPositiveDensity.from_json(obj, own, frame))
    frame = fixture_frame(obj, override)
    if kind == "moments":
        return Fixture(frame, moments=dict(obj["moments"]))
    if kind == "gammas":
        return Fixture(frame, gammas=VerblunskySeq(obj["gammas"]))
    return Fixture(frame)


def parse_frame(spec: str | None) -> SliceFrame | None:
    """The --frame override: None without the flag, else the frame it names,
    which a fixture's own frame does not replace."""
    if spec is None:
        return None
    if spec == "standard":
        return SliceFrame.standard()
    obj = _parse_json(spec, "--frame")
    _validate_frame(obj, "--frame")
    return SliceFrame.from_json(obj)


def fixture_frame(obj: dict, override: SliceFrame | None) -> SliceFrame:
    if override is not None:
        return override
    if "frame" in obj:
        return SliceFrame.from_json(obj["frame"])
    return SliceFrame.standard()


def density_from_fixture(fix: Fixture) -> QPositiveDensity:
    if fix.density is None:
        raise ValueError("this command needs a density fixture (w1/w2 keys)")
    return fix.density


def moments_from_fixture(fix: Fixture, n: int) -> MomentSequence:
    """The moments c_0..c_n of a fixture; a gamma fixture gives at most as
    many moments past c_0 as it holds coefficients."""
    if fix.moments is not None:
        return MomentSequence.from_map(fix.moments, n)
    if fix.density is not None:
        return moments_from_density(fix.density, n)
    if fix.gammas is not None:
        return moments_from_verblunsky_q(fix.gammas, min(n, len(fix.gammas)), fix.frame)
    raise ValueError("fixture holds neither moments, density, nor gammas")


# ------------------------------- commands ----------------------------------

def _require_flags(args) -> None:
    """--n (an order or a count), --samples and --grid must be at least 1,
    --seed at least 0; --tol-route finite and > 0, --tol-pd finite and
    >= 0, --rmax finite in [0.05, 1), the interval its radii are drawn from,
    and --format csv only for commands with a CSV view."""
    for flag, low in (("n", 1), ("samples", 1), ("grid", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ValueError(f"--{flag} must be at least {low}, got {value}")
    if not (math.isfinite(args.tol_route) and args.tol_route > 0):
        raise ValueError(f"--tol-route must be finite and > 0, got {args.tol_route}")
    if not (math.isfinite(args.tol_pd) and args.tol_pd >= 0):
        raise ValueError(f"--tol-pd must be finite and >= 0, got {args.tol_pd}")
    rmax = getattr(args, "rmax", None)
    if rmax is not None and not 0.05 <= rmax < 1:
        raise ValueError(f"--rmax must be finite and in [0.05, 1), got {rmax}")
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        raise ValueError(f"--format csv has no view for command {args.command!r}")


def _envelope(args, fix: Fixture, result: dict) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": {
            "input": getattr(args, "input", None),
            "n": getattr(args, "n", None),
            "frame": fix.frame.to_json(),
            "tol_route": getattr(args, "tol_route", None),
            "tol_pd": getattr(args, "tol_pd", None),
            "format": args.format,
        },
        "result": result,
    }


def cmd_moments_to_verblunsky(args, fix: Fixture) -> dict:
    gammas, residual = verblunsky_from_moments_q(
        moments_from_fixture(fix, args.n), args.n, fix.frame,
        route_tol=args.tol_route, pivot_tol=args.tol_pd)
    return {"gammas": gammas.to_json(), "route_residual": residual}


def cmd_verblunsky_to_moments(args, fix: Fixture) -> dict:
    if fix.gammas is None:
        raise ValueError("this command needs a gamma fixture")
    if len(fix.gammas) < args.n:
        raise HorizonExceeded(f"fixture holds {len(fix.gammas)} coefficients, need {args.n}")
    return {"moments": moments_from_verblunsky_q(fix.gammas, args.n, fix.frame).to_json()}


def cmd_orthopolys(args, fix: Fixture) -> dict:
    _, rows = orthonormal_polys(moments_from_fixture(fix, args.n), args.n, args.tol_pd)
    return {family: [{"space": space, "coeffs": rows[f, n, : n + 1].tolist()}
                     for n in range(args.n + 1)]
            for f, (family, space) in enumerate((("right", "L"), ("left", "R")))}


def cmd_zeros(args, fix: Fixture) -> dict:
    _, rows = orthonormal_polys(moments_from_fixture(fix, args.n), args.n, args.tol_pd)
    return zeros_theorem_check(rows, fix.frame, route_tol=args.tol_route)


def cmd_cd(args, fix: Fixture) -> dict:
    residual = cd_identity_check(moments_from_fixture(fix, args.n + 1), args.n,
                                 samples=args.samples, seed=args.seed, pivot_tol=args.tol_pd)
    return {"max_residual": residual, "samples": args.samples}


def cmd_sv(args, fix: Fixture) -> dict:
    return sv_check(density_from_fixture(fix), args.n, route_tol=args.tol_route,
                    pivot_tol=args.tol_pd)


def cmd_baxter(args, fix: Fixture) -> dict:
    return baxter_check(density_from_fixture(fix), args.n)


GRID_COLUMNS = ("theta", "w11_re", "w11_im", "w12_re", "w12_im",
                "w21_re", "w21_im", "w22_re", "w22_im")
# one JSON row of a grid report, the fields in GRID_COLUMNS order
_GRID_ROW = "{" + ", ".join(f"{_emit_key(h)}: %s" for h in GRID_COLUMNS) + "}"


def _negated(text: list[str]) -> list[str]:
    """The text of -x from that of a finite x: the sign toggled, 0 <-> -0 too."""
    return [s[1:] if s[0] == "-" else "-" + s for s in text]


def _reflected(text: list[str]) -> list[str]:
    """Entry (-k) mod g of g entries, for k < g."""
    return text[:1] + text[:0:-1]


@dataclass(frozen=True)
class _GridRows:
    """The rows of a grid report by column: theta_k = 2 pi k / g, and the
    finite a = W11 and b = W12 at theta_k.  ``matrix_values`` makes
    W21 = conj(b) and W22(theta_k) = a(theta_{-k}) bit for bit, so their
    text is b's with the imaginary part's sign toggled, and a's reflected."""

    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def text_columns(self) -> list[list[str]]:
        """The GRID_COLUMNS as text, five of them formatted by ``_float_text``."""
        theta, a_re, a_im, b_re, b_im = map(_float_text, (
            self.theta, self.a.real, self.a.imag, self.b.real, self.b.imag))
        return [theta, a_re, a_im, b_re, b_im,
                b_re, _negated(b_im), _reflected(a_re), _reflected(a_im)]


def cmd_grid(args, fix: Fixture) -> dict:
    d = density_from_fixture(fix)
    W = d.grid_values(args.grid)
    rows = _GridRows(2.0 * np.pi * np.arange(args.grid) / args.grid, W[:, 0, 0], W[:, 0, 1])
    return {"grid": args.grid, "entropy": szego_entropy(d), "rows": rows}


def cmd_random_gamma(args, fix: Fixture) -> dict:
    gammas = random_gamma_seq(args.seed, args.n, rmax=args.rmax)
    return {
        "frame": fix.frame.to_json(),
        "gammas": gammas.to_json(),
    }


# ------------------------------- CSV views ---------------------------------

CSV_COMMANDS = ("zeros", "sv", "baxter", "grid", "verblunsky-to-moments",
                "moments-to-verblunsky")


def _quaternion_columns(quaternions: list) -> list[np.ndarray]:
    """The w, x, y, z columns of a list of quaternions (w, x, y, z)."""
    return list(np.array(quaternions, dtype=float).reshape(-1, 4).T)


def csv_view(command: str, payload: dict) -> str:
    """The CSV view of a command's report, built column by column."""
    result = payload["result"]
    if command == "zeros":
        degree, family, roots, moduli = [], [], [], []
        for entry in result["reports"]:   # one row per root, a modulus each
            rep = entry["report"]
            degree += [entry["degree"]] * len(rep["moduli"])
            family += [entry["family"]] * len(rep["moduli"])
            roots += rep["slice_roots"]
            moduli += rep["moduli"]
        re, im = np.array(roots, dtype=float).reshape(-1, 2).T
        return emit_csv(["degree", "family", "root_re", "root_im", "modulus"],
                        [degree, family, re, im, np.array(moduli, dtype=float)])
    if command == "sv":
        return emit_csv(["n", "partial_product", "gap"], [
            range(len(result["partial_products"])),
            np.array(result["partial_products"], dtype=float),
            np.array(result["gap_history"], dtype=float)])
    if command == "baxter":
        return emit_csv(["n", "gamma_modulus", "l1_partial_sum"], [
            range(len(result["gamma_moduli"])),
            np.array(result["gamma_moduli"], dtype=float),
            np.array(result["gamma_l1_partial"], dtype=float)])
    if command == "grid":
        return emit_csv(GRID_COLUMNS, result["rows"].text_columns())
    if command == "verblunsky-to-moments":
        return emit_csv(["n", "w", "x", "y", "z"], [
            [n for n, _ in result["moments"]],
            *_quaternion_columns([q for _, q in result["moments"]])])
    if command == "moments-to-verblunsky":
        return emit_csv(["n", "w", "x", "y", "z"], [
            range(len(result["gammas"])), *_quaternion_columns(result["gammas"])])
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
        p.add_argument("--tol-route", dest="tol_route", type=float, default=ROUTE_TOL,
                       help="cross-route agreement tolerance")
        p.add_argument("--tol-pd", dest="tol_pd", type=float, default=PIVOT_TOL,
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


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; building it costs about 3 ms per call."""
    return build_parser()


def _run(args) -> tuple[int, str]:
    """The exit code and the text of one parsed command line."""
    try:
        _require_flags(args)
        # parsed once, None without the flag; a fixture is loaded once, and
        # its commands and the envelope read its record, which holds only the
        # job's frame for a command without an input
        override = parse_frame(args.frame)
        fix = (load_fixture(args.input, override) if "input" in args
               else Fixture(override or SliceFrame.standard()))
        result = _COMMANDS[args.command](args, fix)
    except RouteMismatch as exc:
        return EXIT_CROSS_CHECK, _error_text(exc)
    except NoConvergence as exc:
        return EXIT_NO_CONVERGENCE, _error_text(exc)
    except (*_INVALID_INPUT_ERRORS, ValueError, KeyError, OSError) as exc:
        return EXIT_INVALID_INPUT, _error_text(exc)
    except MemoryError as exc:   # numpy's private subclass, reported as the builtin
        return EXIT_INVALID_INPUT, _error_text(MemoryError(str(exc)))
    payload = _envelope(args, fix, result)
    if args.format == "csv":
        return EXIT_OK, csv_view(args.command, payload)
    return EXIT_OK, emit_json(payload) + "\n"


def _error_text(exc: Exception) -> str:
    """The error report: type, message and any typed field the error carries."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    error.update((key, value) for key in ("residual", "order", "index")
                 if (value := getattr(exc, key, None)) is not None)
    return emit_json({"error": error}) + "\n"


def main(argv=None) -> int:
    """Run one command line; an ``--out`` that cannot be written puts its
    error on stdout, with exit 2."""
    args = _parser().parse_args(argv)
    code, text = _run(args)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        sys.stdout.write(_error_text(exc))
        return EXIT_INVALID_INPUT
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
