"""Command-line interface: fixtures in, JSON/CSV reports out.

Each command is declared once (``_COMMANDS``): the handler that runs it,
the arguments it takes besides ``--frame`` and ``--out``, which every
command takes, and its CSV view, if it has one; only a command with a view
takes ``--format``.  A command takes only the flags its handler reads, each
spelled out in full; any other flag is an unknown argument.  Every report
embeds each flag its command takes, the seed and the library version,
prints floats with 17 significant digits, and keeps key order fixed, so
identical configurations reproduce byte-identical output.

Exit codes: 0 ok, 2 invalid input (a command line the parser rejects,
non-positive-definite moments, bad coefficients, malformed fixture, a
density beyond float64 on a grid, an input too large to allocate), 3
internal cross-check mismatch, 4 no convergence.  Every error is one JSON
report that names its type and message.

One loader per job reads and checks the fixture once and resolves the
frame the job runs in (``load_fixture``).  Report tables are built by
column: each distinct float of a float column is formatted once
(``_float_text``).  A report is written as a sequence of text pieces, and
every report is one piece but a ``grid`` report's: its rows grow with
``--grid`` (about 290 bytes of JSON each, 2^18 points make 75 MB), so they
are formatted and written ``GRID_CHUNK`` rows at a time, W21 and W22 from
the text of W12 and W11 (``_GridRows``), filling one JSON row template or
one CSV row template, and the text held at once is one chunk of rows plus
W11's two text columns.  The JSON envelope around the rows is written key
by key with ``emit_json`` (``_json_pieces``), so a report's bytes do not
depend on how it is written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
    (``_GridRows``) are written by ``_json_pieces``.
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


def _json_pieces(obj) -> Iterator[str]:
    """The text of ``emit_json(obj)`` in pieces, for a report that holds a
    grid report's rows (``_GridRows``): its dicts are written key by key,
    the rows a chunk at a time, and every other value is one ``emit_json``
    piece."""
    if isinstance(obj, _GridRows):
        yield from obj.json_pieces()
    elif isinstance(obj, dict):
        yield "{"
        for n, (key, value) in enumerate(obj.items()):
            yield (", " if n else "") + _emit_key(key) + ": "
            yield from _json_pieces(value)
        yield "}"
    else:
        yield emit_json(obj)


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
    ``_float_text``, the cells of any other column (ints, strings) with str."""
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
    in the fixture's ``frame``, else in the standard frame.  A
    ``random-gamma`` report is read as its ``result``.  The fixture's
    own frame is built, and so checked, under an override too.  A density's
    maps are read in its own frame, and the density is built once, in the
    job's."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = _parse_json(fh.read(), "fixture")
    if isinstance(obj, dict) and obj.get("command") == "random-gamma":
        obj = obj.get("result")   # a random-gamma report: its result is the fixture
    kind = _validate_fixture(obj)
    own = fixture_frame(obj)   # a density always has one
    frame = override or own or SliceFrame.standard()
    if kind == "density":
        return Fixture(frame, density=QPositiveDensity.from_json(obj, own, frame))
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


def fixture_frame(obj: dict) -> SliceFrame | None:
    """The fixture's own ``frame``, None if it has none."""
    return SliceFrame.from_json(obj["frame"]) if "frame" in obj else None


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
    >= 0, --rmax finite in [0.05, 1), the interval its radii are drawn
    from.  A flag the command does not take is not in ``args``."""
    for flag, low in (("n", 1), ("samples", 1), ("grid", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ValueError(f"--{flag} must be at least {low}, got {value}")
    tol_route = getattr(args, "tol_route", None)
    if tol_route is not None and not (math.isfinite(tol_route) and tol_route > 0):
        raise ValueError(f"--tol-route must be finite and > 0, got {tol_route}")
    tol_pd = getattr(args, "tol_pd", None)
    if tol_pd is not None and not (math.isfinite(tol_pd) and tol_pd >= 0):
        raise ValueError(f"--tol-pd must be finite and >= 0, got {tol_pd}")
    rmax = getattr(args, "rmax", None)
    if rmax is not None and not 0.05 <= rmax < 1:
        raise ValueError(f"--rmax must be finite and in [0.05, 1), got {rmax}")


def _envelope(args, fix: Fixture, result: dict) -> dict:
    """The report of a job, which echoes every flag its command takes: the
    seed at the top, the rest in ``config``, whose first six keys are null
    where the command does not take the flag, then ``samples``, ``grid`` or
    ``rmax`` for the command that takes it.  ``format`` is the format the
    report is written in, json for a command without ``--format``."""
    config = {
        "input": getattr(args, "input", None),
        "n": getattr(args, "n", None),
        "frame": fix.frame.to_json(),
        "tol_route": getattr(args, "tol_route", None),
        "tol_pd": getattr(args, "tol_pd", None),
        "format": getattr(args, "format", "json"),
    }
    config.update((key, getattr(args, key)) for key in ("samples", "grid", "rmax")
                  if key in args)
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
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
# one row of a grid report, the fields in GRID_COLUMNS order, in JSON and in CSV
_GRID_ROW = "{" + ", ".join(f"{_emit_key(h)}: %s" for h in GRID_COLUMNS) + "}"
_GRID_CSV_ROW = ",".join(["%s"] * len(GRID_COLUMNS)) + "\n"
# rows of a grid report formatted and written at a time: the text a report
# holds at once is one chunk's, not ~1.1 KB per row of the whole grid
GRID_CHUNK = 256


def _negated(text: list[str]) -> list[str]:
    """The text of -x from that of a finite x: the sign toggled, 0 <-> -0 too."""
    return [s[1:] if s[0] == "-" else "-" + s for s in text]


@dataclass(frozen=True)
class _GridRows:
    """The rows of a grid report by column: theta_k = 2 pi k / g, and the
    finite a = W11 and b = W12 at theta_k.  ``matrix_values`` makes
    W21 = conj(b) and W22(theta_k) = a(theta_{-k}) bit for bit, so their
    text is b's with the imaginary part's sign toggled, and a's at the
    reflected rows (-k) mod g."""

    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def text_chunks(self) -> Iterator[list[list[str]]]:
        """The GRID_COLUMNS as text, GRID_CHUNK rows at a time.  theta and b
        are formatted by ``_float_text`` per chunk; a is formatted whole
        once, since W22's chunk reads a's text at the reflected rows."""
        a_re, a_im = _float_text(self.a.real), _float_text(self.a.imag)
        w22_re, w22_im = a_re[:1] + a_re[:0:-1], a_im[:1] + a_im[:0:-1]   # (-k) mod g
        for start in range(0, len(self.theta), GRID_CHUNK):
            rows = slice(start, start + GRID_CHUNK)
            theta, b_re, b_im = map(_float_text, (
                self.theta[rows], self.b.real[rows], self.b.imag[rows]))
            yield [theta, a_re[rows], a_im[rows], b_re, b_im, b_re, _negated(b_im),
                   w22_re[rows], w22_im[rows]]

    def json_pieces(self) -> Iterator[str]:
        """The JSON list of the rows, a chunk of rows per piece."""
        yield "["
        for n, columns in enumerate(self.text_chunks()):
            yield (", " if n else "") + ", ".join(map(_GRID_ROW.__mod__, zip(*columns)))
        yield "]"

    def csv_pieces(self) -> Iterator[str]:
        """The CSV table of the rows, its header first, a chunk of rows per piece."""
        yield ",".join(GRID_COLUMNS) + "\n"
        for columns in self.text_chunks():
            yield "".join(map(_GRID_CSV_ROW.__mod__, zip(*columns)))


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

def _quaternion_columns(quaternions: list) -> list[np.ndarray]:
    """The w, x, y, z columns of a list of quaternions (w, x, y, z)."""
    return list(np.array(quaternions, dtype=float).reshape(-1, 4).T)


def _zeros_csv(result: dict) -> str:
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


def _sv_csv(result: dict) -> str:
    return emit_csv(["n", "partial_product", "gap"], [
        range(len(result["partial_products"])),
        np.array(result["partial_products"], dtype=float),
        np.array(result["gap_history"], dtype=float)])


def _baxter_csv(result: dict) -> str:
    return emit_csv(["n", "gamma_modulus", "l1_partial_sum"], [
        range(len(result["gamma_moduli"])),
        np.array(result["gamma_moduli"], dtype=float),
        np.array(result["gamma_l1_partial"], dtype=float)])


def _grid_csv(result: dict) -> str:
    return "".join(result["rows"].csv_pieces())


def _moments_csv(result: dict) -> str:
    return emit_csv(["n", "w", "x", "y", "z"], [
        [n for n, _ in result["moments"]],
        *_quaternion_columns([q for _, q in result["moments"]])])


def _gammas_csv(result: dict) -> str:
    return emit_csv(["n", "w", "x", "y", "z"], [
        range(len(result["gammas"])), *_quaternion_columns(result["gammas"])])


def csv_view(command: str, payload: dict) -> str:
    """The CSV view of a report of a command that has one (``_Command.csv``),
    built column by column."""
    return _COMMANDS[command].csv(payload["result"])


# --------------------------------- driver ----------------------------------

@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler, the arguments it takes besides ``--frame``
    and ``--out``, by their names in ``_ARGUMENTS``, and the CSV view of its
    result, None for a command without one.  A command with a view takes
    ``--format``."""

    run: Callable[[argparse.Namespace, Fixture], dict]
    arguments: tuple[str, ...]
    csv: Callable[[dict], str] | None = None


_COMMANDS = {
    "moments-to-verblunsky": _Command(cmd_moments_to_verblunsky,
                                      ("input", "--n", "--tol-route", "--tol-pd"),
                                      _gammas_csv),
    "verblunsky-to-moments": _Command(cmd_verblunsky_to_moments, ("input", "--n"),
                                      _moments_csv),
    "orthopolys": _Command(cmd_orthopolys, ("input", "--n", "--tol-pd")),
    "zeros": _Command(cmd_zeros, ("input", "--n", "--tol-route", "--tol-pd"), _zeros_csv),
    "cd": _Command(cmd_cd, ("input", "--n", "--seed", "--tol-pd", "--samples")),
    "sv": _Command(cmd_sv, ("input", "--n", "--tol-route", "--tol-pd"), _sv_csv),
    "baxter": _Command(cmd_baxter, ("input", "--n"), _baxter_csv),
    "grid": _Command(cmd_grid, ("input", "--grid"), _grid_csv),
    "random-gamma": _Command(cmd_random_gamma, ("--n", "--seed", "--rmax")),
}

# every argument a command can take: its add_argument keywords
_ARGUMENTS = {
    "input": dict(nargs="?", help="fixture JSON path"),
    "--n": dict(type=int, default=8, help="horizon / max degree"),
    "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    "--tol-route": dict(type=float, default=ROUTE_TOL,
                        help="cross-route agreement tolerance"),
    "--tol-pd": dict(type=float, default=PIVOT_TOL,
                     help="positive-definiteness pivot tolerance"),
    "--samples": dict(type=int, default=100, help="sampled points of the CD check"),
    "--grid": dict(type=int, default=2048, help="grid points"),
    "--rmax": dict(type=float, default=0.8, help="radii drawn from [0.05, rmax)"),
    "--frame": dict(default=None, help="frame JSON override, or 'standard'"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError(message) where argparse
    would print the usage to stderr and exit 2: an unknown flag, a value
    that does not parse, a missing argument or command, a bad choice.  Its
    subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _usage(prog: str, arguments) -> str:
    """The usage line of a command that takes ``arguments``, as argparse
    writes it with ``input`` required, which it is (``main``)."""
    shown = argparse.ArgumentParser(prog=prog, allow_abbrev=False)
    for argument in arguments:
        kwargs = _ARGUMENTS[argument]
        shown.add_argument(argument, **({"help": kwargs["help"]} if argument == "input"
                                        else kwargs))
    return shown.format_usage().removeprefix("usage: ").rstrip("\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; flags are taken only as declared, never
    abbreviated.  The command and ``input`` are optional to it, so that a
    line with an unknown flag is rejected for that flag; ``main`` requires
    them, and each command's usage line shows its input as required."""
    parser = _Parser(prog="qopuc", allow_abbrev=False,
                     description="Orthogonal polynomials on the quaternionic unit sphere")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        arguments = (*command.arguments, "--frame", "--out",
                     *(("--format",) if command.csv else ()))
        p = sub.add_parser(name, allow_abbrev=False,
                           usage=_usage(f"{parser.prog} {name}", arguments))
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; building it costs about 3 ms per call."""
    return build_parser()


def _run(args) -> tuple[int, Iterable[str]]:
    """The exit code and the text of one parsed command line, as a sequence
    of pieces to write in turn.  Every report is one piece but a grid
    report's, whose rows are formatted a chunk at a time as they are written
    (``GRID_CHUNK``): held whole, its Python text would take about 1.1 KB
    per row, 290 MB at 2^18 points."""
    try:
        _require_flags(args)
        # parsed once, None without the flag; a fixture is loaded once, and
        # its commands and the envelope read its record, which holds only the
        # job's frame for a command without an input
        override = parse_frame(args.frame)
        fix = (load_fixture(args.input, override) if "input" in args
               else Fixture(override or SliceFrame.standard()))
        result = _COMMANDS[args.command].run(args, fix)
    except RouteMismatch as exc:
        return EXIT_CROSS_CHECK, (_error_text(exc),)
    except NoConvergence as exc:
        return EXIT_NO_CONVERGENCE, (_error_text(exc),)
    except (*_INVALID_INPUT_ERRORS, ValueError, KeyError, OSError) as exc:
        return EXIT_INVALID_INPUT, (_error_text(exc),)
    except MemoryError as exc:   # numpy's private subclass, reported as the builtin
        return EXIT_INVALID_INPUT, (_error_text(MemoryError(str(exc))),)
    payload = _envelope(args, fix, result)
    csv = getattr(args, "format", None) == "csv"
    rows = result.get("rows")
    if not isinstance(rows, _GridRows):
        return EXIT_OK, (csv_view(args.command, payload) if csv else emit_json(payload) + "\n",)
    return EXIT_OK, rows.csv_pieces() if csv else itertools.chain(_json_pieces(payload), "\n")


def _error_text(exc: Exception) -> str:
    """The error report: type, message and any typed field the error carries."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    error.update((key, value) for key in ("residual", "order", "index")
                 if (value := getattr(exc, key, None)) is not None)
    return emit_json({"error": error}) + "\n"


def main(argv=None) -> int:
    """Run one command line and write its report piece by piece (``_run``)
    to ``--out`` or stdout.  A line the parser rejects, which names no
    ``--out`` yet, and an ``--out`` that cannot be written put their error
    on stdout, with exit 2; only ``--help`` exits through argparse.  A
    missing command or input is named once no unknown argument is left."""
    try:
        args = _parser().parse_args(argv)
        for name in ("command", "input"):
            if getattr(args, name, "") is None:
                raise ValueError(f"the following arguments are required: {name}")
    except ValueError as exc:
        sys.stdout.write(_error_text(exc))
        return EXIT_INVALID_INPUT
    code, pieces = _run(args)
    if not args.out:
        sys.stdout.writelines(pieces)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        sys.stdout.write(_error_text(exc))
        return EXIT_INVALID_INPUT
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
