"""Command-line interface: fixtures in, JSON/CSV reports out.

Each command is declared once (``_COMMANDS``): the handler that runs it,
the arguments it takes besides ``--frame`` and ``--out``, which every
command takes, and its CSV view, if it has one; only a command with a view
takes ``--format``.  Its one parser, its report's ``config`` and its schema
follow from that declaration.  A command takes only the flags its handler
reads, each spelled out in full; any other flag is an unknown argument.
Every report embeds each flag its command takes, the seed and the library
version, prints floats with 17 significant digits, and keeps key order
fixed, so identical configurations reproduce byte-identical output.

Exit codes: 0 ok, 3 a RouteMismatch (an internal cross-check), 4
NoConvergence, 2 every other library error (``QopucError``) and every other
invalid input (a command line the parser rejects, a malformed fixture, a
density beyond float64 on a grid, an input too large to allocate, an output
that cannot be written).  Every error is one JSON report that names its
type and message: all that can fail, but a grid chunk's text, runs before a
report's first piece is written (``_run``).  Any other exception, a
KeyError say, is a fault of qopuc, not of its input, and escapes ``main``.
A stdout closed by its reader ends the run with exit 2.

One loader per job reads and checks the fixture once, in one reader
(``_validate_fixture``), and resolves the frame the job runs in
(``load_fixture``).  Report tables are built by column: each distinct
float of a float column is formatted once (``_float_text``).  A report is
written as a sequence of text pieces, and every report is one piece but a
``grid`` report's: its rows grow with ``--grid`` (about 290 bytes of JSON
each, 2^18 points make 75 MB), so they are formatted and written
``GRID_CHUNK`` rows at a time, W21 and W22 from the text of W12 and W11
(``_GridRows``), filling one JSON row template or one CSV row template,
and the text held at once is one chunk of rows plus W11's two text
columns.  The JSON envelope around the rows is written key by key with
``emit_json`` (``_json_pieces``), so a report's bytes do not depend on how
it is written; ``emit_json`` writes only the types a report holds, no
numpy scalar, tuple or non-str key.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .analysis import baxter_check, cd_identity_check, sv_check, szego_entropy
from .errors import HorizonExceeded, NoConvergence, QopucError, RouteMismatch
from .fixtures import random_gamma_seq
from .measures import PIVOT_TOL, PSD_GRID, MomentSequence, QPositiveDensity, moments_from_density
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


# ------------------------- deterministic JSON ------------------------------

_INF = float("inf")


def emit_json(obj) -> str:
    """Fixed-order JSON with 17-significant-digit floats, of what a report
    holds: a float, int, str, bool or None, a list, and a dict with str keys;
    anything else, a numpy scalar or a tuple too, is a TypeError.

    Exact floats take a fast path, inline in lists and dicts too; strings
    and keys come out as json.dumps writes them.  A grid report's rows
    (``_GridRows``) are written by ``_GridRows.pieces``, around the text of
    ``_json_pieces``.
    """
    if type(obj) is float:
        if -_INF < obj < _INF:
            return format(obj, ".17g")
        if obj != obj:
            raise ValueError("NaN is not representable in report JSON")
        return '"inf"' if obj > 0 else '"-inf"'
    if isinstance(obj, dict):
        return "{" + ", ".join([
            encode_basestring_ascii(k) + ": "
            + (format(v, ".17g") if type(v) is float and -_INF < v < _INF else emit_json(v))
            for k, v in obj.items()]) + "}"
    if isinstance(obj, list):
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
    if isinstance(obj, int):
        return str(int(obj))
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _json_pieces(obj) -> Iterator:
    """The text of ``emit_json(obj)`` in pieces, for a report that holds a
    grid report's rows (``_GridRows``): its dicts are written key by key,
    every other value is one ``emit_json`` piece, and the rows are a piece
    of their own, the ``_GridRows`` itself, which ``_run`` writes around."""
    if isinstance(obj, dict):
        yield "{"
        for n, (key, value) in enumerate(obj.items()):
            yield (", " if n else "") + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(value)
        yield "}"
    else:
        yield obj if isinstance(obj, _GridRows) else emit_json(obj)


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
    ``_float_text``, the cells of any other column (ints, strings) with str.
    A NaN is rejected, as in JSON."""
    if any(isinstance(c, np.ndarray) and np.isnan(c).any() for c in columns):
        raise ValueError("NaN is not representable in report CSV")
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


def _require_new_index(read: dict, n: int, value, field: str) -> None:
    """read[n] = value; ValueError naming ``field`` if n was read before: the
    map would keep the later entry and drop the earlier one silently."""
    if n in read:
        raise ValueError(f"{field} repeats index {n}")
    read[n] = value


def _validate_frame(obj, field: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object with keys i and j")
    for key in ("i", "j"):
        _require_numbers(obj.get(key), 4, f"{field}.{key}")


_FIXTURE_KINDS = {"moments": "moments", "w1": "density", "w2": "density", "gammas": "gammas"}


def _validate_fixture(obj) -> tuple[str | None, dict]:
    """The one reader of a fixture's fields, each checked for shape and
    finiteness, as (kind, read): the kind "moments", "density" (a w1 or a w2
    key), "gammas" or None, and ``read``'s ``w1``/``w2`` {n: complex} maps,
    ``moments`` {n: [w, x, y, z]} map and ``gammas`` list."""
    if not isinstance(obj, dict):
        raise ValueError("fixture must be a JSON object")
    if "frame" in obj:
        _validate_frame(obj["frame"], "frame")
    read = {"gammas": _require_list(obj, "gammas"), "w1": {}, "w2": {}, "moments": {}}
    for k, g in enumerate(read["gammas"]):
        _require_numbers(g, 4, f"gammas[{k}]")
    for key in ("w1", "w2"):
        for k, entry in enumerate(_require_list(obj, key)):
            _require_numbers(entry, 3, f"{key}[{k}]")
            if not isinstance(entry[0], int):
                raise ValueError(f"{key}[{k}] index must be an integer, got {entry[0]!r}")
            if abs(entry[0]) >= 2 ** 63:
                raise ValueError(f"{key}[{k}] index must be below 2**63 in magnitude, "
                                 f"got {entry[0]}")
            _require_new_index(read[key], entry[0], complex(entry[1], entry[2]),
                               f"{key}[{k}]")
    for k, entry in enumerate(_require_list(obj, "moments")):
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], int) and not isinstance(entry[0], bool)):
            raise ValueError(f"moments[{k}] must be [index, quaternion], got {entry!r}")
        _require_numbers(entry[1], 4, f"moments[{k}][1]")
        _require_new_index(read["moments"], entry[0], entry[1], f"moments[{k}]")
    found = [key for key in _FIXTURE_KINDS if key in obj]
    kinds = {_FIXTURE_KINDS[key] for key in found}
    if len(kinds) > 1:   # commands would read such a fixture differently
        raise ValueError(f"fixture holds more than one of moments, w1/w2 and gammas "
                         f"(found {', '.join(found)})")
    kind = kinds.pop() if kinds else None
    if kind == "density" and "frame" not in obj:
        raise ValueError("frame is missing: a density fixture (w1/w2 keys) needs "
                         "a frame object with keys i and j")
    return kind, read


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
    """The fixture at ``path``, read once (``_validate_fixture``), for a job
    in ``override``, else in the fixture's ``frame``, else in the standard
    frame.  A ``random-gamma`` report is read as its ``result``.  The
    fixture's own frame is built, and so checked, under an override too.  A
    density's maps are read in its own frame, and the density is built once,
    in the job's."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = _parse_json(fh.read(), "fixture")
    if isinstance(obj, dict) and obj.get("command") == "random-gamma":
        obj = obj.get("result")   # a random-gamma report: its result is the fixture
    kind, read = _validate_fixture(obj)
    own = fixture_frame(obj)   # a density always has one
    frame = override or own or SliceFrame.standard()
    if kind == "density":
        return Fixture(frame, density=QPositiveDensity.from_maps(own, read["w1"], read["w2"],
                                                                 frame))
    if kind == "moments":
        return Fixture(frame, moments=read["moments"])
    if kind == "gammas":
        return Fixture(frame, gammas=VerblunskySeq(read["gammas"]))
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

# each numeric flag's range, checked in this order: a test and its wording
_FLAG_RANGES = {
    "--n": (lambda v: v >= 1, "at least 1"),
    "--samples": (lambda v: v >= 1, "at least 1"),
    "--grid": (lambda v: v >= 1, "at least 1"),
    "--seed": (lambda v: v >= 0, "at least 0"),
    "--tol-route": (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "--tol-pd": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    "--rmax": (lambda v: 0.05 <= v < 1, "finite and in [0.05, 1)"),
}


def _require_flags(args) -> None:
    """ValueError naming the first flag of ``args`` out of its range."""
    for flag, (ok, wording) in _FLAG_RANGES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not ok(value):
            raise ValueError(f"{flag} must be {wording}, got {value}")


def _envelope(args, fix: Fixture, result: dict) -> dict:
    """The report of a job, which echoes every flag its command takes: the
    seed at the top, the rest in ``config``: six keys, each null where the
    command does not take the flag, then every other flag it takes but
    ``--out``.  ``format`` is the report's, json without ``--format``."""
    config = {
        "input": getattr(args, "input", None),
        "n": getattr(args, "n", None),
        "frame": fix.frame.to_json(),
        "tol_route": getattr(args, "tol_route", None),
        "tol_pd": getattr(args, "tol_pd", None),
        "format": getattr(args, "format", "json"),
    }
    config.update((key, value) for key, value in vars(args).items()
                  if key not in config and key not in ("command", "seed", "out"))
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
# one row of a grid report in JSON, the fields in GRID_COLUMNS order, and
# the head, row, separator and tail of a CSV grid report (``_GridRows.pieces``)
_GRID_ROW = "{" + ", ".join(f"{encode_basestring_ascii(h)}: %s" for h in GRID_COLUMNS) + "}"
_GRID_CSV = (",".join(GRID_COLUMNS) + "\n", ",".join(["%s"] * len(GRID_COLUMNS)) + "\n", "", "")
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

    def pieces(self, head: str, row: str, sep: str, tail: str) -> Iterator[str]:
        """``head``, the rows, each ``row`` % its GRID_COLUMNS text and
        ``sep`` between two, then ``tail``, GRID_CHUNK rows per piece.  a is
        formatted whole by this call, before the first piece, since W22's
        chunk reads a's text at the reflected rows; theta and b are formatted
        by ``_float_text`` per chunk, as the pieces are read."""
        a_re, a_im = _float_text(self.a.real), _float_text(self.a.imag)
        w22_re, w22_im = a_re[:1] + a_re[:0:-1], a_im[:1] + a_im[:0:-1]   # (-k) mod g

        def chunks():
            yield head
            for start in range(0, len(self.theta), GRID_CHUNK):
                rows = slice(start, start + GRID_CHUNK)
                theta, b_re, b_im = map(_float_text, (
                    self.theta[rows], self.b.real[rows], self.b.imag[rows]))
                columns = [theta, a_re[rows], a_im[rows], b_re, b_im, b_re, _negated(b_im),
                           w22_re[rows], w22_im[rows]]
                yield (sep if start else "") + sep.join(map(row.__mod__, zip(*columns)))
            yield tail
        return chunks()


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


def _grid_csv(result: dict) -> Iterable[str]:
    return result["rows"].pieces(*_GRID_CSV)


def _moments_csv(result: dict) -> str:
    return emit_csv(["n", "w", "x", "y", "z"], [
        [n for n, _ in result["moments"]],
        *_quaternion_columns([q for _, q in result["moments"]])])


def _gammas_csv(result: dict) -> str:
    return emit_csv(["n", "w", "x", "y", "z"], [
        range(len(result["gammas"])), *_quaternion_columns(result["gammas"])])


def csv_view(command: str, payload: dict) -> Iterable[str]:
    """The CSV view of a report of a command that has one (``_Command.csv``),
    built column by column, as pieces to write in turn: one, the view's
    text, but a grid report's chunks (``_grid_csv``)."""
    text = _COMMANDS[command].csv(payload["result"])
    return (text,) if isinstance(text, str) else text


# --------------------------------- driver ----------------------------------

@dataclass(frozen=True)
class _Command:
    """A subcommand, the one statement of its interface, which its parser,
    its config echo and its schema follow: its handler, the arguments it
    takes besides ``--frame`` and ``--out``, by their names in
    ``_ARGUMENTS``, and the CSV view of its result (text or pieces), None
    for a command without one.  A command with a view takes ``--format``."""

    run: Callable[[argparse.Namespace, Fixture], dict]
    arguments: tuple[str, ...]
    csv: Callable[[dict], str | Iterable[str]] | None = None


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
    "input": dict(help="fixture JSON path"),
    "--n": dict(type=int, default=8, help="horizon / max degree"),
    "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    "--tol-route": dict(type=float, default=ROUTE_TOL,
                        help="cross-route agreement tolerance"),
    "--tol-pd": dict(type=float, default=PIVOT_TOL,
                     help="positive-definiteness pivot tolerance"),
    "--samples": dict(type=int, default=100, help="sampled points of the CD check"),
    "--grid": dict(type=int, default=PSD_GRID, help="grid points"),
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


def build_parser() -> argparse.ArgumentParser:
    """One parser per command, as ``_COMMANDS`` declares it, its flags never
    abbreviated.  ``input`` is declared required, as the usage line shows,
    then made optional, as the command is, so that an unknown flag is named
    before a missing input; ``main`` requires both."""
    parser = _Parser(prog="qopuc", allow_abbrev=False,
                     description="Orthogonal polynomials on the quaternionic unit sphere")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for argument in (*command.arguments, "--frame", "--out",
                         *(("--format",) if command.csv else ())):
            p.add_argument(argument, **_ARGUMENTS[argument]).required = False
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; building it costs about 2 ms per call."""
    return build_parser()


def _run(args) -> tuple[int, Iterable[str]]:
    """The exit code and the text of one parsed command line, as a sequence
    of pieces to write in turn.  All that can fail runs here, before a piece
    is written, but a grid report's rows: every report is one piece but a
    grid report's, whose rows are formatted a chunk at a time as they are
    written (``GRID_CHUNK``), from W11's text made here; held whole, its
    Python text would take about 1.1 KB per row, 290 MB at 2^18 points.
    A CSV report is written as ``csv_view`` hands it on."""
    try:
        _require_flags(args)
        # parsed once, None without the flag; a fixture is loaded once, and
        # its commands and the envelope read its record, which holds only the
        # job's frame for a command without an input
        override = parse_frame(args.frame)
        fix = (load_fixture(args.input, override) if "input" in args
               else Fixture(override or SliceFrame.standard()))
        result = _COMMANDS[args.command].run(args, fix)
        payload = _envelope(args, fix, result)
        if getattr(args, "format", None) == "csv":
            return EXIT_OK, csv_view(args.command, payload)
        rows = result.get("rows")
        if not isinstance(rows, _GridRows):
            return EXIT_OK, (emit_json(payload) + "\n",)
        envelope = list(_json_pieces(payload))
        at = envelope.index(rows)   # found by identity
        return EXIT_OK, rows.pieces("".join(envelope[:at]) + "[", _GRID_ROW, ", ",
                                    "]" + "".join(envelope[at + 1:]) + "\n")
    except RouteMismatch as exc:
        return EXIT_CROSS_CHECK, (_error_text(exc),)
    except NoConvergence as exc:
        return EXIT_NO_CONVERGENCE, (_error_text(exc),)
    except (QopucError, ValueError, OSError) as exc:
        return EXIT_INVALID_INPUT, (_error_text(exc),)
    except MemoryError as exc:   # numpy's private subclass, reported as the builtin
        return EXIT_INVALID_INPUT, (_error_text(MemoryError(str(exc))),)


def _error_text(exc: Exception) -> str:
    """The error report: type, message and any typed field the error carries."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    error.update((key, value) for key in ("residual", "order", "index")
                 if (value := getattr(exc, key, None)) is not None)
    return emit_json({"error": error}) + "\n"


def _write_stdout(pieces: Iterable[str]) -> bool:
    """Write to stdout; False if its reader has closed it, which then points
    at os.devnull, so that the interpreter's last flush is quiet too."""
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False


def main(argv=None) -> int:
    """Run one command line and write its report piece by piece (``_run``)
    to ``--out`` or stdout.  A line the parser rejects, which names no
    ``--out`` yet, and an ``--out`` that cannot be written put their error
    on stdout, with exit 2; a stdout closed by its reader ends the write
    with exit 2 and no message.  Only ``--help`` exits through argparse.  A
    missing command or input is named once no unknown argument is left."""
    try:
        args = _parser().parse_args(argv)
        for name in ("command", "input"):
            if getattr(args, name, "") is None:
                raise ValueError(f"the following arguments are required: {name}")
    except ValueError as exc:
        _write_stdout((_error_text(exc),))
        return EXIT_INVALID_INPUT
    code, pieces = _run(args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
            return code
        except OSError as exc:
            code, pieces = EXIT_INVALID_INPUT, (_error_text(exc),)
    return code if _write_stdout(pieces) else EXIT_INVALID_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
