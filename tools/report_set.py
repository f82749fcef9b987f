"""Write the qopuc CLI report set of one source tree, for byte-identity checks.

Usage:

    python tools/report_set.py --src SRC --out DIR

SRC is the directory that holds the ``qopuc`` package (``src`` of a
checkout).  Every report of the set runs in-process against that package;
DIR receives ``fixtures/`` (the shipped fixtures and the ones the set
generates), ``outputs/`` (the files of the runs with ``--out``) and
``reports/``, one file per report whose first line is ``exit <code>``
(``raised <type>`` for an exception that escaped ``qopuc.cli.main``, a
``SystemExit`` too but argparse's exit 0 after a ``--help``), followed by
the report text: what ``main`` printed, then, for a run with ``--out``, the
text of the file it wrote.  Every exit-0 JSON report is validated against
its command's schema in ``SRC/qopuc/schemas``; the tool lists the reports
that fail and exits 1.  Commands run with DIR as the working directory and
name fixtures by relative path, so the envelopes do not depend on DIR, and
with ``COLUMNS=80``, so argparse wraps every help text at the same width.
Comparing two trees is then

    python tools/report_set.py --src parent/src --out /tmp/a
    python tools/report_set.py --src src --out /tmp/b
    diff -r /tmp/a /tmp/b

The set is what ``report_set()`` yields and what ``make_fixtures()``
runs to generate its fixtures; a comment on each case says what it
covers.  The tool prints one summary line, the number of reports and the
count of each exit line, then any schema failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import jsonschema
import numpy as np

REPO = Path(__file__).resolve().parent.parent
DENSITIES = ("bernstein_szego_05", "lebesgue", "smooth_trig", "vanishing_density")
GAMMA_SEEDS = (1017, 2017, 3017, 4017, 5017, 6017)
FRAME_SEEDS = (1, 2, 3, 4, 5)
CD_RUNS = ((1, 0), (1, 7), (100, 0), (100, 7), (333, 123))
# grid sizes at the seams of a grid report's 256-row chunks: one short of a
# chunk, one chunk, one row past it, and two chunks and a row
GRID_SEAMS = (255, 256, 257, 513)
COMMANDS = ("moments-to-verblunsky", "verblunsky-to-moments", "orthopolys", "zeros", "cd",
            "sv", "baxter", "grid", "random-gamma")


MALFORMED = {
    "gammas_not_a_list": {"gammas": 5},
    "frame_not_an_object": {"frame": 3, "gammas": []},
    "fixture_not_an_object": [],
    "w1_index_not_an_integer": {"w1": [[0, 1.0, 0.0], [1.5, 0.1, 0.0]]},
    "moment_entry_short": {"moments": [[0, [1.0, 0.0, 0.0, 0.0]], [1]]},
}


def random_frame(seed: int) -> str:
    """A frame as --frame JSON: Gram-Schmidt on two Gaussian 3-vectors."""
    rng = np.random.default_rng(seed)
    v1 = rng.normal(size=3)
    v1 /= np.linalg.norm(v1)
    v2 = rng.normal(size=3)
    v2 -= np.dot(v1, v2) * v1
    v2 /= np.linalg.norm(v2)
    return json.dumps({"i": [0.0, *v1.tolist()], "j": [0.0, *v2.tolist()]})


def run(main, argv) -> str:
    """The exit line and what main printed, then, for a line with --out, the
    bytes of the file it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            head = f"exit {main(argv)}"
        except (Exception, SystemExit) as exc:  # a traceback is a finding, not a stop
            helped = isinstance(exc, SystemExit) and exc.code == 0 and "--help" in argv
            head = "exit 0" if helped else f"raised {type(exc).__name__}: {exc}"
    written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    tail = written.read_bytes().decode("utf-8") if written and written.exists() else ""
    return head + "\n" + out.getvalue() + tail


def report_set(frames: dict[str, str]):
    """(name, argv) pairs of the set that needs no generated fixture data."""
    fixtures = [f"fixtures/{name}.json" for name in
                ("bernstein_szego_05", "lebesgue", "random_gamma_7", "smooth_trig",
                 "vanishing_density")]
    fixtures += [f"fixtures/random_gamma_{seed}.json" for seed in GAMMA_SEEDS]
    # every command at small n on every shipped and seeded fixture: the
    # everyday reports, in both formats, in the standard and five seeded frames
    for path in fixtures:
        stem = Path(path).stem
        for n in range(1, 11):
            yield f"{stem}.zeros.n{n}", ["zeros", path, "--n", str(n)]
        yield f"{stem}.zeros.n6.csv", ["zeros", path, "--n", "6", "--format", "csv"]
        for n in range(1, 12):
            for samples, seed in CD_RUNS:
                yield (f"{stem}.cd.n{n}.s{samples}.seed{seed}",
                       ["cd", path, "--n", str(n), "--samples", str(samples),
                        "--seed", str(seed)])
        for fmt in ("json", "csv"):
            for grid in (1, 7, 2048, 4096):
                yield (f"{stem}.grid.g{grid}.{fmt}",
                       ["grid", path, "--grid", str(grid), "--format", fmt])
            for command, n in (("sv", 20), ("baxter", 50), ("moments-to-verblunsky", 6)):
                yield f"{stem}.{command}.n{n}.{fmt}", [command, path, "--n", str(n),
                                                       "--format", fmt]
        for command, n in (("orthopolys", 8), ("orthopolys", 13),
                           ("moments-to-verblunsky", 13), ("verblunsky-to-moments", 6)):
            yield f"{stem}.{command}.n{n}.json", [command, path, "--n", str(n)]
        for fname, spec in frames.items():
            for n in range(1, 11):
                for command in ("zeros", "orthopolys"):
                    yield (f"{stem}.{command}.n{n}.{fname}",
                           [command, path, "--n", str(n), "--frame", spec])
            for command in ("moments-to-verblunsky", "verblunsky-to-moments"):
                yield (f"{stem}.{command}.n6.{fname}",
                       [command, path, "--n", "6", "--frame", spec])
    # the four densities at the horizons and grid sizes where the code
    # changes path
    for density in DENSITIES:
        path = f"fixtures/{density}.json"
        for fmt in ("json", "csv"):
            for n in (100, 200, 400):   # n = 50 is in the per-fixture set
                yield f"{density}.baxter.n{n}.{fmt}", ["baxter", path, "--n", str(n),
                                                       "--format", fmt]
            for grid in (2, 3):   # the smallest even and odd reflections k -> -k
                yield (f"{density}.grid.g{grid}.{fmt}",
                       ["grid", path, "--grid", str(grid), "--format", fmt])
            for grid in GRID_SEAMS:
                yield (f"{density}.grid.g{grid}.{fmt}",
                       ["grid", path, "--grid", str(grid), "--format", fmt])
        for n in (12, 25, 40):   # both Verblunsky routes at the benchmark's horizons
            for command in ("moments-to-verblunsky", "sv"):
                yield f"{density}.{command}.n{n}.json", [command, path, "--n", str(n)]
        for n in (20, 30):   # root batches up to degree 60, companions up to size 30
            yield f"{density}.zeros.n{n}", ["zeros", path, "--n", str(n)]
        for n in (100, 200, 400):   # route A's long horizons
            yield (f"{density}.moments-to-verblunsky.n{n}.json",
                   ["moments-to-verblunsky", path, "--n", str(n)])
        for n in (1, 2, 3):   # route A's first steps and its last step's early exit
            for command in ("baxter", "moments-to-verblunsky"):
                yield f"{density}.{command}.n{n}.json", [command, path, "--n", str(n)]
        for fname, spec in frames.items():   # the density commands in seeded frames
            for name, argv in (("grid.g7", ["grid", "--grid", "7"]),
                               ("grid.g2048", ["grid", "--grid", "2048"]),
                               ("sv.n20", ["sv", "--n", "20"]),
                               ("baxter.n50", ["baxter", "--n", "50"]),
                               ("baxter.n200", ["baxter", "--n", "200"]),
                               ("moments-to-verblunsky.n40",
                                ["moments-to-verblunsky", "--n", "40"])):
                yield (f"{density}.{name}.{fname}",
                       [argv[0], path, *argv[1:], "--frame", spec])
    # the forward map on Bernstein-Szego's gammas and on seeded rmax-0.8 ones
    for stem in ["bernstein_gammas"] + [f"gammas80_{seed}" for seed in GAMMA_SEEDS[:3]]:
        for fmt in ("json", "csv"):
            for k in (20, 40, 80):
                yield (f"{stem}.verblunsky-to-moments.n{k}.{fmt}",
                       ["verblunsky-to-moments", f"fixtures/{stem}.json", "--n", str(k),
                        "--format", fmt])
    for k in (1, 2, 3, 200, 400):   # the forward map's first and last waves
        yield (f"gammas400_1017.verblunsky-to-moments.n{k}",
               ["verblunsky-to-moments", "fixtures/gammas400_1017.json", "--n", str(k)])
    # ill-conditioned moments whose route-B bits decide a RouteMismatch, and
    # route B's full rows on them
    for seed in GAMMA_SEEDS[:3]:
        for n in (12, 25, 40):
            yield (f"gammas40_{seed}.moments-to-verblunsky.n{n}",
                   ["moments-to-verblunsky", f"fixtures/gammas40_{seed}.json", "--n", str(n)])
        yield (f"gammas40_{seed}.orthopolys.n40",
               ["orthopolys", f"fixtures/gammas40_{seed}.json", "--n", "40"])
    for stem in ("smooth_trig", f"random_gamma_{GAMMA_SEEDS[0]}"):   # past nine CD blocks
        yield (f"{stem}.cd.n11.s2500.seed0",
               ["cd", f"fixtures/{stem}.json", "--n", "11", "--samples", "2500"])
    # route B's full rows on a density with a j-part
    yield "smooth_trig.orthopolys.n40", ["orthopolys", "fixtures/smooth_trig.json", "--n", "40"]
    # moment fixtures: as given, with negative indices, with a broken
    # Hermitian symmetry and not positive definite
    for stem in ("moments_rg7", "moments_rg7_negative", "moments_asymmetric",
                 "moments_not_pd"):
        path = f"fixtures/{stem}.json"
        for n in (6, 12):
            yield (f"{stem}.moments-to-verblunsky.n{n}",
                   ["moments-to-verblunsky", path, "--n", str(n)])
        for command in ("orthopolys", "zeros", "cd"):
            yield f"{stem}.{command}.n5", [command, path, "--n", "5"]
    # a measure with an atom: gamma_n = 1 / (n + 2), and route A at N = 200
    for command, n in (("moments-to-verblunsky", 200), ("orthopolys", 8), ("zeros", 8)):
        yield (f"atom_lebesgue.{command}.n{n}",
               [command, "fixtures/atom_lebesgue.json", "--n", str(n)])
    for n in (2, 3, 4, 5, 40):   # K = 3: N below, at and past K + 1
        yield (f"banded_moments.moments-to-verblunsky.n{n}",
               ["moments-to-verblunsky", "fixtures/banded_moments.json", "--n", str(n)])
    # the fixture-kind checks: a repeated index, a density of w2 alone, and a
    # fixture of two kinds
    for stem in ("repeated_w1", "repeated_moments", "w2_only", "w2_only_noframe",
                 "mixed_density_moments"):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.moments-to-verblunsky.n1", ["moments-to-verblunsky", path, "--n", "1"]
        yield f"{stem}.grid.g7", ["grid", path, "--grid", "7"]
        yield f"{stem}.sv.n1", ["sv", path, "--n", "1"]
    # inputs at the loader's edges: a symmetry inside its tolerance, indices
    # no dense array can hold, no moments, a frame of the fixture's own
    for stem in ("near_symmetric", "far_index", "empty_moments", "smooth_trig_own_frame",
                 "far_moments"):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.moments-to-verblunsky.n6", ["moments-to-verblunsky", path, "--n", "6"]
        yield f"{stem}.sv.n6", ["sv", path, "--n", "6"]
        yield f"{stem}.grid.g7", ["grid", path, "--grid", "7"]
    # moments and coefficients read in a frame of their own
    for stem, command in (("moments_own_frame", "moments-to-verblunsky"),
                          ("gammas_own_frame", "verblunsky-to-moments")):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.{command}.n6", [command, path, "--n", "6"]
        yield f"{stem}.zeros.n4", ["zeros", path, "--n", "4"]
    # --frame standard overrides a fixture's own frame
    for stem, name, argv in (
            ("smooth_trig_own_frame", "moments-to-verblunsky.n6",
             ["moments-to-verblunsky", "--n", "6"]),
            ("smooth_trig_own_frame", "sv.n6", ["sv", "--n", "6"]),
            ("smooth_trig_own_frame", "grid.g7", ["grid", "--grid", "7"]),
            ("gammas_own_frame", "verblunsky-to-moments.n6", ["verblunsky-to-moments", "--n", "6"]),
            ("gammas_own_frame", "zeros.n4", ["zeros", "--n", "4"])):
        yield (f"{stem}.{name}.standard",
               [argv[0], f"fixtures/{stem}.json", *argv[1:], "--frame", "standard"])
    # |gamma_1| = 1 - 7e-13 fails the 1e-12 contraction margin, 1 - 2e-12 passes it
    for stem in ("gamma1_margin_fail", "gamma1_margin_pass"):
        path = f"fixtures/{stem}.json"
        for fmt in ("json", "csv"):
            yield (f"{stem}.verblunsky-to-moments.n3.{fmt}",
                   ["verblunsky-to-moments", path, "--n", "3", "--format", fmt])
        yield (f"{stem}.moments-to-verblunsky.n3",
               ["moments-to-verblunsky", path, "--n", "3"])
    # five malformed fixtures, each rejected by its own loader check
    for stem in MALFORMED:
        yield (f"{stem}.moments-to-verblunsky.n1",
               ["moments-to-verblunsky", f"fixtures/{stem}.json", "--n", "1"])
    # moduli beyond the float range, or whose square overflows (exit 2)
    for stem, name, argv in (
            ("w1_modulus_overflow", "grid.g7", ["grid", "--grid", "7"]),
            ("w1_modulus_overflow", "sv.n2", ["sv", "--n", "2"]),
            ("w2_modulus_overflow", "grid.g7", ["grid", "--grid", "7"]),
            ("w2_modulus_overflow", "sv.n2", ["sv", "--n", "2"]),
            ("hermitian_overflow", "moments-to-verblunsky.n1",
             ["moments-to-verblunsky", "--n", "1"]),
            ("hermitian_overflow", "orthopolys.n1", ["orthopolys", "--n", "1"]),
            ("hermitian_overflow", "zeros.n1", ["zeros", "--n", "1"]),
            ("gamma_norm_overflow", "verblunsky-to-moments.n1",
             ["verblunsky-to-moments", "--n", "1"]),
            ("gamma_norm_overflow", "moments-to-verblunsky.n1",
             ["moments-to-verblunsky", "--n", "1"]),
            ("c0_norm_overflow", "moments-to-verblunsky.n1",
             ["moments-to-verblunsky", "--n", "1"]),
            ("c0_norm_overflow", "orthopolys.n1", ["orthopolys", "--n", "1"])):
        yield f"{stem}.{name}", [argv[0], f"fixtures/{stem}.json", *argv[1:]]
    # c_0 = 2, rejected by every density command
    yield "unnormalised.grid.g7", ["grid", "fixtures/unnormalised.json", "--grid", "7"]
    yield "unnormalised.sv.n1", ["sv", "fixtures/unnormalised.json", "--n", "1"]
    yield "unnormalised.baxter.n4", ["baxter", "fixtures/unnormalised.json", "--n", "4"]
    # +-1e308 terms that cancel on the PSD grid and overflow on the 7-point one
    for fmt in ("json", "csv"):
        yield f"overflow.grid.g7.{fmt}", ["grid", "fixtures/overflow.json", "--grid", "7",
                                          "--format", fmt]
    for command in ("baxter", "sv"):
        yield f"overflow.{command}.n4", [command, "fixtures/overflow.json", "--n", "4"]
    # tolerances that turn a pass into a RouteMismatch or a rejection
    for name, argv in (("sv.n40.tol-route1e-40", ["sv", "--n", "40", "--tol-route", "1e-40"]),
                       ("sv.n8.tol-pd0.95", ["sv", "--n", "8", "--tol-pd", "0.95"]),
                       ("cd.n8.tol-pd0.95", ["cd", "--n", "8", "--tol-pd", "0.95"]),
                       ("zeros.n10.tol-route1e-40",
                        ["zeros", "--n", "10", "--tol-route", "1e-40"])):
        yield f"smooth_trig.{name}", [argv[0], "fixtures/smooth_trig.json", *argv[1:]]
    for seed in GAMMA_SEEDS:   # batches of roots up to degree 24
        yield (f"random_gamma_{seed}.zeros.n12",
               ["zeros", f"fixtures/random_gamma_{seed}.json", "--n", "12"])
    # random-gamma runs besides the ones that make fixtures
    for seed, n, rmax in ((0, 8, "0.8"), (11, 12, "0.8"), (5, 40, "0.95"), (3, 5, "0.5")):
        yield (f"random-gamma.seed{seed}.n{n}.rmax{rmax}",
               ["random-gamma", "--seed", str(seed), "--n", str(n), "--rmax", rmax])
    # past a horizon and past the coefficient count, and a missing file
    yield "random_gamma_7.orthopolys.n30", ["orthopolys", "fixtures/random_gamma_7.json",
                                            "--n", "30"]
    yield ("random_gamma_7.verblunsky-to-moments.n30",
           ["verblunsky-to-moments", "fixtures/random_gamma_7.json", "--n", "30"])
    yield "missing.zeros.n4", ["zeros", "fixtures/missing.json", "--n", "4"]
    # JSON nested deeper than the parser recurses and an integer beyond the
    # float range, in a fixture and in --frame
    yield "deep.moments-to-verblunsky.n2", ["moments-to-verblunsky", "fixtures/deep.json",
                                            "--n", "2"]
    yield "huge_gamma.verblunsky-to-moments.n1", ["verblunsky-to-moments",
                                                  "fixtures/huge_gamma.json", "--n", "1"]
    huge_frame = json.dumps({"i": [0, 10 ** 400, 0, 0], "j": [0, 0, 1, 0]})
    for name, spec in (("deep_frame", "[" * 100000), ("huge_frame", huge_frame)):
        yield f"random-gamma.{name}.n2", ["random-gamma", "--n", "2", "--frame", spec]
    # the three frame checks: i not purely imaginary, not a unit, i = j
    for name, i in (("imaginary_frame", [0.1, 1, 0, 0]), ("unit_frame", [0, 2, 0, 0]),
                    ("orthogonal_frame", [0, 0, 1, 0])):
        spec = json.dumps({"i": i, "j": [0, 0, 1, 0]})
        yield f"random-gamma.{name}.n2", ["random-gamma", "--n", "2", "--frame", spec]
    # a fixture's own frame is checked under --frame too
    for stem in ("gammas_bad_frame", "moments_bad_frame", "density_bad_frame"):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.moments-to-verblunsky.n1", ["moments-to-verblunsky", path, "--n", "1"]
        yield (f"{stem}.moments-to-verblunsky.n1.standard",
               ["moments-to-verblunsky", path, "--n", "1", "--frame", "standard"])
    # the density symmetry checks
    for stem in ("w1_asymmetric", "w2_asymmetric"):
        yield f"{stem}.grid.g4", ["grid", f"fixtures/{stem}.json", "--grid", "4"]
    # fewer moments than --n asks for
    yield ("short_moments.moments-to-verblunsky.n3",
           ["moments-to-verblunsky", "fixtures/short_moments.json", "--n", "3"])
    # a fixture with no data, and an index beyond int64
    for stem in ("empty_fixture", "w1_index_2_63"):
        yield (f"{stem}.moments-to-verblunsky.n1",
               ["moments-to-verblunsky", f"fixtures/{stem}.json", "--n", "1"])
    # the flag checks
    smooth = "fixtures/smooth_trig.json"
    for name, argv in (("n0", ["random-gamma", "--n", "0"]),
                       ("seed-1", ["random-gamma", "--n", "2", "--seed", "-1"]),
                       ("rmax1", ["random-gamma", "--n", "2", "--rmax", "1"]),
                       ("tol-route0", ["moments-to-verblunsky", smooth, "--n", "2",
                                       "--tol-route", "0"]),
                       ("tol-routenan", ["moments-to-verblunsky", smooth, "--n", "2",
                                         "--tol-route", "nan"]),
                       ("tol-pd-1", ["moments-to-verblunsky", smooth, "--n", "2",
                                     "--tol-pd", "-1"]),
                       ("orthopolys.csv", ["orthopolys", smooth, "--n", "2",
                                           "--format", "csv"])):
        yield f"flag.{name}", argv
    # reports written to --out, and a rejected flag whose error lands there
    for name, argv in (("grid.g257.json", ["grid", smooth, "--grid", "257"]),
                       ("grid.g257.csv", ["grid", smooth, "--grid", "257", "--format", "csv"]),
                       ("zeros.n6.csv", ["zeros", smooth, "--n", "6", "--format", "csv"]),
                       ("zeros.n0", ["zeros", smooth, "--n", "0"])):
        yield f"out.smooth_trig.{name}", [*argv, "--out", f"outputs/smooth_trig.{name}"]
    # the command lines the parser rejects
    lebesgue = "fixtures/lebesgue.json"
    for name, argv in (("grid.seed1", ["grid", lebesgue, "--seed", "1"]),
                       ("zeros.nx", ["zeros", lebesgue, "--n", "x"]),
                       ("sv.tol-routeabc", ["sv", smooth, "--tol-route", "abc"]),
                       ("zeros.no-input", ["zeros"]),
                       ("zeros.xml", ["zeros", lebesgue, "--n", "2", "--format", "xml"]),
                       ("cd.sam3", ["cd", lebesgue, "--n", "2", "--sam", "3"]),
                       ("cd.csv", ["cd", smooth, "--n", "2", "--format", "csv"]),
                       ("random-gamma.csv", ["random-gamma", "--n", "2", "--format", "csv"]),
                       ("zeros.bogus-no-input", ["zeros", "--bogus"]),
                       ("bogus-no-command", ["--bogus"])):
        yield f"parse.{name}", argv
    # the help texts, which leave main through argparse's SystemExit(0)
    yield "help", ["--help"]
    for command in COMMANDS:
        yield f"{command}.help", [command, "--help"]


def write_fixture(name: str, obj) -> None:
    Path("fixtures", name + ".json").write_text(json.dumps(obj), encoding="utf-8")


def make_fixtures(main, record) -> None:
    """Copy the shipped fixtures and generate the rest with the tree under test;
    the generating runs are reports of the set too."""
    Path("fixtures").mkdir()
    for path in sorted((REPO / "fixtures").glob("*.json")):
        shutil.copy(path, Path("fixtures", path.name))

    def generated(name, argv):
        text = record(name, argv)
        return json.loads(text.split("\n", 1)[1])["result"]

    # seeded coefficients: 13 per seed, and 80 and 40 at rmax 0.8 for three seeds
    for seed in GAMMA_SEEDS:
        write_fixture(f"random_gamma_{seed}", generated(
            f"random-gamma.seed{seed}.n13", ["random-gamma", "--seed", str(seed), "--n", "13"]))
        if seed in GAMMA_SEEDS[:3]:
            write_fixture(f"gammas80_{seed}", generated(
                f"random-gamma.seed{seed}.n80",
                ["random-gamma", "--seed", str(seed), "--n", "80", "--rmax", "0.8"]))
            write_fixture(f"gammas40_{seed}", generated(
                f"random-gamma.seed{seed}.n40",
                ["random-gamma", "--seed", str(seed), "--n", "40", "--rmax", "0.8"]))
    # 400 coefficients, route A's and the forward map's longest horizon
    write_fixture("gammas400_1017", generated(
        "random-gamma.seed1017.n400",
        ["random-gamma", "--seed", "1017", "--n", "400", "--rmax", "0.8"]))
    standard = {"i": [0.0, 1.0, 0.0, 0.0], "j": [0.0, 0.0, 1.0, 0.0]}
    # Bernstein-Szego's coefficients: gamma_0 = 1/2, then zeros
    write_fixture("bernstein_gammas", {"frame": standard,
                                       "gammas": [[0.5, 0.0, 0.0, 0.0]] + [[0.0] * 4] * 79})
    # random_gamma_7's moments, with negative indices too, with c_{-3} = c_3
    # (not conj c_3), and with |c_5| raised to 1.5
    moments = generated("random_gamma_7.verblunsky-to-moments.n12",
                        ["verblunsky-to-moments", "fixtures/random_gamma_7.json", "--n", "12"])
    moments = moments["moments"]
    write_fixture("moments_rg7", {"moments": moments})
    negative = [[-n, [q[0], -q[1], -q[2], -q[3]]] for n, q in moments if n > 0]
    write_fixture("moments_rg7_negative", {"moments": moments + negative})
    broken = [[-n, q] for n, q in moments if n == 3]
    write_fixture("moments_asymmetric", {"moments": moments + broken})
    raised = [[n, [1.5 * x / float(np.linalg.norm(q)) for x in q] if n == 5 else q]
              for n, q in moments]
    write_fixture("moments_not_pd", {"moments": raised})
    # (1/2) Lebesgue + (1/2) delta_0: c_n = 1/2 for n >= 1, gamma_n = 1 / (2 + n)
    write_fixture("atom_lebesgue", {"moments": [[0, [1.0, 0.0, 0.0, 0.0]]]
                                    + [[n, [0.5, 0.0, 0.0, 0.0]] for n in range(1, 201)]})
    # c_3 the last nonzero moment, c_2 = 0 inside the band, -0.0 entries past it
    write_fixture("banded_moments", {"moments": [
        [0, [1.0, 0.0, 0.0, 0.0]], [1, [0.3, 0.1, -0.05, 0.02]], [2, [0.0, 0.0, 0.0, 0.0]],
        [3, [0.05, -0.02, 0.01, 0.03]]] + [[n, [-0.0] * 4] for n in range(4, 41)]})
    # a repeated index, which a map built from the list would overwrite
    write_fixture("repeated_w1", {"frame": standard, "w1": [[0, 1.0, 0.0], [0, 0.5, 0.0]]})
    write_fixture("repeated_moments", {"moments": [[0, [1.0, 0.0, 0.0, 0.0]],
                                                   [1, [0.5, 0.0, 0.0, 0.0]],
                                                   [1, [0.1, 0.0, 0.0, 0.0]]]})
    # a density given by w2 alone, with and without its frame, and a fixture
    # that holds a density and moments
    w2 = [[1, 0.1, 0.0], [-1, -0.1, 0.0]]
    write_fixture("w2_only", {"frame": standard, "w2": w2})
    write_fixture("w2_only_noframe", {"w2": w2})
    write_fixture("mixed_density_moments", {"frame": standard, "w1": [[0, 1.0, 0.0]],
                                            "moments": [[0, [1.0, 0.0, 0.0, 0.0]],
                                                        [1, [0.9, 0.0, 0.0, 0.0]]]})
    # a density whose c_0 = w1_0 is 2, not 1
    write_fixture("unnormalised", {"frame": standard, "w1": [[0, 2.0, 0.0]], "w2": []})
    # +-1e308 terms that cancel on the 2048-point PSD grid and overflow float64
    # on the 7-point grid
    write_fixture("overflow", {"frame": standard, "w1": [
        [0, 1.0, 0.0], [1, 1e308, 0.0], [-1, 1e308, 0.0], [2049, -1e308, 0.0],
        [-2049, -1e308, 0.0]]})
    # w1_1 off conj(w1_{-1}) by 1e-13, inside the 1e-12 symmetry tolerance
    write_fixture("near_symmetric", {"frame": standard, "w1": [[0, 1.0, 0.0], [1, 0.3, 1e-13],
                                                               [-1, 0.3, 0.0]]})
    # w1 = 1 + cos(10^9 theta) / 2, which a dense coefficient array cannot hold
    write_fixture("far_index", {"frame": standard, "w1": [[0, 1.0, 0.0], [10 ** 9, 0.25, 0.0],
                                                          [-10 ** 9, 0.25, 0.0]]})
    write_fixture("empty_moments", {"moments": []})   # no c_0
    # smooth_trig's coefficient maps read in a non-standard frame of their own
    smooth = json.loads(Path("fixtures", "smooth_trig.json").read_text(encoding="utf-8"))
    write_fixture("smooth_trig_own_frame", {**smooth, "frame": json.loads(random_frame(6))})
    # moments at +-10^9, which a dense moment array cannot hold
    write_fixture("far_moments", {"moments": [[0, [1.0, 0.0, 0.0, 0.0]],
                                              [10 ** 9, [0.1, 0.0, 0.0, 0.0]],
                                              [-10 ** 9, [0.1, 0.0, 0.0, 0.0]]]})
    # random_gamma_7's moments and its coefficients in that frame of their own
    write_fixture("moments_own_frame", {"frame": json.loads(random_frame(6)),
                                        "moments": moments})
    rg7 = json.loads(Path("fixtures", "random_gamma_7.json").read_text(encoding="utf-8"))
    write_fixture("gammas_own_frame", {**rg7, "frame": json.loads(random_frame(6))})
    # gamma_1 just outside and just inside the contraction margin 1e-12
    for stem, radius in (("gamma1_margin_fail", 1 - 7e-13), ("gamma1_margin_pass", 1 - 2e-12)):
        write_fixture(stem, {"frame": standard, "gammas": [
            [0.3, 0.1, -0.2, 0.05], [radius, 0.0, 0.0, 0.0], [0.2, -0.1, 0.0, 0.1]]})
    for stem, obj in MALFORMED.items():
        write_fixture(stem, obj)
    # |w1_1| and |w2_1| = 1.7e308 sqrt 2, beyond the float range; c_{-1} =
    # 1e200 against c_1 = 0, |gamma_0| = 1e200 and c_0 = 1e200, whose squared
    # norms overflow
    write_fixture("w1_modulus_overflow", {"frame": standard, "w1": [
        [0, 1.0, 0.0], [1, 1.7e308, 1.7e308], [-1, 1.7e308, -1.7e308]]})
    write_fixture("w2_modulus_overflow", {"frame": standard, "w1": [[0, 1.0, 0.0]], "w2": [
        [1, 1.7e308, 1.7e308], [-1, -1.7e308, -1.7e308]]})
    write_fixture("hermitian_overflow", {"moments": [[0, [1.0, 0.0, 0.0, 0.0]],
                                                     [-1, [1e200, 0.0, 0.0, 0.0]]]})
    write_fixture("gamma_norm_overflow", {"gammas": [[1e200, 0.0, 0.0, 0.0]]})
    write_fixture("c0_norm_overflow", {"moments": [[0, [1e200, 0.0, 0.0, 0.0]]]})
    # nesting deeper than the JSON parser recurses, and an integer beyond the
    # float range
    Path("fixtures", "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    write_fixture("huge_gamma", {"gammas": [[10 ** 400, 0, 0, 0]]})
    # an own frame whose i is not a unit quaternion, on each fixture kind
    bad_frame = {"i": [0, 2, 0, 0], "j": [0, 0, 1, 0]}
    write_fixture("gammas_bad_frame", {"frame": bad_frame, "gammas": rg7["gammas"]})
    write_fixture("moments_bad_frame", {"frame": bad_frame, "moments": moments})
    write_fixture("density_bad_frame", {**smooth, "frame": bad_frame})
    # w1_1 without its partner w1_{-1}, and w2_{-1} = w2_1 in place of -w2_1
    write_fixture("w1_asymmetric", {"frame": standard, "w1": [[0, 1.0, 0.0], [1, 0.1, 0.0]]})
    write_fixture("w2_asymmetric", {"frame": standard, "w1": [[0, 1.0, 0.0]],
                                    "w2": [[1, 0.1, 0.0], [-1, 0.1, 0.0]]})
    # c_0 and c_1 only
    write_fixture("short_moments", {"moments": [[0, [1.0, 0.0, 0.0, 0.0]],
                                                [1, [0.1, 0.0, 0.0, 0.0]]]})
    write_fixture("empty_fixture", {})   # no data of any kind
    # an index beyond int64
    write_fixture("w1_index_2_63", {"frame": standard, "w1": [[0, 1.0, 0.0],
                                                              [2 ** 63, 0.1, 0.0]]})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the qopuc package")
    parser.add_argument("--out", required=True, help="empty or new output directory")
    args = parser.parse_args()
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    sys.path.insert(0, str(src))
    os.environ["COLUMNS"] = "80"   # read by argparse's help formatter at each run
    import qopuc.cli
    if not Path(qopuc.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported qopuc from {qopuc.cli.__file__}, not from {src}")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    os.chdir(out)
    Path("reports").mkdir()
    Path("outputs").mkdir()
    names: set[str] = set()

    def record(name, argv) -> str:
        if name in names:
            raise SystemExit(f"report name {name} used twice")
        names.add(name)
        text = run(qopuc.cli.main, argv)
        Path("reports", name).write_text(text, encoding="utf-8")
        return text

    make_fixtures(qopuc.cli.main, record)
    frames = {f"frame{seed}": random_frame(seed) for seed in FRAME_SEEDS}
    for name, argv in report_set(frames):
        record(name, argv)
    codes: dict[str, int] = {}
    validators: dict[str, jsonschema.protocols.Validator] = {}
    invalid = []
    for name in sorted(names):
        head, text = Path("reports", name).read_text(encoding="utf-8").split("\n", 1)
        codes[head] = codes.get(head, 0) + 1
        if head != "exit 0" or not text.startswith("{"):   # an error or a CSV report
            continue
        report = json.loads(text)
        command = report["command"]
        if command not in validators:
            path = src / "qopuc" / "schemas" / f"{command.replace('-', '_')}.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            validators[command] = jsonschema.validators.validator_for(schema)(schema)
        error = jsonschema.exceptions.best_match(validators[command].iter_errors(report))
        if error is not None:
            invalid.append(f"{name}: {error.message}")
    print(f"{len(names)} reports in {out / 'reports'}: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items())))
    if invalid:
        print(f"{len(invalid)} exit-0 JSON reports fail their schema:", *invalid, sep="\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
