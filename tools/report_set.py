"""Write the qopuc CLI report set of one source tree, for byte-identity checks.

Usage:

    python tools/report_set.py --src SRC --out DIR

SRC is the directory that holds the ``qopuc`` package (``src`` of a
checkout).  Every report of the set runs in-process against that package;
DIR receives ``fixtures/`` (the shipped fixtures and the ones the set
generates) and ``reports/``, one file per report whose first line is
``exit <code>`` (``raised <type>`` for an exception that escaped
``qopuc.cli.main``), followed by the report text.  Commands run with DIR as
the working directory and name fixtures by relative path, so the envelopes
do not depend on DIR.  Comparing two trees is then

    python tools/report_set.py --src parent/src --out /tmp/a
    python tools/report_set.py --src src --out /tmp/b
    diff -r /tmp/a /tmp/b

The set, on the five shipped fixtures and six ``random-gamma --n 13``
fixtures (seeds 1017-6017): ``zeros`` n = 1-10 json and n = 6 csv; ``cd``
n = 1-11 at (samples, seed) = (1, 0), (1, 7), (100, 0), (100, 7),
(333, 123); ``grid`` 1/7/2048/4096 json and csv; ``sv --n 20``,
``baxter --n 50`` and ``moments-to-verblunsky --n 6`` json and csv;
``orthopolys`` n = 8 and 13; ``moments-to-verblunsky --n 13``;
``verblunsky-to-moments --n 6``; ``zeros`` and ``orthopolys`` n = 1-10,
``moments-to-verblunsky`` and ``verblunsky-to-moments`` n = 6, under five
seeded random frames.  Besides: ``baxter`` N = 50, 100, 200, 400 json and
csv and ``moments-to-verblunsky`` N = 12, 25, 40, 100, 200, 400 on the four
densities, and both at N = 1, 2, 3, route A's first steps; ``grid`` 2 and
3 json and csv on the four densities, the smallest even and odd
reflections of W22; ``sv`` N = 12, 25, 40 on the four densities;
``zeros`` n = 20 and 30 on the four densities, root batches up to degree 60
and companions up to size 30; ``grid``
7 and 2048, ``sv --n 20``, ``baxter --n 50`` and ``--n 200`` and
``moments-to-verblunsky --n 40`` on the four densities under the five
seeded frames;
``verblunsky-to-moments`` K = 20, 40, 80 json and csv on the Bernstein-Szego gammas and three seeded
80-coefficient rmax-0.8 fixtures (seeds 1017-3017), and K = 1, 2, 3, 200, 400
on a seeded 400-coefficient rmax-0.8 fixture (seed 1017), the first and the
last waves of the forward map; ``moments-to-verblunsky``
N = 12, 25, 40 and ``orthopolys --n 40`` on three seeded 40-coefficient
rmax-0.8 fixtures (seeds 1017-3017), ill-conditioned inputs whose route-B
bits decide a RouteMismatch, with route B's full rows;
``cd --n 11 --samples 2500`` on ``smooth_trig`` and ``random_gamma_1017``,
nine full evaluation blocks of 273 points and a partial one, and
``orthopolys --n 40`` on ``smooth_trig``;
four moment fixtures (the moments of ``random_gamma_7``, the same with
negative indices, with a broken Hermitian symmetry, and with |c_5| raised to
1.5) under ``moments-to-verblunsky`` n = 6 and 12, ``orthopolys``, ``zeros``
and ``cd``; the moments c_0 = 1, c_n = 1/2 of half Lebesgue measure plus half
an atom at 0 under ``moments-to-verblunsky --n 200``, ``orthopolys --n 8``
and ``zeros --n 8``; moments whose last nonzero one is c_3, with c_2 = 0
and -0.0 entries up to c_40, under ``moments-to-verblunsky`` N = 2, 3, 4, 5
and 40; a density with a repeated ``w1`` index, moments with a
repeated index, a density given by ``w2`` alone with and without its frame,
and a fixture that holds both a density and moments, under
``moments-to-verblunsky --n 1``, ``grid --grid 7`` and ``sv --n 1``;
a density with w1_0 = 2 under ``grid --grid 7``, ``sv --n 1`` and
``baxter --n 4``; a density whose +-1e308 terms cancel on the 2048-point
PSD grid but overflow on the 7-point one under ``grid --grid 7`` json and
csv, and under ``baxter --n 4`` and ``sv --n 4``, where route A and route
B find it not positive definite at order 1 (all exit 2); a density with w1_1 = conj(w1_{-1}) + 1e-13 i, one with
indices +-10^9, an empty moment list, ``smooth_trig``'s coefficients in a
non-standard frame of their own and moments at indices +-10^9, under
``moments-to-verblunsky --n 6``, ``sv --n 6`` and ``grid --grid 7``; the
moments and the coefficients of ``random_gamma_7`` in that same frame of
their own under ``moments-to-verblunsky --n 6`` and
``verblunsky-to-moments --n 6`` respectively, and ``zeros --n 4``; the
same five runs of ``smooth_trig``'s coefficients (``moments-to-verblunsky``,
``sv``, ``grid``) and of ``random_gamma_7``'s (``verblunsky-to-moments``,
``zeros``) in that frame under ``--frame standard``, which overrides it;
coefficients with |gamma_1| = 1 - 7e-13 (exit 2, ``NotContraction`` at index
1) and 1 - 2e-12, just outside and inside the contraction margin, under
``verblunsky-to-moments --n 3`` json and csv and
``moments-to-verblunsky --n 3``; ``sv --n 40 --tol-route 1e-40``,
``sv --n 8 --tol-pd 0.95``, ``cd --n 8 --tol-pd 0.95`` and
``zeros --n 10 --tol-route 1e-40`` on ``smooth_trig``; ``zeros --n 12`` on
the six ``random-gamma --n 13`` fixtures, root batches up to degree 24; every
``random-gamma`` run that makes a fixture, four more, an ``orthopolys --n 30``
past a horizon, a ``verblunsky-to-moments --n 30`` past the coefficient count
and a missing file; five malformed fixtures (``gammas`` not a list, a
``frame`` not an object, a fixture not an object, a ``w1`` index of 1.5 and a
moments entry ``[1]``) under ``moments-to-verblunsky --n 1``; moduli that
overflow: a ``w1`` and a ``w2`` coefficient of modulus 1.7e308 sqrt 2 under
``grid --grid 7`` and ``sv --n 2``, c_{-1} = 1e200 against c_1 = 0 under
``moments-to-verblunsky``, ``orthopolys`` and ``zeros`` at ``--n 1``,
|gamma_0| = 1e200 under ``verblunsky-to-moments`` and
``moments-to-verblunsky`` at ``--n 1``, and c_0 = 1e200 under
``moments-to-verblunsky`` and ``orthopolys`` at ``--n 1`` (all exit 2); a
fixture of 100000 nested lists under
``moments-to-verblunsky --n 2``, a gamma of 10^400 under
``verblunsky-to-moments --n 1``, and ``random-gamma --n 2`` with a ``--frame``
of 100000 open brackets and with one whose i holds 10^400.
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

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DENSITIES = ("bernstein_szego_05", "lebesgue", "smooth_trig", "vanishing_density")
GAMMA_SEEDS = (1017, 2017, 3017, 4017, 5017, 6017)
FRAME_SEEDS = (1, 2, 3, 4, 5)
CD_RUNS = ((1, 0), (1, 7), (100, 0), (100, 7), (333, 123))


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            head = f"exit {main(argv)}"
        except Exception as exc:  # a traceback is a finding, not a stop
            head = f"raised {type(exc).__name__}: {exc}"
    return head + "\n" + out.getvalue()


def report_set(frames: dict[str, str]):
    """(name, argv) pairs of the set that needs no generated fixture data."""
    fixtures = [f"fixtures/{name}.json" for name in
                ("bernstein_szego_05", "lebesgue", "random_gamma_7", "smooth_trig",
                 "vanishing_density")]
    fixtures += [f"fixtures/random_gamma_{seed}.json" for seed in GAMMA_SEEDS]
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
    for density in DENSITIES:
        path = f"fixtures/{density}.json"
        for fmt in ("json", "csv"):
            for n in (100, 200, 400):   # n = 50 is in the per-fixture set
                yield f"{density}.baxter.n{n}.{fmt}", ["baxter", path, "--n", str(n),
                                                       "--format", fmt]
            for grid in (2, 3):   # the smallest even and odd reflections k -> -k
                yield (f"{density}.grid.g{grid}.{fmt}",
                       ["grid", path, "--grid", str(grid), "--format", fmt])
        for n in (12, 25, 40):
            for command in ("moments-to-verblunsky", "sv"):
                yield f"{density}.{command}.n{n}.json", [command, path, "--n", str(n)]
        for n in (20, 30):
            yield f"{density}.zeros.n{n}", ["zeros", path, "--n", str(n)]
        for n in (100, 200, 400):
            yield (f"{density}.moments-to-verblunsky.n{n}.json",
                   ["moments-to-verblunsky", path, "--n", str(n)])
        for n in (1, 2, 3):   # route A's first steps and its last step's early exit
            for command in ("baxter", "moments-to-verblunsky"):
                yield f"{density}.{command}.n{n}.json", [command, path, "--n", str(n)]
        for fname, spec in frames.items():
            for name, argv in (("grid.g7", ["grid", "--grid", "7"]),
                               ("grid.g2048", ["grid", "--grid", "2048"]),
                               ("sv.n20", ["sv", "--n", "20"]),
                               ("baxter.n50", ["baxter", "--n", "50"]),
                               ("baxter.n200", ["baxter", "--n", "200"]),
                               ("moments-to-verblunsky.n40",
                                ["moments-to-verblunsky", "--n", "40"])):
                yield (f"{density}.{name}.{fname}",
                       [argv[0], path, *argv[1:], "--frame", spec])
    for stem in ["bernstein_gammas"] + [f"gammas80_{seed}" for seed in GAMMA_SEEDS[:3]]:
        for fmt in ("json", "csv"):
            for k in (20, 40, 80):
                yield (f"{stem}.verblunsky-to-moments.n{k}.{fmt}",
                       ["verblunsky-to-moments", f"fixtures/{stem}.json", "--n", str(k),
                        "--format", fmt])
    for k in (1, 2, 3, 200, 400):
        yield (f"gammas400_1017.verblunsky-to-moments.n{k}",
               ["verblunsky-to-moments", "fixtures/gammas400_1017.json", "--n", str(k)])
    for seed in GAMMA_SEEDS[:3]:
        for n in (12, 25, 40):
            yield (f"gammas40_{seed}.moments-to-verblunsky.n{n}",
                   ["moments-to-verblunsky", f"fixtures/gammas40_{seed}.json", "--n", str(n)])
        yield (f"gammas40_{seed}.orthopolys.n40",
               ["orthopolys", f"fixtures/gammas40_{seed}.json", "--n", "40"])
    for stem in ("smooth_trig", f"random_gamma_{GAMMA_SEEDS[0]}"):   # past nine CD blocks
        yield (f"{stem}.cd.n11.s2500.seed0",
               ["cd", f"fixtures/{stem}.json", "--n", "11", "--samples", "2500"])
    yield "smooth_trig.orthopolys.n40", ["orthopolys", "fixtures/smooth_trig.json", "--n", "40"]
    for stem in ("moments_rg7", "moments_rg7_negative", "moments_asymmetric",
                 "moments_not_pd"):
        path = f"fixtures/{stem}.json"
        for n in (6, 12):
            yield (f"{stem}.moments-to-verblunsky.n{n}",
                   ["moments-to-verblunsky", path, "--n", str(n)])
        for command in ("orthopolys", "zeros", "cd"):
            yield f"{stem}.{command}.n5", [command, path, "--n", "5"]
    for command, n in (("moments-to-verblunsky", 200), ("orthopolys", 8), ("zeros", 8)):
        yield (f"atom_lebesgue.{command}.n{n}",
               [command, "fixtures/atom_lebesgue.json", "--n", str(n)])
    for n in (2, 3, 4, 5, 40):   # K = 3: N below, at and past K + 1
        yield (f"banded_moments.moments-to-verblunsky.n{n}",
               ["moments-to-verblunsky", "fixtures/banded_moments.json", "--n", str(n)])
    for stem in ("repeated_w1", "repeated_moments", "w2_only", "w2_only_noframe",
                 "mixed_density_moments"):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.moments-to-verblunsky.n1", ["moments-to-verblunsky", path, "--n", "1"]
        yield f"{stem}.grid.g7", ["grid", path, "--grid", "7"]
        yield f"{stem}.sv.n1", ["sv", path, "--n", "1"]
    for stem in ("near_symmetric", "far_index", "empty_moments", "smooth_trig_own_frame",
                 "far_moments"):
        path = f"fixtures/{stem}.json"
        yield f"{stem}.moments-to-verblunsky.n6", ["moments-to-verblunsky", path, "--n", "6"]
        yield f"{stem}.sv.n6", ["sv", path, "--n", "6"]
        yield f"{stem}.grid.g7", ["grid", path, "--grid", "7"]
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
    yield "unnormalised.grid.g7", ["grid", "fixtures/unnormalised.json", "--grid", "7"]
    yield "unnormalised.sv.n1", ["sv", "fixtures/unnormalised.json", "--n", "1"]
    yield "unnormalised.baxter.n4", ["baxter", "fixtures/unnormalised.json", "--n", "4"]
    for fmt in ("json", "csv"):
        yield f"overflow.grid.g7.{fmt}", ["grid", "fixtures/overflow.json", "--grid", "7",
                                          "--format", fmt]
    for command in ("baxter", "sv"):
        yield f"overflow.{command}.n4", [command, "fixtures/overflow.json", "--n", "4"]
    for name, argv in (("sv.n40.tol-route1e-40", ["sv", "--n", "40", "--tol-route", "1e-40"]),
                       ("sv.n8.tol-pd0.95", ["sv", "--n", "8", "--tol-pd", "0.95"]),
                       ("cd.n8.tol-pd0.95", ["cd", "--n", "8", "--tol-pd", "0.95"]),
                       ("zeros.n10.tol-route1e-40",
                        ["zeros", "--n", "10", "--tol-route", "1e-40"])):
        yield f"smooth_trig.{name}", [argv[0], "fixtures/smooth_trig.json", *argv[1:]]
    for seed in GAMMA_SEEDS:   # batches of roots up to degree 24
        yield (f"random_gamma_{seed}.zeros.n12",
               ["zeros", f"fixtures/random_gamma_{seed}.json", "--n", "12"])
    for seed, n, rmax in ((0, 8, "0.8"), (11, 12, "0.8"), (5, 40, "0.95"), (3, 5, "0.5")):
        yield (f"random-gamma.seed{seed}.n{n}.rmax{rmax}",
               ["random-gamma", "--seed", str(seed), "--n", str(n), "--rmax", rmax])
    yield "random_gamma_7.orthopolys.n30", ["orthopolys", "fixtures/random_gamma_7.json",
                                            "--n", "30"]
    yield ("random_gamma_7.verblunsky-to-moments.n30",
           ["verblunsky-to-moments", "fixtures/random_gamma_7.json", "--n", "30"])
    yield "missing.zeros.n4", ["zeros", "fixtures/missing.json", "--n", "4"]
    yield "deep.moments-to-verblunsky.n2", ["moments-to-verblunsky", "fixtures/deep.json",
                                            "--n", "2"]
    yield "huge_gamma.verblunsky-to-moments.n1", ["verblunsky-to-moments",
                                                  "fixtures/huge_gamma.json", "--n", "1"]
    huge_frame = json.dumps({"i": [0, 10 ** 400, 0, 0], "j": [0, 0, 1, 0]})
    for name, spec in (("deep_frame", "[" * 100000), ("huge_frame", huge_frame)):
        yield f"random-gamma.{name}.n2", ["random-gamma", "--n", "2", "--frame", spec]


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
    write_fixture("gammas400_1017", generated(
        "random-gamma.seed1017.n400",
        ["random-gamma", "--seed", "1017", "--n", "400", "--rmax", "0.8"]))
    standard = {"i": [0.0, 1.0, 0.0, 0.0], "j": [0.0, 0.0, 1.0, 0.0]}
    write_fixture("bernstein_gammas", {"frame": standard,
                                       "gammas": [[0.5, 0.0, 0.0, 0.0]] + [[0.0] * 4] * 79})
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
    write_fixture("empty_moments", {"moments": []})
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the qopuc package")
    parser.add_argument("--out", required=True, help="empty or new output directory")
    args = parser.parse_args()
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    sys.path.insert(0, str(src))
    import qopuc.cli
    if not Path(qopuc.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported qopuc from {qopuc.cli.__file__}, not from {src}")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    os.chdir(out)
    Path("reports").mkdir()
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
    for name in names:
        head = Path("reports", name).read_text(encoding="utf-8").split("\n", 1)[0]
        codes[head] = codes.get(head, 0) + 1
    print(f"{len(names)} reports in {out / 'reports'}: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
