"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the summary lines.
Each criterion pins its tolerance and (where stated) its runtime budget.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np

from qopuc.analysis import baxter_check, cd_identity_check, sv_check, szego_entropy
from qopuc.cli import main as cli_main
from qopuc.fixtures import random_gamma_seq
from qopuc.matrix_opuc import defects, moments_from_alphas
from qopuc.measures import QPositiveDensity, matrix_moments, moments_from_density
from qopuc.polynomials import (
    moments_from_verblunsky_q, orthonormal_polys, verblunsky_from_moments_q,
)
from qopuc.quaternions import Quaternion, SliceFrame, chi, chi_mat
from qopuc.zeros import zeros_theorem_check
from conftest import (
    bernstein_szego_density, block_permutation, blockwise_chi, cd_kernel_diag, coeff, family,
    inner_L, inner_R, lebesgue_density, matrix_gram_schmidt, random_frame, random_quaternion,
    reverse_L, reverse_R, shift, smooth_trig_density, vanishing_density,
)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
EYE2 = np.eye(2, dtype=complex)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_fixture_suite(count=20, N=12, rmax=0.8, base_seed=1000):
    return [(seed, random_gamma_seq(seed, N, rmax=rmax))
            for seed in range(base_seed, base_seed + count)]


def test_criterion_1_embedding_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    frames = [SliceFrame.standard()] + [random_frame(rng) for _ in range(3)]
    worst = 0.0
    for k in range(10_000):
        fr = frames[k % len(frames)]
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        Mp, Mq = chi(p, fr), chi(q, fr)
        scale = max(1.0, abs(p) * abs(q))
        worst = max(worst, float(np.max(np.abs(chi(p * q, fr) - Mp @ Mq))) / scale)
        worst = max(worst, float(np.max(np.abs(chi(p.conjugate(), fr) - Mp.conj().T)))
                    / max(1.0, abs(p)))
        worst = max(worst, abs(np.linalg.norm(Mp, 2) - abs(p)) / max(1.0, abs(p)))
    exact = True
    for n in range(1, 7):
        fr = frames[n % len(frames)]
        A = rng.normal(size=(n, n, 4))
        U = block_permutation(n)
        exact = exact and np.array_equal(chi_mat(A, fr),
                                         U @ blockwise_chi(A, fr) @ U.T)
    U2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    U3 = np.array([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                   [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    printed = (np.array_equal(block_permutation(2), U2)
               and np.array_equal(block_permutation(3), U3))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and exact and printed and elapsed < 5.0
    _report(1, "embedding-suite", ok,
            f"max rel err {worst:.2e}, permutation identities exact={exact}, "
            f"printed U2/U3={printed}, {elapsed:.1f}s < 5s")


def test_criterion_2_moments_verblunsky_round_trip():
    t0 = time.time()
    worst_rt = 0.0
    worst_closed = 0.0
    frame = SliceFrame.standard()
    for seed in range(200):
        gammas = random_gamma_seq(2000 + seed, 10, rmax=0.9)
        alphas = np.array([chi(g, frame) for g in gammas])
        C = moments_from_alphas(alphas, 10)
        rhoL, rhoR = defects(alphas[0])
        closed_c1 = np.max(np.abs(C[0] - alphas[0]))
        closed_c2 = np.max(np.abs(
            C[1] - (rhoR @ alphas[1] @ rhoL + alphas[0] @ alphas[0])))
        worst_closed = max(worst_closed, float(closed_c1), float(closed_c2))
        c = moments_from_verblunsky_q(gammas, 10, frame)
        back, _ = verblunsky_from_moments_q(c, 10, frame)
        worst_rt = max(worst_rt, max(abs(a - b) for a, b in zip(gammas, back)))
    elapsed = time.time() - t0
    ok = worst_rt < 1e-9 and worst_closed < 1e-12 and elapsed < 10.0
    _report(2, "moments-verblunsky-round-trip", ok,
            f"200 sequences, max gamma err {worst_rt:.2e} < 1e-9, "
            f"closed forms {worst_closed:.2e} < 1e-12, {elapsed:.1f}s < 10s")


def test_criterion_3_orthonormality_and_correspondence():
    t0 = time.time()
    frame = SliceFrame.standard()
    worst_gram = 0.0
    worst_phi = 0.0
    for seed, gammas in random_fixture_suite(count=20, N=12):
        c = moments_from_verblunsky_q(gammas, 12, frame)
        fam = family(c, 12)
        for n in range(13):
            for m in range(13):
                target = Quaternion(1.0 if n == m else 0.0)
                worst_gram = max(worst_gram,
                                 abs(inner_R(fam.right[n], fam.right[m], c) - target),
                                 abs(inner_L(fam.left[n], fam.left[m], c) - target))
        C = matrix_moments(c, frame, 12)
        right_m, left_m = matrix_gram_schmidt(C, 12)
        for n in range(13):
            img = chi(fam.right[n].arr, frame)
            worst_phi = max(worst_phi, max(
                float(np.max(np.abs(a - b))) for a, b in zip(img, right_m[n])))
            img = chi(fam.left[n].arr, frame)
            worst_phi = max(worst_phi, max(
                float(np.max(np.abs(a - b))) for a, b in zip(img, left_m[n])))
    elapsed = time.time() - t0
    ok = worst_gram < 1e-10 and worst_phi < 1e-9 and elapsed < 20.0
    _report(3, "orthonormality-correspondence", ok,
            f"20 fixtures N=12, Gram err {worst_gram:.2e} < 1e-10, "
            f"Phi-image err {worst_phi:.2e} < 1e-9, {elapsed:.1f}s < 20s")


def test_criterion_4_szego_recurrence_residuals():
    frame = SliceFrame.standard()
    worst = 0.0
    suites = [random_gamma_seq(s, 12) for s in (4001, 4002, 4003, 4004, 4005)]
    suites.append(verblunsky_from_moments_q(
        moments_from_density(bernstein_szego_density(), 12), 12, frame)[0])
    suites.append(verblunsky_from_moments_q(
        moments_from_density(smooth_trig_density(), 12), 12, frame)[0])
    for gammas in suites:
        N = len(gammas)
        c = moments_from_verblunsky_q(gammas, N, frame)
        fam = family(c, N)
        revs_l = [reverse_R(fam.left[n], n) for n in range(N + 1)]
        revs_r = [reverse_L(fam.right[n], n) for n in range(N + 1)]
        for n in range(N):
            g = gammas[n]
            gbar = g.conjugate()
            r = math.sqrt(1.0 - g.norm_sq())
            shift_l = shift(fam.left[n])
            shift_r = shift(fam.right[n])
            for k in range(n + 2):
                worst = max(
                    worst,
                    abs(coeff(shift_l, k) - coeff(fam.left[n + 1], k) * r
                        - g * coeff(revs_r[n], k)),
                    abs(coeff(shift_r, k) - coeff(fam.right[n + 1], k) * r
                        - coeff(revs_l[n], k) * g),
                    abs(coeff(revs_l[n + 1], k) * r - coeff(revs_l[n], k)
                        + coeff(shift_r, k) * gbar),
                    abs(coeff(revs_r[n + 1], k) * r - coeff(revs_r[n], k)
                        + gbar * coeff(shift_l, k)),
                )
    ok = worst < 1e-10
    _report(4, "szego-recurrences", ok,
            f"all four paired recurrences, N<=12, max residual {worst:.2e} < 1e-10")


def test_criterion_5_zeros_theorem():
    t0 = time.time()
    frame = SliceFrame.standard()
    worst_inside = 0.0
    worst_outside = float("inf")
    worst_lr = 0.0
    ok_flags = True
    cases = [(moments_from_verblunsky_q(gammas, 10, frame), frame)
             for seed, gammas in random_fixture_suite(count=20, N=10, base_seed=5000)]
    cases += [(moments_from_density(d, 10), d.frame)
              for d in (lebesgue_density(), bernstein_szego_density(),
                        vanishing_density(), smooth_trig_density())]
    for c, fr in cases:
        rows = zeros_theorem_check(orthonormal_polys(c, 10)[1], fr)["per_degree"]
        for row in rows:
            worst_inside = max(worst_inside, row["max_root_modulus"])
            worst_outside = min(worst_outside, row["min_reverse_modulus"])
            worst_lr = max(worst_lr, row["left_right_distance"])
            ok_flags = ok_flags and row["all_inside_ball"] and row["reverses_outside"]
    elapsed = time.time() - t0
    ok = (worst_inside < 1.0 and worst_outside > 1.0 and worst_lr < 1e-8
          and ok_flags and elapsed < 30.0)
    _report(5, "zeros-theorem", ok,
            f"20 fixtures and 4 densities N<=10, max root modulus {worst_inside:.6f} < 1, "
            f"min reverse modulus {worst_outside:.6f} > 1, left/right dist "
            f"{worst_lr:.2e} < 1e-8, {elapsed:.1f}s < 30s")


def test_criterion_6_cd_identity():
    frame = SliceFrame.standard()
    worst = 0.0
    cases = [moments_from_density(lebesgue_density(), 10),
             moments_from_density(bernstein_szego_density(), 10),
             moments_from_density(smooth_trig_density(), 10)]
    cases += [moments_from_verblunsky_q(random_gamma_seq(s, 10), 10, frame)
              for s in (6001, 6002, 6003)]
    rng = np.random.default_rng(66)
    base_exact = True
    for c in cases:
        worst = max(worst, cd_identity_check(c, 8, samples=100, seed=606))
        for _ in range(5):
            v = rng.normal(size=4)
            v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
            base_exact = base_exact and (cd_kernel_diag(c, 0, Quaternion(*v)) == 2.0)
    ok = worst < 1e-9 and base_exact
    _report(6, "cd-identity", ok,
            f"6 fixtures, 100 points, N<=8: max residual {worst:.2e} < 1e-9, "
            f"K_0 == 2 exact={base_exact}")


def test_criterion_7_szego_verblunsky():
    rep = sv_check(bernstein_szego_density(0.5), 5)
    bs_gap = max(abs(rep["partial_products"][-1] - 0.75 ** 2),
                 abs(rep["exp_entropy"] - 0.75 ** 2))
    d = smooth_trig_density()
    rep_s = sv_check(d, 50)
    smooth_gap = abs(rep_s["gap_history"][-1])
    richardson_ok = rep_s["quadrature_error"] < 1e-7  # must dominate the 1e-6 gap
    rng = np.random.default_rng(77)
    base = szego_entropy(d)
    frame_dev = 0.0
    for _ in range(3):
        fr = random_frame(rng)
        moved = QPositiveDensity(fr, d.index, d.coeffs)
        frame_dev = max(frame_dev, abs(szego_entropy(moved) - base))
    ok = bs_gap < 1e-8 and smooth_gap < 1e-6 and frame_dev < 1e-8 and richardson_ok
    _report(7, "szego-verblunsky", ok,
            f"BS both sides vs 0.5625: {bs_gap:.2e} < 1e-8 by N=5; smooth gap "
            f"{smooth_gap:.2e} < 1e-6 by N=50 (Richardson {rep_s['quadrature_error']:.1e}); "
            f"slice invariance {frame_dev:.2e} < 1e-8")


def test_criterion_8_baxter():
    t0 = time.time()
    summable_ok = True
    for d in (lebesgue_density(), bernstein_szego_density(), smooth_trig_density()):
        rep = baxter_check(d, 64)
        summable_ok = (summable_ok and rep["verdict"] == "consistent-summable"
                       and math.isfinite(rep["wiener_norm"]) and rep["density_min"] > 0)
    rep = baxter_check(vanishing_density(), 200)
    c = moments_from_density(vanishing_density(), 200)
    from qopuc.polynomials import _gammas_via_matrix
    moduli = _gammas_via_matrix(c, 200, vanishing_density().frame).moduli()
    sums = np.cumsum(moduli)
    block_ratio = (sums[199] - sums[99]) / (sums[99] - sums[49])
    no_flattening = rep["gamma_l1_diverging"] and block_ratio > 0.9
    elapsed = time.time() - t0
    ok = (summable_ok and rep["verdict"] == "consistent-nonsummable"
          and no_flattening and elapsed < 60.0)
    _report(8, "baxter", ok,
            f"summable fixtures consistent; vanishing fixture: verdict "
            f"{rep['verdict']}, l1 block ratio {block_ratio:.3f} (no flattening), "
            f"{elapsed:.1f}s < 60s")


def test_criterion_9_cli_determinism_and_schemas(tmp_path):
    import importlib.resources as resources

    def schema(name):
        ref = resources.files("qopuc") / "schemas" / f"{name}.schema.json"
        return json.loads(ref.read_text())

    density_fixtures = ["lebesgue.json", "bernstein_szego_05.json",
                        "vanishing_density.json", "smooth_trig.json"]
    gamma_fixtures = ["random_gamma_7.json"]
    all_ok = True
    checked = 0
    for fixture in density_fixtures + gamma_fixtures:
        path = str(FIXDIR / fixture)
        commands = [
            ("moments-to-verblunsky", "moments_to_verblunsky", [path, "--n", "4"]),
            ("orthopolys", "orthopolys", [path, "--n", "4"]),
            ("zeros", "zeros", [path, "--n", "3"]),
            ("cd", "cd", [path, "--n", "3", "--samples", "20", "--seed", "9"]),
        ]
        if fixture in density_fixtures:
            commands += [
                ("sv", "sv", [path, "--n", "5"]),
                ("baxter", "baxter", [path, "--n", "12"]),
                ("grid", "grid", [path, "--grid", "64"]),
            ]
        else:
            commands += [("verblunsky-to-moments", "verblunsky_to_moments",
                          [path, "--n", "6"])]
        for command, schema_name, argv in commands:
            out1 = tmp_path / "a.json"
            out2 = tmp_path / "b.json"
            code1 = cli_main([command, *argv, "--seed", "9", "--out", str(out1)])
            code2 = cli_main([command, *argv, "--seed", "9", "--out", str(out2)])
            identical = out1.read_bytes() == out2.read_bytes()
            valid = True
            try:
                jsonschema.validate(json.loads(out1.read_text()), schema(schema_name))
            except jsonschema.ValidationError:
                valid = False
            all_ok = all_ok and code1 == 0 and code2 == 0 and identical and valid
            checked += 1
    gen1 = tmp_path / "g1.json"
    gen2 = tmp_path / "g2.json"
    cli_main(["random-gamma", "--seed", "31", "--n", "10", "--out", str(gen1)])
    cli_main(["random-gamma", "--seed", "31", "--n", "10", "--out", str(gen2)])
    all_ok = all_ok and gen1.read_bytes() == gen2.read_bytes()
    try:
        jsonschema.validate(json.loads(gen1.read_text()), schema("random_gamma"))
    except jsonschema.ValidationError:
        all_ok = False
    checked += 1
    _report(9, "cli-determinism-schemas", all_ok,
            f"{checked} command runs byte-identical and schema-valid")
