from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from qopuc.analysis import (
    _diverging_over_horizon, baxter_check, cd_identity_check, sv_check,
    szego_entropy,
)
from qopuc.fixtures import random_gamma_seq
from qopuc.measures import QPositiveDensity, moments_from_density
from qopuc.polynomials import VerblunskySeq, _gammas_via_matrix, eval_L, eval_R
from qopuc.quaternions import Quaternion
from conftest import (
    bernstein_szego_density, cd_kernel_diag, family, lebesgue_density, random_frame,
    random_moment_fixture, random_unit_ball_quaternion, reverse_L, reverse_R,
    smooth_trig_density, stacked, vanishing_density,
)


def test_cd_kernel_base_case(rng):
    c = random_moment_fixture(3, 4)
    for _ in range(5):
        p = random_unit_ball_quaternion(rng, rmax=0.9)
        assert abs(cd_kernel_diag(c, 0, p) - 2.0) < 1e-12


def test_cd_kernel_lebesgue_closed_form(rng):
    c = moments_from_density(lebesgue_density(), 8)
    for _ in range(10):
        p = random_unit_ball_quaternion(rng, rmax=0.9, rmin=0.05)
        N = 5
        expected = 2.0 * sum(p.norm_sq() ** l for l in range(N + 1))
        assert abs(cd_kernel_diag(c, N, p) - expected) < 1e-10 * expected


def test_cd_identity_lebesgue():
    c = moments_from_density(lebesgue_density(), 8)
    assert cd_identity_check(c, 4, samples=60, seed=2) < 1e-12


def test_cd_identity_bernstein():
    c = moments_from_density(bernstein_szego_density(), 8)
    assert cd_identity_check(c, 5, samples=100, seed=5) < 1e-9


def test_cd_identity_random_fixture():
    c = random_moment_fixture(61, 10)
    assert cd_identity_check(c, 8, samples=100, seed=7) < 1e-9


def test_entropy_flat_density():
    assert abs(szego_entropy(lebesgue_density())) < 1e-14


def test_entropy_bernstein_closed_form():
    ent = szego_entropy(bernstein_szego_density(0.5))
    assert abs(ent - 2.0 * math.log(0.75)) < 1e-12


def test_entropy_grid_zero():
    assert szego_entropy(vanishing_density()) == float("-inf")


def test_sv_flat():
    rep = sv_check(lebesgue_density(), 5)
    assert all(abs(p - 1.0) < 1e-14 for p in rep["partial_products"])
    assert abs(rep["exp_entropy"] - 1.0) < 1e-13
    assert max(abs(g) for g in rep["gap_history"]) < 1e-13


def test_sv_bernstein():
    rep = sv_check(bernstein_szego_density(0.5), 6)
    assert abs(rep["partial_products"][-1] - 0.75 ** 2) < 1e-10
    assert abs(rep["exp_entropy"] - 0.75 ** 2) < 1e-10
    assert abs(rep["gap_history"][4]) < 1e-8
    # finitely many nonzero coefficients: gap exactly 0 past the last index
    assert abs(rep["gap_history"][-1]) < 1e-10
    # partial products non-increasing and positive
    prods = rep["partial_products"]
    assert all(p > 0 for p in prods)
    assert all(prods[i + 1] <= prods[i] + 1e-15 for i in range(len(prods) - 1))


def test_sv_smooth_trig():
    rep = sv_check(smooth_trig_density(), 50)
    # quadrature error must be far below the acceptance tolerance
    assert rep["quadrature_error"] < 1e-10
    assert abs(rep["gap_history"][-1]) < 1e-6
    gaps = np.abs(np.array(rep["gap_history"]))
    assert gaps[-1] <= gaps[0] + 1e-15


def test_entropy_slice_invariance(rng):
    d = smooth_trig_density()
    base = szego_entropy(d)
    for _ in range(3):
        fr = random_frame(rng)
        moved = QPositiveDensity(fr, d.index, d.coeffs)
        assert abs(szego_entropy(moved) - base) < 1e-8


def test_smooth_trig_grid_frame_invariant_to_four_ulp():
    # the only shipped density with w2 terms; measured 2.8e-17 in the entropy
    # and 1.1e-16 in the smallest grid eigenvalue
    d = smooth_trig_density()
    entropy, density_min = szego_entropy(d), d.min_eigenvalue_on_grid()
    tol = 4 * np.finfo(float).eps
    for seed in range(5):
        moved = QPositiveDensity(random_frame(np.random.default_rng(seed)), d.index,
                                 d.coeffs)
        assert abs(szego_entropy(moved) - entropy) <= tol * max(1.0, abs(entropy))
        assert abs(moved.min_eigenvalue_on_grid() - density_min) <= tol * max(1.0, density_min)


def test_square_summability_examples():
    zeros = VerblunskySeq([Quaternion()] * 20)
    assert float(np.sum(zeros.moduli() ** 2)) == 0.0
    assert not _diverging_over_horizon(zeros.moduli() ** 2)

    n = 100000
    conv = VerblunskySeq([Quaternion(0.5 / (k + 1)) for k in range(n)])
    assert not _diverging_over_horizon(conv.moduli() ** 2)
    assert abs(float(np.sum(conv.moduli() ** 2)) - (math.pi ** 2 / 6) * 0.25) < 1e-5

    div = VerblunskySeq([Quaternion(0.5 / math.sqrt(k + 1)) for k in range(n)])
    assert _diverging_over_horizon(div.moduli() ** 2)


def test_square_summability_iff_finite_entropy():
    # fixture suite: summable-squares <-> entropy > -inf
    cases = [
        (bernstein_szego_density(), True),
        (smooth_trig_density(), True),
        (vanishing_density(), False),  # entropy finite but gammas only l2
    ]
    for d, _ in cases[:2]:
        ent = szego_entropy(d)
        c = moments_from_density(d, 40)
        g = _gammas_via_matrix(c, 40, d.frame)
        assert math.isfinite(ent) and not _diverging_over_horizon(g.moduli() ** 2)
    # the vanishing fixture is square-summable (sum 1/(n+2)^2) and its
    # entropy is finite in the improper sense: log(1+cos t) is integrable;
    # the grid quadrature cannot see that, so it reports -inf and we only
    # assert the gamma side here
    d = vanishing_density()
    c = moments_from_density(d, 60)
    g = _gammas_via_matrix(c, 60, d.frame)
    assert not _diverging_over_horizon(g.moduli() ** 2)


def test_baxter_flat_and_bernstein():
    rep = baxter_check(lebesgue_density(), 32)
    assert rep["verdict"] == "consistent-summable"
    assert rep["gamma_l1"] == 0.0
    rep = baxter_check(bernstein_szego_density(), 64)
    assert rep["verdict"] == "consistent-summable"
    assert abs(rep["gamma_l1"] - 0.5) < 1e-10
    assert rep["density_min"] > 0
    assert math.isfinite(rep["wiener_norm"])


def test_baxter_short_horizon_counts_the_gammas_summable():
    # below 8 coefficients the decay test compares no blocks, so the gammas
    # count as summable unlooked: the vanishing density, whose gammas do not
    # decay, is "inconsistent" at N = 4 and "consistent-nonsummable" at 200
    assert not _diverging_over_horizon(np.ones(7))
    assert _diverging_over_horizon(np.ones(8))
    rep = baxter_check(vanishing_density(), 4)
    assert rep["verdict"] == "inconsistent"
    assert not rep["gamma_l1_diverging"] and rep["density_min"] < 1e-9
    assert len(rep["gamma_moduli"]) == 4


def test_baxter_vanishing_density():
    rep = baxter_check(vanishing_density(), 200)
    assert rep["verdict"] == "consistent-nonsummable"
    assert rep["gamma_l1_diverging"]
    assert rep["density_min"] < 1e-9
    # closed form for this fixture: |gamma_n| = 1/(n+2)
    c = moments_from_density(vanishing_density(), 40)
    g = _gammas_via_matrix(c, 40, vanishing_density().frame)
    expected = 1.0 / np.arange(2, 42)
    assert np.max(np.abs(g.moduli() - expected)) < 1e-9


def test_baxter_smooth_trig():
    rep = baxter_check(smooth_trig_density(), 64)
    assert rep["verdict"] == "consistent-summable"
    assert not rep["gamma_l1_diverging"]


def test_sv_gap_monotone_toward_zero_random():
    gammas = random_gamma_seq(8, 12, rmax=0.6)
    # density-free sanity check: partial products of the gammas
    prods = []
    acc = 1.0
    for g in gammas:
        acc *= (1.0 - g.norm_sq()) ** 2
        prods.append(acc)
    assert all(prods[i + 1] <= prods[i] for i in range(len(prods) - 1))


# ---- the array evaluators against the scalar Quaternion paths ----

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("lebesgue", "bernstein_szego_05", "vanishing_density",
                 "smooth_trig", "random_gamma_7")


def _fixture_moments(name, n):
    from qopuc.cli import load_fixture, moments_from_fixture

    return moments_from_fixture(load_fixture(str(FIXDIR / f"{name}.json"), None), n)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_eval_norm_sq_bitwise_equal_to_scalar_eval(name):
    from qopuc.polynomials import eval_L, eval_R, eval_norm_sq

    N = 8
    fam = family(_fixture_moments(name, N), N)
    # the reverses carry the exact zero coefficients of Bernstein-Szego
    space_l = list(fam.right) + [reverse_R(fam.left[n], n) for n in range(N + 1)]
    space_r = list(fam.left) + [reverse_L(fam.right[n], n) for n in range(N + 1)]
    rng = np.random.default_rng(88)
    # 240 points in one evaluation, more than a CD block of the 2 N + 2 polynomials
    points = rng.normal(size=(240, 4)) * rng.uniform(0.05, 2.0, size=(240, 1))
    points[0] = 0.0
    for polys, scalar in ((space_l, eval_L), (space_r, eval_R)):
        coeffs, left = stacked(polys)
        got = eval_norm_sq(coeffs, points, bool(left[0]))
        want = np.array([[scalar(phi.arr, Quaternion(*p)).norm_sq() for p in points]
                         for phi in polys])
        assert got.tobytes() == want.tobytes()


def _cd_identity_scalar(c, N, samples, seed):
    """The per-point Quaternion loop cd_identity_check replaced: the oracle."""
    from qopuc.polynomials import eval_L, eval_R

    fam = family(c, N + 1)
    rev_left = [reverse_R(fam.left[n], n) for n in range(N + 2)]
    rev_right = [reverse_L(fam.right[n], n) for n in range(N + 2)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for s in range(samples):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        radius = (rng.uniform(0.05, 0.95) if s % 2 == 0 else rng.uniform(1.05, 2.0))
        p = Quaternion(*(radius * v))

        def weight(n):
            return (eval_L(rev_left[n].arr, p).norm_sq()
                    + eval_R(rev_right[n].arr, p).norm_sq())

        def plain(n):
            return (eval_R(fam.left[n].arr, p).norm_sq()
                    + eval_L(fam.right[n].arr, p).norm_sq())

        kernel = 0.0
        for l in range(N + 1):
            kernel += plain(l)
        psq = p.norm_sq()
        denom = 1.0 - psq
        rhs_next = (weight(N + 1) - plain(N + 1)) / denom
        rhs_same = (weight(N) - psq * plain(N)) / denom
        for rhs in (rhs_next, rhs_same):
            worst = max(worst, abs(kernel - rhs) / (1.0 + abs(kernel)))
    return worst


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cd_identity_bitwise_equal_to_scalar_loop(name):
    # the last: three full blocks of 2^12 // 6 = 682 points and a partial one
    for N, samples, seed in ((1, 1, 0), (4, 37, 3), (8, 100, 11), (2, 2348, 5)):
        c = _fixture_moments(name, N + 1)
        assert cd_identity_check(c, N, samples, seed) == _cd_identity_scalar(c, N, samples, seed)
    c = _fixture_moments(name, 5)
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = Quaternion(*(rng.normal(size=4) * 0.3))
        fam = family(c, 4)
        want = 0.0
        for l in range(5):
            want += (eval_R(fam.left[l].arr, p).norm_sq() + eval_L(fam.right[l].arr, p).norm_sq())
        assert cd_kernel_diag(c, 4, p) == want


def test_cd_identity_evaluates_every_sample_point(monkeypatch):
    # the residual is a maximum, which a point dropped at a block edge may not
    # move: each space must get the sample points whole, in order, block by block
    import qopuc.analysis as analysis

    evaluate = analysis.eval_norm_sq
    seen = {}

    def recording(coeffs, points, left):
        seen.setdefault(left, []).append(points)
        return evaluate(coeffs, points, left)

    monkeypatch.setattr(analysis, "eval_norm_sq", recording)
    samples, seed = 2348, 5   # three full blocks of 682 points and a partial one
    cd_identity_check(moments_from_density(smooth_trig_density(), 3), 2, samples, seed)
    want = analysis._sample_points(samples, seed).tobytes()
    assert len(seen) == 2
    assert all(np.concatenate(blocks).tobytes() == want for blocks in seen.values())


def test_cd_identity_memory_bounded_in_samples():
    import tracemalloc

    c = moments_from_density(smooth_trig_density(), 9)
    tracemalloc.start()
    try:
        residual = cd_identity_check(c, 8, samples=20000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-9
    assert peak < 8 * 2 ** 20
