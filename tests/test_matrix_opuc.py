from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from qopuc.errors import ConstantMismatch, NotChiImage, NotContraction
from qopuc.matrix_opuc import (
    MatVerblunskySeq, alphas_from_moments, defects, inverse_schur_step,
    matrix_szego_polys, moments_from_alphas, reverse_matrix_poly,
    schur_algorithm, schur_coeffs_forward, schur_series_from_alphas,
    schur_step, sqrtm_herm2,
)
from qopuc.series import (
    EYE2, TruncSeries, herglotz_from_moments, herglotz_from_schur, schur_from_herglotz,
)
from conftest import random_chi_contraction, random_contraction

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def random_alphas(rng, n, rmax=0.8):
    return MatVerblunskySeq([random_contraction(rng, rmax) for _ in range(n)])


def test_sqrtm_herm2(rng):
    for _ in range(30):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = B @ B.conj().T + 0.1 * EYE2
        R = sqrtm_herm2(H)
        assert np.max(np.abs(R @ R - H)) < 1e-12 * np.max(np.abs(H))
        assert np.max(np.abs(R - R.conj().T)) < 1e-13
        assert np.min(np.linalg.eigvalsh(R)) > 0


def test_defects_basics(rng):
    d = defects(np.zeros((2, 2)))
    assert np.array_equal(d.rhoL, EYE2)
    assert np.array_equal(d.rhoR, EYE2)
    d = defects(0.5 * EYE2)
    assert np.max(np.abs(d.rhoL - np.sqrt(0.75) * EYE2)) < 1e-15
    assert np.max(np.abs(d.rhoR - np.sqrt(0.75) * EYE2)) < 1e-15
    for _ in range(20):
        a = random_contraction(rng)
        d = defects(a)
        assert np.max(np.abs(d.rhoL @ d.rhoL + a.conj().T @ a - EYE2)) < 1e-13
        assert np.max(np.abs(d.rhoR @ d.rhoR + a @ a.conj().T - EYE2)) < 1e-13


def test_defects_rejects_non_contraction():
    with pytest.raises(NotContraction):
        defects(EYE2)
    with pytest.raises(NotContraction):
        defects(1.5 * EYE2)


def test_schur_step_constant_gives_zero(rng):
    alpha = random_contraction(rng)
    f = TruncSeries.constant(alpha, 6)
    out = schur_step(f, alpha)
    assert out.order == 5
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_schur_step_zero():
    f = TruncSeries.constant(np.zeros((2, 2)), 5)
    out = schur_step(f, np.zeros((2, 2)))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_schur_step_constant_mismatch(rng):
    f = TruncSeries.constant(0.5 * EYE2, 5)
    with pytest.raises(ConstantMismatch):
        schur_step(f, 0.25 * EYE2)


def test_schur_step_inversion_oracle(rng):
    for _ in range(20):
        c = 0.3 * (rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2)))
        c /= max(1.0, np.linalg.norm(c[0], 2) / 0.8)
        f = TruncSeries(c)
        alpha = np.array(f.coeffs[0])
        nxt = schur_step(f, alpha)
        back = inverse_schur_step(nxt, alpha)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10


def test_schur_algorithm_trivial_cases(rng):
    f = TruncSeries.constant(np.zeros((2, 2)), 6)
    seq = schur_algorithm(f, 7)
    assert all(np.max(np.abs(a)) == 0 for a in seq)
    alpha = random_contraction(rng)
    seq = schur_algorithm(TruncSeries.constant(alpha, 6), 7)
    assert np.max(np.abs(seq[0] - alpha)) == 0
    assert all(np.max(np.abs(a)) < 1e-13 for a in seq.alphas[1:])


def test_schur_coeffs_forward_low_order(rng):
    alphas = random_alphas(rng, 4)
    s = schur_coeffs_forward(alphas, 3)
    assert np.array_equal(s[0], alphas[0])
    d0 = defects(alphas[0])
    assert np.max(np.abs(s[1] - d0.rhoR @ alphas[1] @ d0.rhoL)) < 1e-13
    # alpha_0 = 0 makes defects trivial: s_1 = alpha_1 exactly
    alphas0 = MatVerblunskySeq([np.zeros((2, 2)), alphas[1], alphas[2]])
    s = schur_coeffs_forward(alphas0, 1)
    assert np.max(np.abs(s[1] - alphas[1])) < 1e-14


def test_schur_coeffs_match_inverted_stripping(rng):
    # series oracle: rebuild f by repeated inverse steps, compare coefficients
    K = 7
    alphas = random_alphas(rng, K + 1)
    direct = schur_series_from_alphas(alphas, K)
    rebuilt = TruncSeries.constant(alphas[K], 0)
    for n in range(K - 1, -1, -1):
        rebuilt = inverse_schur_step(rebuilt, alphas[n])
    assert np.max(np.abs(direct.coeffs - rebuilt.coeffs)) < 1e-10


def test_moments_closed_forms(rng):
    for _ in range(25):
        alphas = random_alphas(rng, 3, rmax=0.85)
        C = moments_from_alphas(alphas, 3)
        d0 = defects(alphas[0])
        assert np.max(np.abs(C[0] - alphas[0])) < 1e-13
        expected = d0.rhoR @ alphas[1] @ d0.rhoL + alphas[0] @ alphas[0]
        assert np.max(np.abs(C[1] - expected)) < 1e-12


def test_moments_all_zero():
    alphas = MatVerblunskySeq([np.zeros((2, 2))] * 5)
    C = moments_from_alphas(alphas, 5)
    assert all(np.max(np.abs(x)) == 0 for x in C)


def test_moments_constant_schur_geometric(rng):
    alpha = random_contraction(rng)
    alphas = MatVerblunskySeq([alpha] + [np.zeros((2, 2))] * 7)
    C = moments_from_alphas(alphas, 8)
    power = EYE2.copy()
    for n in range(8):
        power = power @ alpha
        assert np.max(np.abs(C[n] - power)) < 1e-12


def test_round_trip_alphas_moments(rng):
    for _ in range(30):
        n = int(rng.integers(1, 12))
        alphas = random_alphas(rng, n, rmax=0.9)
        C = moments_from_alphas(alphas, n)
        back = alphas_from_moments(C, n)
        err = max(np.max(np.abs(a - b)) for a, b in zip(alphas, back))
        assert err < 1e-9


def test_alphas_from_moments_rejects_non_pd():
    # c_n = 1 for all n: single atom, Toeplitz rank one
    C = [EYE2.copy() for _ in range(4)]
    with pytest.raises(NotContraction) as info:
        alphas_from_moments(C, 4)
    assert info.value.index is not None


def test_leading_term_law(rng):
    # C_n minus its leading product term depends only on alpha_0..alpha_{n-2}
    n = 5
    base = [random_contraction(rng) for _ in range(n - 1)]
    tail1 = random_contraction(rng)
    tail2 = random_contraction(rng)

    def lead_term(alphas):
        left = EYE2.copy()
        right = EYE2.copy()
        for k in range(n - 2, -1, -1):
            d = defects(alphas[k])
            left = d.rhoR @ left
            right = right @ d.rhoL
        return left @ alphas[n - 1] @ right

    def lead(alphas):
        # rho_0^R ... rho_{n-2}^R alpha_{n-1} rho_{n-2}^L ... rho_0^L
        left = EYE2.copy()
        right = EYE2.copy()
        for k in range(n - 1):
            d = defects(alphas[k])
            left = left @ d.rhoR
            right = d.rhoL @ right
        return left @ alphas[n - 1] @ right

    A1 = MatVerblunskySeq(base + [tail1])
    A2 = MatVerblunskySeq(base + [tail2])
    C1 = moments_from_alphas(A1, n)[n - 1]
    C2 = moments_from_alphas(A2, n)[n - 1]
    assert np.max(np.abs((C1 - lead(A1.alphas)) - (C2 - lead(A2.alphas)))) < 1e-12


def test_matrix_szego_requires_chi_image(rng):
    alphas = MatVerblunskySeq([random_contraction(rng)])
    with pytest.raises(NotChiImage):
        matrix_szego_polys(alphas, 1)


def test_matrix_szego_free_case():
    alphas = MatVerblunskySeq([np.zeros((2, 2))] * 4)
    fam = matrix_szego_polys(alphas, 4)
    for n in range(5):
        P = fam.left[n]
        assert np.max(np.abs(P[-1] - EYE2)) == 0
        if n:
            assert np.max(np.abs(P[:-1])) == 0
        assert np.max(np.abs(fam.left_rev[n][0] - EYE2)) == 0


def test_matrix_szego_single_step():
    gamma = 0.5
    alphas = MatVerblunskySeq([gamma * EYE2])
    fam = matrix_szego_polys(alphas, 1)
    r = np.sqrt(1 - 0.25)
    assert np.max(np.abs(fam.left[1][1] - EYE2 / r)) < 1e-14
    assert np.max(np.abs(fam.left[1][0] + 0.5 * EYE2 / r)) < 1e-14


def test_matrix_szego_recurrence_residuals_and_gram(rng):
    N = 8
    alphas = MatVerblunskySeq([random_chi_contraction(rng) for _ in range(N)])
    fam = matrix_szego_polys(alphas, N)
    C = moments_from_alphas(alphas, N)

    def Cm(n):
        if n == 0:
            return EYE2
        return C[n - 1] if n > 0 else C[-n - 1].conj().T

    def inner_R(f, g):
        out = np.zeros((2, 2), dtype=complex)
        for l in range(len(g)):
            for k in range(len(f)):
                out += g[l].conj().T @ Cm(k - l) @ f[k]
        return out

    def inner_L(f, g):
        out = np.zeros((2, 2), dtype=complex)
        for k in range(len(f)):
            for l in range(len(g)):
                out += f[k] @ Cm(k - l) @ g[l].conj().T
        return out

    # Toeplitz Gram oracle: both families orthonormal
    for n in range(N + 1):
        for m in range(N + 1):
            tgt = EYE2 if n == m else np.zeros((2, 2))
            assert np.max(np.abs(inner_R(fam.right[n], fam.right[m]) - tgt)) < 1e-10
            assert np.max(np.abs(inner_L(fam.left[n], fam.left[m]) - tgt)) < 1e-10

    # recurrences hold coefficientwise; maintained reverses match reversal
    for n in range(N):
        a = alphas[n]
        from qopuc.matrix_opuc import scalar_defect
        r = scalar_defect(a)
        zL = np.concatenate([np.zeros((1, 2, 2)), fam.left[n]])
        lhs = zL - r * fam.left[n + 1]
        rhs = np.einsum("ij,njk->nik", a, np.concatenate([fam.right_rev[n], np.zeros((1, 2, 2))]))
        assert np.max(np.abs(lhs - rhs)) < 1e-11
        zR = np.concatenate([np.zeros((1, 2, 2)), fam.right[n]])
        lhs = zR - r * fam.right[n + 1]
        rhs = np.einsum("nij,jk->nik", np.concatenate([fam.left_rev[n], np.zeros((1, 2, 2))]), a)
        assert np.max(np.abs(lhs - rhs)) < 1e-11
    for n in range(N + 1):
        assert np.max(np.abs(fam.left_rev[n] - reverse_matrix_poly(fam.left[n], n))) < 1e-11
        assert np.max(np.abs(fam.right_rev[n] - reverse_matrix_poly(fam.right[n], n))) < 1e-11
        # chi-image is preserved along the recurrence
        from qopuc.quaternions import chi_image_residual
        for M in fam.left[n]:
            assert chi_image_residual(M) < 1e-9


def test_schur_coeffs_all_zero():
    alphas = MatVerblunskySeq([np.zeros((2, 2))] * 5)
    assert all(np.max(np.abs(s)) == 0 for s in schur_coeffs_forward(alphas, 4))


def test_alphas_from_zero_moments():
    C = [np.zeros((2, 2))] * 5
    seq = alphas_from_moments(C, 5)
    assert all(np.max(np.abs(a)) == 0 for a in seq)


def test_round_trip_depth_twenty(rng):
    alphas = random_alphas(rng, 20, rmax=0.9)
    C = moments_from_alphas(alphas, 20)
    back = alphas_from_moments(C, 20)
    err = max(np.max(np.abs(a - b)) for a, b in zip(alphas, back))
    assert err < 1e-9


# ---- generator form against the paper's series recursions ----

def reference_alphas(C, N):
    """Route A as the Cayley transform followed by Schur's series algorithm."""
    return schur_algorithm(schur_from_herglotz(herglotz_from_moments(C, N)), N)


def max_gap(xs, ys):
    return max(float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) for x, y in zip(xs, ys))


@pytest.mark.parametrize("N", [12, 25, 40])
def test_route_a_matches_series_chain_on_fixtures(N):
    from qopuc.cli import fixture_frame, load_fixture, moments_from_fixture
    from qopuc.measures import matrix_moments

    checked = 0
    for path in sorted(FIXDIR.glob("*.json")):
        obj = load_fixture(str(path))
        if 0 < len(obj.get("gammas", [])) < N:
            continue  # a gamma fixture carries moments only up to its length
        c = moments_from_fixture(obj, N, None)
        C = matrix_moments(c, fixture_frame(obj, None), N)[1:]
        assert max_gap(alphas_from_moments(C, N), reference_alphas(C, N)) <= 1e-13, path.name
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("N", [12, 25, 40])
def test_route_a_matches_series_chain_general_contractions(N):
    # general (not embedding-image) contractions: the defects are not scalar
    rng = np.random.default_rng(4000 + N)
    for _ in range(5):
        alphas = random_alphas(rng, N, rmax=0.5)
        C = moments_from_alphas(alphas, N)
        assert max_gap(alphas_from_moments(C, N), reference_alphas(C, N)) <= 1e-13


def test_forward_map_matches_series_chain(rng):
    K = 40
    for alphas in (random_alphas(rng, K, rmax=0.8),
                   MatVerblunskySeq([random_chi_contraction(rng) for _ in range(K)])):
        F = herglotz_from_schur(schur_series_from_alphas(alphas, K - 1))
        assert max_gap(moments_from_alphas(alphas, K), F.coeffs[1:] / 2.0) <= 1e-13


def test_route_a_horizon_prefix_is_byte_identical():
    from qopuc.fixtures import smooth_trig_density, vanishing_density
    from qopuc.measures import matrix_moments, moments_from_density

    for d in (vanishing_density(), smooth_trig_density()):
        C = matrix_moments(moments_from_density(d, 200), d.frame, 200)[1:]
        short = alphas_from_moments(C[:50], 50)
        full = alphas_from_moments(C, 200)
        assert all(np.array_equal(a, b) for a, b in zip(short, full.alphas[:50]))


def test_forward_map_horizon_prefix_is_byte_identical():
    # C_{m+1} is read off after step m, which uses alpha_0..alpha_m only.  The
    # inverse recursion run tail first (from alpha_{K-1} down to alpha_0) gives
    # the same moments only up to roundoff (its K = 20 and K = 80 runs are
    # about 2e-13 apart on this sequence) and fails this check.
    from qopuc.fixtures import random_gamma_seq
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    alphas = MatVerblunskySeq([chi(g, frame) for g in random_gamma_seq(7, 80)])
    full = moments_from_alphas(alphas, 80)
    for K in (20, 40):
        assert all(np.array_equal(a, b) for a, b in zip(moments_from_alphas(alphas, K), full))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
def test_route_a_vanishing_density_closed_form_n400():
    # in double precision the generator recursion reaches only about 4e-15 here
    from qopuc.fixtures import vanishing_density
    from qopuc.measures import matrix_moments, moments_from_density
    from qopuc.quaternions import chi_inv

    d = vanishing_density()
    N = 400
    C = matrix_moments(moments_from_density(d, N), d.frame, N)[1:]
    gammas = [chi_inv(a, d.frame) for a in alphas_from_moments(C, N)]
    err = max(abs(abs(g) - 1.0 / (n + 2)) for n, g in enumerate(gammas))
    assert err <= 1e-15
