from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qopuc.errors import (
    ConstantMismatch, NotChiImage, NotContraction, ShiftResidual, SingularConstantTerm,
)
from qopuc.matrix_opuc import (
    CONTRACTION_MARGIN, SQRT_CHECK_TOL, MatVerblunskySeq, _inv2, alphas_from_moments,
    defects, inverse_schur_step, moments_from_alphas, operator_norm2, schur_algorithm,
    schur_coeffs_forward, schur_series_from_alphas, schur_step, sqrtm_herm2,
)
from qopuc.quaternions import chi_image_residual
from qopuc.series import (
    COND_LIMIT, EYE2, SHIFT_TOL, TruncSeries, cond2, herglotz_from_moments,
    herglotz_from_schur, schur_from_herglotz,
)
from conftest import random_chi_contraction, random_contraction, random_unit_ball_quaternion

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


# ---- matrix Szego recurrences for embedding-image coefficients: the
# chi-side oracle for polynomials.szego_advance ----

def require_chi_image(alpha, tol=1e-10):
    residual = chi_image_residual(np.asarray(alpha, dtype=complex))
    if residual > tol:
        raise NotChiImage(
            f"coefficient is not in the embedding image (residual {residual:.3e})")


def scalar_defect(alpha):
    """r = sqrt(1 - |gamma|^2) for an embedding-image contraction."""
    det = float(np.linalg.det(np.asarray(alpha, dtype=complex)).real)
    return float(np.sqrt(1.0 - det))


class MatrixSzegoFamily(NamedTuple):
    """Polynomials as (deg+1, 2, 2) coefficient arrays, degree index first."""

    left: list
    right: list
    left_rev: list
    right_rev: list


def matrix_szego_polys(alphas, N, tol_image=1e-10):
    """The matrix Szego recurrences for embedding-image coefficients.

    For such coefficients alpha is normal and both defects coincide with
    r_n I where r_n = sqrt(1 - |gamma_n|^2) = sqrt(1 - det alpha_n), so the
    recurrences take the paired form

        phi_{n+1}^L     = r^{-1} (z phi_n^L - alpha_n phi_n^{R,#})
        phi_{n+1}^R     = r^{-1} (z phi_n^R - phi_n^{L,#} alpha_n)
        phi_{n+1}^{L,#} = r^{-1} (phi_n^{L,#} - z phi_n^R alpha_n^*)
        phi_{n+1}^{R,#} = r^{-1} (phi_n^{R,#} - z alpha_n^* phi_n^L)

    with phi_0 = I everywhere, in the moment convention F = I + 2 sum C_n z^n.
    """
    if len(alphas) < N:
        raise ValueError(f"need at least {N} coefficients, got {len(alphas)}")
    left = [np.array([EYE2])]
    right = [np.array([EYE2])]
    left_rev = [np.array([EYE2])]
    right_rev = [np.array([EYE2])]
    zero = np.zeros((1, 2, 2), dtype=complex)
    for n in range(N):
        a = np.asarray(alphas[n], dtype=complex)
        require_chi_image(a, tol_image)
        aH = a.conj().T
        r = scalar_defect(a)
        zL = np.concatenate([zero, left[n]])
        zR = np.concatenate([zero, right[n]])
        pad = np.concatenate([left_rev[n], zero])
        pad_r = np.concatenate([right_rev[n], zero])
        left.append((zL - np.einsum("ij,njk->nik", a, pad_r)) / r)
        right.append((zR - np.einsum("nij,jk->nik", pad, a)) / r)
        left_rev.append((pad - np.einsum("nij,jk->nik", zR, aH)) / r)
        right_rev.append((pad_r - np.einsum("ij,njk->nik", aH, zL)) / r)
    return MatrixSzegoFamily(left, right, left_rev, right_rev)


def reverse_matrix_poly(P, degree):
    """P^#(z) = z^degree P(1/conj z)^*: coefficient k becomes P_{degree-k}^*."""
    P = np.asarray(P, dtype=complex)
    if degree < len(P) - 1:
        raise ValueError("reversal degree below polynomial degree")
    out = np.zeros((degree + 1, 2, 2), dtype=complex)
    for k in range(degree + 1):
        src = degree - k
        if src < len(P):
            out[k] = P[src].conj().T
    return out


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


def test_szego_advance_matches_matrix_szego_recurrence(rng):
    # the quaternionic recurrence, embedded coefficientwise, is the matrix one
    from qopuc.polynomials import SzegoState, szego_advance
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    gammas = [random_unit_ball_quaternion(rng) for _ in range(8)]
    fam = matrix_szego_polys(MatVerblunskySeq([chi(g, frame) for g in gammas]), 8)
    state = SzegoState.initial()
    for n, g in enumerate(gammas, start=1):
        state = szego_advance(state, g)
        for poly, want in ((state.left, fam.left[n]), (state.right, fam.right[n]),
                           (state.left_rev, fam.left_rev[n]),
                           (state.right_rev, fam.right_rev[n])):
            assert np.max(np.abs(chi(poly.arr, frame) - want)) < 1e-13


# ---- the closed-form 2x2 norm and condition number ----

def test_contraction_test_rejects_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NotContraction) as info:
            MatVerblunskySeq([np.zeros((2, 2)), [[bad, 0.0], [0.0, 0.1]]])
        assert info.value.index == 1
        with pytest.raises(NotContraction):
            defects(np.array([[0.1, 0.0], [bad * 1j, 0.1]]))


def closed_form_inputs(rng, n=2000):
    """Random, rank-one and rescaled (1e-8 to 1e6) complex 2x2 matrices."""
    def normal():
        return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    scales = 10.0 ** rng.uniform(-8.0, 6.0, size=n)
    return {"random": normal(), "rank_one": u[:, :, None] * v[:, None, :],
            "rescaled": normal() * scales[:, None, None]}


def near_sphere_chi_images(rng, n=20000):
    """chi images of quaternions with 1 - |gamma| in [1e-13, 1e-9], the inputs
    whose two equal singular values defeat the t^2 - 4|det|^2 form."""
    from qopuc.quaternions import SliceFrame, chi

    v = rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    gap = 10.0 ** rng.uniform(-13.0, -9.0, size=n)
    return chi(v * (1.0 - gap)[:, None], SliceFrame.standard())


def test_operator_norm2_matches_svd():
    rng = np.random.default_rng(8101)
    for kind, Ms in closed_form_inputs(rng).items():
        for M in Ms:
            want = np.linalg.norm(M, 2)
            assert abs(operator_norm2(M) - want) <= 1e-14 * want, kind
    # the contraction decision at 1 - 1e-12: both singular values of a chi
    # image equal |gamma|, read here in long double off the entries.  Within
    # a few ulps of the bound the SVD itself misjudges (two cases at this
    # seed, where the closed form is right), so the SVD is held to the
    # exact decision only beyond 2e-15 of the bound, the closed form beyond
    # 2 ulps.
    bound = 1.0 - CONTRACTION_MARGIN
    images = near_sphere_chi_images(rng)
    exact = np.sqrt(np.sum(np.abs(images.astype(LD)) ** 2, axis=(1, 2)) / 2)
    for M, norm in zip(images, exact):
        want = np.linalg.norm(M, 2)
        got = operator_norm2(M)
        assert abs(got - want) <= 1e-14 * want
        if abs(norm - bound) > 4.5e-16:
            assert (got < bound) == (norm < bound)
        if abs(norm - bound) > 2e-15:
            assert (got < bound) == (want < bound)
    assert operator_norm2(np.zeros((2, 2))) == 0.0
    assert operator_norm2(np.diag([1e150, 1e150])) == pytest.approx(1e150, rel=1e-15)
    assert operator_norm2(np.diag([1e200, 0.5])) == np.inf   # overflow rejects, never raises


def test_cond2_matches_numpy_cond():
    # det and the SVD's smallest singular value both lose relative accuracy in
    # proportion to the condition number, so the two agree to 1e-14 only on
    # well-conditioned input and to about eps * cond beyond
    rng = np.random.default_rng(8102)
    inputs = closed_form_inputs(rng)
    for kind in ("random", "rescaled"):
        for M in inputs[kind]:
            want = np.linalg.cond(M)
            assert abs(cond2(M) - want) <= (1e-14 + 1e-15 * want) * want, kind
            if want <= 10.0:
                assert abs(cond2(M) - want) <= 1e-14 * want, kind
    for target in (1e4, 1e8, 1e11):
        for _ in range(200):
            U, _, Vh = np.linalg.svd(inputs["random"][int(rng.integers(2000))])
            M = U @ np.diag([1.0, 1.0 / target]) @ Vh
            want = np.linalg.cond(M)
            assert abs(cond2(M) - want) <= 1e-15 * want * want
    for M in inputs["rank_one"]:
        assert cond2(M) > COND_LIMIT and np.linalg.cond(M) > COND_LIMIT
    assert cond2(np.ones((2, 2))) == np.inf
    assert np.isnan(cond2(np.array([[np.nan, 0.0], [0.0, 1.0]])))


def test_singular_constant_term_rejected():
    from qopuc.series import series_inv

    for a0 in (np.ones((2, 2)), np.diag([1.0, 1e-13]), np.full((2, 2), np.nan)):
        with pytest.raises(SingularConstantTerm):
            series_inv(TruncSeries.constant(a0, 3))
    assert np.array_equal(series_inv(TruncSeries.constant(np.diag([1.0, 1e-11]), 3)).coeffs[0],
                          np.diag([1.0, 1e11]))


# ---- the per-matrix forms the stacked closed forms replaced, kept as
# byte-level oracles: an SVD per contraction test, np.linalg.cond on B(0),
# and one square root and one inverse per matrix ----

LD = np.clongdouble


def contraction_svd(alpha, index=None):
    if float(np.linalg.norm(np.asarray(alpha, dtype=complex), 2)) >= 1.0 - CONTRACTION_MARGIN:
        raise NotContraction("not a strict contraction", index=index)


def sqrtm_herm2_single(H):
    H = np.asarray(H)
    H = H.astype(np.result_type(H.dtype, np.complex128), copy=False)
    t = H[0, 0].real + H[1, 1].real
    d = max((H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]).real, 0.0)
    s = np.sqrt(d)
    denom = t + 2.0 * s
    if denom <= 0.0:
        raise ValueError("matrix is not positive semidefinite")
    R = (H + s * EYE2) / np.sqrt(denom)
    if np.max(np.abs(R @ R - H)) > SQRT_CHECK_TOL * max(1.0, t):
        raise ValueError("square-root residual beyond tolerance")
    return R


def inv2_single(M):
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


def defects_single(alpha):
    """(rhoL, rhoR) of one contraction."""
    contraction_svd(alpha)
    aH = alpha.conj().T
    return sqrtm_herm2_single(EYE2 - aH @ alpha), sqrtm_herm2_single(EYE2 - alpha @ aH)


def moments_from_alphas_per_matrix(alphas, N):
    alpha = np.array([np.asarray(alphas[n]) for n in range(N)], dtype=LD).reshape(N, 2, 2)
    pairs = [defects_single(a) for a in alpha]
    rhoR = [rL_rR[1] for rL_rR in pairs]
    rhoLi = np.array([inv2_single(rL_rR[0]) for rL_rR in pairs]).reshape(N, 2, 2)
    alphaH = alpha.conj().transpose(0, 2, 1)
    C = []
    b = EYE2[None].astype(LD)
    for m in range(N):
        a = np.empty_like(b)
        a[m] = alpha[m] @ b[m]
        for k in range(m - 1, -1, -1):
            a[k] = rhoR[k] @ a[k + 1] + alpha[k] @ b[k]
        C.append(a[0].astype(complex))
        nxt = np.empty((m + 2, 2, 2), dtype=LD)
        nxt[0] = a[0]
        nxt[1:] = rhoLi[: m + 1] @ (b - alphaH[: m + 1] @ a)
        b = nxt
    return C


def alphas_from_moments_per_matrix(C, N):
    A = np.array([np.asarray(M) for M in C[:N]], dtype=LD).reshape(N, 2, 2)
    B = np.empty_like(A)
    B[:1] = EYE2
    B[1:] = A[:-1]
    alphas = []
    for n in range(N):
        if np.linalg.cond(B[0].astype(complex)) > COND_LIMIT:
            raise SingularConstantTerm("B(0) singular")
        alpha_ld = A[0] @ inv2_single(B[0])
        alpha = alpha_ld.astype(complex)
        contraction_svd(alpha, n)
        alphas.append(alpha)
        if n == N - 1:
            break
        rhoL, rhoR = defects_single(alpha_ld)
        num = A - alpha_ld @ B
        if float(np.max(np.abs(num[0]))) > SHIFT_TOL:
            raise ShiftResidual("shift residual")
        A, B = (inv2_single(rhoR) @ num[1:],
                inv2_single(rhoL) @ (B[:-1] - alpha_ld.conj().T @ A[:-1]))
    return alphas


def _bits(x):
    """x as comparable bits: the raw bytes, except for long double, whose
    storage carries padding bytes that no operation sets; there the real
    components with their signs (equal values with equal signs are equal
    80-bit numbers)."""
    x = np.asarray(x)
    if x.dtype in (np.longdouble, np.clongdouble):
        v = x.view(np.longdouble).ravel()
        return (str(x.dtype), x.shape, tuple(v.tolist()), tuple(np.signbit(v).tolist()))
    return (str(x.dtype), x.shape, x.tobytes())


def same_bytes(xs, ys):
    return len(xs) == len(ys) and all(_bits(x) == _bits(y) for x, y in zip(xs, ys))


def test_stacked_2x2_forms_bitwise_equal_to_per_matrix_forms(rng):
    # in np.clongdouble, the precision of route A and the forward map; in
    # complex128 numpy's vectorised complex product may fuse a multiply-add
    # that the per-matrix scalar product rounds, so there the stacked forms
    # agree only to rounding
    mats = [random_contraction(rng) for _ in range(40)]
    mats += [random_chi_contraction(rng) for _ in range(40)]
    mats += [np.zeros((2, 2)), -0.0 * EYE2, 0.5 * EYE2, np.diag([0.3, -0.0]),
             np.array([[0.0, 0.9], [-0.0, 0.0]])]
    alpha = np.array(mats, dtype=LD)
    roots = [defects_single(a) for a in alpha]
    d = defects(alpha)
    assert same_bytes(list(d.rhoL), [r[0] for r in roots])
    assert same_bytes(list(d.rhoR), [r[1] for r in roots])
    assert all(same_bytes([defects(a).rhoL, defects(a).rhoR], r) for a, r in zip(alpha, roots))
    H = np.array([EYE2 - a.conj().T @ a for a in alpha])
    assert same_bytes(list(sqrtm_herm2(H)), [sqrtm_herm2_single(h) for h in H])
    assert same_bytes(list(_inv2(d.rhoL)), [inv2_single(r[0]) for r in roots])
    assert same_bytes([_inv2(alpha[0])], [inv2_single(alpha[0])])
    d128 = defects(alpha.astype(complex))
    for a, rL, rR in zip(alpha.astype(complex), d128.rhoL, d128.rhoR):
        wL, wR = defects_single(a)
        assert np.max(np.abs(rL - wL)) <= 1e-15 and np.max(np.abs(rR - wR)) <= 1e-15


@pytest.mark.parametrize("name", ["vanishing_density", "bernstein_szego_density",
                                  "smooth_trig_density"])
def test_route_a_bitwise_equal_to_per_matrix_form(name):
    from qopuc import fixtures
    from qopuc.measures import matrix_moments, moments_from_density

    d = getattr(fixtures, name)()
    C = matrix_moments(moments_from_density(d, 200), d.frame, 200)[1:]
    assert same_bytes(alphas_from_moments(C, 200).alphas,
                      alphas_from_moments_per_matrix(C, 200))


def test_forward_map_and_route_a_bitwise_equal_to_per_matrix_form():
    from qopuc.fixtures import random_gamma_seq
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    for seed in (1017, 2017, 3017):
        alphas = MatVerblunskySeq([chi(g, frame) for g in random_gamma_seq(seed, 80, rmax=0.8)])
        C = moments_from_alphas(alphas, 80)
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, 80))
    general = np.random.default_rng(4101)
    for _ in range(3):
        alphas = MatVerblunskySeq([random_contraction(general, 0.5) for _ in range(40)])
        C = moments_from_alphas(alphas, 40)
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, 40))
        assert same_bytes(alphas_from_moments(C, 40).alphas,
                          alphas_from_moments_per_matrix(C, 40))


def test_route_a_and_forward_map_make_no_linalg_call(monkeypatch):
    from qopuc.fixtures import random_gamma_seq, smooth_trig_density
    from qopuc.measures import matrix_moments, moments_from_density
    from qopuc.quaternions import SliceFrame, chi

    d = smooth_trig_density()
    C = matrix_moments(moments_from_density(d, 200), d.frame, 200)[1:]
    frame = SliceFrame.standard()
    alphas = MatVerblunskySeq([chi(g, frame) for g in random_gamma_seq(7, 80)])
    want_a, want_c = alphas_from_moments(C, 200), moments_from_alphas(alphas, 80)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("svd", "norm", "cond", "inv", "det", "eig", "eigh", "eigvals",
                 "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert same_bytes(alphas_from_moments(C, 200).alphas, want_a.alphas)
    assert same_bytes(moments_from_alphas(alphas, 80), want_c)
