from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qopuc.errors import (
    ConstantMismatch, NotContraction, NotInImage, ShiftResidual, SingularConstantTerm,
)
from qopuc.matrix_opuc import (
    CONTRACTION_MARGIN, SQRT_CHECK_TOL, _entries, _inv2, _matrix, _mul2, _require_contraction,
    alphas_from_moments, defects, moments_from_alphas, schur_step,
)
from qopuc.quaternions import chi_image_residual
from qopuc.series import (
    COND_LIMIT, EYE2, SHIFT_TOL, TruncSeries, _gram_max_eigenvalue, cond2,
    herglotz_from_moments, herglotz_from_schur, schur_from_herglotz, series_inv,
)
from conftest import (
    bernstein_szego_density, inverse_schur_step, lebesgue_density, random_chi_contraction,
    random_contraction, random_frame, random_moment_fixture, random_unit_ball_quaternion,
    schur_algorithm, schur_coeffs_forward, smooth_trig_density, sqrtm_herm2, vanishing_density,
)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def read_only(mats):
    """Matrix Verblunsky coefficients as the library holds them: one
    read-only (N, 2, 2) complex array."""
    alphas = np.array(mats, dtype=complex).reshape(-1, 2, 2)
    alphas.setflags(write=False)
    return alphas


def random_alphas(rng, n, rmax=0.8):
    return read_only([random_contraction(rng, rmax) for _ in range(n)])


def test_sqrtm_herm2(rng):
    for _ in range(30):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H = B @ B.conj().T + 0.1 * EYE2
        R = sqrtm_herm2(H)
        assert np.max(np.abs(R @ R - H)) < 1e-12 * np.max(np.abs(H))
        assert np.max(np.abs(R - R.conj().T)) < 1e-13
        assert np.min(np.linalg.eigvalsh(R)) > 0


def test_sqrtm_herm2_rejects_non_finite_entries(rng):
    # NaN passes a test of the form "x <= 0" or "x > tol"; the checks are
    # written to reject it, on one matrix and on any member of a stack
    B = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    good = B @ B.conj().transpose(0, 2, 1) + 0.1 * EYE2
    bad = [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
           np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[1.0, np.inf], [np.inf, 1.0]])]
    for dtype in (complex, LD):
        for M in bad:
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                sqrtm_herm2(M.astype(dtype))
            stack = good.astype(dtype)
            stack[3] = M
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                sqrtm_herm2(stack)
        assert np.all(np.isfinite(sqrtm_herm2(good.astype(dtype))))


def test_defects_basics(rng):
    assert defects(np.zeros((2, 2))).shape == (2, 2, 2)
    rhoL, rhoR = defects(np.zeros((2, 2)))
    assert np.array_equal(rhoL, EYE2)
    assert np.array_equal(rhoR, EYE2)
    rhoL, rhoR = defects(0.5 * EYE2)
    assert np.max(np.abs(rhoL - np.sqrt(0.75) * EYE2)) < 1e-15
    assert np.max(np.abs(rhoR - np.sqrt(0.75) * EYE2)) < 1e-15
    for _ in range(20):
        a = random_contraction(rng)
        rhoL, rhoR = defects(a)
        assert np.max(np.abs(rhoL @ rhoL + a.conj().T @ a - EYE2)) < 1e-13
        assert np.max(np.abs(rhoR @ rhoR + a @ a.conj().T - EYE2)) < 1e-13


def test_defects_rejects_non_contraction():
    with pytest.raises(NotContraction) as info:
        defects(EYE2)
    assert info.value.index is None
    with pytest.raises(NotContraction):
        defects(1.5 * EYE2)
    # a stack names the flat index of the first matrix that fails
    stack = np.array([0.5 * EYE2, 0.1 * EYE2, 1.5 * EYE2, EYE2]).reshape(2, 2, 2, 2)
    with pytest.raises(NotContraction) as info:
        defects(stack)
    assert info.value.index == 2


def test_defects_names_the_first_failure_of_a_stack():
    # one step over the stack: the first failing flat index and its message,
    # whatever fails after it, a NaN included
    stack = np.array([0.5 * EYE2, 0.1 * EYE2, 0.2 * EYE2, 1.5 * EYE2, np.full((2, 2), np.nan),
                      EYE2, 0.3 * EYE2, 2 * EYE2]).reshape(2, 4, 2, 2)
    for first in (3, 4):
        with pytest.raises(NotContraction) as info:
            defects(stack.reshape(-1, 2, 2)[first:])
        assert info.value.index == 0
        with pytest.raises(NotContraction) as info:
            defects(np.concatenate([stack.reshape(-1, 2, 2)[:3], stack.reshape(-1, 2, 2)[first:]]))
        assert info.value.index == 3
    with pytest.raises(NotContraction) as info:
        defects(stack)
    assert info.value.index == 3
    assert str(info.value) == "coefficient 3 has norm >= 1 - 1e-12; not a strict contraction"
    with pytest.raises(NotContraction) as info:
        defects(np.full((2, 2), np.nan))
    assert info.value.index is None
    assert str(info.value) == "coefficient has norm >= 1 - 1e-12; not a strict contraction"


def test_defects_contraction_margin():
    # the report set's margins: |gamma_1| = 1 - 7e-13 fails 1 - 1e-12, and
    # 1 - 2e-12 passes it, in both precisions
    for dtype in (complex, np.clongdouble):
        for radius, fails in ((1 - 7e-13, True), (1 - 2e-12, False)):
            stack = np.array([0.3 * EYE2, radius * EYE2, 0.2 * EYE2], dtype=dtype)
            if fails:
                with pytest.raises(NotContraction) as info:
                    defects(stack)
                assert info.value.index == 1
            else:
                assert np.all(np.isfinite(defects(stack)))


def contraction_failure(alpha, index=None):
    """The index the NotContraction of ``_require_contraction(alpha, index)``
    carries, or "passes"."""
    try:
        _require_contraction(alpha, index)
    except NotContraction as exc:
        return exc.index
    return "passes"


def test_stacked_norms_are_the_per_matrix_norms(rng):
    # a stack's verdict and first failing flat index are those of its
    # matrices tested one at a time: moduli from 1e-200 to 1e200, overflow to
    # inf, NaN and inf entries, signed zeros, long double input, 4-d stacks
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        if trial % 2:
            A = A * 10.0 ** rng.integers(-200, 200, size=(n, 2, 2))
        if trial % 5 == 0:
            A = -A.imag * 1j
        if trial % 13 == 0:
            A = A.astype(np.clongdouble) * (1 + np.longdouble(2) ** -60)
        if trial % 7 == 0:
            A.flat[rng.integers(A.size)] = complex(np.nan, 0.0)
        if trial % 11 == 0:
            A.flat[rng.integers(A.size)] = complex(0.0, -np.inf)
        alone = [contraction_failure(a, k) for k, a in enumerate(A)]
        want = next((k for k in alone if k != "passes"), "passes")
        assert contraction_failure(A.reshape(2, -1, 2, 2) if n % 2 == 0 else A) == want
        outcomes.add(want if want in ("passes", 0) else "later")
    assert outcomes == {"passes", 0, "later"}


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
    assert all(np.max(np.abs(a)) < 1e-13 for a in seq[1:])
    assert seq.shape == (7, 2, 2) and seq.dtype == complex and not seq.flags.writeable


def test_schur_coeffs_forward_low_order(rng):
    alphas = random_alphas(rng, 4)
    s = schur_coeffs_forward(alphas, 3)
    assert np.array_equal(s[0], alphas[0])
    rhoL, rhoR = defects(alphas[0])
    assert np.max(np.abs(s[1] - rhoR @ alphas[1] @ rhoL)) < 1e-13
    # alpha_0 = 0 makes defects trivial: s_1 = alpha_1 exactly
    alphas0 = read_only([np.zeros((2, 2)), alphas[1], alphas[2]])
    s = schur_coeffs_forward(alphas0, 1)
    assert np.max(np.abs(s[1] - alphas[1])) < 1e-14


def test_schur_coeffs_match_inverted_stripping(rng):
    # series oracle: rebuild f by repeated inverse steps, compare coefficients
    K = 7
    alphas = random_alphas(rng, K + 1)
    direct = TruncSeries(np.array(schur_coeffs_forward(alphas, K)))
    rebuilt = TruncSeries.constant(alphas[K], 0)
    for n in range(K - 1, -1, -1):
        rebuilt = inverse_schur_step(rebuilt, alphas[n])
    assert np.max(np.abs(direct.coeffs - rebuilt.coeffs)) < 1e-10


def test_moments_closed_forms(rng):
    for _ in range(25):
        alphas = random_alphas(rng, 3, rmax=0.85)
        C = moments_from_alphas(alphas, 3)
        rhoL, rhoR = defects(alphas[0])
        assert np.max(np.abs(C[0] - alphas[0])) < 1e-13
        expected = rhoR @ alphas[1] @ rhoL + alphas[0] @ alphas[0]
        assert np.max(np.abs(C[1] - expected)) < 1e-12


def test_moments_all_zero():
    alphas = read_only([np.zeros((2, 2))] * 5)
    C = moments_from_alphas(alphas, 5)
    assert all(np.max(np.abs(x)) == 0 for x in C)


def test_moments_constant_schur_geometric(rng):
    alpha = random_contraction(rng)
    alphas = read_only([alpha] + [np.zeros((2, 2))] * 7)
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


def test_alphas_from_moments_needs_n_moments():
    with pytest.raises(ValueError, match="need 4 moment matrices, got 3"):
        alphas_from_moments([0.1 * EYE2] * 3, 4)


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
            rhoL, rhoR = defects(alphas[k])
            left = rhoR @ left
            right = right @ rhoL
        return left @ alphas[n - 1] @ right

    def lead(alphas):
        # rho_0^R ... rho_{n-2}^R alpha_{n-1} rho_{n-2}^L ... rho_0^L
        left = EYE2.copy()
        right = EYE2.copy()
        for k in range(n - 1):
            rhoL, rhoR = defects(alphas[k])
            left = left @ rhoR
            right = rhoL @ right
        return left @ alphas[n - 1] @ right

    A1 = read_only(base + [tail1])
    A2 = read_only(base + [tail2])
    C1 = moments_from_alphas(A1, n)[n - 1]
    C2 = moments_from_alphas(A2, n)[n - 1]
    assert np.max(np.abs((C1 - lead(A1)) - (C2 - lead(A2)))) < 1e-12


# ---- matrix Szego recurrences for embedding-image coefficients: the
# chi-side oracle for conftest.szego_advance ----

def require_chi_image(alpha, tol=1e-10):
    residual = chi_image_residual(np.asarray(alpha, dtype=complex))
    if residual > tol:
        raise NotInImage(
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
    alphas = read_only([random_contraction(rng)])
    with pytest.raises(NotInImage):
        matrix_szego_polys(alphas, 1)


def test_matrix_szego_free_case():
    alphas = read_only([np.zeros((2, 2))] * 4)
    fam = matrix_szego_polys(alphas, 4)
    for n in range(5):
        P = fam.left[n]
        assert np.max(np.abs(P[-1] - EYE2)) == 0
        if n:
            assert np.max(np.abs(P[:-1])) == 0
        assert np.max(np.abs(fam.left_rev[n][0] - EYE2)) == 0


def test_matrix_szego_single_step():
    gamma = 0.5
    alphas = read_only([gamma * EYE2])
    fam = matrix_szego_polys(alphas, 1)
    r = np.sqrt(1 - 0.25)
    assert np.max(np.abs(fam.left[1][1] - EYE2 / r)) < 1e-14
    assert np.max(np.abs(fam.left[1][0] + 0.5 * EYE2 / r)) < 1e-14


def test_matrix_szego_recurrence_residuals_and_gram(rng):
    N = 8
    alphas = read_only([random_chi_contraction(rng) for _ in range(N)])
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
    alphas = read_only([np.zeros((2, 2))] * 5)
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
    from qopuc.cli import load_fixture, moments_from_fixture
    from qopuc.quaternions import chi

    checked = 0
    for path in sorted(FIXDIR.glob("*.json")):
        fix = load_fixture(str(path), None)
        if fix.gammas is not None and 0 < len(fix.gammas) < N:
            continue  # a gamma fixture carries moments only up to its length
        c = moments_from_fixture(fix, N)
        C = chi(c.arr[1:], fix.frame)
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
                   read_only([random_chi_contraction(rng) for _ in range(K)])):
        F = herglotz_from_schur(TruncSeries(np.array(schur_coeffs_forward(alphas, K - 1))))
        assert max_gap(moments_from_alphas(alphas, K), F.coeffs[1:] / 2.0) <= 1e-13


def test_second_kind_identity():
    # F(z; -gamma) = F(z; gamma)^{-1}, F = I + 2 sum_n C_n z^n (Simon, OPUC
    # Part 1, section 3.2): a relation the forward map does not build in.
    # Measured max errors over seeds 1017/2017/3017: 4.5e-16-2.0e-15 at
    # N = 12, 1.5e-15-9.4e-15 at N = 40 and 4.0e-15-2.0e-14 at N = 80
    from qopuc.fixtures import random_gamma_seq
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    for N in (12, 40, 80):
        for seed in (1017, 2017, 3017):
            alphas = chi(random_gamma_seq(seed, N).arr, frame)
            F = herglotz_from_moments(moments_from_alphas(alphas, N), N)
            F_minus = herglotz_from_moments(moments_from_alphas(-alphas, N), N)
            assert max_gap(series_inv(F).coeffs, F_minus.coeffs) <= 1e-13, (N, seed)


def test_route_a_horizon_prefix_is_byte_identical():
    # at N <= K + 1 A and B shrink from the first step, past it they stay
    # K + 1 wide until N - n reaches K + 1: both give the prefix of N = 200
    from qopuc.measures import moments_from_density
    from qopuc.quaternions import chi

    for d in (vanishing_density(), smooth_trig_density(), bernstein_szego_density()):
        C = chi(moments_from_density(d, 200).arr[1:], d.frame)
        full = alphas_from_moments(C, 200)
        K = int(d.index[-1])
        for N in sorted({1, K, K + 1, K + 2, 50}):
            assert same_bytes(alphas_from_moments(C[:N], N), full[:N]), (K, N)


def test_forward_map_horizon_prefix_is_byte_identical():
    # C_{m+1} = a_0[m] is made from the entries a_k[j], b_k[j] with k + j <= m,
    # which use alpha_0..alpha_m only and get the same operations for every K.  The
    # inverse recursion run tail first (from alpha_{K-1} down to alpha_0) gives
    # the same moments only up to roundoff (its K = 20 and K = 80 runs are
    # about 2e-13 apart on this sequence) and fails this check.
    from qopuc.fixtures import random_gamma_seq
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    alphas = read_only(chi(random_gamma_seq(7, 80).arr, frame))
    full = moments_from_alphas(alphas, 80)
    for K in range(1, 80):
        assert same_bytes(moments_from_alphas(alphas, K), full[:K])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
def test_route_a_vanishing_density_closed_form_n400():
    # in double precision the generator recursion reaches only about 4e-15 here
    from qopuc.measures import moments_from_density
    from qopuc.quaternions import chi, chi_inv, qarr_abs

    d = vanishing_density()
    N = 400
    C = chi(moments_from_density(d, N).arr[1:], d.frame)
    gammas = chi_inv(alphas_from_moments(C, N), d.frame)
    err = np.max(np.abs(qarr_abs(gammas) - 1.0 / np.arange(2, N + 2)))
    assert err <= 1e-15


def test_szego_advance_matches_matrix_szego_recurrence(rng):
    # the quaternionic recurrence, embedded coefficientwise, is the matrix one
    from conftest import SzegoState, szego_advance
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    gammas = [random_unit_ball_quaternion(rng) for _ in range(8)]
    fam = matrix_szego_polys(read_only([chi(g.to_array(), frame) for g in gammas]), 8)
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
            moments_from_alphas([np.zeros((2, 2)), [[bad, 0.0], [0.0, 0.1]]], 2)
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


def operator_norm2(M) -> float:
    """The operator norm ``_require_contraction`` tests, of one 2x2 matrix."""
    return math.sqrt(_gram_max_eigenvalue(*np.asarray(M, dtype=complex).reshape(4).tolist()))


def test_operator_norm2_matches_svd():
    # the closed form behind _require_contraction, and its verdicts
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
        assert (contraction_failure(M) == "passes") == (got < bound)
        if abs(norm - bound) > 4.5e-16:
            assert (got < bound) == (norm < bound)
        if abs(norm - bound) > 2e-15:
            assert (got < bound) == (want < bound)
    assert operator_norm2(np.zeros((2, 2))) == 0.0
    assert operator_norm2(np.diag([1e150, 1e150])) == pytest.approx(1e150, rel=1e-15)
    assert operator_norm2(np.diag([1e200, 0.5])) == np.inf   # overflow rejects, never raises
    assert contraction_failure(np.diag([1e200, 0.5]), 3) == 3


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
    rhoL, rhoR = defects(alpha)
    assert same_bytes(list(rhoL), [r[0] for r in roots])
    assert same_bytes(list(rhoR), [r[1] for r in roots])
    assert all(same_bytes(list(defects(a)), r) for a, r in zip(alpha, roots))
    H = np.array([EYE2 - a.conj().T @ a for a in alpha])
    assert same_bytes(list(sqrtm_herm2(H)), [sqrtm_herm2_single(h) for h in H])
    # H + s I turns an off-diagonal -0.0 into 0.0, which the division
    # keeps where the imaginary part is negative
    H = np.array([[[1.0, complex(-0.0, -0.5)], [complex(-0.0, 0.5), 1.0]],
                  [[0.5, -0.0], [-0.0, 0.5]]], dtype=LD)
    assert same_bytes(list(sqrtm_herm2(H)), [sqrtm_herm2_single(h) for h in H])
    assert same_bytes(list(_matrix(_inv2(_entries(rhoL)))), [inv2_single(r[0]) for r in roots])
    assert same_bytes([_matrix(_inv2(_entries(alpha[0])))], [inv2_single(alpha[0])])
    # the entry-wise product sums 0 + a b + c d, as matmul does: where both
    # terms are -0.0 the sum is +0.0, and a product of one matrix and of a
    # stack get the same bits
    x, y = alpha[:-1], alpha[1:]
    assert same_bytes(list(_matrix(_mul2(_entries(x), _entries(y)))), list(x @ y))
    ones, zeros = np.ones((2, 2), dtype=LD), np.full((2, 2), -0.0, dtype=LD)
    assert same_bytes([_matrix(_mul2(_entries(ones), _entries(zeros)))], [ones @ zeros])
    assert same_bytes([_matrix(_mul2(_entries(x[3]), _entries(y[3])))], [x[3] @ y[3]])
    for a, rL, rR in zip(alpha.astype(complex), *defects(alpha.astype(complex))):
        wL, wR = defects_single(a)
        assert np.max(np.abs(rL - wL)) <= 1e-15 and np.max(np.abs(rR - wR)) <= 1e-15


DENSITIES = {d.__name__: d for d in (lebesgue_density, vanishing_density, smooth_trig_density,
                                      bernstein_szego_density)}


def route_a_cases(name):
    """(C, N) inputs of route A: a degree-K density's moments at N = K and
    K + 1 (A and B shrink from the first step) and K + 2, 200 and 400 (they
    first stay K + 1 wide), the Lebesgue ones all signed zeros; the four densities in a seeded frame at
    N = 200; moments with a zero inside the band and -0.0 entries past it;
    c_n = 1/2 of half Lebesgue plus half an atom at 0; every N from 1 to 9
    (the first steps and the last step's early exit); the seeded rmax-0.8
    moments of dual_route at N = 12, 25 and 40, which are ill-conditioned;
    and seeded moments in a seeded non-standard frame."""
    from qopuc.measures import MomentSequence, moments_from_density
    from qopuc.quaternions import SliceFrame, chi

    standard = SliceFrame.standard()
    if name.endswith("_density"):
        d = DENSITIES[name]()
        C = chi(moments_from_density(d, 400).arr[1:], d.frame)
        K = int(d.index[-1])   # C_K is the last nonzero moment
        return [(C, N) for N in (K, K + 1, K + 2, 200, 400) if N >= 1]
    if name == "densities_seeded_frame":
        fr = random_frame(np.random.default_rng(4107))
        densities = [make(frame=fr) for make in DENSITIES.values()]
        return [(chi(moments_from_density(d, 200).arr[1:], fr), 200)
                for d in densities]
    if name == "banded_moments":
        # C_3 is the last nonzero moment, C_2 = 0 lies inside the band
        c = MomentSequence([[1.0, 0.0, 0.0, 0.0], [0.3, 0.1, -0.05, 0.02], [0.0] * 4,
                            [0.05, -0.02, 0.01, 0.03]] + [[0.0] * 4] * 37)
        C = chi(c.arr[1:], standard)
        C[3:] = complex(-0.0, -0.0)
        return [(C, N) for N in (1, 2, 3, 4, 5, 40)]
    if name == "atom_lebesgue":
        c = MomentSequence([[1.0, 0.0, 0.0, 0.0]] + [[0.5, 0.0, 0.0, 0.0]] * 200)
        return [(chi(c.arr[1:], standard), 200)]
    if name == "first_steps":
        d = smooth_trig_density()
        C = chi(moments_from_density(d, 9).arr[1:], d.frame)
        seeded = chi(random_moment_fixture(1017, 9).arr[1:], standard)
        return [(M, N) for M in (C, seeded) for N in range(1, 10)]
    if name == "rmax08_seeded":
        return [(chi(random_moment_fixture(seed, 40).arr[1:], standard), N)
                for seed in (1017, 2017, 3017) for N in (12, 25, 40)]
    assert name == "seeded_frame"
    fr = random_frame(np.random.default_rng(4103))
    return [(chi(random_moment_fixture(1017, 40, frame=fr).arr[1:], fr), 40)]


@pytest.mark.parametrize("name", [*DENSITIES, "densities_seeded_frame", "banded_moments",
                                  "atom_lebesgue", "first_steps", "rmax08_seeded",
                                  "seeded_frame"])
def test_route_a_bitwise_equal_to_per_matrix_form(name):
    for C, N in route_a_cases(name):
        assert same_bytes(alphas_from_moments(C, N), alphas_from_moments_per_matrix(C, N))


def test_route_a_errors_on_non_pd_moments_pinned():
    # seeded moments with |c_m| raised to 1.5 are positive definite below
    # order m and not at m: route A rejects alpha_{m-1}, with the type,
    # index and message it gave before its steps ran on scalars
    from qopuc.quaternions import SliceFrame, chi

    for seed in (1017, 2017, 3017):
        arr = random_moment_fixture(seed, 12).arr
        for m in range(1, 13):
            c = arr.copy()
            c[m] *= 1.5 / np.linalg.norm(c[m])
            with pytest.raises(NotContraction) as info:
                alphas_from_moments(chi(c, SliceFrame.standard())[1:], 12)
            assert type(info.value) is NotContraction
            assert info.value.index == m - 1
            assert str(info.value) == (f"coefficient {m - 1} has norm >= 1 - 1e-12; "
                                       f"not a strict contraction")


def test_forward_map_and_route_a_bitwise_equal_to_per_matrix_form():
    from qopuc.fixtures import random_gamma_seq
    from qopuc.quaternions import SliceFrame, chi

    frame = SliceFrame.standard()
    for seed in (1017, 2017, 3017):
        alphas = read_only(chi(random_gamma_seq(seed, 80, rmax=0.8).arr, frame))
        C = moments_from_alphas(alphas, 80)
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, 80))
    alphas = read_only(chi(random_gamma_seq(1017, 400, rmax=0.8).arr, frame))
    C = moments_from_alphas(alphas, 400)
    assert same_bytes(C, moments_from_alphas_per_matrix(alphas, 400))
    general = np.random.default_rng(4101)
    for _ in range(3):
        alphas = read_only([random_contraction(general, 0.5) for _ in range(40)])
        C = moments_from_alphas(alphas, 40)
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, 40))
        assert same_bytes(alphas_from_moments(C, 40), alphas_from_moments_per_matrix(C, 40))
    # every N from 1 to 9: odd and even N, and the first and last waves
    for N in range(1, 10):
        alphas = random_alphas(general, N, rmax=0.5)
        C = moments_from_alphas(alphas, N)
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, N))
    # coefficients with signed zeros.  numpy's matmul sums from +0.0, so no
    # product carries a -0.0, and a "+ 0" at the j = 0 entries would not show
    signed = [-0.0 * EYE2, np.diag([0.3, -0.0])]
    for mats in (signed, signed[::-1], [signed[0]] * 5,
                 [*signed, *(random_contraction(general, 0.5) for _ in range(4)), *signed]):
        alphas = read_only(mats)
        C = moments_from_alphas(alphas, len(alphas))
        assert same_bytes(C, moments_from_alphas_per_matrix(alphas, len(alphas)))


def test_route_a_and_forward_map_make_no_linalg_call(monkeypatch):
    from qopuc.fixtures import random_gamma_seq
    from qopuc.measures import moments_from_density
    from qopuc.quaternions import SliceFrame, chi

    d = smooth_trig_density()
    C = chi(moments_from_density(d, 200).arr[1:], d.frame)
    frame = SliceFrame.standard()
    alphas = read_only(chi(random_gamma_seq(7, 80).arr, frame))
    want_a, want_c = alphas_from_moments(C, 200), moments_from_alphas(alphas, 80)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("svd", "norm", "cond", "inv", "det", "eig", "eigh", "eigvals",
                 "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert same_bytes(alphas_from_moments(C, 200), want_a)
    assert same_bytes(moments_from_alphas(alphas, 80), want_c)


def test_each_coefficient_contraction_tested_once_per_map(monkeypatch):
    # route A tests each alpha_n it makes once, before its defects, and
    # returns the tested array; the forward map tests each alpha_n it reads
    # once, through defects, in one call on the stack
    import qopuc.matrix_opuc as matrix_opuc
    from qopuc.fixtures import random_gamma_seq
    from qopuc.measures import moments_from_density
    from qopuc.quaternions import SliceFrame, chi

    d = smooth_trig_density()
    C = chi(moments_from_density(d, 50).arr[1:], d.frame)
    frame = SliceFrame.standard()
    alphas = read_only(chi(random_gamma_seq(7, 40).arr, frame))
    want_a, want_c = alphas_from_moments(C, 50), moments_from_alphas(alphas, 40)
    calls = []

    require = matrix_opuc._require_contraction

    def counting(alpha, index=None):   # the number of matrices tested per call
        calls.append(np.asarray(alpha).size // 4)
        return require(alpha, index)

    monkeypatch.setattr(matrix_opuc, "_require_contraction", counting)
    assert same_bytes(alphas_from_moments(C, 50), want_a)
    assert calls == [1] * 50
    calls.clear()
    assert same_bytes(moments_from_alphas(alphas, 40), want_c)
    assert calls == [40]
    stack = np.stack([0.5 * EYE2, 1.5 * EYE2])
    with pytest.raises(NotContraction) as info:
        defects(stack)
    assert info.value.index == 1
