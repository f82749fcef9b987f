from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from qopuc.errors import NotContraction, NotInImage, NotPositiveDefinite
from qopuc.fixtures import random_gamma_seq
from qopuc.matrix_opuc import alphas_from_moments, moments_from_alphas
from qopuc.measures import MomentSequence, QPositiveDensity, matrix_moments, moments_from_density
from qopuc.polynomials import (
    VerblunskySeq, eval_L, eval_R, eval_norm_sq, moments_from_verblunsky_q, orthonormal_polys,
    reversed_rows, verblunsky_from_moments_q,
)
from qopuc.quaternions import QI, QJ, Quaternion, SliceFrame, chi, chi_inv, qarr_abs
from conftest import (
    QK, DegreeTooSmall, OrthonormalFamily, QPolyL, QPolyR, SzegoState, bernstein_szego_density,
    coeff, density_maps, family, family_rows_pairs, fourier_values, from_split_scalar, inner_L, inner_R,
    lebesgue_density, qbytes, qmul_scalar, random_frame, random_moment_fixture,
    random_quaternion, random_unit_ball_quaternion, reverse_L, reverse_R, shift,
    signed_zero_coeff_arrays, smooth_trig_density, stacked, star_mul_L, star_mul_R,
    szego_advance, szego_family, vanishing_density,
)

EYE2 = np.eye(2, dtype=complex)


from conftest import matrix_gram_schmidt  # the chi-embedded oracle


# ------------------------------ basic algebra ------------------------------

def test_eval_examples():
    const = QPolyL([Quaternion(2, 1, 0, 0)])
    assert eval_L(const.arr, random_quaternion(np.random.default_rng(0))) == const.coeffs[0]
    phi = QPolyL([Quaternion(), QI])  # p * i
    assert eval_L(phi.arr, QJ) == QJ * QI
    assert eval_L(phi.arr, QJ) == -QK


def test_eval_left_right_mirror_at_reals(rng):
    for _ in range(20):
        coeffs = [random_quaternion(rng) for _ in range(5)]
        pl = QPolyL(coeffs)
        pr = QPolyR(coeffs)
        x = float(rng.normal())
        assert abs(eval_L(pl.arr, Quaternion(x)) - eval_R(pr.arr, Quaternion(x))) < 1e-12


def test_star_product_examples():
    phi = QPolyL([Quaternion(0.5), QI, QK])
    one = QPolyL([Quaternion(1.0)])
    assert star_mul_L(phi, one) == phi
    assert star_mul_L(one, phi) == phi
    a = QPolyL([Quaternion(), QI])
    b = QPolyL([Quaternion(), QJ])
    prod = star_mul_L(a, b)
    assert prod.coeffs == (Quaternion(), Quaternion(), QK)


def test_star_product_centrality_oracle(rng):
    for _ in range(20):
        a = QPolyL([random_quaternion(rng) for _ in range(4)])
        b = QPolyL([random_quaternion(rng) for _ in range(3)])
        x = Quaternion(float(rng.normal()))
        lhs = eval_L(star_mul_L(a, b).arr, x)
        rhs = eval_L(a.arr, x) * eval_L(b.arr, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
        ar = QPolyR(a.coeffs)
        br = QPolyR(b.coeffs)
        assert abs(eval_R(star_mul_R(ar, br).arr, x) - eval_R(ar.arr, x) * eval_R(br.arr, x)) < 1e-10 * max(1.0, abs(rhs))


def test_reverse_examples_and_involution(rng):
    one = QPolyL([Quaternion(1.0)])
    assert reverse_L(one, 0) == QPolyR([Quaternion(1.0)])
    p = QPolyL([Quaternion(), Quaternion(1.0)])
    assert reverse_L(p, 1) == QPolyR([Quaternion(1.0), Quaternion()])
    with pytest.raises(DegreeTooSmall):
        reverse_L(p, 0)
    for _ in range(10):
        coeffs = [random_quaternion(rng) for _ in range(5)]
        phi = QPolyL(coeffs)
        assert reverse_R(reverse_L(phi, 6), 6) == phi
        psi = QPolyR(coeffs)
        assert reverse_L(reverse_R(psi, 7), 7) == psi


def test_reverse_evaluation_identity(rng):
    # eval of the reverse at 1/conj(p), times p^n, matches the conj-eval form
    for _ in range(50):
        coeffs = [random_quaternion(rng) for _ in range(4)]
        n = 5
        phi = QPolyL(coeffs)
        rev = reverse_L(phi, n)  # in H[p]^R
        p = random_unit_ball_quaternion(rng, rmax=2.0, rmin=0.1)
        lhs = eval_R(rev.arr, p)
        pn = p
        for _ in range(n - 1):
            pn = pn * p
        rhs = eval_L(phi.arr, p.conjugate().inverse()).conjugate() * pn
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
        psi = QPolyR(coeffs)
        revp = reverse_R(psi, n)
        lhs = eval_L(revp.arr, p)
        rhs = pn * eval_R(psi.arr, p.conjugate().inverse()).conjugate()
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_phi_maps_and_inverses(rng, frame):
    # the coefficientwise image of a polynomial is chi on its (n+1, 4) array
    one = QPolyR([Quaternion(1.0)])
    assert np.array_equal(chi(one.arr, frame), np.array([EYE2]))
    jp = QPolyR([Quaternion(), QJ])  # j p
    assert np.max(np.abs(chi(jp.arr, frame)[1] - chi(QJ, frame))) == 0
    for _ in range(10):
        fr = random_frame(rng)
        coeffs = [random_quaternion(rng) for _ in range(4)]
        pl = QPolyL(coeffs)
        back = QPolyL([chi_inv(M, fr) for M in chi(pl.arr, fr)])
        assert back == pl or max(abs(a - b) for a, b in zip(back.coeffs, pl.coeffs)) < 1e-12
        pr = QPolyR(coeffs)
        back = QPolyR([chi_inv(M, fr) for M in chi(pr.arr, fr)])
        assert max(abs(a - b) for a, b in zip(back.coeffs, pr.coeffs)) < 1e-12
    with pytest.raises(NotInImage):
        chi_inv(np.diag([1.0, 2.0]), frame)


def test_poly_json_round_trip(rng):
    phi = QPolyL([random_quaternion(rng) for _ in range(3)])
    assert phi.to_json()["space"] == "L" and QPolyL(phi.to_json()["coeffs"]) == phi
    psi = QPolyR([random_quaternion(rng) for _ in range(3)])
    assert psi.to_json()["space"] == "R" and QPolyR(psi.to_json()["coeffs"]) == psi


# ------------------------------ inner products -----------------------------

def test_inner_product_small_cases():
    c = moments_from_density(bernstein_szego_density(), 4)
    one = QPolyL([Quaternion(1.0)])
    p = QPolyL([Quaternion(), Quaternion(1.0)])
    assert abs(inner_R(one, one, c) - Quaternion(1.0)) < 1e-15
    assert abs(inner_R(p, one, c) - c[1]) < 1e-15
    oner = QPolyR([Quaternion(1.0)])
    pr = QPolyR([Quaternion(), Quaternion(1.0)])
    assert abs(inner_L(oner, oner, c) - Quaternion(1.0)) < 1e-15
    # transpose convention: <1, p>_L picks out c_{0-1} = conj(c_1)
    assert abs(inner_L(oner, pr, c) - c[-1]) < 1e-15
    assert abs(inner_L(pr, oner, c) - c[1]) < 1e-15


def quad_inner_R(phi, psi, d, grid=4096):
    frame = d.frame
    maps = density_maps(d)
    total = Quaternion()
    j = frame.j
    for theta in 2 * np.pi * np.arange(grid) / grid:
        point = from_split_scalar(frame, complex(np.cos(theta), np.sin(theta)), 0j)
        point_m = point.conjugate()
        w1 = float(fourier_values(maps[0], np.array([theta]))[0].real)
        w2 = from_split_scalar(frame, fourier_values(maps[1], np.array([theta]))[0], 0j)
        term = eval_L(psi.arr, point).conjugate() * w1 * eval_L(phi.arr, point)
        term = term + eval_L(psi.arr, point).conjugate() * w2 * j * eval_L(phi.arr, point_m)
        total = total + term
    return total * (1.0 / grid)


def quad_inner_L(phi, psi, d, grid=4096):
    frame = d.frame
    maps = density_maps(d)
    total = Quaternion()
    j = frame.j
    for theta in 2 * np.pi * np.arange(grid) / grid:
        point = from_split_scalar(frame, complex(np.cos(theta), np.sin(theta)), 0j)
        point_m = point.conjugate()
        w1 = float(fourier_values(maps[0], np.array([theta]))[0].real)
        w2 = from_split_scalar(frame, fourier_values(maps[1], np.array([theta]))[0], 0j)
        term = eval_R(phi.arr, point) * w1 * eval_R(psi.arr, point).conjugate()
        term = term + eval_R(phi.arr, point) * w2 * j * eval_R(psi.arr, point_m).conjugate()
        total = total + term
    return total * (1.0 / grid)


def test_inner_products_match_quadrature(rng):
    d = smooth_trig_density()
    c = moments_from_density(d, 8)
    for _ in range(4):
        phi = QPolyL([random_quaternion(rng) for _ in range(4)])
        psi = QPolyL([random_quaternion(rng) for _ in range(3)])
        assert abs(inner_R(phi, psi, c) - quad_inner_R(phi, psi, d, grid=512)) < 1e-9
        phir = QPolyR(phi.coeffs)
        psir = QPolyR(psi.coeffs)
        assert abs(inner_L(phir, psir, c) - quad_inner_L(phir, psir, d, grid=512)) < 1e-9


def test_inner_product_positivity(rng):
    c = random_moment_fixture(11, 8)
    for _ in range(10):
        phi = QPolyL([random_quaternion(rng) for _ in range(5)])
        v = inner_R(phi, phi, c)
        assert np.max(np.abs(v.imag)) < 1e-10 * max(1.0, v.w)
        assert v.w > 0
        phir = QPolyR(phi.coeffs)
        v = inner_L(phir, phir, c)
        assert np.max(np.abs(v.imag)) < 1e-10 * max(1.0, v.w)
        assert v.w > 0


# --------------------------- orthonormal families --------------------------

def test_orthonormal_lebesgue():
    c = moments_from_density(lebesgue_density(), 6)
    fam = family(c, 5)
    for n in range(6):
        mono = [Quaternion()] * n + [Quaternion(1.0)]
        assert fam.right[n] == QPolyL(mono)
        assert fam.left[n] == QPolyR(mono)


def test_orthonormal_bernstein_szego_degree_one():
    c = moments_from_density(bernstein_szego_density(), 4)
    fam = family(c, 2)
    r = np.sqrt(0.75)
    expect = QPolyL([Quaternion(-0.5 / r), Quaternion(1 / r)])
    assert max(abs(a - b) for a, b in zip(fam.right[1].coeffs, expect.coeffs)) < 1e-12
    assert max(abs(a - b) for a, b in zip(fam.left[1].coeffs, expect.coeffs)) < 1e-12


def test_orthonormal_exact_zeros():
    # Lebesgue gives exactly p^n, and the Bernstein-Szego degree-n
    # polynomials r^-1 (p^n - g p^(n-1)) have every lower coefficient an
    # exact 0.0, which Aberth's deflation at the origin relies on.  A
    # square-root or LAPACK factorisation of the Toeplitz form leaves
    # roundoff there instead.
    fam = family(moments_from_density(lebesgue_density(), 20), 20)
    for n in range(21):
        mono = [Quaternion()] * n + [Quaternion(1.0)]
        assert fam.right[n] == QPolyL(mono) and fam.left[n] == QPolyR(mono)
    fam = family(moments_from_density(bernstein_szego_density(), 20), 20)
    for n in range(2, 21):
        for poly in (fam.right[n], fam.left[n]):
            assert all(q == Quaternion() for q in poly.coeffs[: n - 1])


def test_szego_route_vanishing_density_closed_form():
    # |gamma_n| = 1/(n+2) for w = 1 + cos(theta), from route B alone
    c = moments_from_density(vanishing_density(), 100)
    gammas = VerblunskySeq(orthonormal_polys(c, 100)[0])
    assert len(gammas) == 100
    err = max(abs(abs(g) - 1.0 / (n + 2)) for n, g in enumerate(gammas))
    assert err < 1e-12


def test_orthonormal_rejects_trivial():
    atom = MomentSequence([Quaternion(1.0)] * 5)
    with pytest.raises(NotPositiveDefinite):
        orthonormal_polys(atom, 3)


def test_gram_matrices_identity(rng):
    for seed in (3, 4):
        c = random_moment_fixture(seed, 9)
        fam = family(c, 8)
        for n in range(9):
            for m in range(9):
                target = Quaternion(1.0 if n == m else 0.0)
                assert abs(inner_R(fam.right[n], fam.right[m], c) - target) < 1e-10
                assert abs(inner_L(fam.left[n], fam.left[m], c) - target) < 1e-10
        # leading coefficients strictly positive real
        for n in range(9):
            lead = fam.right[n].coeffs[n]
            assert lead.w > 0 and np.max(np.abs(lead.imag)) < 1e-10
            lead = fam.left[n].coeffs[n]
            assert lead.w > 0 and np.max(np.abs(lead.imag)) < 1e-10


def test_embedding_naturality(rng):
    # Phi images of the quaternionic families equal the matrix Gram-Schmidt
    # outputs of the embedded moments
    frame = SliceFrame.standard()
    c = random_moment_fixture(21, 7)
    fam = family(c, 6)
    C = matrix_moments(c, frame, 6)
    right_m, left_m = matrix_gram_schmidt(C, 6)
    for n in range(7):
        img = chi(fam.right[n].arr, frame)
        assert max(np.max(np.abs(a - b)) for a, b in zip(img, right_m[n])) < 1e-9
        img = chi(fam.left[n].arr, frame)
        assert max(np.max(np.abs(a - b)) for a, b in zip(img, left_m[n])) < 1e-9


# ------------------------- Szego recurrences & routes -----------------------

def test_szego_advance_free_case():
    state = SzegoState.initial()
    nxt = szego_advance(state, Quaternion())
    assert nxt.left == QPolyR([Quaternion(), Quaternion(1.0)])
    assert nxt.right == QPolyL([Quaternion(), Quaternion(1.0)])
    assert nxt.left_rev == QPolyL([Quaternion(1.0)])
    assert nxt.right_rev == QPolyR([Quaternion(1.0)])


def test_szego_advance_single_step():
    nxt = szego_advance(SzegoState.initial(), Quaternion(0.5))
    r = np.sqrt(0.75)
    assert abs(nxt.left.coeffs[0] + Quaternion(0.5 / r)) < 1e-15
    assert abs(nxt.left.coeffs[1] - Quaternion(1 / r)) < 1e-15


def test_szego_iteration_matches_gram_schmidt(rng):
    for seed in (5, 17):
        gammas = random_gamma_seq(seed, 8)
        c = moments_from_verblunsky_q(gammas, 8)
        fam = family(c, 8)
        states = szego_family(gammas, 8)
        for n in range(9):
            st = states[n]
            assert max(abs(a - b) for a, b in zip(st.left.coeffs, fam.left[n].coeffs)) < 1e-9
            assert max(abs(a - b) for a, b in zip(st.right.coeffs, fam.right[n].coeffs)) < 1e-9
            # maintained reverses equal degree-matched reversals
            assert max(abs(a - b) for a, b in zip(
                st.left_rev.coeffs, reverse_R(st.left, n).coeffs)) < 1e-12
            assert max(abs(a - b) for a, b in zip(
                st.right_rev.coeffs, reverse_L(st.right, n).coeffs)) < 1e-12


def test_szego_recurrence_residuals(rng):
    gammas = random_gamma_seq(23, 10)
    c = moments_from_verblunsky_q(gammas, 10)
    fam = family(c, 10)
    revs_l = [reverse_R(fam.left[n], n) for n in range(11)]   # H[p]^L
    revs_r = [reverse_L(fam.right[n], n) for n in range(11)]  # H[p]^R
    for n in range(10):
        g = gammas[n]
        gbar = g.conjugate()
        r = math.sqrt(1.0 - g.norm_sq())
        shift_l = shift(fam.left[n])
        shift_r = shift(fam.right[n])
        res = 0.0
        for k in range(n + 2):
            res = max(res, abs(coeff(shift_l, k) - coeff(fam.left[n + 1], k) * r
                               - g * coeff(revs_r[n], k)))
            res = max(res, abs(coeff(shift_r, k) - coeff(fam.right[n + 1], k) * r
                               - coeff(revs_l[n], k) * g))
            res = max(res, abs(coeff(revs_l[n + 1], k) * r - coeff(revs_l[n], k)
                               + coeff(shift_r, k) * gbar))
            res = max(res, abs(coeff(revs_r[n + 1], k) * r - coeff(revs_r[n], k)
                               + gbar * coeff(shift_l, k)))
        assert res < 1e-10


def test_verblunsky_route_agreement(rng):
    for seed in (2, 9, 31):
        gammas = random_gamma_seq(seed, 9)
        c = moments_from_verblunsky_q(gammas, 9)
        got, residual = verblunsky_from_moments_q(c, 9, SliceFrame.standard())
        assert residual < 1e-8
        err = max(abs(a - b) for a, b in zip(gammas, got))
        assert err < 1e-9


def test_verblunsky_lebesgue_and_bernstein():
    c = moments_from_density(lebesgue_density(), 6)
    got, _ = verblunsky_from_moments_q(c, 6, SliceFrame.standard())
    assert all(abs(g) < 1e-12 for g in got)
    c = moments_from_density(bernstein_szego_density(), 8)
    got, _ = verblunsky_from_moments_q(c, 8, SliceFrame.standard())
    assert abs(got[0] - Quaternion(0.5)) < 1e-12
    assert all(abs(g) < 1e-10 for g in got.gammas[1:])


def test_round_trip_larger_radius(rng):
    gammas = random_gamma_seq(77, 10, rmax=0.9)
    c = moments_from_verblunsky_q(gammas, 10)
    got, _ = verblunsky_from_moments_q(c, 10, SliceFrame.standard())
    err = max(abs(a - b) for a, b in zip(gammas, got))
    assert err < 1e-9


def test_forward_map_needs_n_coefficients():
    # the one length check is moments_from_alphas'
    with pytest.raises(ValueError, match="need at least 7 coefficients, got 5"):
        moments_from_verblunsky_q(random_gamma_seq(1017, 5), 7)


def test_both_routes_backward_error():
    # the forward map of either route's gammas gives back the input moments,
    # also where the seeded moments are too ill-conditioned for the gammas to
    # meet the seed's.  The routes run directly, not through the cross-checked
    # verblunsky_from_moments_q, so a seed with a RouteMismatch cannot hide.
    # Measured on these seeds: at most 1.8e-16 on both routes
    N, frame = 40, SliceFrame.standard()
    for seed in range(1017, 6018, 1000):
        c = random_moment_fixture(seed, N, rmax=0.8)
        route_a = chi_inv(alphas_from_moments(matrix_moments(c, frame, N)[1:], N), frame)
        route_b = orthonormal_polys(c, N)[0]
        for gammas in (route_a, route_b):
            back = moments_from_verblunsky_q(VerblunskySeq(gammas), N)
            assert float(qarr_abs(back.arr - c.arr).max()) <= 1e-15, seed


def test_frame_sweep_consistency(rng):
    # the Verblunsky coefficients are a global object: frame choice must not
    # change them
    gammas = random_gamma_seq(13, 6)
    c = moments_from_verblunsky_q(gammas, 6)
    base, _ = verblunsky_from_moments_q(c, 6, SliceFrame.standard())
    for _ in range(3):
        fr = random_frame(rng)
        other, _ = verblunsky_from_moments_q(c, 6, frame=fr)
        assert max(abs(a - b) for a, b in zip(base, other)) < 1e-9


def test_verblunsky_seq_validation():
    with pytest.raises(Exception):
        VerblunskySeq([Quaternion(1.0)])
    seq = VerblunskySeq([Quaternion(0.3, 0.4, 0, 0)])
    assert abs(seq.moduli()[0] - 0.5) < 1e-15


@pytest.mark.parametrize("bad", [Quaternion(float("nan")), Quaternion(0.0, float("inf")),
                                 Quaternion(1.0 - 7e-13), Quaternion(0.0, 0.0, 0.0, -1.0)])
def test_verblunsky_contraction_test_matches_matrix_layer(bad):
    # |gamma| < 1 - CONTRACTION_MARGIN, the operator-norm test the forward map
    # applies to chi(gamma): NaN and inf are rejected, and 1 - 7e-13 is
    # rejected here as it is there, with the index
    frame = SliceFrame.standard()
    head = [Quaternion(0.5), Quaternion(-0.25, 0.1)]
    with pytest.raises(NotContraction) as info:
        VerblunskySeq([*head, bad])
    assert info.value.index == 2
    with pytest.raises(NotContraction):
        szego_advance(SzegoState.initial(), bad)
    if abs(bad) < 2.0:   # finite
        with pytest.raises(NotContraction) as info:
            moments_from_alphas([chi(g, frame) for g in (*head, bad)], 3)
        assert info.value.index == 2
    inside = Quaternion(1.0 - 2e-12)
    assert len(VerblunskySeq([inside])) == 1
    assert moments_from_alphas([chi(g, frame) for g in (*head, inside)], 3).shape == (3, 2, 2)
    szego_advance(SzegoState.initial(), inside)


def test_verblunsky_seq_arrays_bitwise_equal_to_quaternion_values(rng):
    gammas = [random_unit_ball_quaternion(rng, rmax=0.99) for _ in range(200)]
    gammas += [Quaternion(-0.0, 0.5, -0.0, 0.0), Quaternion(), Quaternion(1e-200, -3e-160)]
    seq = VerblunskySeq(gammas)
    assert seq.arr.tobytes() == qbytes(gammas) and not seq.arr.flags.writeable
    assert seq.moduli().tobytes() == np.array([abs(g) for g in gammas]).tobytes()
    assert list(seq) == gammas and seq[3] == gammas[3] and seq.gammas == tuple(gammas)
    assert seq.to_json() == [g.to_json() for g in gammas]


# ---- the Quaternion-object implementations the array forms replaced,
# kept as byte-level oracles ----

def _quats(arr):
    return [Quaternion(*row) for row in np.asarray(arr).tolist()]


def _bytes(quats):
    return np.array([q.to_array() for q in quats]).tobytes()


def _coeff(quats, k):
    return quats[k] if 0 <= k < len(quats) else Quaternion()


def _trimmed(quats):
    quats = list(quats)
    while len(quats) > 1 and quats[-1] == Quaternion():
        quats.pop()
    return quats


def _szego_advance_scalar(state, gamma):
    """One step of the paired recurrences on lists of Quaternions."""
    left, right, left_rev, right_rev = (_quats(p.arr) for p in (
        state.left, state.right, state.left_rev, state.right_rev))
    r_inv = 1.0 / np.sqrt(1.0 - gamma.norm_sq())
    gbar = gamma.conjugate()
    shift_l = _trimmed([Quaternion()] + left)
    shift_r = _trimmed([Quaternion()] + right)
    return (
        _trimmed([(shift_l[k] - qmul_scalar(gamma, _coeff(right_rev, k))) * r_inv
                  for k in range(len(shift_l))]),
        _trimmed([(shift_r[k] - qmul_scalar(_coeff(left_rev, k), gamma)) * r_inv
                  for k in range(len(shift_r))]),
        _trimmed([(_coeff(left_rev, k) - qmul_scalar(shift_r[k], gbar)) * r_inv
                  for k in range(len(shift_r))]),
        _trimmed([(_coeff(right_rev, k) - qmul_scalar(gbar, shift_l[k])) * r_inv
                  for k in range(len(shift_l))]),
    )


def test_polynomial_storage_bitwise(rng):
    for arr in signed_zero_coeff_arrays(rng):
        for cls in (QPolyL, QPolyR):
            padded = np.concatenate([arr, [[-0.0, 0.0, -0.0, 0.0], [0.0] * 4]])
            poly = cls(padded)
            assert poly.arr.tobytes() == _bytes(_trimmed(_quats(padded)))
            assert not poly.arr.flags.writeable
            assert poly == cls(_quats(arr)) and hash(poly) == hash(cls(_quats(arr)))
            assert poly.coeffs == tuple(_quats(arr))
            assert shift(poly).arr.tobytes() == _bytes(_trimmed([Quaternion()] + _quats(arr)))
            other = cls(arr[::-1])
            n = max(len(arr), len(other.arr))
            for op in ("__add__", "__sub__"):
                want = _trimmed([getattr(_coeff(_quats(arr), k), op)(_coeff(_quats(other.arr), k))
                                 for k in range(n)])
                assert getattr(poly, op)(other).arr.tobytes() == _bytes(want)
    # -0.0 == 0.0, so polynomials differing only in zero signs are equal
    assert QPolyL(np.array([[1.0, -0.0, 0, 0]])) == QPolyL([Quaternion(1.0)])
    assert hash(QPolyL(np.array([[1.0, -0.0, 0, 0]]))) == hash(QPolyL([Quaternion(1.0)]))
    assert QPolyL([]).arr.tobytes() == np.zeros((1, 4)).tobytes()


def test_eval_star_and_reverse_bitwise_equal_to_scalar_loops(rng):
    arrays = signed_zero_coeff_arrays(rng)
    points = [random_quaternion(rng), Quaternion(0.5, -0.0, 0.0, -0.25), Quaternion()]
    for arr in arrays:
        q = _quats(arr)
        for p in points:
            acc_l = acc_r = q[-1]
            for c in q[-2::-1]:
                acc_l = qmul_scalar(p, acc_l) + c
                acc_r = qmul_scalar(acc_r, p) + c
            assert eval_L(QPolyL(arr).arr, p).to_array().tobytes() == acc_l.to_array().tobytes()
            assert eval_R(QPolyR(arr).arr, p).to_array().tobytes() == acc_r.to_array().tobytes()
        for n in (len(q) - 1, len(q) + 1):
            want = _bytes(_trimmed([_coeff(q, n - k).conjugate() for k in range(n + 1)]))
            assert reverse_L(QPolyL(arr), n).arr.tobytes() == want
            assert reverse_R(QPolyR(arr), n).arr.tobytes() == want
        b = _quats(arrays[3])
        conv = []
        for l in range(len(q) + len(b) - 1):
            acc = Quaternion()
            for a_ in range(max(0, l - len(b) + 1), min(len(q) - 1, l) + 1):
                acc = acc + qmul_scalar(q[a_], b[l - a_])
            conv.append(acc)
        assert star_mul_L(QPolyL(arr), QPolyL(arrays[3])).arr.tobytes() == _bytes(_trimmed(conv))
        assert star_mul_R(QPolyR(arr), QPolyR(arrays[3])).arr.tobytes() == _bytes(_trimmed(conv))


@pytest.mark.parametrize("density", [lebesgue_density, bernstein_szego_density,
                                     vanishing_density, smooth_trig_density])
def test_family_and_szego_bitwise_equal_to_scalar_loops(density):
    # szego_family and szego_advance against the loop on Quaternion lists,
    # from route B's gammas and a signed-zero gamma
    N = 7
    gammas = orthonormal_polys(moments_from_density(density(), N), N)[0]
    states = szego_family(VerblunskySeq(gammas), N)
    state = SzegoState.initial()
    for n, g in enumerate(_quats(gammas) + [Quaternion(0.25, -0.0, 0.0, -0.125)]):
        nxt = szego_advance(state, g)
        expect = _szego_advance_scalar(state, g)
        for got, ref in zip((nxt.left, nxt.right, nxt.left_rev, nxt.right_rev), expect):
            assert got.arr.tobytes() == _bytes(ref)
        if n < N:
            assert nxt == states[n + 1]
        state = nxt


def _route_b_inputs(N):
    """The four densities in their own frame and in five seeded frames, and
    seeded rmax-0.8 Verblunsky moments in the standard and the same frames."""
    frames = [random_frame(np.random.default_rng(seed)) for seed in range(1, 6)]
    for density in (lebesgue_density, bernstein_szego_density, vanishing_density,
                    smooth_trig_density):
        d = density()
        yield moments_from_density(d, N), False
        for fr in frames:
            yield moments_from_density(QPositiveDensity(fr, d.index, d.coeffs), N), False
    for seed, fr in enumerate([None] + frames):
        yield random_moment_fixture(seed, N, rmax=0.8, frame=fr), True


def _szego_family_rows(gammas, N):
    """The rows of the right and left members of ``szego_family``."""
    rows = np.zeros((2, N + 1, N + 1, 4))
    for n, st in enumerate(szego_family(VerblunskySeq(gammas), N)):
        rows[0, n, : st.right.degree + 1] = st.right.arr
        rows[1, n, : st.left.degree + 1] = st.left.arr
    return rows


@pytest.mark.parametrize("N", [12, 25, 40])
def test_route_b_families_match_pair_form_and_szego_family(N):
    # the recursion's rows against the rows of the interleaved-pair LDL*, and
    # against the polynomial recurrences run from route A's gammas.  Measured
    # worst cases: densities 5.1e-15 and 1.6e-15 absolute; seeded rmax-0.8
    # moments, relative to the largest coefficient (up to 4.8e3 at N = 40),
    # 3.5e-8, the float64 LDL*'s own error on these ill-conditioned forms,
    # and 4.9e-11
    from qopuc.polynomials import _gammas_via_matrix
    for c, seeded in _route_b_inputs(N):
        fam = family(c, N)
        rows = fam.rows
        scale = np.abs(rows).max() if seeded else 1.0
        pair_tol, szego_tol = (1e-7, 1e-9) if seeded else (1e-14, 1e-14)
        assert np.abs(rows - np.stack(family_rows_pairs(c, N))).max() <= pair_tol * scale
        via_a = _gammas_via_matrix(c, N, SliceFrame.standard()).arr
        assert np.abs(rows - _szego_family_rows(via_a, N)).max() <= szego_tol * scale
        for n in range(N + 1):
            assert fam.right[n] == QPolyL(rows[0, n, : n + 1])
            assert fam.left[n] == QPolyR(rows[1, n, : n + 1])


def test_route_b_atom_plus_lebesgue_closed_form():
    # mu = (1 - t) Lebesgue + t delta_0 with t = 1/2: c_n = 1/2 for n >= 1 and
    # gamma_n = t / (1 + n t); the double-precision LDL* route read 5.6e-17
    t, N = 0.5, 200
    c = MomentSequence([1.0] + [t] * N)
    gammas = orthonormal_polys(c, N)[0]
    n = np.arange(N)
    assert np.abs(gammas[:, 1:]).max() == 0.0
    assert np.abs(gammas[:, 0] - t / (1 + n * t)).max() <= 1e-17


def test_route_b_no_route_mismatch_on_seeded_rmax08_moments():
    # route B agrees with route A to ROUTE_TOL on ill-conditioned seeded
    # moments; with the double-precision LDL* 16 of these 160 runs raised
    # RouteMismatch.  Over seeds 1-200 one is left (N = 40, seed 193), where
    # route A is the less accurate route against a 40-digit reference
    from qopuc.errors import RouteMismatch
    mismatches = []
    for N in (25, 40):
        for seed in range(1, 81):
            try:
                verblunsky_from_moments_q(random_moment_fixture(seed, N, rmax=0.8), N,
                                          SliceFrame.standard())
            except RouteMismatch:
                mismatches.append((N, seed))
    assert mismatches == []


def test_realness_checks_name_the_first_non_real_row():
    # den = sqrt(d_m) must be real to 1e-8 * max(1, |den_0|); at order 0 it is
    # c_0 / sqrt(Re c_0), with c_0 set past the MomentSequence check
    from qopuc.measures import require_nontrivial

    def moments(c0):
        c = MomentSequence([1.0, 0.25, 0.125])
        object.__setattr__(c, "arr", np.array([c0, [0.25, 0, 0, 0], [0.125, 0, 0, 0]]))
        return c
    require_nontrivial(moments([1.0, 0.0, 0.0, 1e-8]), 2)   # at the tolerance: real
    require_nontrivial(moments([4.0, 0.0, 0.0, 3e-8]), 2)   # 1.5e-8 within 1e-8 * 2.0
    with pytest.raises(ArithmeticError) as info:
        require_nontrivial(moments([1.0, 0.0, 3e-8, 0.0]), 2)
    assert str(info.value) == ("sqrt of the prediction error at order 0 should be real, "
                               f"got {Quaternion(1.0, 0.0, 3e-8, 0.0)!r}")
    # a NaN part fails no comparison; the prediction error d_1 is NaN then
    with pytest.raises(NotPositiveDefinite) as info:
        require_nontrivial(moments([1.0, 0.0, float("nan"), 0.0]), 2)
    assert info.value.order == 1


# ---- the stacked reversal against the reversals of polynomial objects ----

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("lebesgue", "bernstein_szego_05", "vanishing_density", "smooth_trig",
                 "random_gamma_7")


def _fixture_rows(name):
    """Route B's rows of a shipped fixture at N = 1-12, in its own frame and
    in two seeded ones."""
    from qopuc.cli import load_fixture, moments_from_fixture

    for frame in (None, *(random_frame(np.random.default_rng(seed)) for seed in (31, 32))):
        fix = load_fixture(str(FIXDIR / f"{name}.json"), frame)
        for N in range(1, 13):
            yield orthonormal_polys(moments_from_fixture(fix, N), N)[1]


def _check_reversal(rows) -> int:
    """``reversed_rows`` against reverse_L / reverse_R on the members: the
    bytes of the object stack where its exact trim dropped nothing, else the
    same values, the dropped positions zeros whose sign alone may differ.
    Returns the number of reverses the trim shortened."""
    rev = reversed_rows(rows)
    N = rows.shape[1] - 1
    assert rev.shape == rows.shape
    shortened = 0
    for f, reverse, cls in ((0, reverse_L, QPolyL), (1, reverse_R, QPolyR)):
        for n in range(N + 1):
            old = reverse(cls(rows[f, n, : n + 1]), n).arr
            want = np.zeros((N + 1, 4))
            want[: len(old)] = old
            got = rev[f, n]
            if len(old) == n + 1:
                assert got.tobytes() == want.tobytes()
                continue
            shortened += 1
            assert got[: len(old)].tobytes() == want[: len(old)].tobytes()
            assert got[n + 1:].tobytes() == want[n + 1:].tobytes()
            assert not got[len(old): n + 1].any()
    return shortened


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reversed_rows_equal_the_object_reverses(name):
    # Lebesgue's p^n and Bernstein-Szego's exact zero coefficients have
    # reverses of lower degree, which the object trim shortened
    shortened = sum(_check_reversal(rows) for rows in _fixture_rows(name))
    assert (shortened > 0) == (name in ("lebesgue", "bernstein_szego_05"))


def test_reversed_rows_of_seeded_rmax08_moments():
    for seed in (1017, 2017, 3017):
        rows = orthonormal_polys(random_moment_fixture(seed, 40, rmax=0.8), 40)[1]
        assert _check_reversal(rows) == 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_eval_norm_sq_on_stacked_rows_bitwise_equal_to_object_stack(name):
    # the CD check's two spaces as slices of route B's stack and its reverses,
    # against the same spaces stacked from polynomial objects
    rng = np.random.default_rng(89)
    points = rng.normal(size=(64, 4)) * rng.uniform(0.05, 2.0, size=(64, 1))
    points[0] = 0.0
    for rows in _fixture_rows(name):
        fam = OrthonormalFamily(np.zeros((rows.shape[1] - 1, 4)), rows)
        rev = reversed_rows(rows)
        N = fam.order
        spaces = (
            (np.concatenate([rows[0], rev[1]]), True,
             list(fam.right) + [reverse_R(fam.left[n], n) for n in range(N + 1)]),
            (np.concatenate([rows[1], rev[0]]), False,
             list(fam.left) + [reverse_L(fam.right[n], n) for n in range(N + 1)]),
        )
        for coeffs, left, polys in spaces:
            objects, mask = stacked(polys)
            assert (mask == left).all()
            assert (eval_norm_sq(coeffs, points, left).tobytes()
                    == eval_norm_sq(objects, points, left).tobytes())
