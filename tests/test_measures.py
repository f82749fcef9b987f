from __future__ import annotations

import numpy as np
import pytest

from qopuc.errors import HorizonExceeded, NotPositiveDefinite
from qopuc.fixtures import bernstein_szego_density, lebesgue_density, \
    random_moment_fixture, vanishing_density, smooth_trig_density
from qopuc.measures import (
    AtomicQMeasure, MomentSequence, QPositiveDensity, is_nontrivial,
    matrix_moments, moments_from_atoms, moments_from_density, require_nontrivial,
    toeplitz, wiener_coefficient_norm,
)
from qopuc.quaternions import (
    QI, Quaternion, SliceFrame, block_permutation, blockwise_chi, chi, chi_mat,
    qarr_mul, qmat_conj_T, qmat_mul,
)


def lebesgue_moments(N=6):
    return MomentSequence([Quaternion(1.0)] + [Quaternion()] * N)


def test_moment_sequence_invariants():
    with pytest.raises(ValueError):
        MomentSequence([Quaternion(0.5)])
    c = MomentSequence([Quaternion(1), Quaternion(0.1, 0.2, 0.3, 0.4)])
    assert c[-1] == c[1].conjugate()
    with pytest.raises(HorizonExceeded):
        c[2]
    with pytest.raises(ValueError):
        MomentSequence.from_map({0: Quaternion(1), 1: QI, -1: QI})


def test_toeplitz_small():
    c = lebesgue_moments()
    T = toeplitz(c, 0)
    assert T.shape == (1, 1, 4)
    assert Quaternion.from_array(T[0, 0]) == Quaternion(1)
    T = toeplitz(c, 3)
    for k in range(4):
        for j in range(4):
            expected = Quaternion(1.0) if j == k else Quaternion()
            assert Quaternion.from_array(T[k, j]) == expected
    with pytest.raises(HorizonExceeded):
        toeplitz(c, 7)


def test_toeplitz_first_row_orientation():
    c = MomentSequence([Quaternion(1), Quaternion(0.25, 0.1, 0, 0),
                        Quaternion(0.05, 0, 0.1, 0)])
    T = toeplitz(c, 2)
    assert Quaternion.from_array(T[0, 1]) == c[1]
    assert Quaternion.from_array(T[0, 2]) == c[2]
    assert Quaternion.from_array(T[1, 0]) == c[1].conjugate()


def test_toeplitz_matches_embedded_matrix_moments(rng, frame):
    # gamma0 = 0.5 fixture: quaternionic Toeplitz embeds to the matrix one
    c = moments_from_density(bernstein_szego_density(), 4)
    C = matrix_moments(c, frame, 2)
    T = toeplitz(c, 2)
    for k in range(3):
        for j in range(3):
            q = Quaternion.from_array(T[k, j])
            expected = C[abs(j - k)] if j >= k else C[k - j].conj().T
            assert np.max(np.abs(chi(q, frame) - expected)) < 1e-14


def test_is_nontrivial_lebesgue_and_atom():
    c = lebesgue_moments(8)
    for n in range(8):
        assert is_nontrivial(c, n).ok
    atom = MomentSequence([Quaternion(1.0)] * 6)  # point mass at angle 0
    assert is_nontrivial(atom, 0).ok
    for n in range(1, 5):
        assert not is_nontrivial(atom, n).ok
    with pytest.raises(NotPositiveDefinite) as info:
        require_nontrivial(atom, 4)
    assert info.value.order == 1


def test_is_nontrivial_verblunsky_generated(rng):
    c = random_moment_fixture(99, 10)
    for n in range(10):
        rep = is_nontrivial(c, n)
        assert rep.ok and rep.min_eigenvalue > 0


def _non_pd_moments(seed, N):
    """Seeded Verblunsky moments with |c_m| raised to 1.5 at a seeded order m."""
    c = random_moment_fixture(seed, N)
    m = int(np.random.default_rng(seed).integers(1, N + 1))
    nonneg = [c[k] for k in range(N + 1)]
    nonneg[m] = nonneg[m] * (1.5 / abs(nonneg[m]))
    return MomentSequence(nonneg)


@pytest.mark.parametrize("N", [12, 25, 40])
def test_ldl_failing_order_matches_is_nontrivial_scan(N):
    # the first LDL* pivot at or below the tolerance names the same order as
    # the ascending scan of embedded-Cholesky reports, for T_N and T_N^T
    for seed in range(3):
        c = _non_pd_moments(seed, N)
        scan = next(k for k in range(N + 1) if not is_nontrivial(c, k).ok)
        for transpose in (False, True):
            with pytest.raises(NotPositiveDefinite) as info:
                require_nontrivial(c, N, transpose=transpose)
            assert info.value.order == scan


def test_ldl_reconstructs_toeplitz():
    c = random_moment_fixture(8, 9)
    T = toeplitz(c, 9)
    for transpose, A in ((False, T), (True, T.swapaxes(0, 1))):
        L, d = require_nontrivial(c, 9, transpose=transpose)
        assert np.array_equal(L[np.arange(10), np.arange(10)],
                              np.tile([1.0, 0.0, 0.0, 0.0], (10, 1)))
        assert np.all(np.triu(np.abs(L).sum(axis=-1), 1) == 0)
        D = np.zeros((10, 10, 4))
        D[np.arange(10), np.arange(10), 0] = d
        rebuilt = qmat_mul(qmat_mul(L, D), qmat_conj_T(L))
        assert np.max(np.abs(rebuilt - A)) < 1e-13


def _pivots_ok(M, tol=1e-12):
    M = 0.5 * (M + M.conj().T)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(np.abs(np.diag(L)) ** 2) > tol)


def test_embedding_equivalence_blockwise(rng):
    # positivity of chi_mat(T) iff positivity of the U-conjugated block form,
    # both judged by Cholesky pivots at the same tolerance
    mixed = [random_moment_fixture(5, 8),
             MomentSequence([Quaternion(1.0)] * 9)]  # PD and rank-one cases
    fr = SliceFrame.random(rng)
    for c in mixed:
        for n in range(1, 8):
            T = toeplitz(c, n)
            report = is_nontrivial(c, n, fr)
            block = blockwise_chi(T, fr)
            assert report.ok == _pivots_ok(block)
            # conjugation identity ties the two matrices entrywise
            U = block_permutation(n + 1)
            assert np.array_equal(chi_mat(T, fr), U @ blockwise_chi(T, fr) @ U.T)


def test_density_validation(frame):
    with pytest.raises(ValueError):
        QPositiveDensity(frame, {1: 0.5})  # missing conjugate partner
    with pytest.raises(ValueError):
        QPositiveDensity(frame, {0: 1.0}, {1: 0.5, -1: 0.5})  # wrong w2 symmetry
    with pytest.raises(ValueError):
        QPositiveDensity(frame, {0: -1.0})  # negative density
    with pytest.raises(ValueError):
        # PSD violated: off-diagonal too large for the diagonal
        QPositiveDensity(frame, {0: 0.1}, {1: 1.0, -1: -1.0})


def test_moments_from_density_read_off(frame):
    c = moments_from_density(lebesgue_density(frame), 5)
    assert c[0] == Quaternion(1)
    for n in range(1, 6):
        assert abs(c[n]) == 0.0
    a = 0.3 + 0.4j
    d = QPositiveDensity(frame, {0: 1.0, 1: a / 2, -1: np.conj(a) / 2})
    c = moments_from_density(d, 2)
    assert abs(c[1] - frame.from_split(np.conj(a) / 2, 0j)) < 1e-15
    assert abs(c[2]) == 0.0


def test_bernstein_szego_moments_closed_form(frame):
    d = bernstein_szego_density(0.5)
    c = moments_from_density(d, 10)
    for n in range(11):
        assert abs(c[n] - Quaternion(0.5 ** n)) < 1e-15


def moments_from_density_quadrature(d, N, grid=4096):
    """Trapezoid-rule moments c_n = mean of e^{i n theta} w(theta), the
    exponential in the frame, with the error against half the grid."""
    def compute(g):
        thetas = 2.0 * np.pi * np.arange(g) / g
        z1, z2 = d.w1_values(thetas), d.w2_values(thetas)
        basis = np.array([[1.0, 0.0, 0.0, 0.0], d.frame.i.to_array(),
                          d.frame.j.to_array(), d.frame.k.to_array()])
        vals = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1) @ basis
        out = []
        for n in range(N + 1):
            kernel = np.outer(np.cos(n * thetas), basis[0]) + np.outer(np.sin(n * thetas), basis[1])
            out.append(qarr_mul(kernel, vals).mean(axis=0))
        return np.array(out)

    fine = compute(grid)
    err = float(np.max(np.linalg.norm(fine - compute(grid // 2), axis=1)))
    return MomentSequence([Quaternion.from_array(q) for q in fine]), err


def test_quadrature_agrees_with_read_off():
    for d in (bernstein_szego_density(0.5, cutoff=32), smooth_trig_density(),
              vanishing_density()):
        exact = moments_from_density(d, 8)
        quad, err = moments_from_density_quadrature(d, 8)
        assert err < 1e-12
        for n in range(9):
            assert abs(exact[n] - quad[n]) < 1e-12


def test_density_psd_implies_nontrivial():
    for d in (bernstein_szego_density(), smooth_trig_density()):
        assert d.min_eigenvalue_on_grid() > 1e-6
        c = moments_from_density(d, 8)
        for n in range(8):
            assert is_nontrivial(c, n).ok


def test_moments_from_atoms_basic(frame):
    one = AtomicQMeasure(((0.0, Quaternion(1.0)),))
    c = moments_from_atoms(one, 5, frame)
    for n in range(6):
        assert abs(c[n] - Quaternion(1.0)) < 1e-15
    two = AtomicQMeasure(((0.0, Quaternion(0.5)), (np.pi, Quaternion(0.5))))
    c = moments_from_atoms(two, 6, frame)
    for n in range(7):
        expected = Quaternion(1.0 if n % 2 == 0 else 0.0)
        assert abs(c[n] - expected) < 1e-12


def test_moments_from_atoms_hermitian_symmetry(rng, frame):
    # q-positive atomic fixture: real positive weights plus paired j-parts
    thetas = rng.uniform(0.1, np.pi - 0.1, size=3)
    w1 = rng.uniform(0.05, 0.3, size=3)
    w2 = [Quaternion(0, 0, z[0], z[1]) * 0.05 for z in rng.normal(size=(3, 2))]
    atoms = []
    for t, a, b in zip(thetas, w1, w2):
        atoms.append((float(t), Quaternion(a / 2) + b))
        atoms.append((float(2 * np.pi - t), Quaternion(a / 2) - b))
    weight_sum = Quaternion()
    for _, w in atoms:
        weight_sum = weight_sum + w
    atoms[0] = (atoms[0][0], atoms[0][1] + (Quaternion(1.0) - weight_sum))
    fixture = AtomicQMeasure(tuple(atoms))
    c = moments_from_atoms(fixture, 8, frame)
    for n in range(9):
        assert abs(c[-n] - c[n].conjugate()) < 1e-12


def test_matrix_moments(frame):
    c = lebesgue_moments(4)
    C = matrix_moments(c, frame)
    assert np.array_equal(C[0], np.eye(2))
    assert all(np.max(np.abs(M)) == 0 for M in C[1:])
    # real-valued moments embed diagonally
    c = moments_from_density(bernstein_szego_density(), 4)
    for M in matrix_moments(c, frame):
        assert abs(M[0, 1]) == 0 and abs(M[1, 0]) == 0
    # gamma0 fixture: C_n = chi(gamma0)^n
    g = chi(Quaternion(0.5), frame)
    C = matrix_moments(c, frame)
    power = np.eye(2)
    for n in range(5):
        assert np.max(np.abs(C[n] - power)) < 1e-14
        power = power @ g


def test_wiener_norm():
    assert wiener_coefficient_norm(lebesgue_density()) == 1.0
    assert abs(wiener_coefficient_norm(vanishing_density()) - 2.0) < 1e-15
    d64 = bernstein_szego_density(0.5, cutoff=64)
    d128 = bernstein_szego_density(0.5, cutoff=128)
    v64 = wiener_coefficient_norm(d64)
    assert abs(v64 - wiener_coefficient_norm(d128)) < 1e-8
    assert abs(v64 - 3.0) < 1e-8  # sum 0.5^|m| = 2/(1-1/2) - 1


def test_density_matrix_form_hermitian(rng):
    d = smooth_trig_density()
    thetas = rng.uniform(0, 2 * np.pi, size=16)
    W = d.matrix_values(thetas)
    assert np.max(np.abs(W - np.conj(np.swapaxes(W, 1, 2)))) < 1e-12
    # (2,2) entry is the reflected first density
    a = d.w1_values(-thetas)
    assert np.max(np.abs(W[:, 1, 1] - a)) < 1e-12


@pytest.mark.parametrize("make", [lebesgue_density, bernstein_szego_density,
                                  vanishing_density, smooth_trig_density])
def test_matrix_values_bitwise_equal_to_per_term_sums(make):
    d = make()
    rng = np.random.default_rng(31)
    grids = [2.0 * np.pi * np.arange(g) / g for g in (2048, 4096)]
    grids.append(rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=1000))
    for thetas in grids:
        W = d.matrix_values(thetas)
        a, b, dd = d.w1_values(thetas), d.w2_values(thetas), d.w1_values(-thetas)
        want = np.stack([np.stack([a, b], -1), np.stack([np.conj(b), dd], -1)], -2)
        assert W.tobytes() == want.tobytes()   # signed zeros included
