from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from qopuc.errors import HorizonExceeded, NotPositiveDefinite
from qopuc.measures import (
    MomentSequence, QPositiveDensity, _det_herm2, _min_eig_herm2, is_nontrivial,
    moments_from_density, require_nontrivial, toeplitz, wiener_coefficient_norm,
)
from qopuc.quaternions import SliceFrame, chi, chi_mat, qarr_mul
from conftest import (
    QI, Quaternion, bernstein_szego_density, block_permutation, blockwise_chi, density_maps,
    fourier_values, from_split_scalar, lebesgue_density, moment, qarr, qbytes, qmat_conj_T,
    qmat_mul, random_frame, random_moment_fixture, same_frame, signed_zero_frames,
    smooth_trig_density, vanishing_density,
)


FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def lebesgue_moments(N=6):
    return MomentSequence([[1.0, 0.0, 0.0, 0.0]] + [[0.0] * 4] * N)


def test_moment_sequence_invariants():
    with pytest.raises(ValueError):
        MomentSequence(qarr([Quaternion(0.5)]))
    c = MomentSequence(qarr([Quaternion(1), Quaternion(0.1, 0.2, 0.3, 0.4)]))
    assert moment(c, -1) == moment(c, 1).conjugate()
    with pytest.raises(HorizonExceeded):
        toeplitz(c, 2)
    with pytest.raises(ValueError):
        MomentSequence.from_map({0: [1, 0, 0, 0], 1: QI.to_array(), -1: QI.to_array()}, 1)
    # real moments are 4-sequences too: four reals are not one quaternion
    with pytest.raises(ValueError, match=r"rows of 4 components, got shape \(4,\)"):
        MomentSequence([1.0, 0.0, 0.0, 0.0])
    c = MomentSequence.from_map({0: [1, 0, 0, 0], 2: [0.1, 0.2, 0, 0], -2: [0.1, -0.2, 0, 0]}, 2)
    assert c.arr.tolist() == [[1, 0, 0, 0], [0, 0, 0, 0], [0.1, 0.2, 0, 0]]
    assert not c.arr.flags.writeable


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_moment_sequence_rejects_non_finite(bad):
    # a NaN c_0 used to pass the normalisation test and NaN or inf at n >= 1
    # to surface only as a NaN pivot of the positive-definiteness check
    with pytest.raises(ValueError, match="c_0 is not finite"):
        MomentSequence(qarr([Quaternion(bad)]))
    with pytest.raises(ValueError, match="c_2 is not finite"):
        MomentSequence(qarr([Quaternion(1.0), Quaternion(0.1), Quaternion(0.0, 0.0, bad)]))
    with pytest.raises(ValueError, match="c_1 is not finite"):
        MomentSequence.from_map({0: [1.0, 0.0, 0.0, 0.0], 1: [0.0, bad, 0.0, 0.0]}, 1)


def test_moments_and_frame_change_bitwise_equal_to_per_value_split(rng):
    # the array read-off against the per-moment Quaternion sums it replaced;
    # a frame change keeps the coefficients
    for make in (lebesgue_density, bernstein_szego_density, vanishing_density,
                 smooth_trig_density):
        w1, w2 = density_maps(make())
        for fr in signed_zero_frames(rng, 6):
            d = make(frame=fr)
            want = [from_split_scalar(fr, w1.get(-n, 0j), w2.get(-n, 0j)) for n in range(41)]
            assert moments_from_density(d, 40).arr.tobytes() == qbytes(want)
            to = random_frame(rng)
            moved = QPositiveDensity(to, d.index, d.coeffs)
            assert moved.frame is to and moved.index.tolist() == d.index.tolist()
            assert moved.coeffs.tobytes() == d.coeffs.tobytes()


def test_density_moments_frame_free(rng, tmp_path):
    # the moments of a density are the same bits in its own frame, in five
    # seeded frames and through the CLI under --frame
    import json
    from qopuc.cli import load_fixture, moments_from_fixture
    path = tmp_path / "density.json"
    for make in (bernstein_szego_density, vanishing_density, smooth_trig_density):
        d = make()
        obj = {"frame": d.frame.to_json()}
        obj["w1"], obj["w2"] = ([[n, a.real, a.imag] for n, a in w.items()]
                                for w in density_maps(d))
        path.write_text(json.dumps(obj))
        own = moments_from_density(d, 12).arr.tobytes()
        for _ in range(5):
            fr = random_frame(rng)
            moved = QPositiveDensity(fr, d.index, d.coeffs)
            assert moments_from_density(moved, 12).arr.tobytes() == own
            fix = load_fixture(str(path), fr)
            assert same_frame(fix.frame, fr)
            assert moments_from_fixture(fix, 12).arr.tobytes() == own


def test_near_symmetric_density_grid_is_its_symmetric_part(frame):
    # w1_1 = 0.3 + 1e-13 i passes the 1e-12 symmetry check; the density keeps
    # c_1 = w1_{-1} = 0.3, so W is exactly Hermitian on the 7-point grid and
    # every grid is that of the symmetric density
    near = QPositiveDensity.from_maps(frame, {0: 1.0, 1: 0.3 + 1e-13j, -1: 0.3})
    sym = QPositiveDensity.from_maps(frame, {0: 1.0, 1: 0.3, -1: 0.3})
    W = near.matrix_values(7)
    assert np.array_equal(W, np.conj(np.swapaxes(W, 1, 2)))
    for grid in (1, 7, 2048):
        assert near.matrix_values(grid).tobytes() == sym.matrix_values(grid).tobytes()


def test_sparse_density_far_index(frame):
    # indices +-10^9 are stored sparsely; a dense read-off would need 10^9 rows
    d = QPositiveDensity.from_maps(frame, {0: 1.0, 10 ** 9: 0.25, -10 ** 9: 0.25})
    assert d.index.tolist() == [0, 10 ** 9]
    assert moments_from_density(d, 4).arr.tolist() == [[1, 0, 0, 0]] + [[0] * 4] * 4
    assert wiener_coefficient_norm(d) == 1.5
    assert d.min_eigenvalue_on_grid() == 0.5   # 10^9 = 0 mod 2048: w1 = 1.5 there


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
    c = MomentSequence(qarr([Quaternion(1), Quaternion(0.25, 0.1, 0, 0),
                             Quaternion(0.05, 0, 0.1, 0)]))
    T = toeplitz(c, 2)
    assert Quaternion.from_array(T[0, 1]) == moment(c, 1)
    assert Quaternion.from_array(T[0, 2]) == moment(c, 2)
    assert Quaternion.from_array(T[1, 0]) == moment(c, 1).conjugate()


def test_toeplitz_matches_embedded_matrix_moments(rng, frame):
    # gamma0 = 0.5 fixture: quaternionic Toeplitz embeds to the matrix one
    c = moments_from_density(bernstein_szego_density(), 4)
    C = chi(c.arr[:3], frame)
    T = toeplitz(c, 2)
    for k in range(3):
        for j in range(3):
            q = Quaternion.from_array(T[k, j])
            expected = C[abs(j - k)] if j >= k else C[k - j].conj().T
            assert np.max(np.abs(chi(q.to_array(), frame) - expected)) < 1e-14


def test_is_nontrivial_lebesgue_and_atom():
    c = lebesgue_moments(8)
    for n in range(8):
        assert is_nontrivial(c, n).ok
    atom = MomentSequence([[1.0, 0.0, 0.0, 0.0]] * 6)  # point mass at angle 0
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
    nonneg = [moment(c, k) for k in range(N + 1)]
    nonneg[m] = nonneg[m] * (1.5 / abs(nonneg[m]))
    return MomentSequence(qarr(nonneg))


@pytest.mark.parametrize("N", [12, 25, 40])
def test_ldl_failing_order_matches_is_nontrivial_scan(N):
    # the first prediction error at or below the tolerance names the same
    # order as the ascending scan of embedded-Cholesky reports, and as the
    # first pivot of the LDL* oracle of T_N and of T_N^T
    from conftest import ldl_pairs
    for seed in range(3):
        c = _non_pd_moments(seed, N)
        scan = next(k for k in range(N + 1) if not is_nontrivial(c, k).ok)
        with pytest.raises(NotPositiveDefinite) as info:
            require_nontrivial(c, N)
        assert info.value.order == scan
        for transpose in (False, True):
            with pytest.raises(NotPositiveDefinite) as info:
                ldl_pairs(c, N, transpose=transpose)
            assert info.value.order == scan


def test_ldl_reconstructs_toeplitz():
    # the LDL* oracle factors T and T^T, and its pivots are the recursion's
    # prediction errors: both families have leading coefficients d_m^{-1/2}
    from conftest import ldl_pairs
    c = random_moment_fixture(8, 9)
    T = toeplitz(c, 9)
    _, (right, left) = require_nontrivial(c, 9)
    for transpose, A, rows in ((False, T, right), (True, T.swapaxes(0, 1), left)):
        L, d = ldl_pairs(c, 9, transpose=transpose)
        assert np.array_equal(L[np.arange(10), np.arange(10)],
                              np.tile([1.0, 0.0, 0.0, 0.0], (10, 1)))
        assert np.all(np.triu(np.abs(L).sum(axis=-1), 1) == 0)
        D = np.zeros((10, 10, 4))
        D[np.arange(10), np.arange(10), 0] = d
        rebuilt = qmat_mul(qmat_mul(L, D), qmat_conj_T(L))
        assert np.max(np.abs(rebuilt - A)) < 1e-13
        lead = rows[np.arange(10), np.arange(10)]
        assert np.max(np.abs(lead - np.stack([d ** -0.5, 0 * d, 0 * d, 0 * d], axis=1))) < 1e-14


def _route_b_outcome(run, c, n):
    """The bytes of (gammas, right rows, left rows), or the error's type,
    message and order."""
    try:
        return [a.tobytes() for a in run(c, n)]
    except (ArithmeticError, HorizonExceeded, NotPositiveDefinite) as exc:
        return [type(exc), str(exc), getattr(exc, "order", None)]


def _stacked(c, n):
    gammas, rows = require_nontrivial(c, n)
    assert rows.shape == (2, n + 1, n + 1, 4)
    return gammas, rows[0], rows[1]


def test_stacked_recursion_bitwise_equal_to_two_array_loop():
    # one stack for both families gives the bits and the errors of the two
    # mirrored loops: shipped fixtures, seeded rmax-0.8 moments, non-PD moments
    # and c_0 set past the MomentSequence check (dens not real, a NaN part)
    from conftest import szego_two_arrays
    from qopuc.cli import load_fixture, moments_from_fixture
    cases = []
    for path in sorted(FIXDIR.glob("*.json")):
        fix = load_fixture(str(path), None)
        for N in (1, 2, 12, 25, 40, 100, 200):
            c = moments_from_fixture(fix, N)   # a gamma fixture's horizon stops at 12
            cases.append((c, c.horizon))
    cases += [(random_moment_fixture(seed, 40, rmax=0.8), 40) for seed in range(1, 41)]
    cases += [(random_moment_fixture(seed, 60, rmax=0.8), 60) for seed in range(1, 21)]
    cases += [(_non_pd_moments(seed, 12), 12) for seed in range(3)]
    # a NaN part of c_0 beside a part past the tolerance reaches every part
    # of den, which the realness test passes and the pivot check rejects
    for c0 in ([1.0, 0.0, 0.0, 1e-8], [1.0, 0.0, 3e-8, 0.0], [1.0, 0.0, float("nan"), 0.0],
               [1.0, 1.0, float("nan"), 0.0]):
        c = MomentSequence(qarr([1.0, 0.25, 0.125]))
        object.__setattr__(c, "arr", np.array([c0, [0.25, 0, 0, 0], [0.125, 0, 0, 0]]))
        cases.append((c, 2))
    outcomes = [_route_b_outcome(_stacked, c, n) for c, n in cases]
    assert outcomes == [_route_b_outcome(szego_two_arrays, c, n) for c, n in cases]
    errors = [out[0] for out in outcomes if isinstance(out[0], type)]
    assert errors == [NotPositiveDefinite] * 3 + [ArithmeticError] + [NotPositiveDefinite] * 2


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
             MomentSequence([[1.0, 0.0, 0.0, 0.0]] * 9)]  # PD and rank-one cases
    fr = random_frame(rng)
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
        QPositiveDensity.from_maps(frame, {1: 0.5})  # missing conjugate partner
    with pytest.raises(ValueError):
        QPositiveDensity.from_maps(frame, {0: 1.0}, {1: 0.5, -1: 0.5})  # wrong w2 symmetry
    with pytest.raises(ValueError):
        QPositiveDensity.from_maps(frame, {0: -1.0})  # negative density
    with pytest.raises(ValueError):
        # PSD violated: off-diagonal too large for the diagonal
        QPositiveDensity.from_maps(frame, {0: 0.1}, {1: 1.0, -1: -1.0})
    for index in ([1], [0, 0], [0]):   # no c_0, a repeated index, a missing row
        with pytest.raises(ValueError, match="index must ascend from 0"):
            QPositiveDensity(frame, index, [[1.0, 0.0, 0.0, 0.0]] * 2)


def test_moments_from_density_read_off(frame):
    c = moments_from_density(lebesgue_density(frame), 5)
    assert moment(c, 0) == Quaternion(1)
    for n in range(1, 6):
        assert abs(moment(c, n)) == 0.0
    a = 0.3 + 0.4j
    d = QPositiveDensity.from_maps(frame, {0: 1.0, 1: a / 2, -1: np.conj(a) / 2})
    c = moments_from_density(d, 2)
    assert abs(moment(c, 1) - from_split_scalar(frame, np.conj(a) / 2, 0j)) < 1e-15
    assert abs(moment(c, 2)) == 0.0


def test_bernstein_szego_moments_closed_form(frame):
    d = bernstein_szego_density(0.5)
    c = moments_from_density(d, 10)
    for n in range(11):
        assert abs(moment(c, n) - Quaternion(0.5 ** n)) < 1e-15


def moments_from_density_quadrature(d, N, grid=4096):
    """Trapezoid-rule moments c_n = mean of e^{i n theta} w(theta), the
    exponential in the frame, with the error against half the grid."""
    def compute(g):
        thetas = 2.0 * np.pi * np.arange(g) / g
        z1, z2 = (fourier_values(w, thetas) for w in density_maps(d))
        basis = np.array([[1.0, 0.0, 0.0, 0.0], d.frame.i, d.frame.j, d.frame.k])
        vals = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1) @ basis
        out = []
        for n in range(N + 1):
            kernel = np.outer(np.cos(n * thetas), basis[0]) + np.outer(np.sin(n * thetas), basis[1])
            out.append(qarr_mul(kernel, vals).mean(axis=0))
        return np.array(out)

    fine = compute(grid)
    err = float(np.max(np.linalg.norm(fine - compute(grid // 2), axis=1)))
    return MomentSequence(fine), err


def test_quadrature_agrees_with_read_off():
    for d in (bernstein_szego_density(0.5, cutoff=32), smooth_trig_density(),
              vanishing_density()):
        exact = moments_from_density(d, 8)
        quad, err = moments_from_density_quadrature(d, 8)
        assert err < 1e-12
        for n in range(9):
            assert abs(moment(exact, n) - moment(quad, n)) < 1e-12


def test_density_psd_implies_nontrivial():
    for d in (bernstein_szego_density(), smooth_trig_density()):
        assert d.min_eigenvalue_on_grid() > 1e-6
        c = moments_from_density(d, 8)
        for n in range(8):
            assert is_nontrivial(c, n).ok


def test_matrix_moments(frame):
    c = lebesgue_moments(4)
    C = chi(c.arr, frame)
    assert np.array_equal(C[0], np.eye(2))
    assert all(np.max(np.abs(M)) == 0 for M in C[1:])
    # real-valued moments embed diagonally
    c = moments_from_density(bernstein_szego_density(), 4)
    for M in chi(c.arr, frame):
        assert abs(M[0, 1]) == 0 and abs(M[1, 0]) == 0
    # gamma0 fixture: C_n = chi(gamma0)^n
    g = chi(Quaternion(0.5).to_array(), frame)
    C = chi(c.arr, frame)
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


def test_density_matrix_form_hermitian():
    d = smooth_trig_density()
    grid = 16
    thetas = 2 * np.pi * np.arange(grid) / grid
    W = d.matrix_values(grid)
    w1, w2 = density_maps(d)
    assert np.max(np.abs(W - np.conj(np.swapaxes(W, 1, 2)))) < 1e-12
    # the grid points carry w1 and w2; the (2,2) entry is the reflected w1
    assert np.max(np.abs(W[:, 0, 0] - fourier_values(w1, thetas))) < 1e-12
    assert np.max(np.abs(W[:, 0, 1] - fourier_values(w2, thetas))) < 1e-12
    a = fourier_values(w1, -thetas)
    assert np.max(np.abs(W[:, 1, 1] - a)) < 1e-12


@pytest.mark.parametrize("make", [lebesgue_density, bernstein_szego_density,
                                  vanishing_density, smooth_trig_density])
def test_matrix_values_lower_row_is_the_upper_row_bit_for_bit(make):
    # the grid report writes W21 and W22 from the text of W12 and W11
    rng = np.random.default_rng(59)
    base = make()
    for d in (base, QPositiveDensity(random_frame(rng), base.index, base.coeffs)):
        for grid in (1, 2, 3, 7, 2048):
            W = d.matrix_values(grid)
            reflect = (-np.arange(grid)) % grid
            assert W[:, 1, 0].tobytes() == np.conj(W[:, 0, 1]).tobytes(), grid
            assert W[:, 1, 1].tobytes() == W[reflect, 0, 0].tobytes(), grid


def test_density_beyond_float64_on_a_grid_is_a_value_error():
    # the +-1e308 terms cancel on the 2048-point PSD grid (2049 = 1 mod 2048),
    # so the density loads, and overflow to infinities on the 7 and 4096 grids
    w1 = {0: 1.0, 1: 1e308, -1: 1e308, 2049: -1e308, -2049: -1e308}
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the float64 cast warns no more
        d = QPositiveDensity.from_maps(SliceFrame.standard(), w1)
        assert np.isfinite(d.grid_values(2048)).all()
        for grid in (7, 4096):
            with pytest.raises(ValueError, match=f"not finite on the {grid}-point grid"):
                d.grid_values(grid)


_PI_LD = np.arccos(np.longdouble(-1.0))


def _long_double_sums(coeffs, grid):
    """sum_n coeffs[n] e^{2 pi i n k / grid}, k < grid, in long double, each
    phase n k reduced mod grid in exact integer arithmetic."""
    k = np.arange(grid)
    out = np.zeros(grid, dtype=np.clongdouble)
    for n, a in coeffs.items():
        phase = 2 * _PI_LD * ((n * k) % grid).astype(np.longdouble) / grid
        out += np.clongdouble(a) * (np.cos(phase) + 1j * np.sin(phase))
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
@pytest.mark.parametrize("make", [lebesgue_density, bernstein_szego_density,
                                  vanishing_density, smooth_trig_density])
def test_matrix_values_within_one_ulp_of_long_double_sums(make):
    # the per-term float64 sums W replaced reach 6.3 ulp here
    rng = np.random.default_rng(31)
    base = make()
    for d in [base] + [QPositiveDensity(random_frame(rng), base.index, base.coeffs)
                       for _ in range(3)]:
        for grid in (1, 7, 2048, 4096):
            W = d.matrix_values(grid)
            w1, w2 = density_maps(d)
            a, b = _long_double_sums(w1, grid), _long_double_sums(w2, grid)
            dd = _long_double_sums({-n: v for n, v in w1.items()}, grid)
            want = np.stack([np.stack([a, b], -1), np.stack([np.conj(b), dd], -1)], -2)
            ulp = np.finfo(float).eps * max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(W - want))) <= ulp, (grid, d.frame)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble")
def test_closed_form_min_eigenvalue_and_det_match_lapack():
    rng = np.random.default_rng(47)
    size = 2000
    diag = rng.normal(size=(size, 2)) * 10.0 ** rng.uniform(-3, 3, size=(size, 1))
    b = rng.normal(size=size) + 1j * rng.normal(size=size)
    b *= np.sqrt(np.abs(diag[:, 0] * diag[:, 1])) / np.abs(b)
    # the second half is near-singular: |b|^2 = a d (1 - t) with t down to 1e-15
    b[size // 2:] *= np.sqrt(1.0 - 10.0 ** rng.uniform(-15, -1, size=size // 2))
    diag[size // 2:] = np.abs(diag[size // 2:])
    H = np.empty((size, 2, 2), dtype=complex)
    H[:, 0, 0], H[:, 1, 1] = diag[:, 0], diag[:, 1]
    H[:, 0, 1], H[:, 1, 0] = b, np.conj(b)
    eps = np.finfo(float).eps
    # against long-double references the closed forms are off by at most 0.9 and
    # 1.0 eps * scale here, LAPACK by 2.4 (eigvalsh) and 7.9 (det)
    a, d = diag.T.astype(np.longdouble)
    b_sq = b.real.astype(np.longdouble) ** 2 + b.imag.astype(np.longdouble) ** 2
    scale = np.abs(diag).max(axis=1) + np.abs(b)
    lam = _min_eig_herm2(H)
    assert np.all(np.abs(lam - ((a + d) / 2 - np.sqrt(((a - d) / 2) ** 2 + b_sq)))
                  <= 2 * eps * scale)
    assert np.all(np.abs(lam - np.linalg.eigvalsh(H)[:, 0]) <= 8 * eps * scale)
    det_scale = np.abs(diag[:, 0] * diag[:, 1]) + np.abs(b) ** 2
    det = _det_herm2(H)
    assert np.all(np.abs(det - (a * d - b_sq)) <= 2 * eps * det_scale)
    assert np.all(np.abs(det - np.linalg.det(H).real) <= 16 * eps * det_scale)


@pytest.mark.parametrize("fixture, builder", [
    ("lebesgue.json", lebesgue_density),
    ("bernstein_szego_05.json", bernstein_szego_density),
    ("vanishing_density.json", vanishing_density),
    ("smooth_trig.json", smooth_trig_density),
])
def test_shipped_density_fixtures_are_the_tests_densities(fixture, builder):
    # the CLI, the report set and the benchmark read the files; the acceptance
    # criteria check the builders: both must be the same density, bit for bit
    from qopuc.cli import load_fixture

    read = load_fixture(str(FIXDIR / fixture), None).density
    built = builder()
    assert same_frame(read.frame, built.frame)
    assert read.index.tobytes() == built.index.tobytes()
    assert read.coeffs.tobytes() == built.coeffs.tobytes()


def _records():
    from qopuc.polynomials import VerblunskySeq
    from qopuc.quaternions import Quaternion as QuaternionRecord
    from qopuc.series import TruncSeries

    frame = SliceFrame.standard()
    return {
        "Quaternion": (QuaternionRecord(1.0, 0.0, 0.0, 0.0), "w"),
        "SliceFrame": (frame, "i"),
        "MomentSequence": (lebesgue_moments(2), "arr"),
        "VerblunskySeq": (VerblunskySeq([[0.5, 0.0, 0.0, 0.0]]), "arr"),
        # its grid cache holds only while the frame and coefficients stay
        "QPositiveDensity.frame": (lebesgue_density(), "frame"),
        "QPositiveDensity.coeffs": (lebesgue_density(), "coeffs"),
        "TruncSeries": (TruncSeries(np.eye(2)[None]), "coeffs"),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_cannot_be_reassigned(name):
    record, attribute = _records()[name]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(record, attribute, getattr(record, attribute))
