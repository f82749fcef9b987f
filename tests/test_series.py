from __future__ import annotations

import numpy as np
import pytest

from qopuc.errors import ShiftResidual, SingularConstantTerm
from qopuc.series import (
    EYE2, TruncSeries, herglotz_from_moments, herglotz_from_schur,
    schur_from_herglotz, series_inv,
)
from conftest import random_contraction


def random_series(rng, order, scale=1.0):
    c = scale * (rng.normal(size=(order + 1, 2, 2))
                 + 1j * rng.normal(size=(order + 1, 2, 2)))
    return TruncSeries(c)


def test_inverse_of_identity():
    assert np.array_equal(series_inv(TruncSeries.identity(8)).coeffs,
                          TruncSeries.identity(8).coeffs)


def test_inverse_geometric(rng):
    alpha = random_contraction(rng)
    coeffs = np.zeros((10, 2, 2), dtype=complex)
    coeffs[0] = EYE2
    coeffs[1] = -alpha
    inv = series_inv(TruncSeries(coeffs))
    power = EYE2.copy()
    for n in range(10):
        assert np.max(np.abs(inv.coeffs[n] - power)) < 1e-13
        power = power @ alpha


def test_ring_identity(rng):
    for _ in range(10):
        a = random_series(rng, 12, scale=0.5)
        b = random_series(rng, 12, scale=0.5)
        bc = np.array(b.coeffs)
        bc[0] = EYE2
        b = TruncSeries(bc)
        back = (a * b) * series_inv(b)
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-10
        doubled = a + a
        assert np.array_equal(doubled.coeffs, 2 * a.coeffs)


def test_inverse_two_sided(rng):
    a = random_series(rng, 10)
    ac = np.array(a.coeffs)
    ac[0] = ac[0] + 3 * EYE2
    a = TruncSeries(ac)
    inv = series_inv(a)
    left = inv * a
    right = a * inv
    target = TruncSeries.identity(10)
    assert np.max(np.abs(left.coeffs - target.coeffs)) < 1e-12
    assert np.max(np.abs(right.coeffs - target.coeffs)) < 1e-12


def test_singular_constant_term():
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[0] = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularConstantTerm):
        series_inv(TruncSeries(coeffs))


def test_truncation_consistency(rng):
    a = random_series(rng, 20)
    b = random_series(rng, 20)
    full = a * b
    short = TruncSeries(a.coeffs[:10]) * TruncSeries(b.coeffs[:10])
    assert np.array_equal(full.coeffs[:10], short.coeffs)
    ac = np.array(a.coeffs)
    ac[0] = 2 * EYE2
    a = TruncSeries(ac)
    assert np.array_equal(series_inv(a).coeffs[:10],
                          series_inv(TruncSeries(a.coeffs[:10])).coeffs)


def test_herglotz_from_moments_trivial():
    F = herglotz_from_moments([], 0)
    assert np.array_equal(F.coeffs, TruncSeries.identity(0).coeffs)
    zeros = [np.zeros((2, 2))] * 4
    F = herglotz_from_moments(zeros, 4)
    assert np.array_equal(F.coeffs, TruncSeries.identity(4).coeffs)
    C1 = [0.5 * EYE2] + [np.zeros((2, 2))] * 3
    F = herglotz_from_moments(C1, 4)
    assert np.array_equal(F.coeffs[1], EYE2)


def test_cayley_trivial():
    F = TruncSeries.identity(6)
    f = schur_from_herglotz(F)
    assert f.order == 5
    assert np.max(np.abs(f.coeffs)) == 0.0
    back = herglotz_from_schur(f)
    assert np.max(np.abs(back.coeffs - TruncSeries.identity(6).coeffs)) < 1e-14


def test_constant_schur_geometric(rng):
    # f = constant alpha -> coefficient of z^n in F is 2 alpha^n
    alpha = random_contraction(rng)
    f = TruncSeries.constant(alpha, 8)
    F = herglotz_from_schur(f)
    power = EYE2.copy()
    for n in range(1, 10):
        power = power @ alpha
        assert np.max(np.abs(F.coeffs[n] - 2 * power)) < 1e-12
    # and the inverse transform recovers the constant
    back = schur_from_herglotz(F)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-11


def test_cayley_round_trip_random(rng):
    for _ in range(20):
        order = int(rng.integers(2, 40))
        f = random_series(rng, order, scale=0.3)
        F = herglotz_from_schur(f)
        # against the geometric form I + 2 sum_(n>=1) (zf)^n
        zf = f.shift_up()
        acc = power = TruncSeries.identity(zf.order)
        for _ in range(zf.order):
            power = power * zf
            acc = acc + TruncSeries(2.0 * power.coeffs)
        disagreement = float(np.max(np.abs(F.coeffs - acc.coeffs)))
        assert disagreement < 1e-12 * max(1.0, np.max(np.abs(F.coeffs)))
        back = schur_from_herglotz(F)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10


def test_shift_residual_raises():
    coeffs = np.zeros((4, 2, 2), dtype=complex)
    coeffs[0] = 1e-6 * EYE2
    with pytest.raises(ShiftResidual):
        TruncSeries(coeffs).shift_down()


@pytest.mark.parametrize("shape", [(3, 2), (3, 2, 3), (2, 2), (3, 2, 2, 1)])
def test_series_coefficients_must_be_a_stack_of_2x2(shape):
    with pytest.raises(ValueError, match=r"coefficients must have shape \(N\+1, 2, 2\)"):
        TruncSeries(np.zeros(shape))


def test_herglotz_from_moments_needs_n_moments():
    with pytest.raises(ValueError, match="need 4 moment matrices, got 3"):
        herglotz_from_moments([0.1 * EYE2] * 3, 4)


def test_malformed_herglotz_rejected():
    F = TruncSeries.constant(2 * EYE2, 4)
    with pytest.raises(ValueError):
        schur_from_herglotz(F)


def test_herglotz_matches_riesz_herglotz_quadrature():
    # moment series vs direct quadrature of the transform kernel against the
    # matrix density, at sample points inside the disc
    from conftest import bernstein_szego_density
    from qopuc.measures import moments_from_density
    from qopuc.quaternions import chi

    d = bernstein_szego_density(0.5, cutoff=48)
    c = moments_from_density(d, 12)
    F = herglotz_from_moments(chi(c.arr[1:], d.frame), 12)
    grid = 8192
    thetas = 2 * np.pi * np.arange(grid) / grid
    W = d.matrix_values(grid)
    for z in (0.3, -0.2 + 0.1j, 0.05 - 0.4j):
        kernel = (1 + z * np.exp(1j * thetas)) / (1 - z * np.exp(1j * thetas))
        quad = np.einsum("g,gij->ij", kernel, W) / grid
        series_val = sum(F.coeffs[n] * z ** n for n in range(13))
        # truncation of the geometric moment tail dominates the error
        assert np.max(np.abs(series_val - quad)) < 2 * abs(z) ** 13 + 1e-12
