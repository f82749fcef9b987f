"""Truncated power series with 2x2 complex matrix coefficients.

Arithmetic is exact modulo z^(N+1): every output coefficient n depends only
on input coefficients 0..n, so computing at a higher order and truncating
agrees coefficientwise with computing at the lower order.

The Cayley transforms between moment (Herglotz) series and contractive
(Schur) series live here.  They and ``series_inv`` serve the paper's series
recursions (``matrix_opuc.schur_step``, and the tests' references of the
library's two maps); those maps run in generator form in ``matrix_opuc``
and use no series inverse.

So do the 2x2 closed forms both use: the larger eigenvalue of a Gram matrix
(``_gram_max_eigenvalue``, behind ``matrix_opuc.operator_norm2``) and the
condition number ``cond2`` that guards every constant term inverted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShiftResidual, SingularConstantTerm

EYE2 = np.eye(2, dtype=complex)

SHIFT_TOL = 1e-10
COND_LIMIT = 1e12


def _gram_max_eigenvalue(a: complex, b: complex, c: complex, d: complex) -> float:
    """Larger eigenvalue of M^* M for M = [[a, b], [c, d]], on Python scalars.
    Private, so that a benchmark trace does not wrap a 1 us kernel.

    With M^* M = [[p, r], [conj r, q]] it is (p + q)/2 + hypot((p - q)/2, |r|),
    a sum of nonnegative terms: relative error a few ulps, also for rank one
    and for equal singular values.  (The form (t + sqrt(t^2 - 4 |det M|^2))/2,
    t = p + q, cancels when the singular values are equal, as on chi images,
    and there misses by up to 1e-8 near the unit sphere.)  The squares keep
    full accuracy for entries between about 1e-150 and 1e150; beyond, they
    overflow to inf or underflow to 0.  NaN entries give NaN.  Nothing raises.
    """
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    q = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    r = a.conjugate() * b + c.conjugate() * d
    return 0.5 * (p + q) + math.hypot(0.5 * (p - q), math.hypot(r.real, r.imag))


def cond2(M) -> float:
    """2-norm condition number of a 2x2 matrix in double precision:
    sigma_max / sigma_min = lambda_max(M^* M) / |det M|.  inf for a singular
    matrix, NaN for NaN entries."""
    (a, b), (c, d) = np.asarray(M, dtype=complex).tolist()
    det = a * d - b * c
    absdet = math.hypot(det.real, det.imag)
    return _gram_max_eigenvalue(a, b, c, d) / absdet if absdet else math.inf


class TruncSeries:
    """A series sum_n A_n z^n truncated at order N, A_n 2x2 complex."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (2, 2):
            raise ValueError("coefficients must have shape (N+1, 2, 2)")
        object.__setattr__(self, "coeffs", coeffs)
        coeffs.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, M, order: int) -> "TruncSeries":
        c = np.zeros((order + 1, 2, 2), dtype=complex)
        c[0] = M
        return cls(c)

    @classmethod
    def identity(cls, order: int) -> "TruncSeries":
        return cls.constant(EYE2, order)

    def shift_up(self) -> "TruncSeries":
        """Multiply by z; all coefficients are known, order grows by one."""
        c = np.zeros((len(self.coeffs) + 1, 2, 2), dtype=complex)
        c[1:] = self.coeffs
        return TruncSeries(c)

    def shift_down(self) -> "TruncSeries":
        """Divide by z exactly; the constant coefficient must be at most SHIFT_TOL."""
        residual = float(np.max(np.abs(self.coeffs[0])))
        if residual > SHIFT_TOL:
            raise ShiftResidual(
                f"degree-0 coefficient {residual:.3e} exceeds {SHIFT_TOL:.1e}")
        return TruncSeries(self.coeffs[1:].copy())

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(self.coeffs[: n + 1] - other.coeffs[: n + 1])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = np.empty((n + 1, 2, 2), dtype=complex)
        for m in range(n + 1):
            out[m] = np.einsum("kij,kjl->il", a[: m + 1], b[m::-1])
        return TruncSeries(out)

    def __repr__(self):
        return f"TruncSeries(order={self.order})"


def series_inv(a: TruncSeries) -> TruncSeries:
    """Two-sided inverse modulo z^(N+1).

    Requires an invertible constant coefficient (condition number below
    1e12); triangular recursion b_n = -a_0^{-1} sum_{k>=1} a_k b_{n-k}.
    """
    a0 = a.coeffs[0]
    if not cond2(a0) <= COND_LIMIT:   # also rejects NaN
        raise SingularConstantTerm(
            "constant coefficient is singular or too ill-conditioned to invert")
    n = a.order
    inv0 = np.linalg.inv(a0)
    out = np.empty((n + 1, 2, 2), dtype=complex)
    out[0] = inv0
    for m in range(1, n + 1):
        acc = np.einsum("kij,kjl->il", a.coeffs[1: m + 1], out[m - 1:: -1])
        out[m] = -inv0 @ acc
    return TruncSeries(out)


def herglotz_from_moments(C, N: int) -> TruncSeries:
    """F = I + 2 sum_{n=1..N} C_n z^n from moment matrices C_1..C_N."""
    C = list(C)
    if len(C) < N:
        raise ValueError(f"need {N} moment matrices, got {len(C)}")
    coeffs = np.zeros((N + 1, 2, 2), dtype=complex)
    coeffs[0] = EYE2
    for n in range(1, N + 1):
        coeffs[n] = 2.0 * np.asarray(C[n - 1], dtype=complex)
    return TruncSeries(coeffs)


def schur_from_herglotz(F: TruncSeries) -> TruncSeries:
    """Invert the Cayley transform: F = (I + zf)(I - zf)^{-1}.

    Computed as z f = (F - I)(F + I)^{-1} followed by an exact shift down
    one degree; the degree-0 coefficient of the product is zero by
    construction and is asserted (ShiftResidual on malformed input).
    """
    if np.max(np.abs(F.coeffs[0] - EYE2)) > 1e-9:
        raise ValueError("Herglotz series must have F(0) = I")
    order = F.order
    eye = TruncSeries.identity(order)
    zf = (F - eye) * series_inv(F + eye)
    return zf.shift_down()


def herglotz_from_schur(f: TruncSeries) -> TruncSeries:
    """F = (I + zf) (I - zf)^{-1}; output order is one above the input."""
    zf = f.shift_up()
    eye = TruncSeries.identity(zf.order)
    return (eye + zf) * series_inv(eye - zf)
