"""Quaternionic polynomial spaces, orthonormal families, and the two routes
from moments to Verblunsky coefficients.

Two polynomial spaces appear: QPolyL holds sums p^k phi_k (coefficients on
the right of the powers), QPolyR holds sums phi_k p^k.  A polynomial is
stored only as a read-only (n+1, 4) float array ``arr`` (row k = phi_k in
the basis 1, i, j, k); ``coeffs`` hands out ``Quaternion`` objects for
the API and evaluation takes and returns them.  Right-orthonormal
polynomials live in the first space, left-orthonormal in the second; both
families and their Verblunsky coefficients come from one run of the paired
Szego recurrences on the moments (``measures.require_nontrivial``), kept as
coefficient rows until a family is read.  The Verblunsky coefficients those
recurrences read off equal the ones the matrix Schur algorithm strips from
the embedded moments, and the two extraction routes are cross-checked on
every call of ``verblunsky_from_moments_q``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegreeTooSmall, NotContraction, NotInImage, RouteMismatch
from .matrix_opuc import CONTRACTION_MARGIN, alphas_from_moments, moments_from_alphas
from .measures import _BASIS_PRODUCTS, PIVOT_TOL, MomentSequence, matrix_moments, \
    require_nontrivial
from .quaternions import (
    Quaternion, SliceFrame, _coerce, chi, chi_inv, qarr_abs, qarr_conj, qarr_from, qmul_parts,
)

ROUTE_TOL = 1e-8


def _coerce_coeffs(coeffs) -> np.ndarray:
    """A fresh (n+1, 4) float array (``qarr_from``), exact trailing zeros
    trimmed so that the degree is the index of the last nonzero coefficient
    (-0.0 is zero, NaN not)."""
    arr = qarr_from(coeffs)
    n = len(arr)
    while n > 1 and not arr[n - 1].any():
        n -= 1
    return arr[:n] if n else np.zeros((1, 4))


def _padded(arr: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficient rows, zero-padded at the top."""
    out = np.zeros((n, 4))
    m = min(n, len(arr))
    out[:m] = arr[:m]
    return out


class _QPolyBase:
    __slots__ = ("arr",)

    def __init__(self, coeffs):
        arr = _coerce_coeffs(coeffs)
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def degree(self) -> int:
        return len(self.arr) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(Quaternion(*row) for row in self.arr.tolist())

    def __eq__(self, other):
        return (type(self) is type(other) and self.arr.shape == other.arr.shape
                and bool((self.arr == other.arr).all()))

    def __hash__(self):
        # -0.0 == 0.0 and hash(-0.0) == hash(0.0), so this matches __eq__
        return hash((type(self).__name__, tuple(self.arr.ravel().tolist())))

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot mix polynomial spaces")
        n = max(self.degree, other.degree) + 1
        return type(self)(_padded(self.arr, n) + _padded(other.arr, n))

    def __sub__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot mix polynomial spaces")
        n = max(self.degree, other.degree) + 1
        return type(self)(_padded(self.arr, n) - _padded(other.arr, n))

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree})"

    def to_json(self):
        space = "L" if isinstance(self, QPolyL) else "R"
        return {"space": space, "coeffs": self.arr.tolist()}


class QPolyL(_QPolyBase):
    """sum_k p^k phi_k: left-slice hyperholomorphic, coefficients on the right."""

    def __call__(self, p: Quaternion) -> Quaternion:
        return eval_L(self, p)


class QPolyR(_QPolyBase):
    """sum_k phi_k p^k: right-slice hyperholomorphic, coefficients on the left."""

    def __call__(self, p: Quaternion) -> Quaternion:
        return eval_R(self, p)


def _horner(coeffs, p, left: bool) -> tuple:
    """Horner's rule on component tuples: ``coeffs`` iterates over the
    coefficients as (w, x, y, z), constant first, and ``p`` is one such
    tuple; the step is p * acc for H[p]^L and acc * p for H[p]^R."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = qmul_parts(p, acc) if left else qmul_parts(acc, p)
        acc = (acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3])
    return acc


def eval_L(phi: QPolyL, p: Quaternion) -> Quaternion:
    """Horner evaluation of sum p^k phi_k (powers multiply from the left)."""
    return Quaternion(*_horner(phi.arr.tolist(), _coerce(p).to_array().tolist(), left=True))


def eval_R(phi: QPolyR, p: Quaternion) -> Quaternion:
    return Quaternion(*_horner(phi.arr.tolist(), _coerce(p).to_array().tolist(), left=False))


# qmul_parts as a table: part l of a b sums, over i = 0..3 in that order, the
# terms _TERM_SIGNS[l, i] * a_i * b_{_TERM_INDEX[l, i]}
_TERM_INDEX = np.abs(_BASIS_PRODUCTS).argmax(axis=1).T
_TERM_SIGNS = _BASIS_PRODUCTS[np.arange(4), _TERM_INDEX, np.arange(4)[:, None]].astype(float)


def _horner_terms(C: np.ndarray, points: np.ndarray, left: bool) -> np.ndarray:
    """``_horner`` on the (D+1, 4, P, 1) coefficients C at (S, 4) points, as a
    (4, P, S) array.  A step forms its 16 products in one multiply, of the
    accumulator gathered term by term against the points with the signs of
    ``qmul_parts`` folded in (a sign flip is exact), sums each part's four
    terms left to right in one reduce, as ``qmul_parts`` does, and adds the
    coefficient."""
    p = np.ascontiguousarray(points.T)[:, None, :]
    signs = _TERM_SIGNS[:, :, None, None]
    if left:   # term i of part l: sign p_i acc_j
        signed, gather = signs * p, _TERM_INDEX
    else:      # sign acc_i p_j
        signed, gather = signs * p[_TERM_INDEX], np.broadcast_to(np.arange(4), (4, 4))
    acc = np.broadcast_to(C[-1], (4, C.shape[2], len(points)))
    terms = np.empty((4,) + acc.shape)
    for c in C[-2::-1]:
        np.take(acc, gather, axis=0, out=terms, mode="clip")
        terms *= signed
        acc = np.add.reduce(terms, axis=1)
        acc += c
    return acc


def eval_norm_sq(polys, points: np.ndarray) -> np.ndarray:
    """|phi(p)|^2 for every polynomial of one space at every point.

    ``polys`` all live in H[p]^L (Horner step p * acc, as ``eval_L``) or all
    in H[p]^R (acc * p, as ``eval_R``); ``points`` is an (S, 4) array.
    Returns an (len(polys), S) array.  It runs the Horner loop of
    ``eval_L``/``eval_R`` on component arrays (``_horner_terms``), so every
    finite value is bitwise the one ``eval_L(phi, p).norm_sq()`` /
    ``eval_R`` give; shorter polynomials are zero-padded at the top, which
    changes no nonzero bit.  All the points go through one ``_horner_terms``
    call, whose step temporary is 16 len(polys) S doubles; a caller with
    many points blocks them (``analysis.cd_identity_check``).
    """
    left = isinstance(polys[0], QPolyL)
    if any(isinstance(phi, QPolyL) != left for phi in polys):
        raise TypeError("cannot mix polynomial spaces")
    D = max(phi.degree for phi in polys)
    C = np.zeros((D + 1, 4, len(polys), 1))
    for f, phi in enumerate(polys):
        C[: phi.degree + 1, :, f, 0] = phi.arr
    aw, ax, ay, az = _horner_terms(C, np.asarray(points, dtype=float), left)
    return aw * aw + ax * ax + ay * ay + az * az


def _reversed_coeffs(poly, n: int) -> np.ndarray:
    """conj(poly_{n-k}) for k = 0..n, the polynomial zero-padded to degree n."""
    if n < poly.degree:
        raise DegreeTooSmall(f"reversal degree {n} below polynomial degree {poly.degree}")
    return qarr_conj(_padded(poly.arr, n + 1)[::-1])


def reverse_L(phi: QPolyL, n: int) -> QPolyR:
    """phi^#(p) = conj(phi(1/conj p)) p^n; k-th coefficient conj(phi_{n-k})."""
    return QPolyR(_reversed_coeffs(phi, n))


def reverse_R(psi: QPolyR, m: int) -> QPolyL:
    """psi^#(p) = p^m conj(psi(1/conj p)); k-th coefficient conj(psi_{m-k})."""
    return QPolyL(_reversed_coeffs(psi, m))


# ---------------------------------------------------------------------
# orthonormal polynomials
# ---------------------------------------------------------------------

class OrthonormalFamily:
    """right[n] in H[p]^L (right-orthonormal), left[n] in H[p]^R (left-),
    n = 0..order, and the Verblunsky coefficients ``gammas`` that built them.

    Holds the coefficient rows of both families as one (2, order+1, order+1, 4)
    array ``rows``, rows[0] right and rows[1] left, row n holding degree n;
    ``right`` and ``left`` build their polynomials when first read.
    """

    def __init__(self, gammas: np.ndarray, rows: np.ndarray):
        self.gammas = gammas
        self.rows = rows

    @property
    def order(self) -> int:
        return len(self.gammas)

    @functools.cached_property
    def right(self) -> tuple:
        return tuple(QPolyL(self.rows[0, n, : n + 1]) for n in range(self.order + 1))

    @functools.cached_property
    def left(self) -> tuple:
        return tuple(QPolyR(self.rows[1, n, : n + 1]) for n in range(self.order + 1))


def orthonormal_polys(c: MomentSequence, N: int,
                      pivot_tol: float = PIVOT_TOL) -> OrthonormalFamily:
    """Both orthonormal families, degree 0..N, from the paired Szego
    recurrences on the moments (``measures.require_nontrivial``).

    Right orthonormality is <phi, psi>_R = psi^* T phi with T = toeplitz(c, N),
    left orthonormality <phi, psi>_L = phi T^T psi^*.  Leading coefficients
    are d_n^{-1/2} for the prediction errors d_n, strictly positive real.
    NotPositiveDefinite names the first order whose prediction error is at
    most ``pivot_tol``.  The family keeps the Verblunsky coefficients and the
    stacked (2, N+1, N+1, 4) coefficient rows of both families, and builds its
    polynomials when ``right``/``left`` are first read.  The frame plays no
    part.
    """
    return OrthonormalFamily(*require_nontrivial(c, N, pivot_tol))


# ---------------------------------------------------------------------
# Verblunsky coefficients
# ---------------------------------------------------------------------

class VerblunskySeq:
    """Quaternions with |gamma_n| < 1 - 1e-12, stored as a read-only (n, 4)
    array ``arr``; indexing, iteration and ``gammas`` hand out ``Quaternion``
    objects for the API, ``moduli()`` the array of |gamma_n|."""

    __slots__ = ("arr",)

    def __init__(self, gammas):
        arr = qarr_from(gammas)
        bad = np.flatnonzero(~(qarr_abs(arr) < 1.0 - CONTRACTION_MARGIN))   # NaN too
        if bad.size:
            raise NotContraction(f"gamma_{bad[0]} has |gamma| >= 1 - 1e-12",
                                 index=int(bad[0]))
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("VerblunskySeq is immutable")

    def __len__(self):
        return len(self.arr)

    def __getitem__(self, n):
        return Quaternion.from_array(self.arr[n])

    def __iter__(self):
        return iter(self.gammas)

    @property
    def gammas(self) -> tuple:
        return tuple(Quaternion(*row) for row in self.arr.tolist())

    def moduli(self) -> np.ndarray:
        return qarr_abs(self.arr)

    def to_json(self):
        return self.arr.tolist()


def _gammas_via_matrix(c: MomentSequence, N: int, frame: SliceFrame) -> VerblunskySeq:
    C = matrix_moments(c, frame, N)
    return VerblunskySeq(chi_inv(alphas_from_moments(C[1:], N), frame))


def moments_from_verblunsky_q(gammas: VerblunskySeq, N: int,
                              frame: SliceFrame | None = None) -> MomentSequence:
    """Forward map gamma -> c through the embedded matrix engine.

    Exact inverse of the matrix route of ``verblunsky_from_moments_q``.  Only
    gamma_0..gamma_{N-1} are read: c_{m+1} depends on alpha_0..alpha_m alone.
    ValueError (``moments_from_alphas``) if fewer than N are given.
    """
    frame = frame or SliceFrame.standard()
    C = moments_from_alphas(chi(gammas.arr[:N], frame), N)
    return MomentSequence(np.concatenate([[[1.0, 0.0, 0.0, 0.0]], chi_inv(C, frame)]))


def verblunsky_from_moments_q(c: MomentSequence, N: int,
                              frame: SliceFrame | None = None,
                              route_tol: float = ROUTE_TOL,
                              pivot_tol: float = PIVOT_TOL) -> tuple[VerblunskySeq, float]:
    """Verblunsky coefficients by two independent routes, cross-checked, as
    (gammas, route_residual): route A's coefficients and the largest
    |gamma_n| difference between the routes.

    Route A embeds the moments, runs the matrix Schur algorithm in complex
    long double, and pulls the coefficients back; route B reads them off the
    paired Szego recurrences on the moments in real long double
    (``orthonormal_polys``), one inner product with the moments per
    coefficient.  No polynomial is built.  Route B runs first, so moments that
    are not positive definite (first prediction error at most ``pivot_tol``)
    raise NotPositiveDefinite before route A runs.  RouteMismatch fires when the
    routes differ beyond tolerance - a correctness alarm, not a recoverable
    state.
    """
    frame = frame or SliceFrame.standard()
    fam = orthonormal_polys(c, N, pivot_tol)
    try:
        via_matrix = _gammas_via_matrix(c, N, frame)
    except NotInImage as exc:
        raise NotInImage(f"matrix route left the quaternionic subalgebra: {exc}") from exc
    via_szego = VerblunskySeq(fam.gammas)   # route B's contraction test
    residual = float(np.max(qarr_abs(via_matrix.arr - via_szego.arr), initial=0.0))
    if residual > route_tol:
        raise RouteMismatch(
            f"Verblunsky routes disagree by {residual:.3e}", residual=residual)
    return via_matrix, residual
