"""Quaternionic polynomial spaces, orthonormal families, and the two routes
from moments to Verblunsky coefficients.

Two polynomial spaces appear: H[p]^L holds sums p^k phi_k (coefficients on
the right of the powers), H[p]^R holds sums phi_k p^k.  A polynomial is an
(n+1, 4) float array of coefficient rows (row k = phi_k in the basis 1, i,
j, k), and a set of them one zero-padded (P, D+1, 4) array; its space is
not stored but passed along, as a bool ``left`` (True for H[p]^L), to the
functions that read it.  Right-orthonormal polynomials live in the first
space, left-orthonormal in the second.  Both families and their Verblunsky
coefficients come from one run of the paired Szego recurrences on the
moments (``measures.require_nontrivial``), as one (2, N+1, N+1, 4) stack of
coefficient rows, rows[0] right and rows[1] left; ``reversed_rows`` reverses
every member of such a stack in one step, and a reverse lives in the other
space.  The Verblunsky coefficients those recurrences read off equal the
ones the matrix Schur algorithm strips from the embedded moments, and the
two extraction routes are cross-checked on every call of
``verblunsky_from_moments_q``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotContraction, NotInImage, RouteMismatch
from .matrix_opuc import CONTRACTION_MARGIN, alphas_from_moments, moments_from_alphas
from .measures import _BASIS_PRODUCTS, PIVOT_TOL, MomentSequence, matrix_moments, \
    require_nontrivial
from .quaternions import (
    Quaternion, SliceFrame, _coerce, chi, chi_inv, qarr_abs, qarr_conj, qarr_from, qmul_parts,
)

ROUTE_TOL = 1e-8


def _horner(coeffs, p, left: bool) -> tuple:
    """Horner's rule on component tuples: ``coeffs`` iterates over the
    coefficients as (w, x, y, z), constant first, and ``p`` is one such
    tuple; the step is p * acc for H[p]^L and acc * p for H[p]^R."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = qmul_parts(p, acc) if left else qmul_parts(acc, p)
        acc = (acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3])
    return acc


def eval_L(phi: np.ndarray, p: Quaternion) -> Quaternion:
    """Horner evaluation of sum p^k phi_k (powers multiply from the left),
    the coefficients phi an (n+1, 4) array."""
    return Quaternion(*_horner(np.asarray(phi, dtype=float).tolist(),
                               _coerce(p).to_array().tolist(), left=True))


def eval_R(phi: np.ndarray, p: Quaternion) -> Quaternion:
    """Horner evaluation of sum phi_k p^k, the coefficients an (n+1, 4) array."""
    return Quaternion(*_horner(np.asarray(phi, dtype=float).tolist(),
                               _coerce(p).to_array().tolist(), left=False))


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


def eval_norm_sq(coeffs: np.ndarray, points: np.ndarray, left: bool) -> np.ndarray:
    """|phi(p)|^2 for every polynomial of one space at every point.

    ``coeffs`` is a zero-padded (P, D+1, 4) array of P polynomials, all in
    H[p]^L if ``left`` (Horner step p * acc, as ``eval_L``), else all in
    H[p]^R (acc * p, as ``eval_R``); ``points`` is an (S, 4) array.  Returns
    a (P, S) array.  It runs the Horner loop of ``eval_L``/``eval_R`` on
    component arrays (``_horner_terms``), so every finite value is bitwise
    the one ``eval_L(phi, p).norm_sq()`` / ``eval_R`` give; the zero padding
    above a polynomial's degree changes no nonzero bit, and the sign of a
    zero never reaches a norm square.  All the points go through one
    ``_horner_terms`` call, whose step temporary is 16 P S doubles; a caller
    with many points blocks them (``analysis.cd_identity_check``).
    """
    C = np.moveaxis(np.asarray(coeffs, dtype=float), 0, -1)[..., None]
    aw, ax, ay, az = _horner_terms(C, np.asarray(points, dtype=float), left)
    return aw * aw + ax * ax + ay * ay + az * az


def reversed_rows(rows: np.ndarray) -> np.ndarray:
    """The reverses of a stack of coefficient rows (..., N+1, N+1, 4), row n
    holding a polynomial of degree at most n, zero-padded: row n of the
    result holds conj(phi_{n-k}) at k = 0..n and +0.0 past n.

    The reverse of phi in H[p]^L at degree n, phi^#(p) = conj(phi(1/conj p))
    p^n, lies in H[p]^R; that of psi in H[p]^R, psi^#(p) = p^n
    conj(psi(1/conj p)), in H[p]^L.  The coefficients are the same
    conj(phi_{n-k}) either way, so one gather and one conjugation reverse
    every row of the stack.  A zero coefficient reversed is conj(0), whose
    imaginary parts are -0.0.
    """
    n, k = np.ogrid[: rows.shape[-2], : rows.shape[-2]]
    return np.where((k <= n)[:, :, None], qarr_conj(rows[..., n, np.maximum(n - k, 0), :]), 0.0)


# ---------------------------------------------------------------------
# orthonormal polynomials
# ---------------------------------------------------------------------

def orthonormal_polys(c: MomentSequence, N: int,
                      pivot_tol: float = PIVOT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Both orthonormal families, degree 0..N, from the paired Szego
    recurrences on the moments (``measures.require_nontrivial``), as
    (gammas, rows): the Verblunsky coefficients gamma_0..gamma_{N-1} as an
    (N, 4) array, and the coefficient rows of both families as one
    (2, N+1, N+1, 4) stack, rows[0] the right family (in H[p]^L) and rows[1]
    the left one (in H[p]^R), row n holding degree n zero-padded.

    Right orthonormality is <phi, psi>_R = psi^* T phi with T = toeplitz(c, N),
    left orthonormality <phi, psi>_L = phi T^T psi^*.  Leading coefficients
    are d_n^{-1/2} for the prediction errors d_n, strictly positive real.
    NotPositiveDefinite names the first order whose prediction error is at
    most ``pivot_tol``.  The frame plays no part.
    """
    return require_nontrivial(c, N, pivot_tol)


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


def verblunsky_from_moments_q(c: MomentSequence, N: int, frame: SliceFrame,
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
    szego_gammas, _ = orthonormal_polys(c, N, pivot_tol)
    try:
        via_matrix = _gammas_via_matrix(c, N, frame)
    except NotInImage as exc:
        raise NotInImage(f"matrix route left the quaternionic subalgebra: {exc}") from exc
    via_szego = VerblunskySeq(szego_gammas)   # route B's contraction test
    residual = float(np.max(qarr_abs(via_matrix.arr - via_szego.arr), initial=0.0))
    if residual > route_tol:
        raise RouteMismatch(
            f"Verblunsky routes disagree by {residual:.3e}", residual=residual)
    return via_matrix, residual
