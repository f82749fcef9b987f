"""Quaternionic polynomial spaces, inner products, orthonormal families,
and the Szego recurrences.

Two polynomial spaces appear: QPolyL holds sums p^k phi_k (coefficients on
the right of the powers), QPolyR holds sums phi_k p^k.  Right-orthonormal
polynomials live in the first space, left-orthonormal in the second; both
families come from a square-root-free LDL* of the Toeplitz form.  The
paired recurrences advance all four sequences (both families and their
reverses); the Verblunsky coefficient entering them equals the coefficient
stripped by the matrix Schur algorithm of the embedded moments, and the two
extraction routes are cross-checked on every call of
``verblunsky_from_moments_q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooSmall, NotContraction, NotInImage, RouteMismatch
from .matrix_opuc import alphas_from_moments
from .measures import (
    PIVOT_TOL, MomentSequence, matrix_moments, require_nontrivial, toeplitz,
)
from .quaternions import (
    HAMILTON, Quaternion, SliceFrame, chi, chi_inv, qarr_conj, qpair_outer,
)

ROUTE_TOL = 1e-8


def _coerce_coeffs(coeffs):
    out = [c if isinstance(c, Quaternion) else Quaternion(c) for c in coeffs]
    if not out:
        out = [Quaternion()]
    # trim exact trailing zeros so degree = index of last nonzero coefficient
    while len(out) > 1 and out[-1] == Quaternion():
        out.pop()
    return tuple(out)


class _QPolyBase:
    __slots__ = ("coeffs", "arr")

    def __init__(self, coeffs):
        coeffs = _coerce_coeffs(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        arr = np.array([c.to_array() for c in coeffs])
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return type(self) is type(other) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def _scaled(self, factor: float):
        return type(self)([c * factor for c in self.coeffs])

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot mix polynomial spaces")
        n = max(self.degree, other.degree)
        return type(self)([self.coeff(k) + other.coeff(k) for k in range(n + 1)])

    def __sub__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot mix polynomial spaces")
        n = max(self.degree, other.degree)
        return type(self)([self.coeff(k) - other.coeff(k) for k in range(n + 1)])

    def coeff(self, k: int) -> Quaternion:
        return self.coeffs[k] if 0 <= k <= self.degree else Quaternion()

    def shift(self):
        """Multiply by the variable (coefficients move up one power)."""
        return type(self)((Quaternion(),) + self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree})"

    def to_json(self):
        space = "L" if isinstance(self, QPolyL) else "R"
        return {"space": space, "coeffs": [c.to_json() for c in self.coeffs]}


class QPolyL(_QPolyBase):
    """sum_k p^k phi_k: left-slice hyperholomorphic, coefficients on the right."""

    def __call__(self, p: Quaternion) -> Quaternion:
        return eval_L(self, p)


class QPolyR(_QPolyBase):
    """sum_k phi_k p^k: right-slice hyperholomorphic, coefficients on the left."""

    def __call__(self, p: Quaternion) -> Quaternion:
        return eval_R(self, p)


def poly_from_json(obj):
    cls = QPolyL if obj["space"] == "L" else QPolyR
    return cls([Quaternion.from_array(c) for c in obj["coeffs"]])


def eval_L(phi: QPolyL, p: Quaternion) -> Quaternion:
    """Horner evaluation of sum p^k phi_k (powers multiply from the left)."""
    acc = phi.coeffs[-1]
    for k in range(phi.degree - 1, -1, -1):
        acc = p * acc + phi.coeffs[k]
    return acc


def eval_R(phi: QPolyR, p: Quaternion) -> Quaternion:
    acc = phi.coeffs[-1]
    for k in range(phi.degree - 1, -1, -1):
        acc = acc * p + phi.coeffs[k]
    return acc


def eval_norm_sq(polys, points: np.ndarray) -> np.ndarray:
    """|phi(p)|^2 for every polynomial of one space at every point.

    ``polys`` all live in H[p]^L (Horner step p * acc, as ``eval_L``) or all
    in H[p]^R (acc * p, as ``eval_R``); ``points`` is an (S, 4) array.
    Returns an (len(polys), S) array.  The Hamilton products are written out
    in ``Quaternion.__mul__``'s operand and sum order, so every value is
    bitwise the one ``eval_L(phi, p).norm_sq()`` / ``eval_R`` give; shorter
    polynomials are zero-padded at the top, which changes no nonzero bit.
    """
    left = isinstance(polys[0], QPolyL)
    if any(isinstance(phi, QPolyL) != left for phi in polys):
        raise TypeError("cannot mix polynomial spaces")
    D = max(phi.degree for phi in polys)
    C = np.zeros((D + 1, 4, len(polys), 1))
    for f, phi in enumerate(polys):
        C[: phi.degree + 1, :, f, 0] = phi.arr
    pw, px, py, pz = np.asarray(points, dtype=float).T[:, None, :]
    aw, ax, ay, az = C[D]
    for cw, cx, cy, cz in C[:D][::-1]:
        if left:    # p * acc
            aw, ax, ay, az = (pw * aw - px * ax - py * ay - pz * az + cw,
                              pw * ax + px * aw + py * az - pz * ay + cx,
                              pw * ay - px * az + py * aw + pz * ax + cy,
                              pw * az + px * ay - py * ax + pz * aw + cz)
        else:       # acc * p
            aw, ax, ay, az = (aw * pw - ax * px - ay * py - az * pz + cw,
                              aw * px + ax * pw + ay * pz - az * py + cx,
                              aw * py - ax * pz + ay * pw + az * px + cy,
                              aw * pz + ax * py - ay * px + az * pw + cz)
    return np.broadcast_to(aw * aw + ax * ax + ay * ay + az * az,
                           (len(polys), len(points)))


def _star_coeffs(a, b):
    n, m = len(a) - 1, len(b) - 1
    out = []
    for l in range(n + m + 1):
        acc = Quaternion()
        for alpha in range(max(0, l - m), min(n, l) + 1):
            acc = acc + a[alpha] * b[l - alpha]
        out.append(acc)
    return out


def star_mul_L(phi: QPolyL, psi: QPolyL) -> QPolyL:
    """Coefficient convolution c_l = sum_{a+b=l} phi_a psi_b (order fixed)."""
    return QPolyL(_star_coeffs(phi.coeffs, psi.coeffs))


def star_mul_R(phi: QPolyR, psi: QPolyR) -> QPolyR:
    return QPolyR(_star_coeffs(phi.coeffs, psi.coeffs))


def reverse_L(phi: QPolyL, n: int) -> QPolyR:
    """phi^#(p) = conj(phi(1/conj p)) p^n; k-th coefficient conj(phi_{n-k})."""
    if n < phi.degree:
        raise DegreeTooSmall(f"reversal degree {n} below polynomial degree {phi.degree}")
    return QPolyR([phi.coeff(n - k).conjugate() for k in range(n + 1)])


def reverse_R(psi: QPolyR, m: int) -> QPolyL:
    """psi^#(p) = p^m conj(psi(1/conj p)); k-th coefficient conj(psi_{m-k})."""
    if m < psi.degree:
        raise DegreeTooSmall(f"reversal degree {m} below polynomial degree {psi.degree}")
    return QPolyL([psi.coeff(m - k).conjugate() for k in range(m + 1)])


# ---------------------------------------------------------------------
# embeddings into 2x2 matrix polynomials (coefficientwise chi)
# ---------------------------------------------------------------------

def phi_L(phi: QPolyL, frame: SliceFrame) -> np.ndarray:
    return np.array([chi(c, frame) for c in phi.coeffs])


def phi_R(psi: QPolyR, frame: SliceFrame) -> np.ndarray:
    return np.array([chi(c, frame) for c in psi.coeffs])


def phi_L_inv(P: np.ndarray, frame: SliceFrame) -> QPolyL:
    """Inverse embedding; NotInImage when any coefficient fails structurally."""
    return QPolyL([chi_inv(M, frame) for M in np.asarray(P, dtype=complex)])


def phi_R_inv(P: np.ndarray, frame: SliceFrame) -> QPolyR:
    return QPolyR([chi_inv(M, frame) for M in np.asarray(P, dtype=complex)])


# ---------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------

def _padded_arrays(phi, psi):
    n = max(phi.degree, psi.degree)
    a = np.zeros((n + 1, 4))
    b = np.zeros((n + 1, 4))
    a[: phi.degree + 1] = phi.arr
    b[: psi.degree + 1] = psi.arr
    return a, b, n


def inner_R(phi: QPolyL, psi: QPolyL, c: MomentSequence) -> Quaternion:
    """<phi, psi>_R = psi_hat^* T_N(c) phi_hat (right-linear in phi).

    Coefficient vectors are zero-padded to the longer degree.
    """
    a, b, n = _padded_arrays(phi, psi)
    T = toeplitz(c, n).swapaxes(0, 1)   # T[k, l] = c_{k-l}; row l pairs psi_l
    tphi = np.einsum("kla,kb,abc->lc", T, a, HAMILTON)
    val = np.einsum("la,lb,abc->c", qarr_conj(b), tphi, HAMILTON)
    return Quaternion.from_array(val)


def inner_L(phi: QPolyR, psi: QPolyR, c: MomentSequence) -> Quaternion:
    """<phi, psi>_L = sum_{k,l} phi_k c_{k-l} conj(psi_l) (left-linear in phi)."""
    a, b, n = _padded_arrays(phi, psi)
    T = toeplitz(c, n).swapaxes(0, 1)
    left = np.einsum("ka,klb,abc->lc", a, T, HAMILTON)
    val = np.einsum("la,lb,abc->c", left, qarr_conj(b), HAMILTON)
    return Quaternion.from_array(val)


def _real_part_checked(q: Quaternion, what: str, tol: float = 1e-8) -> float:
    if abs(q.imag).max() > tol * max(1.0, abs(q.w)):
        raise ArithmeticError(f"{what} should be real, got {q!r}")
    return q.w


# ---------------------------------------------------------------------
# orthonormal polynomials
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class OrthonormalFamily:
    """right[n] in H[p]^L (right-orthonormal), left[n] in H[p]^R (left-)."""

    right: tuple
    left: tuple

    @property
    def order(self) -> int:
        return len(self.right) - 1


def _inverse_rows(L: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D^{-1/2} L^{-1} for unit lower L, by forward substitution on pairs."""
    Lp = L.view(complex)
    X = np.zeros_like(Lp)
    X[np.arange(len(d)), np.arange(len(d)), 0] = 1.0
    for m in range(len(d) - 1):
        X[m + 1:, : m + 1] -= qpair_outer(Lp[m + 1:, m], X[m, : m + 1])
    return X.view(float) / np.sqrt(d)[:, None, None]


def orthonormal_polys(c: MomentSequence, N: int,
                      pivot_tol: float = PIVOT_TOL) -> OrthonormalFamily:
    """Both orthonormal families, degree 0..N, from LDL* of the Toeplitz form.

    <phi, psi>_R = psi^* T phi with T = toeplitz(c, N), so T = L D L^* makes
    the columns of L^{-*} D^{-1/2} right-orthonormal: right[n] has the
    coefficients conj(row n of D^{-1/2} L^{-1}).  <phi, psi>_L = phi T^T psi^*,
    so with T^T = L D L^* the left family is row n of D^{-1/2} L^{-1}.
    Leading coefficients are d_n^{-1/2}, strictly positive real.  The frame
    plays no part.  NotPositiveDefinite names the first order whose pivot is
    at most ``pivot_tol``.
    """
    # + 0.0 maps the -0.0 that conjugating an exact zero leaves back to 0.0
    rows_r = qarr_conj(_inverse_rows(*require_nontrivial(c, N, pivot_tol))) + 0.0
    rows_l = _inverse_rows(*require_nontrivial(c, N, pivot_tol, transpose=True))
    right = tuple(QPolyL([Quaternion.from_array(q) for q in rows_r[n, : n + 1]])
                  for n in range(N + 1))
    left = tuple(QPolyR([Quaternion.from_array(q) for q in rows_l[n, : n + 1]])
                 for n in range(N + 1))
    return OrthonormalFamily(right=right, left=left)


# ---------------------------------------------------------------------
# Verblunsky coefficients and the paired Szego recurrences
# ---------------------------------------------------------------------

class VerblunskySeq:
    """Quaternions strictly inside the unit ball, with r_n = sqrt(1-|g|^2)."""

    __slots__ = ("gammas", "r")

    def __init__(self, gammas):
        gammas = tuple(g if isinstance(g, Quaternion) else Quaternion(g)
                       for g in gammas)
        r = []
        for n, g in enumerate(gammas):
            nsq = g.norm_sq()
            if nsq >= 1.0 - 1e-12:
                raise NotContraction(
                    f"gamma_{n} has |gamma| >= 1 - 1e-12", index=n)
            r.append(math.sqrt(1.0 - nsq))
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "r", tuple(r))

    def __setattr__(self, name, value):
        raise AttributeError("VerblunskySeq is immutable")

    def __len__(self):
        return len(self.gammas)

    def __getitem__(self, n):
        return self.gammas[n]

    def __iter__(self):
        return iter(self.gammas)

    def moduli(self) -> np.ndarray:
        return np.array([abs(g) for g in self.gammas])

    def to_json(self):
        return [g.to_json() for g in self.gammas]


@dataclass(frozen=True)
class SzegoState:
    """The four intertwined sequences at a common degree.

    left, right_rev live in H[p]^R; right, left_rev in H[p]^L.
    """

    left: QPolyR
    right: QPolyL
    left_rev: QPolyL
    right_rev: QPolyR

    @classmethod
    def initial(cls) -> "SzegoState":
        one_l = QPolyL([Quaternion(1.0)])
        one_r = QPolyR([Quaternion(1.0)])
        return cls(left=one_r, right=one_l, left_rev=one_l, right_rev=one_r)


def szego_advance(state: SzegoState, gamma: Quaternion) -> SzegoState:
    """One step of the paired recurrences.

        psi_{n+1}^L     = r^-1 (psi_n^L p - gamma psi_n^{R,#})
        psi_{n+1}^R     = r^-1 (p psi_n^R - psi_n^{L,#} gamma)
        psi_{n+1}^{L,#} = r^-1 (psi_n^{L,#} - p psi_n^R conj(gamma))
        psi_{n+1}^{R,#} = r^-1 (psi_n^{R,#} - conj(gamma) psi_n^L p)

    The factor order is fixed by the moment convention c_n = int e^{in t} dmu;
    the maintained reverses stay equal to the degree-matched reversals of the
    first two sequences.
    """
    gamma = gamma if isinstance(gamma, Quaternion) else Quaternion(gamma)
    nsq = gamma.norm_sq()
    if nsq >= 1.0 - 1e-12:
        raise NotContraction("gamma is not a strict contraction")
    r_inv = 1.0 / math.sqrt(1.0 - nsq)
    gbar = gamma.conjugate()
    shift_l = state.left.shift()          # psi_n^L p  in H[p]^R
    shift_r = state.right.shift()         # p psi_n^R  in H[p]^L
    new_left = QPolyR([(shift_l.coeff(k) - gamma * state.right_rev.coeff(k)) * r_inv
                       for k in range(shift_l.degree + 1)])
    new_right = QPolyL([(shift_r.coeff(k) - state.left_rev.coeff(k) * gamma) * r_inv
                        for k in range(shift_r.degree + 1)])
    new_left_rev = QPolyL([(state.left_rev.coeff(k) - shift_r.coeff(k) * gbar) * r_inv
                           for k in range(shift_r.degree + 1)])
    new_right_rev = QPolyR([(state.right_rev.coeff(k) - gbar * shift_l.coeff(k)) * r_inv
                            for k in range(shift_l.degree + 1)])
    return SzegoState(left=new_left, right=new_right,
                      left_rev=new_left_rev, right_rev=new_right_rev)


def szego_family(gammas: VerblunskySeq, N: int):
    """States 0..N generated from the Verblunsky coefficients."""
    if len(gammas) < N:
        raise ValueError(f"need {N} coefficients, got {len(gammas)}")
    states = [SzegoState.initial()]
    for n in range(N):
        states.append(szego_advance(states[n], gammas[n]))
    return states


@dataclass(frozen=True)
class VerblunskyExtraction:
    """Both construction routes plus their disagreement."""

    matrix_route: VerblunskySeq
    szego_route: VerblunskySeq
    route_residual: float

    @property
    def gammas(self):
        return self.matrix_route.gammas

    def __len__(self):
        return len(self.matrix_route)

    def __getitem__(self, n):
        return self.matrix_route[n]


def _gammas_via_matrix(c: MomentSequence, N: int, frame: SliceFrame) -> VerblunskySeq:
    C = matrix_moments(c, frame, N)
    alphas = alphas_from_moments(C[1:], N)
    return VerblunskySeq([chi_inv(a, frame) for a in alphas])


def _gammas_via_szego(fam: OrthonormalFamily) -> VerblunskySeq:
    gammas = []
    for n in range(fam.order):
        kap_n = fam.left[n].coeffs[n]
        kap_n1 = fam.left[n + 1].coeffs[n + 1]
        r_n = _real_part_checked(kap_n * kap_n1.inverse(), "leading ratio")
        kap_r = _real_part_checked(fam.right[n].coeffs[n], "leading coefficient")
        gamma = -(fam.left[n + 1].coeff(0) * (r_n / kap_r))
        gammas.append(gamma)
    return VerblunskySeq(gammas)


def moments_from_verblunsky_q(gammas: VerblunskySeq, N: int,
                              frame: SliceFrame | None = None) -> MomentSequence:
    """Forward map gamma -> c through the embedded matrix engine.

    Exact inverse of the matrix route of ``verblunsky_from_moments_q``.
    """
    from .matrix_opuc import MatVerblunskySeq, moments_from_alphas

    if len(gammas) < N:
        raise ValueError(f"need {N} coefficients, got {len(gammas)}")
    frame = frame or SliceFrame.standard()
    alphas = MatVerblunskySeq([chi(g, frame) for g in gammas])
    C = moments_from_alphas(alphas, N)
    return MomentSequence([Quaternion(1.0)] + [chi_inv(M, frame) for M in C])


def verblunsky_from_moments_q(c: MomentSequence, N: int,
                              frame: SliceFrame | None = None,
                              route_tol: float = ROUTE_TOL,
                              pivot_tol: float = PIVOT_TOL) -> VerblunskyExtraction:
    """Verblunsky coefficients by two independent routes, cross-checked.

    Route A embeds the moments, runs the matrix Schur algorithm, and pulls
    the coefficients back; route B solves each Szego step for gamma_n given
    consecutive members of the orthonormal families, which come from LDL* of
    the Toeplitz form.  The families are built first, so moments that are not
    positive definite (first pivot at most ``pivot_tol``) raise
    NotPositiveDefinite before route A runs.  RouteMismatch fires when the
    routes differ beyond tolerance - a correctness alarm, not a recoverable
    state.
    """
    frame = frame or SliceFrame.standard()
    fam = orthonormal_polys(c, N, pivot_tol)
    try:
        via_matrix = _gammas_via_matrix(c, N, frame)
    except NotInImage as exc:
        raise NotInImage(f"matrix route left the quaternionic subalgebra: {exc}") from exc
    via_szego = _gammas_via_szego(fam)
    residual = max(
        (abs(a - b) for a, b in zip(via_matrix, via_szego)), default=0.0)
    if residual > route_tol:
        raise RouteMismatch(
            f"Verblunsky routes disagree by {residual:.3e}", residual=residual)
    return VerblunskyExtraction(matrix_route=via_matrix, szego_route=via_szego,
                                route_residual=float(residual))
