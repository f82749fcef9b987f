"""The 2x2 matrix engine: defect matrices, coefficient stripping, and the
moments <-> Verblunsky maps.

Conventions (fixed across the library):
  * moments enter through F = I + 2 sum_{n>=1} C_n z^n;
  * stripping is f_{n+1} = z^{-1} (rho_n^R)^{-1} (f_n - alpha_n)
    (I - alpha_n^* f_n)^{-1} rho_n^L, the z^{-1} realised as an exact
    coefficient shift;
  * the coefficient recursion is
    s_k(f_n) = rho_n^R s_{k-1}(f_{n+1}) rho_n^L
               - sum_{l=1..k-1} rho_n^R s_{k-l-1}(f_{n+1}) (rho_n^L)^{-1}
                 alpha_n^* s_l(f_n),
    with base s_0(f_n) = alpha_n.
These three are mutually inverse/consistent; the round trip is tested to
machine precision.

The two maps used by the library run in generator (Kailath "fast Schur")
form instead: f_n = A_n B_n^{-1} with A_0 = (F - I)/2z and B_0 = (F + I)/2,
and one stripping step is the linear update

    alpha_n = A_n(0) B_n(0)^{-1},
    A_{n+1} = (rho_n^R)^{-1} (A_n - alpha_n B_n) / z,
    B_{n+1} = (rho_n^L)^{-1} (B_n - alpha_n^* A_n),

so no series inverse is needed.  ``alphas_from_moments`` runs it forward
over whole coefficient arrays; ``moments_from_alphas`` inverts it one
anti-diagonal at a time.  Both are O(N^2), run in extended precision
(np.clongdouble) and round only what they return, and every output is exact
under truncation of the horizon.  They make no LAPACK call per step: the
operator norm, the condition number, the defect square roots and the
inverses are 2x2 closed forms, and ``sqrtm_herm2``, ``_inv2`` and
``defects`` take whole (..., 2, 2) stacks, so the forward map builds all N
defects and inverses in one call each.  ``schur_step``,
``inverse_schur_step``, ``schur_algorithm`` and ``schur_coeffs_forward``
are the paper's series recursions, kept as independent references.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstantMismatch, NotContraction, ShiftResidual, SingularConstantTerm
from .series import COND_LIMIT, EYE2, SHIFT_TOL, TruncSeries, _gram_max_eigenvalue, cond2, \
    series_inv

CONTRACTION_MARGIN = 1e-12
CONSTANT_TOL = 1e-10
SQRT_CHECK_TOL = 1e-13


def operator_norm2(A: np.ndarray) -> float:
    """Largest singular value of a 2x2 matrix, sqrt of the larger eigenvalue
    of A^* A in closed form (``series._gram_max_eigenvalue``), in double
    precision.  NaN entries give NaN and infinite ones inf, so a test of the
    form ``not norm < bound`` rejects both."""
    (a, b), (c, d) = np.asarray(A, dtype=complex).tolist()
    return math.sqrt(_gram_max_eigenvalue(a, b, c, d))


def _complex(x) -> np.ndarray:
    """x as a complex array: np.clongdouble if x is long double, else complex128."""
    x = np.asarray(x)
    return x.astype(np.result_type(x.dtype, np.complex128), copy=False)


def sqrtm_herm2(H: np.ndarray) -> np.ndarray:
    """Principal square roots of 2x2 Hermitian PSD matrices, closed form, for
    one matrix or a (..., 2, 2) stack, in the precision of H (long double
    input stays long double).

    With t = tr H and d = det H >= 0: sqrt(H) = (H + sqrt(d) I) / sqrt(t + 2 sqrt(d)).
    Every matrix of a stack gets the operations it would get on its own.
    ValueError if any matrix is not PSD or misses the residual check
    |R R - H| <= SQRT_CHECK_TOL max(1, t).
    """
    H = _complex(H)
    h00, h11 = H[..., 0, 0], H[..., 1, 1]
    t = h00.real + h11.real
    s = np.sqrt(np.maximum((h00 * h11 - H[..., 0, 1] * H[..., 1, 0]).real, 0.0))
    denom = t + 2.0 * s
    if np.any(denom <= 0.0):
        raise ValueError("matrix is not positive semidefinite")
    R = (H + s[..., None, None] * EYE2) / np.sqrt(denom)[..., None, None]
    residual = np.max(np.abs(R @ R - H), axis=(-2, -1))
    if np.any(residual > SQRT_CHECK_TOL * np.where(t > 1.0, t, 1.0)):
        raise ValueError("square-root residual beyond tolerance")
    return R


class MatVerblunskySeq:
    """A finite sequence of strictly contractive 2x2 matrices."""

    __slots__ = ("alphas",)

    def __init__(self, alphas):
        alphas = [np.asarray(a, dtype=complex) for a in alphas]
        for n, a in enumerate(alphas):
            _require_contraction(a, n)
        object.__setattr__(self, "alphas", tuple(a.copy() for a in alphas))

    def __setattr__(self, name, value):
        raise AttributeError("MatVerblunskySeq is immutable")

    def __len__(self):
        return len(self.alphas)

    def __getitem__(self, n):
        return self.alphas[n]

    def __iter__(self):
        return iter(self.alphas)


class DefectPair:
    """rhoL = (I - a* a)^(1/2) and rhoR = (I - a a*)^(1/2), both Hermitian PD."""

    __slots__ = ("rhoL", "rhoR")

    def __init__(self, rhoL, rhoR):
        object.__setattr__(self, "rhoL", _complex(rhoL))
        object.__setattr__(self, "rhoR", _complex(rhoR))

    def __setattr__(self, name, value):
        raise AttributeError("DefectPair is immutable")


def _require_contraction(alpha: np.ndarray, index=None):
    if not operator_norm2(alpha) < 1.0 - CONTRACTION_MARGIN:   # also rejects NaN
        raise NotContraction(
            f"coefficient{'' if index is None else ' ' + str(index)} has norm "
            f">= 1 - 1e-12; not a strict contraction", index=index)


def _defect_roots(alpha: np.ndarray) -> np.ndarray:
    """The stack [(I - a*a)^(1/2), (I - aa*)^(1/2)] for one contraction or a
    (..., 2, 2) stack, shape (2, ..., 2, 2), in the precision of alpha."""
    alpha = _complex(alpha)
    for a in alpha.reshape(-1, 2, 2):
        _require_contraction(a)
    aH = alpha.conj().swapaxes(-1, -2)
    H = np.empty((2, *alpha.shape), dtype=alpha.dtype)
    np.subtract(EYE2, aH @ alpha, out=H[0])
    np.subtract(EYE2, alpha @ aH, out=H[1])
    return sqrtm_herm2(H)


def defects(alpha: np.ndarray) -> DefectPair:
    """Principal square roots of I - a*a and I - aa* via the 2x2 closed form,
    in the precision of alpha; for a (..., 2, 2) stack, rhoL and rhoR are
    stacks of the same shape, square-rooted in one call."""
    return DefectPair(*_defect_roots(alpha))


def schur_step(f_n: TruncSeries, alpha_n: np.ndarray) -> TruncSeries:
    """One stripping step; the output carries one fewer valid order."""
    alpha_n = np.asarray(alpha_n, dtype=complex)
    if np.max(np.abs(f_n.coeffs[0] - alpha_n)) > CONSTANT_TOL:
        raise ConstantMismatch("f_n(0) differs from alpha_n beyond 1e-10")
    d = defects(alpha_n)
    order = f_n.order
    num = TruncSeries(f_n.coeffs - TruncSeries.constant(alpha_n, order).coeffs)
    den = TruncSeries.identity(order) - TruncSeries.constant(alpha_n.conj().T, order) * f_n
    core = num * series_inv(den)
    shifted = core.shift_down()
    rhoRi = np.linalg.inv(d.rhoR)
    return TruncSeries(np.einsum("ij,njk,kl->nil", rhoRi, shifted.coeffs, d.rhoL))


def inverse_schur_step(f_next: TruncSeries, alpha_n: np.ndarray) -> TruncSeries:
    """Rebuild f_n from (alpha_n, f_{n+1}); exact inverse of schur_step.

    With W = rho_n^R (z f_{n+1}) (rho_n^L)^{-1}:
    f_n = (I + W alpha_n^*)^{-1} (W + alpha_n).
    """
    alpha_n = np.asarray(alpha_n, dtype=complex)
    d = defects(alpha_n)
    z_next = f_next.shift_up()
    rhoLi = np.linalg.inv(d.rhoL)
    W = TruncSeries(np.einsum("ij,njk,kl->nil", d.rhoR, z_next.coeffs, rhoLi))
    order = W.order
    lhs = TruncSeries.identity(order) + W * TruncSeries.constant(alpha_n.conj().T, order)
    return series_inv(lhs) * (W + TruncSeries.constant(alpha_n, order))


def schur_algorithm(f: TruncSeries, N: int) -> MatVerblunskySeq:
    """Strip N coefficients alpha_0..alpha_{N-1} from a Schur-class truncation.

    Needs order(f) >= N - 1 (the last coefficient is read without a further
    stripping step).  NotContraction propagates when the input is not a
    Schur-class truncation, i.e. the underlying moment data is not positive
    definite.
    """
    if f.order < N - 1:
        raise ValueError(f"series order {f.order} too small for {N} coefficients")
    alphas = []
    current = f
    for n in range(N):
        alpha = np.array(current.coeffs[0])
        try:
            _require_contraction(alpha, n)
        except NotContraction as exc:
            raise NotContraction(str(exc), index=n) from None
        alphas.append(alpha)
        if n < N - 1:
            current = schur_step(current, alpha)
    return MatVerblunskySeq(alphas)


def schur_coeffs_forward(alphas: MatVerblunskySeq, K: int) -> list[np.ndarray]:
    """Schur-function coefficients s_0(f)..s_K(f) by the triangular recursion.

    The leading structure is s_k(f) = rho_0^R..rho_{k-1}^R alpha_k
    rho_{k-1}^L..rho_0^L plus contributions from lower-index coefficients.
    """
    if len(alphas) < K + 1:
        raise ValueError(f"need at least {K + 1} coefficients, got {len(alphas)}")
    dpairs = [defects(alphas[n]) for n in range(K + 1)]
    rhoLi = [np.linalg.inv(d.rhoL) for d in dpairs]
    table: dict[tuple[int, int], np.ndarray] = {}
    for n in range(K, -1, -1):
        table[(n, 0)] = np.asarray(alphas[n], dtype=complex)
        for k in range(1, K - n + 1):
            val = dpairs[n].rhoR @ table[(n + 1, k - 1)] @ dpairs[n].rhoL
            aH = np.asarray(alphas[n]).conj().T
            for l in range(1, k):
                val = val - (dpairs[n].rhoR @ table[(n + 1, k - l - 1)]
                             @ rhoLi[n] @ aH @ table[(n, l)])
            table[(n, k)] = val
    return [table[(0, k)] for k in range(K + 1)]


def schur_series_from_alphas(alphas: MatVerblunskySeq, order: int) -> TruncSeries:
    return TruncSeries(np.array(schur_coeffs_forward(alphas, order)))


def _inv2(M: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 inverse of one matrix or a (..., 2, 2) stack, in the
    dtype of M (np.linalg has no long double)."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    adj = np.empty_like(M)
    adj[..., 0, 0] = M[..., 1, 1]
    adj[..., 0, 1] = -M[..., 0, 1]
    adj[..., 1, 0] = -M[..., 1, 0]
    adj[..., 1, 1] = M[..., 0, 0]
    return adj / det[..., None, None]


def moments_from_alphas(alphas: MatVerblunskySeq, N: int) -> list[np.ndarray]:
    """Moment matrices C_1..C_N: Verblunsky's formula in generator form.

    Inverts the stripping update one anti-diagonal at a time.  With a_k, b_k
    the generators of f_k (a_0 = (C_1, C_2, ...), b_0 = (I, C_1, ...)),
    step m sets a_m[0] = alpha_m b_m[0], then for k = m-1..0
    a_k[m-k] = rho_k^R a_{k+1}[m-k-1] + alpha_k b_k[m-k], reads
    C_{m+1} = a_0[m], and advances b to the next anti-diagonal by
    b_0[m+1] = C_{m+1}, b_{k+1}[m-k] = (rho_k^L)^{-1} (b_k[m-k] - alpha_k^* a_k[m-k]).
    So C_{m+1} depends on alpha_0..alpha_m alone, through the same
    floating-point operations for every N: the moments for N are a
    byte-identical prefix of those for any larger N.  O(N^2) 2x2 products.

    Like alphas_from_moments it runs in np.clongdouble, defects included,
    and rounds each C_n to complex128 only when it is read off.  On seeded
    rmax-0.8 sequences that leaves the moments 2.5e-17 from the exact ones,
    against 5e-16 in double; the inverse problem amplifies that difference
    by up to 1e7 at N = 25..40.
    """
    if len(alphas) < N:
        raise ValueError(f"need at least {N} coefficients, got {len(alphas)}")
    ld = np.clongdouble
    alpha = np.array([np.asarray(alphas[n]) for n in range(N)], dtype=ld).reshape(N, 2, 2)
    rho = defects(alpha)
    rhoR = rho.rhoR
    rhoLi = _inv2(rho.rhoL)
    alphaH = alpha.conj().transpose(0, 2, 1)
    C = []
    b = EYE2[None].astype(ld)  # b[k] = b_k[m-k], the m-th anti-diagonal
    for m in range(N):
        a = np.empty_like(b)
        a[m] = alpha[m] @ b[m]
        for k in range(m - 1, -1, -1):
            a[k] = rhoR[k] @ a[k + 1] + alpha[k] @ b[k]
        C.append(a[0].astype(complex))
        nxt = np.empty((m + 2, 2, 2), dtype=ld)
        nxt[0] = a[0]
        nxt[1:] = rhoLi[: m + 1] @ (b - alphaH[: m + 1] @ a)
        b = nxt
    return C


def alphas_from_moments(C, N: int) -> MatVerblunskySeq:
    """Verblunsky coefficients alpha_0..alpha_{N-1}: Schur's algorithm in
    generator form, the inverse of moments_from_alphas on positive-definite data.

    Starts from A = (C_1..C_N), B = (I, C_1..C_{N-1}) and applies the
    stripping update to whole coefficient arrays, N numpy steps in all.
    A and B, and the defects of each alpha_n, are carried in np.clongdouble
    (the 80-bit x87 type on x86-64, eps 1.1e-19): rounding in the A/B
    updates is what limits accuracy.  In double the vanishing density's
    |gamma_n| = 1/(n+2) is met only to about 4e-15 at N = 400, against about
    5e-18 here, and with double-precision defects the ill-conditioned moments
    of seeded rmax-0.8 sequences at N = 25..40 miss their round trip more
    often.  Where np.longdouble is plain double the accuracy falls back to
    the double figures.  Each alpha_n is rounded to complex128 before it is
    checked or returned.  Every coefficient array entry depends only on lower
    entries, so alpha_0..alpha_{N-1} for N are a byte-identical prefix of
    those for any larger N.

    NotContraction (with the index) signals non-positive-definite moments;
    SingularConstantTerm and ShiftResidual guard B(0) and the exact shift.
    """
    C = list(C)
    if len(C) < N:
        raise ValueError(f"need {N} moment matrices, got {len(C)}")
    ld = np.clongdouble
    A = np.array([np.asarray(M) for M in C[:N]], dtype=ld).reshape(N, 2, 2)
    B = np.empty_like(A)
    B[:1] = EYE2
    B[1:] = A[:-1]
    alphas = []
    for n in range(N):
        if not cond2(B[0]) <= COND_LIMIT:   # also rejects NaN
            raise SingularConstantTerm(
                f"B(0) at step {n} is singular or too ill-conditioned to invert")
        alpha_ld = A[0] @ _inv2(B[0])
        alpha = alpha_ld.astype(complex)
        _require_contraction(alpha, n)
        alphas.append(alpha)
        if n == N - 1:
            break
        rhoLi, rhoRi = _inv2(_defect_roots(alpha_ld))
        num = A - alpha_ld @ B
        residual = float(np.max(np.abs(num[0])))
        if residual > SHIFT_TOL:
            raise ShiftResidual(
                f"degree-0 coefficient {residual:.3e} exceeds {SHIFT_TOL:.1e}")
        A, B = rhoRi @ num[1:], rhoLi @ (B[:-1] - alpha_ld.conj().T @ A[:-1])
    return MatVerblunskySeq(alphas)
