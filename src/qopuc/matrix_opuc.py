"""The 2x2 matrix engine: defect matrices, coefficient stripping, and the
moments <-> Verblunsky maps.

Conventions (fixed across the library):
  * moments enter through F = I + 2 sum_{n>=1} C_n z^n;
  * stripping is f_{n+1} = z^{-1} (rho_n^R)^{-1} (f_n - alpha_n)
    (I - alpha_n^* f_n)^{-1} rho_n^L, the z^{-1} realised as an exact
    coefficient shift (``schur_step``);
  * the coefficient recursion is
    s_k(f_n) = rho_n^R s_{k-1}(f_{n+1}) rho_n^L
               - sum_{l=1..k-1} rho_n^R s_{k-l-1}(f_{n+1}) (rho_n^L)^{-1}
                 alpha_n^* s_l(f_n),
    with base s_0(f_n) = alpha_n.
These are mutually inverse.  Of the series recursions built on them only
the stripping step ``schur_step`` stays here, which ``perfbench`` times; the
tests hold the inverse step, Schur's algorithm and the coefficient
recursion as the references of the two maps below, and check the round
trip to machine precision.

The two maps used by the library run in generator (Kailath "fast Schur")
form instead: f_n = A_n B_n^{-1} with A_0 = (F - I)/2z and B_0 = (F + I)/2,
and one stripping step is the linear update

    alpha_n = A_n(0) B_n(0)^{-1},
    A_{n+1} = (rho_n^R)^{-1} (A_n - alpha_n B_n) / z,
    B_{n+1} = (rho_n^L)^{-1} (B_n - alpha_n^* A_n),

so no series inverse is needed.  ``alphas_from_moments`` runs it forward
over whole coefficient arrays, N numpy steps.  If C_K is the last nonzero
moment (K is a density's Fourier degree), A_n[j] and B_n[j] vanish past
j = K, so the arrays it updates are at most K + 1 wide and it costs
O(N min(N, K)).  ``moments_from_alphas`` inverts it over the grid of
generator entries a_k[j], b_k[j] in waves T = 2j + k: an entry reads only
the two waves before its own and the b of its own wave, so each wave is a
few stacked 2x2 products, 2N - 1 numpy steps in all, O(N^2), and each entry
gets the operations it would get on its own.  Both run in extended
precision (np.clongdouble) and round only what they return, and every
output is exact under truncation of the horizon.  They make no LAPACK call
per step: the operator norm, the condition number, the defect square
roots, the inverses and the products are 2x2 closed forms.  The last three
(``_sqrt_psd2``, ``_inv2``, ``_mul2``) are written once over the four
entries (m00, m01, m10, m11), each product entry summed as 0 + a b + c d
in matmul's order, so they give matmul's bits.  Route A's step is a chain
of such constants, B(0)^{-1}, alpha_n, both defects, their roots and
inverses, so it hands them numpy scalars, whose arithmetic costs about a
tenth of what a numpy call on a (2, 2) array costs; only its array update
stays stacked matmuls.  The forward map and ``defects`` hand the same
functions whole stacks of entries, so the forward map builds all N defects
and inverses in one call each.

Matrix Verblunsky coefficients are one read-only (N, 2, 2) complex array,
which route A returns and the forward map reads; a defect pair is one
(2, ..., 2, 2) stack [rhoL, rhoR].  Every coefficient is tested for strict
contraction once where it enters this layer: route A tests each alpha_n it
makes, and the forward map each one it reads, through ``defects``.
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


def _entries(M: np.ndarray) -> tuple:
    """The entries (m00, m01, m10, m11) of a (..., 2, 2) array, as arrays of
    its batch shape: 0-d for one matrix, so that it takes the array loops a
    stack takes and gets a stack's bits (in complex128 those loops fuse
    multiply-adds that numpy scalar arithmetic rounds separately)."""
    return M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]


def _matrix(m) -> np.ndarray:
    """The 2x2 matrix, or the (..., 2, 2) stack, of entries (m00, m01, m10, m11)."""
    shape = m[0].shape
    if not shape:
        return np.array(m).reshape(2, 2)
    return np.stack(m, axis=-1).reshape(*shape, 2, 2)


# Entry-wise helpers that keep a scalar's work off numpy's reduction and
# binary-ufunc machinery, which costs microseconds per call on a scalar.

def _all(mask) -> bool:
    """Whether a boolean scalar holds, or every entry of a boolean array."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _max(x, y):
    """np.maximum(x, y): x where x >= y or x is NaN, else y.  On a scalar x
    that y is returned as given, so give it a value that is exact in x's
    precision."""
    return np.maximum(x, y) if isinstance(x, np.ndarray) else (y if y > x else x)


def _mul2(a: tuple, b: tuple) -> tuple:
    """The 2x2 product a b over entries.  Each entry is 0 + a_i0 b_0j + a_i1 b_1j
    in that order, the sum numpy's matmul forms, so it has matmul's bits."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (0 + a00 * b00 + a01 * b10, 0 + a00 * b01 + a01 * b11,
            0 + a10 * b00 + a11 * b10, 0 + a10 * b01 + a11 * b11)


def _inv2(m: tuple) -> tuple:
    """The closed-form 2x2 inverse over entries (np.linalg has no long double)."""
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    return m11 / det, -m01 / det, -m10 / det, m00 / det


def _sqrt_psd2(h: tuple) -> tuple:
    """The principal square root of a 2x2 Hermitian PSD matrix over entries
    (scalars in route A's steps, arrays over a stack in ``defects``), in
    their precision, so every matrix of a stack gets the bits it gets on its
    own.

    With t = tr H and d = det H >= 0: sqrt(H) = (H + sqrt(d) I) / sqrt(t + 2 sqrt(d)).
    ValueError if any matrix is not PSD or misses the residual check
    |R R - H| <= SQRT_CHECK_TOL max(1, t), NaN and inf entries included.
    """
    h00, h01, h10, h11 = h
    t = h00.real + h11.real
    s = np.sqrt(_max((h00 * h11 - h01 * h10).real, 0.0))
    denom = t + 2.0 * s
    if not _all(denom > 0.0):   # also rejects NaN
        raise ValueError("matrix is not positive semidefinite")
    q = np.sqrt(denom)
    # H + s I adds 0 off the diagonal too, which makes a -0.0 part 0.0
    R = ((h00 + s) / q, (h01 + 0) / q, (h10 + 0) / q, (h11 + s) / q)
    lim = SQRT_CHECK_TOL * _max(t, 1.0)
    e00, e01, e10, e11 = _mul2(R, R)
    if not _all((abs(e00 - h00) <= lim) & (abs(e01 - h01) <= lim)
                & (abs(e10 - h10) <= lim) & (abs(e11 - h11) <= lim)):   # also rejects NaN
        raise ValueError("square-root residual beyond tolerance")
    return R


def _require_contraction(alpha: np.ndarray, index=None):
    if not operator_norm2(alpha) < 1.0 - CONTRACTION_MARGIN:   # also rejects NaN
        raise NotContraction(
            f"coefficient{'' if index is None else ' ' + str(index)} has norm "
            f">= 1 - 1e-12; not a strict contraction", index=index)


def _defect_root(x, y) -> tuple:
    """The entries of (I - x y)^(1/2) from those of x and y: rho^L for
    (x, y) = (a*, a), rho^R for (a, a*).

    The caller has tested every contraction; the square root still rejects a
    defect that is not PSD or misses its residual check."""
    p00, p01, p10, p11 = _mul2(x, y)
    return _sqrt_psd2((1 - p00, 0 - p01, 0 - p10, 1 - p11))


def defects(alpha: np.ndarray) -> np.ndarray:
    """The defect pair [rhoL, rhoR] = [(I - a*a)^(1/2), (I - aa*)^(1/2)] of a
    2x2 matrix or a (..., 2, 2) stack, as one (2, ..., 2, 2) stack in the
    precision of alpha, so ``rhoL, rhoR = defects(a)``.

    Tests every matrix once: NotContraction if one is not a strict
    contraction, carrying its flat index for a stack.  Both roots come from
    one closed-form call on the entries of both.  In long double both
    products are one stacked matmul, which sums 0 + a b + c d as ``_mul2``
    does; a complex128 matmul goes to BLAS, which may fuse a multiply-add,
    so there the products stay entry-wise."""
    alpha = _complex(alpha)
    for n, a in enumerate(alpha.reshape(-1, 2, 2)):
        _require_contraction(a, n if alpha.ndim > 2 else None)
    pair = np.stack((alpha.conj().swapaxes(-1, -2), alpha))
    if alpha.dtype == np.clongdouble:
        return _matrix(_sqrt_psd2(_entries(EYE2 - pair @ pair[::-1])))
    return _matrix(_defect_root(_entries(pair), _entries(pair[::-1])))


def schur_step(f_n: TruncSeries, alpha_n: np.ndarray) -> TruncSeries:
    """One stripping step; the output carries one fewer valid order."""
    alpha_n = np.asarray(alpha_n, dtype=complex)
    if np.max(np.abs(f_n.coeffs[0] - alpha_n)) > CONSTANT_TOL:
        raise ConstantMismatch("f_n(0) differs from alpha_n beyond 1e-10")
    rhoL, rhoR = defects(alpha_n)
    order = f_n.order
    num = TruncSeries(f_n.coeffs - TruncSeries.constant(alpha_n, order).coeffs)
    den = TruncSeries.identity(order) - TruncSeries.constant(alpha_n.conj().T, order) * f_n
    core = num * series_inv(den)
    shifted = core.shift_down()
    rhoRi = np.linalg.inv(rhoR)
    return TruncSeries(np.einsum("ij,njk,kl->nil", rhoRi, shifted.coeffs, rhoL))


def moments_from_alphas(alphas, N: int) -> np.ndarray:
    """Moment matrices C_1..C_N, as an (N, 2, 2) array, from at least N 2x2
    coefficients (any array-like): Verblunsky's formula in generator form.
    alpha_0..alpha_{N-1} are tested once, by ``defects``, which raises
    NotContraction with the index; later ones are not read.

    Inverts the stripping update.  With a_k, b_k the generators of f_k
    (a_0 = (C_1, C_2, ...), b_0 = (I, C_1, ...)), for k + j <= N - 1

        a_k[j] = rho_k^R a_{k+1}[j-1] + alpha_k b_k[j]   (a_k[0] = alpha_k b_k[0]),
        b_{k+1}[j] = (rho_k^L)^{-1} (b_k[j] - alpha_k^* a_k[j]),
        b_0[0] = I,  b_0[j] = a_0[j-1],

    and C_{m+1} = a_0[m].  The entries are swept by waves T = 2j + k,
    T = 0..2N-2: b_k[j] reads wave T-1 (b_{k-1}[j], a_{k-1}[j]) or, for
    k = 0, is the copy of a_0[j-1] that wave T-2 stored, and a_k[j] reads
    wave T-1 (a_{k+1}[j-1]) and b_k[j], which its own wave sets first.  So
    the loop keeps the last two waves only, and each wave is a few stacked
    2x2 products: 2N - 1 numpy steps.  The coefficient arrays are reversed,
    which makes the k = T - 2j of a wave a stride-2 slice.  Every entry gets
    the operations it would get on its own, with no ``+ 0`` at j = 0, so
    C_{m+1} depends on alpha_0..alpha_m alone, through the same
    floating-point operations for every N: the moments for N are a
    byte-identical prefix of those for any larger N.  O(N^2) 2x2 products.

    Like alphas_from_moments it runs in np.clongdouble, defects included,
    and rounds each C_n to complex128 only when it is read off.  On seeded
    rmax-0.8 sequences that leaves the moments 2.5e-17 from the exact ones,
    against 5e-16 in double; the inverse problem amplifies that difference
    by up to 1e7 at N = 25..40.
    """
    alpha = np.asarray(alphas, dtype=complex).reshape(-1, 2, 2)
    if len(alpha) < N:
        raise ValueError(f"need at least {N} coefficients, got {len(alpha)}")
    ld = np.clongdouble
    alpha = alpha[:N].astype(ld)
    rhoL, rhoR = defects(alpha)
    # reversed, alpha_k at N - 1 - k, so that the k = T - 2j of a wave step by 2
    alpha, rhoR, rhoLi = alpha[::-1], rhoR[::-1], _matrix(_inv2(_entries(rhoL)))[::-1]
    alphaH = alpha.conj().swapaxes(-1, -2)

    def ks(T, j0, j1):
        """The k = T - 2j of j = j0..j1 as a slice of the reversed arrays."""
        return slice(N - 1 - T + 2 * j0, N - T + 2 * j1, 2)

    C = np.empty((N, 2, 2), dtype=complex)
    a = np.empty((2, N, 2, 2), dtype=ld)       # a_k[j] at [T % 2, j], the last two waves
    b = np.empty((2, N + 1, 2, 2), dtype=ld)   # b_k[j] likewise
    b[0, 0] = EYE2
    for T in range(2 * N - 1):
        lo, hi = max(0, T - N + 1), T // 2   # the j of wave T
        a_new, a_old, b_new, b_old = a[T % 2], a[1 - T % 2], b[T % 2], b[1 - T % 2]
        top = (T - 1) // 2   # the last j with k >= 1
        if lo <= top:
            K = ks(T - 1, lo, top)
            b_new[lo:top + 1] = rhoLi[K] @ (b_old[lo:top + 1] - alphaH[K] @ a_old[lo:top + 1])
        if lo == 0:
            a_new[0] = alpha[N - 1 - T] @ b_new[0]
        first = max(lo, 1)
        if first <= hi:
            K = ks(T, first, hi)
            a_new[first:hi + 1] = rhoR[K] @ a_old[first - 1:hi] + alpha[K] @ b_new[first:hi + 1]
        if T % 2 == 0:   # k = 0: C_{hi+1} = a_0[hi] = b_0[hi+1], which wave T + 2 reads
            C[hi] = b_new[hi + 1] = a_new[hi]
    return C


def alphas_from_moments(C, N: int) -> np.ndarray:
    """Verblunsky coefficients alpha_0..alpha_{N-1} as a read-only (N, 2, 2)
    array: Schur's algorithm in generator form, the inverse of
    moments_from_alphas on positive-definite data.

    Starts from A = (C_1..C_N), B = (I, C_1..C_{N-1}) and applies the
    stripping update to whole coefficient arrays, N numpy steps in all.
    With C_K the last nonzero moment, which one numpy call finds, A_n[j] and
    B_n[j] vanish past j = K, so step n updates only their first
    min(K + 1, N - n) entries, O(N min(N, K)) in all.  One update serves
    both widths: the next A and B are w = min(len(A), N - n - 1) entries
    wide, A written into one of two reused buffers.  While the band holds
    (w = K + 1) B keeps its entry K and A's row K stays +0, which gives the
    full arrays' bits: matmul's long-double loop sums each entry into +0, so
    alpha @ 0 and rho^{-1} @ (+-0) are +0, and after the first step every
    dropped entry is +0.  The first step drops chi images of zero moments,
    which may hold -0.0; of the band they reach only A_1[K], which is +0
    either way.  Past the band both lose their last entry each step.

    A step's 2x2 constants (B(0)^{-1}, alpha_n, both defects, their roots
    and inverses) run on numpy scalars through the entry-wise closed forms,
    which give matmul's bits; only the update of A and B is stacked
    matmuls.  A and B, and the defects of each alpha_n, are carried in
    np.clongdouble (the 80-bit x87 type on x86-64, eps 1.1e-19): rounding
    in the A/B updates is what limits accuracy.  In double the vanishing
    density's |gamma_n| = 1/(n+2) is met only to about 4e-15 at N = 400,
    against about 5e-18 here, and with double-precision defects the
    ill-conditioned moments of seeded rmax-0.8 sequences at N = 25..40 miss
    their round trip more often.  Where np.longdouble is plain double the
    accuracy falls back to the double figures.  Each alpha_n is rounded to
    complex128 before it is tested, once, and returned.  Every coefficient
    array entry depends only on lower entries, so alpha_0..alpha_{N-1} for
    N are a byte-identical prefix of those for any larger N.

    NotContraction (with the index) signals non-positive-definite moments;
    SingularConstantTerm and ShiftResidual guard B(0) and the exact shift.
    """
    if len(C) < N:
        raise ValueError(f"need {N} moment matrices, got {len(C)}")
    ld = np.clongdouble
    A = np.array(C[:N], dtype=ld).reshape(N, 2, 2)
    nonzero = np.flatnonzero(A)   # its last entry lies in A[K - 1] = C_K
    A = A[:int(nonzero[-1]) // 4 + 2 if len(nonzero) else 1]   # min(K + 1, N) wide
    B = np.empty_like(A)
    B[:1] = EYE2
    B[1:] = A[:-1]
    band = np.zeros((2, *A.shape), dtype=ld)   # A by turns; the last rows stay +0
    alphas = np.empty((N, 2, 2), dtype=complex)
    for n in range(N):
        if not cond2(B[0]) <= COND_LIMIT:   # also rejects NaN
            raise SingularConstantTerm(
                f"B(0) at step {n} is singular or too ill-conditioned to invert")
        # numpy scalars (long double has no Python type), the cheapest operands
        a = _mul2(A[0].reshape(4).tolist(), _inv2(B[0].reshape(4).tolist()))
        alphas[n] = alpha_ld = _matrix(a)
        _require_contraction(alphas[n], n)
        if n == N - 1:
            break
        # alpha_ld is within an ulp of the alpha tested above
        alphaH = alpha_ld.conj().T
        aH = alphaH.reshape(4).tolist()
        rhoL, rhoR = _defect_root(aH, a), _defect_root(a, aH)
        num = A - alpha_ld @ B
        residual = float(abs(num[0]).max())
        if residual > SHIFT_TOL:
            raise ShiftResidual(
                f"degree-0 coefficient {residual:.3e} exceeds {SHIFT_TOL:.1e}")
        w = min(len(A), N - n - 1)   # the band's K + 1, or one row fewer past it
        A_next = band[n % 2, :w]   # in the band its last row stays +0
        np.matmul(_matrix(_inv2(rhoR)), num[1:], out=A_next[:len(A) - 1])
        A, B = A_next, _matrix(_inv2(rhoL)) @ (B[:w] - alphaH @ A[:w])
    alphas.setflags(write=False)
    return alphas
