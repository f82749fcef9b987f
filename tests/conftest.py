from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from qopuc.analysis import _kernel
from qopuc.errors import HorizonExceeded, NotContraction, NotPositiveDefinite, QopucError
from qopuc.fixtures import random_gamma_seq
from qopuc.matrix_opuc import (
    CONTRACTION_MARGIN, _complex, _entries, _matrix, _require_contraction, _sqrt_psd2, defects,
    schur_step,
)
from qopuc.measures import _BASIS_PRODUCTS, _CONJ, QPositiveDensity, _pivot_checked, toeplitz
from qopuc.polynomials import eval_norm_sq, moments_from_verblunsky_q, orthonormal_polys
from qopuc.quaternions import (
    Quaternion, SliceFrame, chi, qarr_conj, qarr_from, qarr_inv, qarr_mul, qarr_norm_sq,
)
from qopuc.series import TruncSeries, series_inv
from qopuc.zeros import NUMERIC_DEGREE_TOL, det_poly

ONE = Quaternion(1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


# ---- the named densities with closed forms, as the tests build them; the
# CLI reads the same densities from the JSON fixtures ----

def lebesgue_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """Normalised arc length: w = 1, all Verblunsky coefficients zero."""
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), {0: 1.0})


def bernstein_szego_density(gamma0: float = 0.5, cutoff: int = 64,
                            frame: SliceFrame | None = None) -> QPositiveDensity:
    """(1 - g^2)/|1 - g e^{i theta}|^2 for real g, truncated at |n| <= cutoff.

    Moments are g^n for n >= 0; the single nonzero Verblunsky coefficient is
    gamma_0 = g.  Truncation error is geometric (g^cutoff).
    """
    if not 0 < gamma0 < 1:
        raise ValueError("gamma0 must lie in (0, 1)")
    w1 = {m: gamma0 ** abs(m) for m in range(-cutoff, cutoff + 1)}
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), w1)


def vanishing_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """w = 1 + cos(theta): vanishes at theta = pi, |gamma_n| = 1/(n+2).

    Square-summable but not summable coefficients; the Baxter diagnostic's
    nonsummable reference fixture.
    """
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(),
                                      {0: 1.0, 1: 0.5, -1: 0.5})


def smooth_trig_density(frame: SliceFrame | None = None) -> QPositiveDensity:
    """A strictly positive trigonometric density with a genuine j-part.

    Low Fourier degree and a comfortable positivity margin, so the
    Verblunsky coefficients decay geometrically and the entropy identity
    closes well before N = 50.
    """
    w1 = {0: 1.0, 1: 0.22 - 0.1j, -1: 0.22 + 0.1j, 2: 0.05 + 0.04j, -2: 0.05 - 0.04j}
    w2 = {1: 0.06 + 0.09j, -1: -0.06 - 0.09j, 2: 0.03 - 0.02j, -2: -0.03 + 0.02j}
    return QPositiveDensity.from_maps(frame or SliceFrame.standard(), w1, w2)


def fourier_values(coeffs, thetas):
    """sum_n coeffs[n] e^{i n theta}, one term at a time in the dict's order:
    a density's w1 or w2 on the circle, a reference for ``matrix_values`` at
    grid points."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros_like(thetas, dtype=complex)
    for n, a in coeffs.items():
        out = out + a * np.exp(1j * n * thetas)
    return out


def density_maps(d):
    """A density's coefficient maps ({n: w1_n}, {n: w2_n}) in its own frame,
    n ascending: w1_{-n} + w2_{-n} j = c_n split per value by np.dot, and
    w1_n = conj(w1_{-n}), w2_n = -w2_{-n} for n > 0."""
    w1, w2 = {}, {}
    for n, row in zip(d.index[::-1].tolist(), d.coeffs[::-1]):
        w1[-n] = complex(row[0], float(np.dot(row[1:], d.frame.i.imag)))
        w2[-n] = complex(float(np.dot(row[1:], d.frame.j.imag)),
                         float(np.dot(row[1:], d.frame.k.imag)))
    for n in d.index[1:].tolist():
        w1[n], w2[n] = w1[-n].conjugate(), -w2[-n]
    return w1, w2


def random_moment_fixture(seed, N, rmax=0.8, frame=None):
    """Moments of a seeded random Verblunsky sequence (guaranteed non-trivial)."""
    return moments_from_verblunsky_q(random_gamma_seq(seed, N, rmax), N, frame)


def random_frame(rng) -> SliceFrame:
    """A uniformly random frame: Gram-Schmidt on Gaussian vectors, redrawn
    while either vector is shorter than 1e-6."""
    while True:
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        n1 = np.linalg.norm(v1)
        if n1 < 1e-6:
            continue
        v1 = v1 / n1
        v2 = v2 - np.dot(v1, v2) * v1
        n2 = np.linalg.norm(v2)
        if n2 < 1e-6:
            continue
        v2 = v2 / n2
        return SliceFrame(Quaternion(0.0, *v1), Quaternion(0.0, *v2))


def random_quaternion(rng, scale=1.0):
    return Quaternion(*(scale * rng.normal(size=4)))


def random_unit_ball_quaternion(rng, rmax=0.8, rmin=0.0):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    r = rng.uniform(rmin, rmax)
    return Quaternion(*(r * v))


def random_contraction(rng, rmax=0.8):
    """Random 2x2 strict contraction with operator norm <= rmax."""
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return A * (rmax * rng.uniform(0.2, 1.0) / np.linalg.norm(A, 2))

def random_chi_contraction(rng, frame=None, rmax=0.8):
    frame = frame or SliceFrame.standard()
    return chi(random_unit_ball_quaternion(rng, rmax=rmax), frame)


def random_qmatrix(rng, n, scale=1.0):
    return scale * rng.normal(size=(n, n, 4))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def frame():
    return SliceFrame.standard()


# ---- the block form of the embedding: the oracle of chi_mat's entrywise split ----

def block_permutation(n: int) -> np.ndarray:
    """The permutation U_n with chi_mat(A) = U_n [chi(a_kl)]_blocks U_n^*.

    Row m has its 1 in column 2m-1 and row n+m in column 2m (1-based).
    """
    U = np.zeros((2 * n, 2 * n), dtype=int)
    for m in range(n):
        U[m, 2 * m] = 1
        U[n + m, 2 * m + 1] = 1
    return U


def blockwise_chi(A, frame) -> np.ndarray:
    """The n x n block matrix [chi(a_kl)] as a 2n x 2n complex matrix, each
    block the per-quaternion image of its entry."""
    n = len(A)
    return chi(np.asarray(A, dtype=float), frame).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


# ---- the paper's series recursions: the references of route A and the
# forward map ----

def sqrtm_herm2(H: np.ndarray) -> np.ndarray:
    """Principal square roots of 2x2 Hermitian PSD matrices, one matrix or a
    (..., 2, 2) stack, in the precision of H: ``matrix_opuc._sqrt_psd2``'s
    closed form and checks on the entries of H."""
    return _matrix(_sqrt_psd2(_entries(_complex(H))))


def inverse_schur_step(f_next: TruncSeries, alpha_n: np.ndarray) -> TruncSeries:
    """Rebuild f_n from (alpha_n, f_{n+1}); exact inverse of schur_step.

    With W = rho_n^R (z f_{n+1}) (rho_n^L)^{-1}:
    f_n = (I + W alpha_n^*)^{-1} (W + alpha_n).
    """
    alpha_n = np.asarray(alpha_n, dtype=complex)
    rhoL, rhoR = defects(alpha_n)
    z_next = f_next.shift_up()
    rhoLi = np.linalg.inv(rhoL)
    W = TruncSeries(np.einsum("ij,njk,kl->nil", rhoR, z_next.coeffs, rhoLi))
    order = W.order
    lhs = TruncSeries.identity(order) + W * TruncSeries.constant(alpha_n.conj().T, order)
    return series_inv(lhs) * (W + TruncSeries.constant(alpha_n, order))


def schur_algorithm(f: TruncSeries, N: int) -> np.ndarray:
    """Strip N coefficients alpha_0..alpha_{N-1} from a Schur-class
    truncation, as a read-only (N, 2, 2) array, the type route A returns.

    Needs order(f) >= N - 1 (the last coefficient is read without a further
    stripping step).  NotContraction (with the index) propagates when the
    input is not a Schur-class truncation, i.e. the underlying moment data
    is not positive definite.
    """
    if f.order < N - 1:
        raise ValueError(f"series order {f.order} too small for {N} coefficients")
    alphas = np.empty((N, 2, 2), dtype=complex)
    current = f
    for n in range(N):
        alphas[n] = current.coeffs[0]
        _require_contraction(alphas[n], n)
        if n < N - 1:
            current = schur_step(current, alphas[n])
    alphas.setflags(write=False)
    return alphas


def schur_coeffs_forward(alphas: np.ndarray, K: int) -> list[np.ndarray]:
    """Schur-function coefficients s_0(f)..s_K(f) by the triangular recursion,
    from at least K + 1 coefficients (an (N, 2, 2) array).

    The leading structure is s_k(f) = rho_0^R..rho_{k-1}^R alpha_k
    rho_{k-1}^L..rho_0^L plus contributions from lower-index coefficients.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if len(alphas) < K + 1:
        raise ValueError(f"need at least {K + 1} coefficients, got {len(alphas)}")
    rhoL, rhoR = defects(alphas[:K + 1])
    rhoLi = np.linalg.inv(rhoL)
    table: dict[tuple[int, int], np.ndarray] = {}
    for n in range(K, -1, -1):
        table[(n, 0)] = alphas[n]
        aH = alphas[n].conj().T
        for k in range(1, K - n + 1):
            val = rhoR[n] @ table[(n + 1, k - 1)] @ rhoL[n]
            for l in range(1, k):
                val = val - (rhoR[n] @ table[(n + 1, k - l - 1)] @ rhoLi[n] @ aH @ table[(n, l)])
            table[(n, k)] = val
    return [table[(0, k)] for k in range(K + 1)]


# ---- chi-embedded matrix Gram-Schmidt: the independent oracle for the
# quaternionic orthonormal families ----

EYE2 = np.eye(2, dtype=complex)


def matrix_gram_schmidt(C, N):
    """Independent chi-embedded oracle for the orthonormal families."""
    def Cm(n):
        if n == 0:
            return EYE2
        return C[n] if n > 0 else C[-n].conj().T

    def inner_r(f, g):
        out = np.zeros((2, 2), dtype=complex)
        for l in range(len(g)):
            for k in range(len(f)):
                out += g[l].conj().T @ Cm(k - l) @ f[k]
        return out

    def inner_l(f, g):
        out = np.zeros((2, 2), dtype=complex)
        for k in range(len(f)):
            for l in range(len(g)):
                out += f[k] @ Cm(k - l) @ g[l].conj().T
        return out

    right, left = [], []
    for n in range(N + 1):
        v = [np.zeros((2, 2), complex) for _ in range(n + 1)]
        v[n] = EYE2.copy()
        for _ in range(2):
            for q in right:
                coef = inner_r(v, q)
                for k in range(len(q)):
                    v[k] = v[k] - q[k] @ coef
        H = inner_r(v, v)
        Hi = np.linalg.inv(sqrtm_herm2(H))
        right.append([vk @ Hi for vk in v])

        w = [np.zeros((2, 2), complex) for _ in range(n + 1)]
        w[n] = EYE2.copy()
        for _ in range(2):
            for q in left:
                coef = inner_l(w, q)
                for k in range(len(q)):
                    w[k] = w[k] - coef @ q[k]
        H = inner_l(w, w)
        Hi = np.linalg.inv(sqrtm_herm2(H))
        left.append([Hi @ wk for wk in w])
    return right, left




# ---- inputs and scalar oracles for the byte-level tests of the array forms ----

def signed_zero_coeff_arrays(rng):
    """Coefficient arrays of degree 0..6 holding -0.0 and 0.0 components,
    exact-zero coefficients and a nonzero leading coefficient, plus the rows
    of one real-coefficient family (what LDL* gives for real moments)."""
    out = []
    for deg in range(7):
        a = rng.normal(size=(deg + 1, 4))
        mask = rng.random(size=a.shape) < 0.3
        a[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        if deg >= 2:
            a[1] = [-0.0, 0.0, -0.0, 0.0]
        a[deg] = [rng.choice([1.0, -2.5, 0.75]), -0.0, 0.0, rng.choice([0.0, 0.5])]
        out.append(a)
    out.append(np.array([[0.5, -0.0, 0.0, -0.0], [-0.25, 0.0, -0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
    return out


def qmul_scalar(a, b):
    """The Hamilton product written out on Python floats, term by term."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def chi_scalar(p, frame):
    """The per-quaternion image: frame coordinates by np.dot on one
    quaternion, the 2x2 matrix from Python complex scalars."""
    im = p.imag
    z1 = complex(p.w, float(np.dot(im, frame.i.imag)))
    z2 = complex(float(np.dot(im, frame.j.imag)), float(np.dot(im, frame.k.imag)))
    return np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])


def from_split_scalar(frame, z1, z2):
    """p = z1 + z2 j in Quaternion arithmetic, one coordinate at a time: the
    per-value form of ``quaternions._from_frame_coords``, kept as its
    bitwise oracle."""
    z1, z2 = complex(z1), complex(z2)
    return Quaternion(z1.real) + frame.i * z1.imag + frame.j * z2.real + frame.k * z2.imag


def signed_zero_frames(rng, count):
    """The standard frame, a frame whose generators carry -0.0 components,
    and ``count`` - 2 random frames."""
    odd = SliceFrame(Quaternion(-0.0, -0.0, 1.0, -0.0), Quaternion(0.0, 1.0, -0.0, 0.0))
    return [SliceFrame.standard(), odd] + [random_frame(rng) for _ in range(count - 2)]


def qbytes(quaternions):
    """The bits of a sequence of Quaternions, as an (n, 4) float array's."""
    return np.array([q.to_array() for q in quaternions], dtype=float).reshape(-1, 4).tobytes()


# ---- LDL* of the Toeplitz form on complex pairs: the oracle of route B ----

def qpair_conj(a):
    """Conjugate of quaternions held as complex pairs (..., 2), q = z1 + z2 j."""
    return np.stack([a[..., 0].conj(), -a[..., 1]], axis=-1)


def qpair_outer(a, b):
    """Outer Hamilton product out[i, k] = a_i b_k of complex-pair vectors."""
    a1, a2 = a[:, None, 0], a[:, None, 1]
    b1, b2 = b[None, :, 0], b[None, :, 1]
    return np.stack([a1 * b1 - a2 * b2.conj(), a1 * b2 + a2 * b1.conj()], axis=-1)


def ldl_pairs(c, n, pivot_tol=1e-12, transpose=False):
    """Square-root-free LDL* of T_n(c) (or its transpose), eliminating on
    (..., 2) complex pairs q = z1 + z2 j; NotPositiveDefinite names the first
    pivot at most ``pivot_tol``."""
    T = toeplitz(c, n)
    A = np.ascontiguousarray(T.swapaxes(0, 1) if transpose else T).view(complex)
    L = np.zeros_like(A)
    d = np.empty(n + 1)
    for m in range(n + 1):
        d[m] = A[m, m, 0].real
        if not d[m] > pivot_tol:
            raise NotPositiveDefinite(f"not positive definite at order {m}", order=m)
        col = A[m + 1:, m]
        L[m + 1:, m] = col / d[m]
        A[m + 1:, m + 1:] -= qpair_outer(col, qpair_conj(L[m + 1:, m]))
    L[np.arange(n + 1), np.arange(n + 1), 0] = 1.0
    return L.view(float), d


def inverse_rows_pairs(L, d):
    """D^{-1/2} L^{-1} by forward substitution on complex pairs."""
    Lp = L.view(complex)
    X = np.zeros_like(Lp)
    X[np.arange(len(d)), np.arange(len(d)), 0] = 1.0
    for m in range(len(d) - 1):
        X[m + 1:, : m + 1] -= qpair_outer(Lp[m + 1:, m], X[m, : m + 1])
    return X.view(float) / np.sqrt(d)[:, None, None]


def family_rows_pairs(c, N):
    """The (N+1, N+1, 4) rows of the right and left orthonormal families."""
    rows_r = qarr_conj(inverse_rows_pairs(*ldl_pairs(c, N))) + 0.0
    rows_l = inverse_rows_pairs(*ldl_pairs(c, N, transpose=True))
    return rows_r, rows_l


def szego_two_arrays(c, n, pivot_tol=1e-12):
    """The paired Szego recurrences on the moments as two mirrored loops, one
    array per family: (gammas, right, left), bit for bit the stacked
    ``require_nontrivial``'s (gammas, rows[0], rows[1]), with its errors in
    its order."""
    if n > c.horizon:
        raise HorizonExceeded(f"order {n} beyond horizon {c.horizon}")

    def qdot(a, b):
        return (a.T @ b).reshape(16) @ _BASIS_PRODUCTS.reshape(16, 4)
    mom = c.arr[: n + 1].astype(np.longdouble)
    right = np.zeros((n + 1, n + 1, 4), dtype=np.longdouble)
    left = np.zeros_like(right)
    gammas = np.zeros((n, 4), dtype=np.longdouble)
    d = _pivot_checked(mom[0, 0], 0, pivot_tol)
    right[0, 0, 0] = left[0, 0, 0] = 1 / np.sqrt(d)
    for m in range(n):
        phi, psi = right[m, : m + 1], left[m, : m + 1]
        rev_phi, rev_psi = phi[::-1] * _CONJ, psi[::-1] * _CONJ
        num = qdot(mom[1: m + 2], phi)
        den = qdot(mom[: m + 1], rev_psi)
        if np.abs(den[1:]).max() > 1e-8 * max(1.0, abs(den[0])):
            raise ArithmeticError(f"sqrt of the prediction error at order {m} should be "
                                  f"real, got {Quaternion(*den.astype(float).tolist())!r}")
        g = gammas[m] = qdot((den * _CONJ / (den @ den))[None], num[None])
        nsq = g @ g
        d = _pivot_checked(d * (1 - nsq), m + 1, pivot_tol)
        r_inv = 1 / np.sqrt(1 - nsq)
        right[m + 1, 1: m + 2] = phi
        right[m + 1, : m + 1] -= rev_psi @ (_BASIS_PRODUCTS.swapaxes(1, 2) @ g)   # rev(psi) gamma
        left[m + 1, 1: m + 2] = psi
        left[m + 1, : m + 1] -= rev_phi @ (g @ _BASIS_PRODUCTS.swapaxes(0, 1))   # gamma rev(phi)
        right[m + 1] *= r_inv
        left[m + 1] *= r_inv
    return tuple(a.astype(float) + 0.0 for a in (gammas, right, left))


# ---- polynomials as objects: the two spaces, the reversals and the
# families, which the library keeps as coefficient arrays and stacks ----

class DegreeTooSmall(QopucError):
    """Reversal requested at a degree below the polynomial degree."""


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


class QPolyR(_QPolyBase):
    """sum_k phi_k p^k: right-slice hyperholomorphic, coefficients on the left."""


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


def family(c, N: int, *args) -> OrthonormalFamily:
    """Route B's families of degree 0..N as polynomial objects."""
    return OrthonormalFamily(*orthonormal_polys(c, N, *args))


def stacked(polys) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial objects as ``zero_slice`` and ``eval_norm_sq`` take them:
    one (P, D+1, 4) coefficient array, zero-padded at the top, and the (P,)
    mask of the QPolyL entries."""
    coeffs = np.zeros((len(polys), max((psi.degree for psi in polys), default=0) + 1, 4))
    for f, psi in enumerate(polys):
        coeffs[f, : psi.degree + 1] = psi.arr
    return coeffs, np.array([isinstance(psi, QPolyL) for psi in polys], dtype=bool)


# ---- quaternion matrices, star products, the inner products, the Szego
# recurrences on polynomials and the CD kernel at one point: the tests'
# builders and oracles, which no command calls ----

def coeff(p, k: int) -> Quaternion:
    """The k-th coefficient of a polynomial as a Quaternion, zero past its degree."""
    return Quaternion(*p.arr[k]) if k <= p.degree else Quaternion()


def shift(p):
    """p times the variable: its coefficients move up one power."""
    return type(p)(np.concatenate([np.zeros((1, 4)), p.arr]))


def qmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices stored as (n, m, 4) arrays."""
    return qarr_mul(A[:, :, None], B[None]).sum(axis=1)


def qmat_conj_T(A: np.ndarray) -> np.ndarray:
    return qarr_conj(np.swapaxes(A, 0, 1))


def _star_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c_l = sum over alpha ascending of a_alpha b_{l-alpha}, from 0.0."""
    out = np.zeros((len(a) + len(b) - 1, 4))
    for alpha in range(len(a)):
        out[alpha: alpha + len(b)] += qarr_mul(a[alpha], b)
    return out


def star_mul_L(phi: QPolyL, psi: QPolyL) -> QPolyL:
    """Coefficient convolution c_l = sum_{a+b=l} phi_a psi_b (order fixed):
    the product whose zeros are planted one linear factor at a time."""
    return QPolyL(_star_coeffs(phi.arr, psi.arr))


def star_mul_R(phi: QPolyR, psi: QPolyR) -> QPolyR:
    return QPolyR(_star_coeffs(phi.arr, psi.arr))


def inner_R(phi: QPolyL, psi: QPolyL, c) -> Quaternion:
    """<phi, psi>_R = psi_hat^* T_N(c) phi_hat (right-linear in phi).

    Coefficient vectors are zero-padded to the longer degree.
    """
    n = max(phi.degree, psi.degree)
    a, b = _padded(phi.arr, n + 1), _padded(psi.arr, n + 1)
    T = toeplitz(c, n).swapaxes(0, 1)   # T[k, l] = c_{k-l}; row l pairs psi_l
    tphi = qarr_mul(T, a[:, None]).sum(axis=0)
    return Quaternion.from_array(qarr_mul(qarr_conj(b), tphi).sum(axis=0))


def inner_L(phi: QPolyR, psi: QPolyR, c) -> Quaternion:
    """<phi, psi>_L = sum_{k,l} phi_k c_{k-l} conj(psi_l) (left-linear in phi)."""
    n = max(phi.degree, psi.degree)
    a, b = _padded(phi.arr, n + 1), _padded(psi.arr, n + 1)
    T = toeplitz(c, n).swapaxes(0, 1)
    left = qarr_mul(a[:, None], T).sum(axis=0)
    return Quaternion.from_array(qarr_mul(left, qarr_conj(b)).sum(axis=0))


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


def szego_advance(state: SzegoState, gamma) -> SzegoState:
    """One step of the paired recurrences on polynomials.

        psi_{n+1}^L     = r^-1 (psi_n^L p - gamma psi_n^{R,#})
        psi_{n+1}^R     = r^-1 (p psi_n^R - psi_n^{L,#} gamma)
        psi_{n+1}^{L,#} = r^-1 (psi_n^{L,#} - p psi_n^R conj(gamma))
        psi_{n+1}^{R,#} = r^-1 (psi_n^{R,#} - conj(gamma) psi_n^L p)

    The factor order is fixed by the moment convention c_n = int e^{in t} dmu;
    the maintained reverses stay equal to the degree-matched reversals of the
    first two sequences.
    """
    g = qarr_from([gamma])[0]
    nsq = float(qarr_norm_sq(g))
    if not math.sqrt(nsq) < 1.0 - CONTRACTION_MARGIN:   # also rejects NaN
        raise NotContraction("gamma is not a strict contraction")
    r_inv = 1.0 / math.sqrt(1.0 - nsq)
    gbar = qarr_conj(g)
    shift_l = shift(state.left).arr      # psi_n^L p  in H[p]^R
    shift_r = shift(state.right).arr     # p psi_n^R  in H[p]^L
    right_rev = _padded(state.right_rev.arr, len(shift_l))
    left_rev = _padded(state.left_rev.arr, len(shift_r))
    new_left = QPolyR((shift_l - qarr_mul(g, right_rev)) * r_inv)
    new_right = QPolyL((shift_r - qarr_mul(left_rev, g)) * r_inv)
    new_left_rev = QPolyL((left_rev - qarr_mul(shift_r, gbar)) * r_inv)
    new_right_rev = QPolyR((right_rev - qarr_mul(gbar, shift_l)) * r_inv)
    return SzegoState(left=new_left, right=new_right,
                      left_rev=new_left_rev, right_rev=new_right_rev)


def szego_family(gammas, N: int):
    """States 0..N generated from the Verblunsky coefficients."""
    if len(gammas) < N:
        raise ValueError(f"need {N} coefficients, got {len(gammas)}")
    states = [SzegoState.initial()]
    for n in range(N):
        states.append(szego_advance(states[n], gammas.arr[n]))
    return states


def cd_kernel_diag(c, N: int, p: Quaternion) -> float:
    """K_N(p) = sum_{l<=N} |psi_l^L(p)|^2 + |psi_l^R(p)|^2, at one point off
    the unit sphere."""
    _, rows = orthonormal_polys(c, N)
    point = p.to_array()[None, :]
    in_r = eval_norm_sq(rows[1], point, left=False)
    in_l = eval_norm_sq(rows[0], point, left=True)
    return float(_kernel(in_r + in_l, N)[0])


def root_values(report) -> np.ndarray:
    """The slice roots of a zero report as complex numbers, read back from
    their [re, im] pairs."""
    return np.array(report["slice_roots"], dtype=float).reshape(-1, 2).view(complex)[:, 0]


# ---- the one-polynomial stages of the zero pass that the stacked stages of
# ``zero_slice`` and ``roots`` replaced, kept as their bitwise oracles ----

def multiset_distance(a, b) -> float:
    """Greedy matching distance between two complex multisets of equal size."""
    a = np.asarray(a, dtype=complex).tolist()
    b = np.asarray(b, dtype=complex).tolist()
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x in sorted(a, key=abs, reverse=True):
        dists = [abs(x - y) for y in b]
        k = min(range(len(dists)), key=dists.__getitem__)
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


class AberthStart(NamedTuple):
    """One polynomial set up for the iteration: its number of exact roots at
    the origin, its deflated monic form and derivative (ascending), and the
    circular start, empty when every root is at the origin."""

    n_zero: int
    monic: np.ndarray
    deriv: np.ndarray
    z: np.ndarray


def aberth_start(coeffs) -> AberthStart:
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    scale = np.max(np.abs(coeffs))
    # deflate exact (or numerically negligible) roots at the origin
    n_zero = 0
    while n_zero < len(coeffs) - 1 and abs(coeffs[n_zero]) <= 1e-300 * scale:
        n_zero += 1
    work = coeffs[n_zero:]
    deg = len(work) - 1
    if deg == 0:
        return AberthStart(n_zero, work, work[:0], work[:0])
    monic = work / work[-1]
    deriv = monic[1:] * np.arange(1, deg + 1)
    # deterministic circular initialisation: Cauchy-style radius estimate
    radius = 1.0 + np.max(np.abs(monic[:-1]))
    radius = min(radius, max(np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1))) * 2.0 + 0.5)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    return AberthStart(n_zero, monic, deriv, radius * np.exp(1j * angles))


_ONE_Q = np.array([1.0, 0.0, 0.0, 0.0])


def companion(psi) -> tuple[np.ndarray, np.ndarray] | None:
    """The monic form of psi and its (n, n, 4) companion matrix; None below
    degree 1."""
    n, left = psi.degree, isinstance(psi, QPolyL)
    lead = psi.arr[n]
    if (lead * lead).sum() == 0.0:   # as Quaternion.inverse: |lead|^2 underflows
        raise ZeroDivisionError("zero quaternion has no inverse")
    if n < 1:
        return None
    inv = qarr_inv(lead)
    body = qarr_mul(psi.arr[:-1], inv) if left else qarr_mul(inv, psi.arr[:-1])
    A = np.zeros((n, n, 4))
    if left:
        A[np.arange(1, n), np.arange(n - 1), 0] = 1.0
        A[:, n - 1] = -body
    else:
        A[np.arange(n - 1), np.arange(1, n), 0] = 1.0
        A[n - 1] = -body
    return np.concatenate([body, _ONE_Q[None]]), A


def reduce_conjugate_pairs(vals: np.ndarray) -> list[complex]:
    """Pick one representative with Im >= 0 from each conjugate pair."""
    remaining = np.asarray(vals, dtype=complex).tolist()
    reps: list[complex] = []
    while remaining:
        z = remaining.pop(0)
        target = z.conjugate()
        dists = [abs(y - target) for y in remaining]
        if dists:
            partner = remaining.pop(min(range(len(dists)), key=dists.__getitem__))
            rep = z if z.imag >= 0 else partner
        else:  # odd leftover: force into the closed upper half plane
            rep = z if z.imag >= 0 else target
        reps.append(complex(rep.real, abs(rep.imag)) if abs(rep.imag) < 1e-12 * max(1.0, abs(rep)) else rep)
    return reps


def numeric_trim(psi):
    """Drop leading coefficients at most NUMERIC_DEGREE_TOL times the largest."""
    w, x, y, z = psi.arr.T
    mags = np.sqrt(w * w + x * x + y * y + z * z).tolist()
    scale = max(mags)
    if scale == 0.0:
        raise ValueError("zero polynomial has no zero-set report")
    deg = max(k for k, m in enumerate(mags) if m > NUMERIC_DEGREE_TOL * scale)
    return type(psi)(psi.arr[: deg + 1])


def slice_problem(psi, frame: SliceFrame):
    """Companion matrix, route-1 polynomial and whether that is the scalar
    factor alone, for the monic form of a trimmed input; None for a nonzero
    constant."""
    if not isinstance(psi, (QPolyL, QPolyR)):
        raise TypeError("expected QPolyL or QPolyR")
    built = companion(numeric_trim(psi))
    if built is None:
        return None
    monic, comp = built
    image = chi(monic, frame)
    if image[:, 0, 1].any():
        return comp, det_poly(image), False
    return comp, image[:, 0, 0], True
