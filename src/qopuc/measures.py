"""Moment sequences, quaternionic Toeplitz forms, and computable measures.

Measures appear only through computable surrogates: finite moment horizons
and finitely supported Fourier densities.  Moments follow the convention
c_n = integral of e^{i n theta} d mu(theta).  A density is held as its
moments c_n on its support n >= 0, the same in every slice frame; in a frame
they split as c_n = w1_{-n} + w2_{-n} j, and the 2x2 matrix form

    W(theta) = [[w1(theta),        w2(theta)],
                [conj(w2(theta)),  w1(-theta)]]

is Hermitian and must be positive semidefinite on the scan grid.  On the
uniform grid 2 pi k / g each of w1 and w2 is an inverse DFT, taken as one FFT
in long double; the smallest eigenvalue of each W(theta_k) and its
determinant a d - |b|^2 are 2x2 closed forms.

A moment sequence is one read-only (N+1, 4) array.  Positive definiteness
is decided by the paired Szego recurrences on the moments
(``require_nontrivial``, the recursion of route B), in real long double,
which also give the Verblunsky coefficients and the coefficient rows of
both orthonormal families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceeded, NotPositiveDefinite
from .quaternions import (
    Quaternion, SliceFrame, chi, chi_mat, from_frame_coords, qarr_abs, qarr_conj, qarr_from,
    qarr_mul, qmul_parts,
)

PSD_GRID = 2048
PSD_FLOOR = -1e-10
# c_0 = w1_0 = 1 up to C0_TOL, checked for moments and densities alike
C0_TOL = 1e-9
NOT_NORMALISED = "c_0 must be 1 (probability normalisation)"
PIVOT_TOL = 1e-12
# c_{-n} = conj(c_n), and the same symmetries of a density's maps, up to
# SYMMETRY_TOL * max(1, |c_n|)
SYMMETRY_TOL = 1e-12
_ZERO = (0.0, 0.0, 0.0, 0.0)


class MomentSequence:
    """Hermitian-symmetric, finite quaternion moments c_{-N}..c_N with c_0 = 1.

    Only the nonnegative half is stored, as a read-only (N+1, 4) array
    ``arr``; c_{-n} = conj(c_n).
    """

    __slots__ = ("arr",)

    def __init__(self, nonneg):
        arr = qarr_from(nonneg)
        if not len(arr):
            raise ValueError("need at least c_0")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise ValueError(f"moment c_{bad[0]} is not finite")
        if qarr_abs(arr[0] - (1.0, 0.0, 0.0, 0.0)) > C0_TOL:
            raise ValueError(NOT_NORMALISED)
        arr.setflags(write=False)
        object.__setattr__(self, "arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MomentSequence is immutable")

    @classmethod
    def from_map(cls, entries: dict, N: int) -> "MomentSequence":
        """c_0..c_N from a sparse {n: c_n}, c_n a 4-sequence (w, x, y, z); a
        missing c_n is 0, and a negative index must match conj(c_{-n}).  Only
        c_0..c_N are built; HorizonExceeded if no |n| reaches N."""
        horizon = max((abs(n) for n in entries), default=-1)
        seq = cls([entries.get(n, _ZERO) for n in range(min(horizon, N) + 1)])
        for n, q in entries.items():
            if n < 0:
                q, p = qarr_from([q, entries.get(-n, _ZERO)])
                with np.errstate(over="ignore"):   # a gap beyond the float range
                    gap = qarr_abs(q - qarr_conj(p))
                if gap > SYMMETRY_TOL * max(1.0, qarr_abs(q)) or gap == np.inf:
                    raise ValueError(f"Hermitian symmetry violated at n={n}")
        if horizon < N:
            raise HorizonExceeded(f"fixture horizon {horizon} below requested order {N}")
        return seq

    @property
    def horizon(self) -> int:
        return len(self.arr) - 1

    def up_to(self, n: int) -> np.ndarray:
        """c_0..c_n, an (n+1, 4) view of ``arr``; HorizonExceeded past the horizon."""
        if n > self.horizon:
            raise HorizonExceeded(f"order {n} beyond horizon {self.horizon}")
        return self.arr[: n + 1]

    def to_json(self):
        return [[n, row] for n, row in enumerate(self.arr.tolist())]


def toeplitz(c: MomentSequence, n: int) -> np.ndarray:
    """T_n(c) as an (n+1, n+1, 4) array; entry (k, j) is c_{j-k}."""
    half = c.up_to(n)
    full = np.concatenate([qarr_conj(half[:0:-1]), half])   # c_{-n}..c_n
    k = np.arange(n + 1)
    return full[n + k[None, :] - k[:, None]]


@dataclass(frozen=True)
class NontrivialityReport:
    ok: bool
    min_pivot: float
    min_eigenvalue: float


def is_nontrivial(c: MomentSequence, n: int,
                  frame: SliceFrame | None = None,
                  pivot_tol: float = PIVOT_TOL) -> NontrivialityReport:
    """Positive definiteness of T_n(c) through the complex embedding.

    True iff the embedded 2(n+1) x 2(n+1) Hermitian matrix admits a Cholesky
    factorisation with all pivots above the tolerance.  A standalone report
    with the smallest eigenvalue; library code decides positive definiteness
    through ``require_nontrivial``.
    """
    frame = frame or SliceFrame.standard()
    M = chi_mat(toeplitz(c, n), frame)
    M = 0.5 * (M + M.conj().T)
    eigs = np.linalg.eigvalsh(M)
    min_eig = float(eigs[0])
    try:
        L = np.linalg.cholesky(M)
        min_pivot = float(np.min(np.abs(np.diag(L)) ** 2))
    except np.linalg.LinAlgError:
        min_pivot = min(min_eig, 0.0)
    return NontrivialityReport(ok=min_pivot > pivot_tol,
                               min_pivot=min_pivot,
                               min_eigenvalue=min_eig)


# E[a, b] = e_a e_b over the basis (1, i, j, k): the Hamilton product of
# long-double rows is a contraction with these constants (qarr_mul is float64)
_BASIS_PRODUCTS = qarr_mul(np.eye(4)[:, None], np.eye(4)).astype(np.longdouble)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0], dtype=np.longdouble)
# The conjugations of rev(.) folded into the constants: a sign flip commutes
# with rounding, so x conj(y) contracts y with E * _CONJ over b exactly as
# conj(y) with E.  _NUM_DEN: sum_k a_k b_k (num) and sum_k a_k conj(b_k) (den)
# from the stack of sum_k a_k (x) b_k; _FACTOR_SIDES @ g: the matrices of
# x -> conj(x) g (right rows) and x -> g conj(x) (left rows).
_NUM_DEN = np.stack([_BASIS_PRODUCTS, _BASIS_PRODUCTS * _CONJ[:, None]]).reshape(2, 16, 4)
_FACTOR_SIDES = np.stack([_BASIS_PRODUCTS.swapaxes(1, 2),
                          _BASIS_PRODUCTS.transpose(1, 2, 0)]) * _CONJ[:, None, None]


def _pivot_checked(d, m: int, pivot_tol: float):
    if not d > pivot_tol:  # also rejects a NaN prediction error
        raise NotPositiveDefinite(f"Toeplitz form not positive definite at order {m} "
                                  f"(pivot {float(d):.3e})", order=m)
    return d


def require_nontrivial(c: MomentSequence, n: int, pivot_tol: float = PIVOT_TOL
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The paired Szego recurrences run on the moments (multichannel Levinson).

    Returns (gammas, rows): the Verblunsky coefficients gamma_0..gamma_{n-1}
    as an (n, 4) array, and the coefficient rows of the right- and
    left-orthonormal families stacked as a (2, n+1, n+1, 4) array, rows[0]
    right and rows[1] left, row m holding degree m zero-padded.  Step m reads
    gamma_m off one stacked inner product with the moment pair (c_{k+1}, c_k),
    num = sum_k c_{k+1} phi_k and den = sum_k c_k rev(psi)_k, as
    gamma = den^{-1} num (the right family phi_{m+1} is orthogonal to 1), then
    advances both families as one stack, with the factor order fixed by the
    moment convention c_n = int e^{in t} dmu:

        phi <- r^{-1} (p phi - rev(psi) gamma),  psi <- r^{-1} (psi p - gamma rev(phi)).

    den is the square root of the prediction error d_m, which is the m-th
    LDL* pivot of T_n(c) in exact arithmetic; a den that is not real to
    1e-8 * max(1, |den_0|) raises ArithmeticError.  The prediction errors
    d_{m+1} = d_m (1 - |gamma_m|^2) are nested, so the first d_m <= pivot_tol
    is the first order m at which the form is not positive definite, and
    NotPositiveDefinite names it.  Everything runs in real long double and is
    rounded to float64 once at the end, with -0.0 mapped to 0.0.

    A step is a handful of numpy calls.  The rows are held family-innermost,
    so that row m + 1 is one contiguous block.  (phi_m, psi_m reversed) is
    copied into one buffer allocated once, and two matmuls, with the moment
    pair and with ``_NUM_DEN``, give num and den.  The conjugations of rev(.)
    live in ``_NUM_DEN`` and ``_FACTOR_SIDES``, so the update reads the rows
    reversed as a view.  The realness test, gamma = qmul_parts(conj(den) /
    |den|^2, num), |gamma|^2 and the pivot run on long-double scalars.
    qmul_parts sums the nonzero terms of the stacked contraction in its
    order, so every value keeps the bits of the contraction; at most the sign
    of a zero gamma part differs, which no later step reads and the return
    clears.
    """
    mom = c.up_to(n).astype(np.longdouble)
    moments = np.stack([mom[1:].T, mom[:-1].T])   # (c_{k+1}, c_k), components first
    # rows[m, k + 1] = (phi_m, psi_m) at k; column 0 is the zero p^-1 coefficient,
    # so rows[m, : m + 2] is (p phi_m, p psi_m)
    rows = np.zeros((n + 1, n + 2, 2, 4), dtype=np.longdouble)
    pair = np.empty((2, n, 4), dtype=np.longdouble)   # (phi_m, psi_m reversed)
    gammas = np.zeros((n, 4), dtype=np.longdouble)
    d = _pivot_checked(mom[0, 0], 0, pivot_tol)   # within 1e-9 of 1 (MomentSequence)
    rows[0, 1, :, 0] = 1 / np.sqrt(d)
    for m in range(n):
        pair[0, : m + 1] = rows[m, 1: m + 2, 0]
        pair[1, : m + 1] = rows[m, m + 1: 0: -1, 1]
        nd = (moments[:, :, : m + 1] @ pair[:, : m + 1]).reshape(2, 1, 16) @ _NUM_DEN
        num, (d0, d1, d2, d3) = nd.reshape(2, 4).tolist()
        tol = 1e-8 * max(1.0, abs(d0))
        # all 16 products enter every part, so a NaN reaches all four and
        # passes, as np.max's NaN did; the pivot check rejects it
        if abs(d1) > tol or abs(d2) > tol or abs(d3) > tol:
            raise ArithmeticError(f"sqrt of the prediction error at order {m} should be "
                                  f"real, got {Quaternion(d0, d1, d2, d3)!r}")
        s = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
        gammas[m] = g0, g1, g2, g3 = qmul_parts((d0 / s, -d1 / s, -d2 / s, -d3 / s), num)
        nsq = g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3
        d = _pivot_checked(d * (1 - nsq), m + 1, pivot_tol)
        # rev(psi) gamma and gamma rev(phi) at k = 0..m + 1, from the reversal
        # that ends in column 0
        sides = rows[m, m + 1:: -1, ::-1, None] @ (_FACTOR_SIDES @ gammas[m])
        np.subtract(rows[m, : m + 2], sides[:, :, 0], out=rows[m + 1, 1: m + 3])
        rows[m + 1, 1: m + 3] *= 1 / np.sqrt(1 - nsq)
    return (gammas.astype(float) + 0.0,
            rows[:, 1:].transpose(2, 0, 1, 3).astype(float, order="C") + 0.0)


def _fourier_on_grid(index: np.ndarray, values: np.ndarray, grid: int) -> np.ndarray:
    """sum_k values[k] e^{2 pi i index[k] j / grid} for j < grid, rounded to
    float64 once: index n lands at n mod grid (exact on the grid), folded in
    the order given, and one unscaled long-double inverse FFT does the sum;
    all-zero values give zeros, with no transform.  A sum beyond the float64
    range rounds to an infinity, which the caller rejects."""
    if not values.any():
        return np.zeros(grid, dtype=complex)
    folded = np.zeros(grid, dtype=np.clongdouble)
    np.add.at(folded, index % grid, values.astype(np.clongdouble))
    with np.errstate(over="ignore"):
        return np.fft.ifft(folded, norm="forward").astype(complex)


def _min_eig_herm2(W: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2x2 matrix of a (..., 2, 2) stack,
    in closed form; the diagonal's imaginary parts are dropped and W[..., 1, 0]
    is read as conj(W[..., 0, 1])."""
    a, d = W[..., 0, 0].real, W[..., 1, 1].real
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(W[..., 0, 1]))


def _det_herm2(W: np.ndarray) -> np.ndarray:
    """det of each Hermitian 2x2 matrix of a (..., 2, 2) stack, a d - |b|^2,
    read as in ``_min_eig_herm2``."""
    b = W[..., 0, 1]
    return W[..., 0, 0].real * W[..., 1, 1].real - (b.real * b.real + b.imag * b.imag)


def _modulus(z: complex) -> float:
    """abs(z), or inf where abs raises OverflowError: |z| beyond the float
    range although both parts are finite."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


class QPositiveDensity:
    """A finitely supported Fourier density of a q-positive measure, held as
    its moments: ``index``, ascending n >= 0 from 0, and the read-only (m, 4)
    array ``coeffs`` of c_n; c_{-n} = conj(c_n).

    Construction checks that W is PSD on a 2048-point grid (a NaN grid value
    fails), then c_0 = 1.  W on the grid 2 pi k / g (``matrix_values``) and
    its smallest eigenvalue are evaluated once per g and kept (``grid_values``,
    ``min_eigenvalue_on_grid``) for the PSD scan, the Baxter check, the
    entropy and the grid report; ``grid_values`` hands out finite W only.
    """

    __slots__ = ("frame", "index", "coeffs", "_grids")

    def __init__(self, frame: SliceFrame, index, coeffs):
        index = np.array(index, dtype=np.int64)
        coeffs = qarr_from(coeffs)
        if len(index) != len(coeffs) or index[:1].tolist() != [0] or (np.diff(index) <= 0).any():
            raise ValueError("index must ascend from 0, one per coefficient")
        index.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_grids", {})
        min_eig = self.min_eigenvalue_on_grid(PSD_GRID)
        if not min_eig >= PSD_FLOOR:   # also rejects a NaN grid value
            raise ValueError(
                f"matrix density not PSD on the grid (min eigenvalue {min_eig:.3e})")
        if not qarr_abs(coeffs[0] - (1.0, 0.0, 0.0, 0.0)) <= C0_TOL:
            raise ValueError(NOT_NORMALISED)

    def __setattr__(self, name, value):
        raise AttributeError("QPositiveDensity is immutable")

    @classmethod
    def from_maps(cls, frame: SliceFrame, w1: dict[int, complex],
                  w2: dict[int, complex] | None = None,
                  held_in: SliceFrame | None = None) -> "QPositiveDensity":
        """The density W = [[w1, w2], [conj w2, w1(-theta)]] from {n: w_n}
        maps in ``frame``, checked for a modulus beyond the float range (a
        ValueError naming the map and the index), then for
        w1_{-n} = conj(w1_n) and w2_{-n} = -w2_n to ``SYMMETRY_TOL``;
        c_n = w1_{-n} + w2_{-n} j.  The density is
        held in ``held_in`` (default ``frame``), which alone gets the PSD scan:
        its moments are the same quaternions in any frame."""
        w1 = {int(n): complex(a) for n, a in (w1 or {}).items() if a != 0}
        w2 = {int(n): complex(a) for n, a in (w2 or {}).items() if a != 0}
        for key, w in (("w1", w1), ("w2", w2)):
            for n, a in w.items():
                if _modulus(a) == math.inf:
                    raise ValueError(f"{key} coefficient at n={n} has a modulus "
                                     "beyond the float range")
        for n, a in w1.items():
            if _modulus(w1.get(-n, 0j) - a.conjugate()) > SYMMETRY_TOL * max(1.0, abs(a)):
                raise ValueError(f"w1 is not real-valued on the circle (n={n})")
        for n, a in w2.items():
            if _modulus(w2.get(-n, 0j) + a) > SYMMETRY_TOL * max(1.0, abs(a)):
                raise ValueError(f"w2 symmetry w2_(-n) = -w2_n violated (n={n})")
        index = sorted({0} | {-n for n in (*w1, *w2) if n <= 0})
        z1 = np.array([w1.get(-n, 0j) for n in index], dtype=complex)
        z2 = np.array([w2.get(-n, 0j) for n in index], dtype=complex)
        return cls(held_in or frame, index, from_frame_coords(z1, z2, frame))

    def matrix_values(self, grid: int) -> np.ndarray:
        """W(2 pi k / grid), k < grid, as a (grid, 2, 2) array.

        With (z1, z2) the frame coordinates of c_n, the first row of
        chi(c_n), w1_{-n} = z1, w1_n = conj(z1), w2_{-n} = z2 and w2_n = -z2;
        one long-double inverse FFT each, terms folded in ascending n, gives
        a = w1 and b = w2 on the grid.  W22(theta_k) = w1(-theta_k) is a at
        index -k mod grid, and W21 = conj(b), both bit for bit.
        """
        z1, z2 = chi(self.coeffs, self.frame)[:, 0].T
        n, pos = self.index, self.index > 0
        ns = np.concatenate([-n[::-1], n[pos]])
        a = _fourier_on_grid(ns, np.concatenate([z1[::-1], np.conj(z1[pos])]), grid)
        b = _fourier_on_grid(ns, np.concatenate([z2[::-1], -z2[pos]]), grid)
        W = np.empty((grid, 2, 2), dtype=complex)
        W[:, 0, 0] = a
        W[:, 0, 1] = b
        W[:, 1, 0] = np.conj(b)
        W[:, 1, 1] = np.roll(a[::-1], 1)
        return W

    def min_eigenvalue_on_grid(self, grid: int = PSD_GRID) -> float:
        """Smallest eigenvalue of W on the grid 2 pi k / grid, k < grid, in
        closed form; the first call per grid size evaluates W there and keeps
        both.  W beyond the float64 range gives a NaN or -inf eigenvalue,
        without a warning."""
        kept = self._grids.get(grid)
        if kept is None:
            W = self.matrix_values(grid)
            W.setflags(write=False)
            with np.errstate(over="ignore", invalid="ignore"):
                kept = self._grids[grid] = (W, float(np.min(_min_eig_herm2(W))))
        return kept[1]

    def grid_values(self, grid: int = PSD_GRID) -> np.ndarray:
        """W on the grid 2 pi k / grid as a read-only (grid, 2, 2) array,
        evaluated once per grid size together with its smallest eigenvalue;
        ValueError naming the grid size where the terms overflow float64
        (on the PSD grid, construction rejects such a W first: its smallest
        eigenvalue is NaN or -inf)."""
        self.min_eigenvalue_on_grid(grid)
        W = self._grids[grid][0]
        if not np.isfinite(W).all():
            raise ValueError(f"matrix density is not finite on the {grid}-point grid "
                             f"(its terms overflow float64)")
        return W


def moments_from_density(d: QPositiveDensity, N: int) -> MomentSequence:
    """c_0..c_N of a density: its coefficients up to N, zero elsewhere."""
    arr = np.zeros((N + 1, 4))
    keep = d.index <= N
    arr[d.index[keep]] = d.coeffs[keep]
    return MomentSequence(arr)


def wiener_coefficient_norm(d: QPositiveDensity) -> float:
    """Sum over n in Z of |c_n| (quaternionic modulus per coefficient)."""
    return float(np.where(d.index > 0, 2, 1) @ qarr_abs(d.coeffs))
