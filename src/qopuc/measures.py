"""Moment sequences, quaternionic Toeplitz forms, and computable measures.

Measures appear only through computable surrogates: finite moment horizons,
finitely supported Fourier densities, and finite atom lists.  A density d
carries two coefficient maps (w1 for the real-valued part, w2 for the
j-component); its 2x2 matrix form

    W(theta) = [[w1(theta),        w2(theta)],
                [conj(w2(theta)),  w1(-theta)]]

is Hermitian and must be positive semidefinite on the scan grid.  Moments
follow the convention c_n = integral of e^{i n theta} d mu(theta), which for
trigonometric densities reads off as c_n = w1_{-n} + w2_{-n} j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceeded, NotPositiveDefinite
from .quaternions import (
    Quaternion, SliceFrame, chi, chi_mat, qarr_conj, qpair_conj, qpair_outer,
)

PSD_GRID = 2048
PSD_FLOOR = -1e-10
PIVOT_TOL = 1e-12


class MomentSequence:
    """Hermitian-symmetric quaternion moments c_{-N}..c_N with c_0 = 1.

    Only the nonnegative half is stored; negative indices are synthesised
    through c_{-n} = conj(c_n).
    """

    __slots__ = ("_c",)

    def __init__(self, nonneg):
        c = tuple(q if isinstance(q, Quaternion) else Quaternion(q) for q in nonneg)
        if not c:
            raise ValueError("need at least c_0")
        if abs(c[0] - Quaternion(1.0)) > 1e-9:
            raise ValueError("c_0 must be 1 (probability normalisation)")
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("MomentSequence is immutable")

    @classmethod
    def from_map(cls, entries: dict[int, Quaternion]) -> "MomentSequence":
        horizon = max(abs(n) for n in entries)
        nonneg = [entries.get(n, Quaternion()) for n in range(horizon + 1)]
        seq = cls(nonneg)
        for n, q in entries.items():
            if n < 0 and abs(q - seq[n]) > 1e-12 * max(1.0, abs(q)):
                raise ValueError(f"Hermitian symmetry violated at n={n}")
        return seq

    @property
    def horizon(self) -> int:
        return len(self._c) - 1

    def __getitem__(self, n: int) -> Quaternion:
        if abs(n) > self.horizon:
            raise HorizonExceeded(f"moment {n} beyond horizon {self.horizon}")
        return self._c[n] if n >= 0 else self._c[-n].conjugate()

    def to_json(self):
        return [[n, self._c[n].to_json()] for n in range(self.horizon + 1)]

    @classmethod
    def from_json(cls, obj) -> "MomentSequence":
        return cls.from_map({int(n): Quaternion.from_array(v) for n, v in obj})

    def __repr__(self):
        return f"MomentSequence(horizon={self.horizon})"


def toeplitz(c: MomentSequence, n: int) -> np.ndarray:
    """T_n(c) as an (n+1, n+1, 4) array; entry (k, j) is c_{j-k}."""
    if n > c.horizon:
        raise HorizonExceeded(f"order {n} beyond horizon {c.horizon}")
    half = np.array([c[m].to_array() for m in range(n + 1)])
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


def require_nontrivial(c: MomentSequence, n: int, pivot_tol: float = PIVOT_TOL,
                       transpose: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Square-root-free quaternionic LDL* of T_n(c), or of its transpose.

    Returns (L, d) with T = L diag(d) L^*: L unit lower triangular as an
    (n+1, n+1, 4) array, d the real pivots.  The pivots are nested (d_0..d_m
    factor T_m), so the first d_m <= pivot_tol is the first order m at which
    the form is not positive definite, and NotPositiveDefinite names it.  The
    transpose equals J T J for the reversal J, so it fails at the same order.

    Elimination runs on complex pairs q = z1 + z2 j with no square root, so
    inputs whose factors are exact in binary (Lebesgue, Bernstein-Szego with
    g = 1/2) keep exact zero coefficients.
    """
    T = toeplitz(c, n)
    A = np.ascontiguousarray(T.swapaxes(0, 1) if transpose else T).view(complex)
    L = np.zeros_like(A)
    d = np.empty(n + 1)
    for m in range(n + 1):
        d[m] = A[m, m, 0].real
        if not d[m] > pivot_tol:  # also rejects a NaN pivot
            raise NotPositiveDefinite(
                f"Toeplitz form not positive definite at order {m} "
                f"(pivot {d[m]:.3e})", order=m)
        col = A[m + 1:, m]
        L[m + 1:, m] = col / d[m]
        A[m + 1:, m + 1:] -= qpair_outer(col, qpair_conj(L[m + 1:, m]))
    L[np.arange(n + 1), np.arange(n + 1), 0] = 1.0
    return L.view(float), d


def _eval_fourier(coeffs: dict[int, complex], thetas: np.ndarray) -> np.ndarray:
    out = np.zeros_like(thetas, dtype=complex)
    for n, a in coeffs.items():
        out = out + a * np.exp(1j * n * thetas)
    return out


def min_grid_eigenvalue(W: np.ndarray) -> float:
    """Smallest eigenvalue over a stack of 2x2 matrices, Hermitian part."""
    W = 0.5 * (W + np.conj(np.swapaxes(W, 1, 2)))
    return float(np.min(np.linalg.eigvalsh(W)))


class QPositiveDensity:
    """A finitely supported Fourier density of a q-positive measure.

    Invariants checked at construction: w1 real-valued on the circle
    (w1_{-n} = conj(w1_n)), the j-part symmetry w2_{-n} = -w2_n, and positive
    semidefiniteness of the matrix form on a 2048-point grid.  W on the
    uniform grid 2 pi k / g and its smallest eigenvalue are evaluated once per
    grid size g and kept (``grid_values``, ``min_eigenvalue_on_grid``), so the
    PSD scan, the Baxter check, the entropy and the grid report share them.
    """

    __slots__ = ("frame", "w1", "w2", "_grids")

    def __init__(self, frame: SliceFrame, w1: dict[int, complex],
                 w2: dict[int, complex] | None = None, grid: int = PSD_GRID):
        w1 = {int(n): complex(a) for n, a in (w1 or {}).items() if a != 0}
        w2 = {int(n): complex(a) for n, a in (w2 or {}).items() if a != 0}
        for n, a in w1.items():
            if abs(w1.get(-n, 0j) - a.conjugate()) > 1e-12 * max(1.0, abs(a)):
                raise ValueError(f"w1 is not real-valued on the circle (n={n})")
        for n, a in w2.items():
            if abs(w2.get(-n, 0j) + a) > 1e-12 * max(1.0, abs(a)):
                raise ValueError(f"w2 symmetry w2_(-n) = -w2_n violated (n={n})")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "_grids", {})
        min_eig = self.min_eigenvalue_on_grid(grid)
        if not min_eig >= PSD_FLOOR:   # also rejects a NaN grid value
            raise ValueError(
                f"matrix density not PSD on the grid (min eigenvalue {min_eig:.3e})")

    def __setattr__(self, name, value):
        raise AttributeError("QPositiveDensity is immutable")

    @property
    def degree(self) -> int:
        support = [abs(n) for n in self.w1] + [abs(n) for n in self.w2]
        return max(support) if support else 0

    def w1_values(self, thetas: np.ndarray) -> np.ndarray:
        return _eval_fourier(self.w1, np.asarray(thetas, dtype=float))

    def w2_values(self, thetas: np.ndarray) -> np.ndarray:
        return _eval_fourier(self.w2, np.asarray(thetas, dtype=float))

    def matrix_values(self, thetas: np.ndarray) -> np.ndarray:
        """The Hermitian matrix density W(theta), shape (len(thetas), 2, 2).

        One exponential per |n| serves every w1 and w2 term of that order:
        e^{-i n theta} is the conjugate of e^{i n theta} bit for bit, since
        cos is even and sin odd in the floating-point library too.  The terms
        are summed in the order ``w1_values`` and ``w2_values`` sum them, so
        the exponentials of one call stay alive together: 4.2 MB for the
        129-term Bernstein-Szego fixture on the 4096-point grid.
        """
        thetas = np.asarray(thetas, dtype=float)
        exps: dict[int, np.ndarray] = {}

        def exp_pair(n):
            e = exps.get(abs(n))
            if e is None:
                e = exps[abs(n)] = np.exp(1j * abs(n) * thetas)
            e_conj = np.conj(e)
            return (e, e_conj) if n >= 0 else (e_conj, e)

        a = np.zeros_like(thetas, dtype=complex)
        d = np.zeros_like(thetas, dtype=complex)
        for n, coef in self.w1.items():
            e, e_conj = exp_pair(n)
            a = a + coef * e
            d = d + coef * e_conj
        b = np.zeros_like(thetas, dtype=complex)
        for n, coef in self.w2.items():
            b = b + coef * exp_pair(n)[0]
        W = np.empty((len(thetas), 2, 2), dtype=complex)
        W[:, 0, 0] = a
        W[:, 0, 1] = b
        W[:, 1, 0] = np.conj(b)
        W[:, 1, 1] = d
        return W

    def min_eigenvalue_on_grid(self, grid: int = PSD_GRID) -> float:
        """Smallest eigenvalue of W on the grid 2 pi k / grid, k < grid; the
        first call per grid size evaluates W there and keeps both."""
        kept = self._grids.get(grid)
        if kept is None:
            W = self.matrix_values(2.0 * np.pi * np.arange(grid) / grid)
            W.setflags(write=False)
            kept = self._grids[grid] = (W, min_grid_eigenvalue(W))
        return kept[1]

    def grid_values(self, grid: int = PSD_GRID) -> np.ndarray:
        """W on the grid 2 pi k / grid as a read-only (grid, 2, 2) array,
        evaluated once per grid size together with its smallest eigenvalue."""
        self.min_eigenvalue_on_grid(grid)
        return self._grids[grid][0]

    def value(self, theta: float) -> Quaternion:
        """The quaternionic density w1(theta) + w2(theta) j in the frame."""
        z1 = complex(self.w1_values(np.array([theta]))[0])
        z2 = complex(self.w2_values(np.array([theta]))[0])
        return self.frame.from_split(z1, z2)

    def to_json(self):
        return {
            "frame": self.frame.to_json(),
            "w1": [[n, a.real, a.imag] for n, a in sorted(self.w1.items())],
            "w2": [[n, a.real, a.imag] for n, a in sorted(self.w2.items())],
        }

    @classmethod
    def from_json(cls, obj) -> "QPositiveDensity":
        frame = SliceFrame.from_json(obj["frame"])
        w1 = {int(n): complex(re, im) for n, re, im in obj.get("w1", [])}
        w2 = {int(n): complex(re, im) for n, re, im in obj.get("w2", [])}
        return cls(frame, w1, w2)


def moments_from_density(d: QPositiveDensity, N: int) -> MomentSequence:
    """Exact coefficient read-off: c_n = w1_{-n} + w2_{-n} j in the frame."""
    nonneg = []
    for n in range(N + 1):
        z1 = d.w1.get(-n, 0j)
        z2 = d.w2.get(-n, 0j)
        nonneg.append(d.frame.from_split(z1, z2))
    return MomentSequence(nonneg)


@dataclass(frozen=True)
class AtomicQMeasure:
    """A finite atom list (theta_m, weight_m); degenerate test fixtures."""

    atoms: tuple

    def __post_init__(self):
        total = Quaternion()
        for theta, w in self.atoms:
            total = total + w
        if abs(total - Quaternion(1.0)) > 1e-9:
            raise ValueError("atom weights must sum to 1 (c_0 normalisation)")


def moments_from_atoms(a: AtomicQMeasure, N: int,
                       frame: SliceFrame | None = None) -> MomentSequence:
    """c_n = sum_m e^{i n theta_m} weight_m, the exponential in the frame."""
    frame = frame or SliceFrame.standard()
    nonneg = []
    for n in range(N + 1):
        acc = Quaternion()
        for theta, w in a.atoms:
            phase = frame.slice_point(complex(np.cos(n * theta), np.sin(n * theta)))
            acc = acc + phase * w
        nonneg.append(acc)
    return MomentSequence(nonneg)


def matrix_moments(c: MomentSequence, frame: SliceFrame | None = None,
                   N: int | None = None) -> list[np.ndarray]:
    """C_0..C_N with C_n = chi(c_n)."""
    frame = frame or SliceFrame.standard()
    N = c.horizon if N is None else N
    if N > c.horizon:
        raise HorizonExceeded(f"order {N} beyond horizon {c.horizon}")
    return list(chi(np.array([c[n].to_array() for n in range(N + 1)]), frame))


def density_in_frame(d: QPositiveDensity, frame: SliceFrame) -> QPositiveDensity:
    """Re-express a density in another slice frame.

    The quaternionic Fourier coefficients are the global object; splitting
    them in the new frame gives the new (w1, w2) pair.  The required
    symmetries transfer automatically.
    """
    support = sorted(set(d.w1) | set(d.w2))
    w1: dict[int, complex] = {}
    w2: dict[int, complex] = {}
    for m in support:
        q = d.frame.from_split(d.w1.get(m, 0j), d.w2.get(m, 0j))
        z1, z2 = frame.split(q)
        w1[m] = z1
        w2[m] = z2
    return QPositiveDensity(frame, w1, w2)


def wiener_coefficient_norm(d: QPositiveDensity) -> float:
    """Sum over n of |w1_n + w2_n j| (quaternionic modulus per coefficient)."""
    support = set(d.w1) | set(d.w2)
    return float(sum(
        np.hypot(abs(d.w1.get(n, 0j)), abs(d.w2.get(n, 0j))) for n in support))
