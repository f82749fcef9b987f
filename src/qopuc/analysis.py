"""Diagonal Christoffel-Darboux checks, the entropy identity, summability
reports, and the Baxter diagnostic.

The entropy identity reads

    prod_n (1 - |gamma_n|^2)^2 = exp( int log det W(theta) dtheta / 2pi ),

the square on the left being an artefact of the 2x2 embedding.  No finite
computation proves divergence, so summability verdicts are always "over
horizon": a tail is flagged diverging when its block sums stop decaying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveOnGrid, OnBoundary
from .measures import (
    MomentSequence, QPositiveDensity, moments_from_density,
    wiener_coefficient_norm,
)
from .polynomials import (
    OrthonormalFamily, Quaternion, VerblunskySeq, eval_norm_sq,
    orthonormal_polys, reverse_L, reverse_R, verblunsky_from_moments_q,
)
from .quaternions import SliceFrame

BOUNDARY_TOL = 1e-10
ENTROPY_GRID = 4096
DENSITY_MIN_TOL = 1e-9
BLOCK_RATIO = 0.75
CD_BLOCK = 1024     # sample points per evaluation block


def _kernel(plain: np.ndarray, N: int) -> np.ndarray:
    """K_N at each point: the plain terms summed over l = 0..N in order."""
    total = np.zeros(plain.shape[1])
    for l in range(N + 1):
        total = total + plain[l]
    return total


def cd_kernel_diag(c: MomentSequence, N: int, p: Quaternion,
                   fam: OrthonormalFamily | None = None) -> float:
    """K_N(p) = sum_{l<=N} |psi_l^L(p)|^2 + |psi_l^R(p)|^2."""
    if abs(abs(p) - 1.0) < BOUNDARY_TOL:
        raise OnBoundary("kernel evaluation on the unit sphere boundary")
    fam = fam or orthonormal_polys(c, N)
    point = p.to_array()[None, :]
    in_r = eval_norm_sq(fam.left[: N + 1], point)
    in_l = eval_norm_sq(fam.right[: N + 1], point)
    return float(_kernel(in_r + in_l, N)[0])


def _sample_points(samples: int, seed: int) -> np.ndarray:
    """Random points, as an (samples, 4) array, alternating between the
    shells 0.05 < |p| < 0.95 and 1.05 < |p| < 2."""
    rng = np.random.default_rng(seed)
    points = np.empty((samples, 4))
    for s in range(samples):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        radius = (rng.uniform(0.05, 0.95) if s % 2 == 0 else rng.uniform(1.05, 2.0))
        points[s] = radius * v
    return points


def cd_identity_check(c: MomentSequence, N: int, samples: int = 100,
                      seed: int = 0) -> float:
    """Max normalised residual of both closed forms of the diagonal identity.

    Evaluates at `samples` random points in the shells 0.05 < |p| < 0.95 and
    1.05 < |p| < 2 and returns max |K - RHS| / (1 + |K|) over points and the
    two forms ((n+1)-form and n-form).  Points are evaluated in blocks of
    CD_BLOCK, so memory beyond the points themselves does not grow with
    ``samples``.
    """
    M = N + 1
    fam = orthonormal_polys(c, M)
    # H[p]^R holds the left family and the reverses of the right one;
    # H[p]^L holds the right family and the reverses of the left one
    space_r = list(fam.left) + [reverse_L(fam.right[n], n) for n in (N, M)]
    space_l = list(fam.right) + [reverse_R(fam.left[n], n) for n in (N, M)]
    points = _sample_points(samples, seed)
    worst = 0.0
    for start in range(0, samples, CD_BLOCK):
        block = points[start:start + CD_BLOCK]
        in_r = eval_norm_sq(space_r, block)
        in_l = eval_norm_sq(space_l, block)
        plain = in_r[: M + 1] + in_l[: M + 1]    # |psi_l^L|^2 + |psi_l^R|^2
        weight = in_l[M + 1:] + in_r[M + 1:]     # reverse terms at N, N + 1
        kernel = _kernel(plain, N)
        pw, px, py, pz = block.T
        psq = pw * pw + px * px + py * py + pz * pz
        denom = 1.0 - psq
        rhs_next = (weight[1] - plain[M]) / denom
        rhs_same = (weight[0] - psq * plain[N]) / denom
        for rhs in (rhs_next, rhs_same):
            # fmax skips a NaN residual, as the scalar max() did
            worst = float(np.fmax.reduce(np.abs(kernel - rhs) / (1.0 + np.abs(kernel)),
                                         initial=worst))
    return worst


def szego_entropy(d: QPositiveDensity, grid: int = ENTROPY_GRID,
                  allow_divergent: bool = False,
                  pd_tol: float = 1e-12) -> float:
    """Trapezoid quadrature of log det W over the circle, normalised by 2 pi,
    on the density's kept grid values.

    Requires W positive definite on the grid; with ``allow_divergent`` a
    grid zero reports -inf instead of raising NotPositiveOnGrid.
    """
    W = d.grid_values(grid)
    dets = np.linalg.det(W).real
    min_eig = d.min_eigenvalue_on_grid(grid)
    if not min_eig > pd_tol:   # also rejects a NaN grid value
        if allow_divergent:
            return float("-inf")
        raise NotPositiveOnGrid(
            f"matrix density has min grid eigenvalue {min_eig:.3e}")
    return float(np.mean(np.log(dets)))


@dataclass(frozen=True)
class SVReport:
    """Both sides of the entropy identity and their gap history."""

    partial_products: tuple
    entropy: float
    exp_entropy: float
    gap_history: tuple
    quadrature_error: float

    def to_json(self):
        return {
            "partial_products": list(self.partial_products),
            "entropy": self.entropy,
            "exp_entropy": self.exp_entropy,
            "gap_history": list(self.gap_history),
            "quadrature_error": self.quadrature_error,
        }


def sv_check(d: QPositiveDensity, N: int,
             frame: SliceFrame | None = None,
             allow_divergent: bool = False) -> SVReport:
    """Partial products of (1 - |gamma_n|^2)^2 against exp(entropy).

    Uses the dual-route Verblunsky extraction; the quadrature error field is
    the Richardson comparison of the 2048- and 4096-point entropy values.
    With ``allow_divergent`` a density with a grid zero reports entropy
    -inf (exp_entropy 0) instead of raising.
    """
    frame = frame or d.frame
    c = moments_from_density(d, N)
    gammas = verblunsky_from_moments_q(c, N, frame).matrix_route
    entropy = szego_entropy(d, ENTROPY_GRID, allow_divergent=allow_divergent)
    entropy_coarse = szego_entropy(d, ENTROPY_GRID // 2,
                                   allow_divergent=allow_divergent)
    exp_entropy = math.exp(entropy) if math.isfinite(entropy) else 0.0
    partial = []
    prod = 1.0
    for g in gammas:
        prod *= (1.0 - g.norm_sq()) ** 2
        partial.append(prod)
    gaps = tuple(p - exp_entropy for p in partial)
    quad_err = (abs(entropy - entropy_coarse)
                if math.isfinite(entropy) and math.isfinite(entropy_coarse)
                else 0.0)
    return SVReport(
        partial_products=tuple(partial),
        entropy=entropy,
        exp_entropy=exp_entropy,
        gap_history=gaps,
        quadrature_error=quad_err,
    )


@dataclass(frozen=True)
class SummabilityReport:
    """A horizon-limited partial sum plus the divergence heuristic verdict."""

    value: float
    diverging_over_horizon: bool
    horizon: int

    def to_json(self):
        return {
            "value": self.value,
            "diverging_over_horizon": self.diverging_over_horizon,
            "horizon": self.horizon,
        }


def _diverging_over_horizon(increments: np.ndarray) -> bool:
    """Block-sum decay test: compare the last half against the quarter before.

    A tail whose block sums stop shrinking (ratio above 0.75) and sit above
    the machine-flatness floor is flagged as growing without flattening.
    """
    n = len(increments)
    if n < 8:
        return False
    tail = float(np.sum(increments[n // 2:]))
    prev = float(np.sum(increments[n // 4: n // 2]))
    total = float(np.sum(increments))
    flat_floor = 10.0 * np.finfo(float).eps * max(1.0, total) * max(1, n // 2)
    if tail <= flat_floor:
        return False
    return tail > BLOCK_RATIO * prev


def square_summability_report(gammas: VerblunskySeq) -> SummabilityReport:
    sq = gammas.moduli() ** 2
    return SummabilityReport(value=float(np.sum(sq)),
                             diverging_over_horizon=_diverging_over_horizon(sq),
                             horizon=len(gammas))


@dataclass(frozen=True)
class BaxterReport:
    gamma_l1: float
    gamma_l1_diverging: bool
    wiener_norm: float
    density_min: float
    verdict: str
    gamma_moduli: tuple

    def to_json(self):
        moduli = np.array(self.gamma_moduli)
        return {
            "gamma_l1": self.gamma_l1,
            "gamma_l1_diverging": self.gamma_l1_diverging,
            "wiener_norm": self.wiener_norm,
            "density_min": self.density_min,
            "verdict": self.verdict,
            "gamma_moduli": [float(m) for m in moduli],
            "gamma_l1_partial": [float(s) for s in np.cumsum(moduli)],
        }


def baxter_check(d: QPositiveDensity, N: int,
                 frame: SliceFrame | None = None) -> BaxterReport:
    """Summability of gamma against Wiener norm and density positivity.

    The biconditional under test: summable gamma iff (finite Wiener norm and
    strictly positive density).  A density here is a trigonometric
    polynomial, so its Wiener norm is always finite (it is reported, not
    tested) and the verdict compares summability with positivity.  Long
    horizons use the matrix route only; the dual-route cross-check runs at
    desk scale elsewhere.
    """
    from .polynomials import _gammas_via_matrix

    frame = frame or d.frame
    c = moments_from_density(d, N)
    moduli = _gammas_via_matrix(c, N, frame).moduli()
    diverging = _diverging_over_horizon(moduli)
    summable = not diverging
    density_min = d.min_eigenvalue_on_grid()
    positive = density_min > DENSITY_MIN_TOL
    if summable and positive:
        verdict = "consistent-summable"
    elif not summable and not positive:
        verdict = "consistent-nonsummable"
    else:
        verdict = "inconsistent"
    return BaxterReport(gamma_l1=float(np.sum(moduli)), gamma_l1_diverging=diverging,
                        wiener_norm=wiener_coefficient_norm(d), density_min=density_min,
                        verdict=verdict, gamma_moduli=tuple(float(m) for m in moduli))
