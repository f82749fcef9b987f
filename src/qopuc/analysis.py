"""Diagonal Christoffel-Darboux checks, the entropy identity, and the Baxter
diagnostic.

The entropy identity reads

    prod_n (1 - |gamma_n|^2)^2 = exp( int log det W(theta) dtheta / 2pi ),

the square on the left being an artefact of the 2x2 embedding.  No finite
computation proves divergence, so summability verdicts are always "over
horizon": a tail is flagged diverging when its block sums stop decaying.
``sv_check`` and ``baxter_check`` return the reports that ``sv`` and
``baxter`` print, as dicts in the schemas' key order.  The CD check reads
route B's stacked family rows and their reverses as two coefficient arrays,
one per polynomial space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotContraction, NotPositiveDefinite
from .measures import (
    PIVOT_TOL, PSD_GRID, MomentSequence, QPositiveDensity, _det_herm2, moments_from_density,
    wiener_coefficient_norm,
)
from .polynomials import (
    ROUTE_TOL, eval_norm_sq, gammas_via_matrix, orthonormal_polys, reversed_rows,
    verblunsky_from_moments_q,
)
from .quaternions import qarr_norm_sq

ENTROPY_GRID = 2 * PSD_GRID
DENSITY_MIN_TOL = 1e-9
ENTROPY_PD_TOL = 1e-12   # a grid eigenvalue at most this is a zero of W
BLOCK_RATIO = 0.75
# polynomials x points per evaluation block: a Horner step's 16 products
# then take at most 2^16 doubles (512 KB).  Larger blocks fall out of cache:
# on a 2-vCPU x86-64 host, 42 polynomials at 1024 points in one block ran at
# 1.0-1.1x the time of 32 calls per step, and at 0.6x in blocks
CD_BLOCK_TERMS = 2 ** 12


def _kernel(plain: np.ndarray, N: int) -> np.ndarray:
    """K_N at each point: the plain terms summed over l = 0..N in order (an
    accumulation adds left to right, and a norm square is never -0.0)."""
    return np.add.accumulate(plain[: N + 1], axis=0)[-1]


def _sample_points(samples: int, seed: int) -> np.ndarray:
    """Random points, as an (samples, 4) array, alternating between the
    shells 0.05 < |p| < 0.95 and 1.05 < |p| < 2.  The draws, one normal
    4-vector, its v.dot(v) and one radius per sample, set the stream and the
    bits; the normalisation and the scaling run once over all of them."""
    rng = np.random.default_rng(seed)
    draws = np.empty((samples, 4))
    norm_sq = np.empty(samples)
    radii = np.empty(samples)
    for s in range(samples):
        v = draws[s] = rng.normal(size=4)
        norm_sq[s] = v.dot(v)
        radii[s] = rng.uniform(0.05, 0.95) if s % 2 == 0 else rng.uniform(1.05, 2.0)
    return radii[:, None] * (draws / np.sqrt(norm_sq)[:, None])


def cd_identity_check(c: MomentSequence, N: int, samples: int = 100,
                      seed: int = 0, pivot_tol: float = PIVOT_TOL) -> float:
    """Max normalised residual of both closed forms of the diagonal identity.

    Evaluates at `samples` random points in the shells 0.05 < |p| < 0.95 and
    1.05 < |p| < 2 and returns max |K - RHS| / (1 + |K|) over points and the
    two forms ((n+1)-form and n-form).  Points are evaluated in blocks of
    about CD_BLOCK_TERMS / (N + 4), N + 4 being the size of each space, so
    memory beyond the points themselves does not grow with ``samples``.  A
    point's value does not depend on its block, nor the maximum on the
    order.  NotPositiveDefinite names the first order whose prediction
    error is at most ``pivot_tol``.

    Each space is one (N + 4, N + 2, 4) coefficient array: route B's rows
    of degree 0..N + 1 and the reversed rows at N and N + 1.
    """
    M = N + 1
    _, rows = orthonormal_polys(c, M, pivot_tol)
    rev = reversed_rows(rows)
    # H[p]^R holds the left family and the reverses of the right one;
    # H[p]^L holds the right family and the reverses of the left one
    space_r = np.concatenate([rows[1], rev[0, [N, M]]])
    space_l = np.concatenate([rows[0], rev[1, [N, M]]])
    points = _sample_points(samples, seed)
    size = max(1, CD_BLOCK_TERMS // len(space_r))   # both spaces hold N + 4
    worst = 0.0
    for start in range(0, samples, size):
        block = points[start:start + size]
        in_r = eval_norm_sq(space_r, block, left=False)
        in_l = eval_norm_sq(space_l, block, left=True)
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


def szego_entropy(d: QPositiveDensity, grid: int = ENTROPY_GRID) -> float:
    """Trapezoid quadrature of log det W over the circle, normalised by 2 pi,
    on the density's kept grid values, with det W = a d - |b|^2 in closed form.

    The entropy is -inf on a grid zero, a grid eigenvalue at most
    ENTROPY_PD_TOL: a density that vanishes on the circle is a valid input.
    ValueError if W is not finite on the grid (``grid_values``).
    """
    W = d.grid_values(grid)
    if not d.min_eigenvalue_on_grid(grid) > ENTROPY_PD_TOL:   # a NaN too
        return float("-inf")
    return float(np.mean(np.log(_det_herm2(W))))


def sv_check(d: QPositiveDensity, N: int, route_tol: float = ROUTE_TOL,
             pivot_tol: float = PIVOT_TOL) -> dict:
    """Partial products of (1 - |gamma_n|^2)^2 against exp(entropy), as the
    ``sv`` report: ``partial_products``, ``entropy``, ``exp_entropy``,
    ``gap_history`` (each partial product minus exp_entropy) and
    ``quadrature_error``.

    Uses the dual-route Verblunsky extraction in the density's frame, with
    its route and pivot tolerances; the quadrature error is the Richardson
    comparison of the 2048- and 4096-point entropy values.  A density with a
    grid zero has entropy -inf (exp_entropy 0).
    """
    c = moments_from_density(d, N)
    gammas, _ = verblunsky_from_moments_q(c, N, d.frame, route_tol=route_tol,
                                          pivot_tol=pivot_tol)
    entropy = szego_entropy(d)
    entropy_coarse = szego_entropy(d, PSD_GRID)
    exp_entropy = math.exp(entropy) if math.isfinite(entropy) else 0.0
    partial = []
    prod = 1.0
    for defect in (1.0 - qarr_norm_sq(gammas.arr)).tolist():
        prod *= defect ** 2
        partial.append(prod)
    quad_err = (abs(entropy - entropy_coarse)
                if math.isfinite(entropy) and math.isfinite(entropy_coarse)
                else 0.0)
    return {
        "partial_products": partial,
        "entropy": entropy,
        "exp_entropy": exp_entropy,
        "gap_history": [p - exp_entropy for p in partial],
        "quadrature_error": quad_err,
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


def baxter_check(d: QPositiveDensity, N: int) -> dict:
    """Summability of gamma against Wiener norm and density positivity, as
    the ``baxter`` report: ``gamma_l1``, ``gamma_l1_diverging``,
    ``wiener_norm``, ``density_min``, ``verdict``, ``gamma_moduli`` and
    their running sums ``gamma_l1_partial``.

    The biconditional under test: summable gamma iff (finite Wiener norm and
    strictly positive density).  A density here is a trigonometric
    polynomial, so its Wiener norm is always finite (it is reported, not
    tested) and the verdict compares summability with positivity.  The
    gammas count as summable unless their block sums stop decaying
    (``_diverging_over_horizon``); below 8 coefficients (N < 8) there are
    too few blocks to compare, so the gammas count as summable unlooked,
    and a density with a zero on the circle gets "inconsistent".  Long
    horizons use the matrix route only; the dual-route cross-check runs at
    desk scale elsewhere.  Route A has no positive-definiteness check of its
    own: a coefficient n that is not a strict contraction means the moments
    are not positive definite at order n + 1, and NotPositiveDefinite says
    so, as route B would.
    """
    c = moments_from_density(d, N)
    try:
        moduli = gammas_via_matrix(c, N, d.frame).moduli()
    except NotContraction as exc:
        raise NotPositiveDefinite(
            f"Toeplitz form not positive definite at order {exc.index + 1} (route A: "
            f"coefficient {exc.index} is not a strict contraction)",
            order=exc.index + 1) from exc
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
    return {
        "gamma_l1": float(np.sum(moduli)),
        "gamma_l1_diverging": diverging,
        "wiener_norm": wiener_coefficient_norm(d),
        "density_min": density_min,
        "verdict": verdict,
        "gamma_moduli": moduli.tolist(),
        "gamma_l1_partial": np.cumsum(moduli).tolist(),
    }
