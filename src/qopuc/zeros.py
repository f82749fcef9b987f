"""Companion matrices, determinantal zero sets, and root finding.

Two independent routes to the slice zero set of a quaternionic polynomial
are kept deliberately: Aberth-Ehrlich on the determinant of the embedded
coefficient polynomial, and LAPACK eigenvalues of the embedded companion
matrix.  Their agreement is asserted on every call; it is the computable
content of the zero-set theorems.  Monic normalisation and the companion
matrices are operations on the polynomials' (n+1, 4) coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotMonic, RouteMismatch
from .polynomials import ROUTE_TOL, OrthonormalFamily, QPolyL, QPolyR, reverse_L, reverse_R
from .quaternions import SliceFrame, chi, qarr_inv, qarr_mul, right_eigen_slice

ROOT_RESIDUAL_TOL = 1e-10
MAX_ABERTH_ITER = 500


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


def _horner_pair(desc_p: list, desc_dp: list, zs: list) -> tuple[np.ndarray, np.ndarray]:
    """Values at each of ``zs`` of two polynomials with these coefficients,
    highest power first, by Horner's rule on Python complex scalars, in one
    pass over the points."""
    out_p, out_dp = [], []
    for z in zs:
        acc = 0j
        for c in desc_p:
            acc = acc * z + c
        out_p.append(acc)
        acc = 0j
        for c in desc_dp:
            acc = acc * z + c
        out_dp.append(acc)
    return np.array(out_p), np.array(out_dp)


def roots(coeffs) -> np.ndarray:
    """All roots of a complex polynomial by Aberth-Ehrlich iteration.

    ``coeffs`` are ascending (constant first); leading coefficient must be
    nonzero.  Exact zeros at the origin are deflated first, then the
    simultaneous iteration runs from a deterministic circular start.  The
    residual |p(root)| / |p'(root)| (the Newton-step length, a root-distance
    estimate) must fall below ROOT_RESIDUAL_TOL within MAX_ABERTH_ITER
    iterations, else NoConvergence.
    """
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
        return np.zeros(n_zero, dtype=complex)
    monic = work / work[-1]
    deriv = monic[1:] * np.arange(1, deg + 1)

    # deterministic circular initialisation: Cauchy-style radius estimate
    radius = 1.0 + np.max(np.abs(monic[:-1]))
    radius = min(radius, max(np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1))) * 2.0 + 0.5)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles)

    # Python complex arithmetic gives the bits numpy scalars give, ~3x faster;
    # a numpy Horner over all roots at once is slower at these degrees.  The
    # divisions and products stay in numpy: Python's complex division and
    # numpy's vectorised product round differently.
    monic_desc = monic[::-1].tolist()
    deriv_desc = deriv[::-1].tolist()
    zs = z.tolist()
    for _ in range(MAX_ABERTH_ITER):
        p, dp = _horner_pair(monic_desc, deriv_desc, zs)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        diff = z[:, None] - z[None, :]
        diff.flat[::deg + 1] = np.inf
        sums = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * sums
        step = newton / np.where(denom == 0, 1.0, denom)
        z = z - step
        zs = z.tolist()
        if np.abs(step).max() < 1e-14 * np.maximum(1.0, np.abs(z).max()):
            break
    p, dp = _horner_pair(monic_desc, deriv_desc, zs)
    residual = np.abs(p) / np.maximum(np.abs(dp), 1e-300)
    # multiple roots: |p| collapses into evaluation roundoff while |p'| stays
    # small; accept when the value is roundoff-indistinguishable from zero
    noise = (np.abs(monic) * np.abs(z)[:, None] ** np.arange(deg + 1)).sum(axis=1)
    at_noise_floor = np.abs(p) <= 4.0 * np.finfo(float).eps * noise
    worst = float(np.max(np.where(at_noise_floor, 0.0, residual)))
    if not worst <= ROOT_RESIDUAL_TOL:   # also rejects NaN
        raise NoConvergence(f"root refinement stalled (max residual {worst:.3e})")
    return np.concatenate([np.zeros(n_zero, dtype=complex), z])


def det_poly(P: np.ndarray) -> np.ndarray:
    """Determinant of a 2x2 matrix polynomial, by coefficient convolution."""
    P = np.asarray(P, dtype=complex)
    a, b = P[:, 0, 0], P[:, 0, 1]
    c, d = P[:, 1, 0], P[:, 1, 1]
    return np.convolve(a, d) - np.convolve(b, c)


_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def _companion(psi) -> tuple[int, np.ndarray]:
    """Degree and a zero (n, n, 4) matrix for a monic psi of degree >= 1."""
    n = psi.degree
    if n < 1:
        raise NotMonic("degree must be at least 1")
    if not (psi.arr[n] == _ONE).all():
        raise NotMonic("leading coefficient must be exactly 1")
    return n, np.zeros((n, n, 4))


def companion_left(psi: QPolyL) -> np.ndarray:
    """Companion matrix (subdiagonal ones, last column -coefficients).

    The polynomial must be monic: callers pre-divide on the zero-preserving
    side (see monic_left).
    """
    n, A = _companion(psi)
    A[np.arange(1, n), np.arange(n - 1), 0] = 1.0
    A[:, n - 1] = -psi.arr[:n]
    return A


def companion_right(psi: QPolyR) -> np.ndarray:
    """Mirror form: superdiagonal ones, bottom row -coefficients."""
    n, A = _companion(psi)
    A[np.arange(n - 1), np.arange(1, n), 0] = 1.0
    A[n - 1] = -psi.arr[:n]
    return A


def _monic(psi, left: bool) -> np.ndarray:
    lead = psi.arr[psi.degree]
    if (lead * lead).sum() == 0.0:   # as Quaternion.inverse: |lead|^2 underflows
        raise ZeroDivisionError("zero quaternion has no inverse")
    inv = qarr_inv(lead)
    body = qarr_mul(psi.arr[:-1], inv) if left else qarr_mul(inv, psi.arr[:-1])
    return np.concatenate([body, _ONE[None]])


def monic_left(psi: QPolyL) -> QPolyL:
    """Divide out the leading coefficient on the zero-preserving side.

    For coefficients sitting right of the powers, right-multiplying every
    coefficient by the inverse leading coefficient multiplies all values on
    the right and so fixes the zero set.
    """
    return QPolyL(_monic(psi, left=True))


def monic_right(psi: QPolyR) -> QPolyR:
    return QPolyR(_monic(psi, left=False))


@dataclass(frozen=True)
class ZeroReport:
    """Slice zero set reduced to closed-upper-half-plane representatives."""

    slice_roots: tuple
    moduli: tuple
    all_inside_ball: bool
    all_outside_closed_ball: bool

    def to_json(self):
        return {
            "slice_roots": [[z.real, z.imag] for z in self.slice_roots],
            "moduli": list(self.moduli),
            "all_inside_ball": self.all_inside_ball,
            "all_outside_closed_ball": self.all_outside_closed_ball,
        }


def _reduce_conjugate_pairs(vals: np.ndarray) -> list[complex]:
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


NUMERIC_DEGREE_TOL = 1e-12


def _numeric_trim(psi):
    """Drop leading coefficients at most NUMERIC_DEGREE_TOL times the largest.

    A polynomial whose true degree dropped (e.g. the reverse of a family
    member with a vanishing constant term) would otherwise be normalised by
    a roundoff-sized leading coefficient, manufacturing spurious roots near
    infinity.  Dropped directions lie far outside the closed ball, so the
    location flags are unaffected.
    """
    w, x, y, z = psi.arr.T
    mags = np.sqrt(w * w + x * x + y * y + z * z).tolist()
    scale = max(mags)
    if scale == 0.0:
        raise ValueError("zero polynomial has no zero-set report")
    deg = max(k for k, m in enumerate(mags) if m > NUMERIC_DEGREE_TOL * scale)
    return type(psi)(psi.arr[: deg + 1])


def zero_slice(psi, frame: SliceFrame, route_tol: float = ROUTE_TOL) -> ZeroReport:
    """Slice zero set of a quaternionic polynomial, two routes cross-checked.

    Route 1: Aberth roots of det(chi image of the monic-normalised input),
    the companion polynomial a a-bar + b b-bar of the image's first row
    (a, b).  When b is exactly zero, as for real coefficients in any frame,
    the determinant is a a-bar and every root would be double; route 1 then
    roots a alone, at degree n, and adds the conjugates (the roots of
    a-bar), so a simple zero of psi stays a simple root for Aberth.
    Route 2: spectrum of the embedded companion matrix.
    """
    if not isinstance(psi, (QPolyL, QPolyR)):
        raise TypeError("expected QPolyL or QPolyR")
    left_space = isinstance(psi, QPolyL)
    psi = _numeric_trim(psi)
    monic = monic_left(psi) if left_space else monic_right(psi)
    if monic.degree < 1:
        # nonzero constants have empty zero sets; both location flags are
        # vacuously true
        return ZeroReport(slice_roots=(), moduli=(), all_inside_ball=True,
                          all_outside_closed_ball=True)
    comp = companion_left(monic) if left_space else companion_right(monic)
    image = chi(monic.arr, frame)
    if image[:, 0, 1].any():
        route1 = roots(det_poly(image))
    else:
        scalar = roots(image[:, 0, 0])
        route1 = np.concatenate([scalar, scalar.conj()])
    route2 = right_eigen_slice(comp, frame)
    dist = multiset_distance(route1, route2)
    if dist > route_tol:
        raise RouteMismatch(
            f"determinant roots and companion spectrum disagree ({dist:.3e})",
            residual=dist)
    reps = _reduce_conjugate_pairs(route1)
    reps.sort(key=lambda z: (abs(z), z.real, z.imag))
    moduli = tuple(float(abs(z)) for z in reps)
    return ZeroReport(
        slice_roots=tuple(reps),
        moduli=moduli,
        all_inside_ball=bool(all(m < 1.0 for m in moduli)),
        all_outside_closed_ball=bool(all(m > 1.0 for m in moduli)),
    )


def zeros_theorem_check(fam: OrthonormalFamily, frame: SliceFrame | None = None,
                        route_tol: float = ROUTE_TOL) -> tuple[list[dict], list[dict]]:
    """Per-degree zero-location checks for an orthonormal family.

    For each degree 1 <= n <= fam.order: all slice roots of the orthonormal
    polynomials lie strictly inside the ball, all roots of their reverses
    strictly outside the closed ball, and the left/right slice zero
    multisets agree.  Returns the per-degree rows and, per degree, the four
    ZeroReports keyed "right", "left", "right_reverse", "left_reverse".
    """
    frame = frame or SliceFrame.standard()
    rows, reports = [], []
    for n in range(1, fam.order + 1):
        right_poly = fam.right[n]        # in H[p]^L
        left_poly = fam.left[n]          # in H[p]^R
        rep_r = zero_slice(right_poly, frame, route_tol)
        rep_l = zero_slice(left_poly, frame, route_tol)
        rev_r = zero_slice(reverse_L(right_poly, n), frame, route_tol)
        rev_l = zero_slice(reverse_R(left_poly, n), frame, route_tol)
        lr_dist = multiset_distance(rep_r.slice_roots, rep_l.slice_roots)
        rows.append({
            "degree": n,
            "max_root_modulus": max(rep_r.moduli + rep_l.moduli),
            "min_reverse_modulus": min(rev_r.moduli + rev_l.moduli,
                                       default=float("inf")),
            "all_inside_ball": rep_r.all_inside_ball and rep_l.all_inside_ball,
            "reverses_outside": rev_r.all_outside_closed_ball and rev_l.all_outside_closed_ball,
            "left_right_distance": float(lr_dist),
        })
        reports.append({"right": rep_r, "left": rep_l,
                        "right_reverse": rev_r, "left_reverse": rev_l})
    return rows, reports
