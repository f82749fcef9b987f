"""Companion matrices, determinantal zero sets, and root finding.

Two independent routes to the slice zero set of a quaternionic polynomial
are kept deliberately: Aberth-Ehrlich on the determinant of the embedded
coefficient polynomial, and LAPACK eigenvalues of the embedded companion
matrix.  Their agreement is asserted on every call; it is the computable
content of the zero-set theorems.  Both routes start from one private
builder, ``_companion``, which makes a polynomial monic and forms its
companion matrix on the (n+1, 4) coefficient array.

A ``zeros`` job checks all its polynomials in one ``zero_slice`` call: one
simultaneous Aberth run roots every determinant polynomial of the job
(``roots``), and one stacked eigenvalue call per companion size gives
route 2.  Every root keeps the bits of the one-polynomial iteration with
Horner's rule on Python complex scalars, and every error is the one that
checking the polynomials one at a time would raise first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, RouteMismatch
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


class _AberthStart(NamedTuple):
    """One polynomial set up for the iteration: its number of exact roots at
    the origin, its deflated monic form and derivative (ascending), and the
    circular start, empty when every root is at the origin."""

    n_zero: int
    monic: np.ndarray
    deriv: np.ndarray
    z: np.ndarray


def _aberth_start(coeffs) -> _AberthStart:
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
        return _AberthStart(n_zero, work, work[:0], work[:0])
    monic = work / work[-1]
    deriv = monic[1:] * np.arange(1, deg + 1)
    # deterministic circular initialisation: Cauchy-style radius estimate
    radius = 1.0 + np.max(np.abs(monic[:-1]))
    radius = min(radius, max(np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1))) * 2.0 + 0.5)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    return _AberthStart(n_zero, monic, deriv, radius * np.exp(1j * angles))


class _Layout(NamedTuple):
    """The rows still iterating, sorted by degree, over the flat root array."""

    roots: np.ndarray    # their roots' places in the flat root array
    heads: np.ndarray    # where each row starts among those roots
    coef: np.ndarray     # (K, 2, 2 * roots) planes: p, then p', at each root
    groups: list         # per degree: first root, first row, rows, degree


def _layout(live: np.ndarray, degs: np.ndarray, poly_coef: np.ndarray) -> _Layout:
    """The layout of the rows ``live`` of ``degs``.  ``poly_coef`` holds the
    coefficient rows of every p, then of every p', highest power first and
    padded on the left with zeros."""
    d = degs[live]
    owner = np.repeat(np.flatnonzero(live), d)
    k = int(d[-1]) + 1
    planes = poly_coef[np.concatenate([owner, owner + len(degs)]), -k:].T
    coef = np.empty((k, 2, planes.shape[1]))
    coef[:, 0], coef[:, 1] = planes.real, planes.imag
    groups, root = [], 0
    for row, deg in enumerate(d.tolist()):
        if groups and groups[-1][3] == deg:
            groups[-1][2] += 1
        else:
            groups.append([root, row, 1, deg])
        root += deg
    return _Layout(np.flatnonzero(np.repeat(live, degs)),
                   np.concatenate([[0], np.cumsum(d)[:-1]]), coef, groups)


def _horner(coef: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and p' at the points z, given the (K, 2, 2 len(z)) coefficient
    planes of p, then of p', at each point, highest power first and padded
    on the left with zeros.

    Each step is CPython's complex multiply-add acc * z + c as real ufunc
    calls: (re, im) * (zr, zi) + (im, re) * (-zi, zr) + (cr, ci), which is
    re = (re zr - im zi) + cr and im = (re zi + im zr) + ci bit for bit.
    So the values carry the bits of Horner's rule on Python complex
    scalars; numpy's complex multiply does not (it fuses multiply-adds
    where the host has them).  Zero padding is exact: a padding step maps
    acc = 0 to 0 * z + 0 = +0, the scalar rule's starting value.
    """
    n = len(z)
    w = np.empty((2, 2, 2 * n))
    w[0, 0, :n] = w[0, 0, n:] = z.real
    w[0, 1, :n] = w[0, 1, n:] = z.imag
    np.negative(w[0, 1], out=w[1, 0])
    w[1, 1] = w[0, 0]
    acc = np.zeros(w.shape[1:])
    prod = np.empty_like(w)
    with np.errstate(over="ignore", invalid="ignore"):   # as Python complex
        for c in coef:
            np.multiply(acc[:, None], w, out=prod)
            np.add(prod[0], prod[1], out=acc)
            np.add(acc, c, out=acc)
    vals = np.ascontiguousarray(acc.T).view(complex)[:, 0]
    return vals[:n], vals[n:]


def _aberth(starts: list[_AberthStart]) -> tuple[list[np.ndarray], list[float]]:
    """Iterate every start at once; the final iterates and the worst
    residual not at the noise floor, per start.  ``starts`` are sorted by
    degree, so the roots of one degree are one run of the flat array z."""
    if not starts:
        return [], []
    n = len(starts)
    degs = np.array([len(s.z) for s in starts])
    top = int(degs[-1])
    poly_coef = np.zeros((2 * n, top + 1), dtype=complex)
    for i, s in enumerate(starts):
        poly_coef[i, top - len(s.z):] = s.monic[::-1]
        poly_coef[n + i, top + 1 - len(s.z):] = s.deriv[::-1]
    z = np.concatenate([s.z for s in starts])
    live = np.ones(n, dtype=bool)
    full = lay = _layout(live, degs, poly_coef)
    zl = z.copy()
    for _ in range(MAX_ABERTH_ITER):
        p, dp = _horner(lay.coef, zl)
        newton = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        sums = np.empty_like(zl)
        for lo, _, count, d in lay.groups:
            zg = zl[lo:lo + count * d].reshape(count, d)
            inv = zg[:, :, None] - zg[:, None, :]
            inv.reshape(count, d * d)[:, ::d + 1] = np.inf
            np.divide(1.0, inv, out=inv)
            inv.sum(axis=2, out=sums[lo:lo + count * d].reshape(count, d))
        denom = 1.0 - newton * sums
        step = newton / np.where(denom == 0, 1.0, denom)
        zl = zl - step
        stop = (np.maximum.reduceat(np.abs(step), lay.heads)
                < 1e-14 * np.maximum(1.0, np.maximum.reduceat(np.abs(zl), lay.heads)))
        if stop.any():
            # a row that stops keeps this iterate, as it would alone
            z[lay.roots] = zl
            live[np.flatnonzero(live)[stop]] = False
            if not live.any():
                break
            lay = _layout(live, degs, poly_coef)
            zl = z[lay.roots]
    else:
        z[lay.roots] = zl

    p, dp = _horner(full.coef, z)
    residual = np.abs(p) / np.maximum(np.abs(dp), 1e-300)
    # multiple roots: |p| collapses into evaluation roundoff while |p'| stays
    # small; accept when the value is roundoff-indistinguishable from zero
    noise = np.empty(len(z))
    for lo, first, count, d in full.groups:
        hi = lo + count * d
        absmonic = np.abs(np.array([s.monic for s in starts[first:first + count]]))
        absz = np.abs(z[lo:hi]).reshape(count, d)
        noise[lo:hi] = (absmonic[:, None, :] * absz[:, :, None] ** np.arange(d + 1)
                        ).sum(axis=2).ravel()
    at_noise_floor = np.abs(p) <= 4.0 * np.finfo(float).eps * noise
    worst = np.maximum.reduceat(np.where(at_noise_floor, 0.0, residual), full.heads)
    return np.split(z, full.heads[1:]), worst.tolist()


def roots(polys) -> list[np.ndarray]:
    """All roots of each complex polynomial of ``polys`` by Aberth-Ehrlich
    iteration, one simultaneous run over the whole sequence.

    Each entry holds ascending coefficients (constant first) with a nonzero
    leading one.  Per polynomial, exact zeros at the origin are deflated
    first, then the iteration runs from a deterministic circular start.  The
    residual |p(root)| / |p'(root)| (the Newton-step length, a root-distance
    estimate) must fall below ROOT_RESIDUAL_TOL within MAX_ABERTH_ITER
    iterations, else NoConvergence.  The error raised is the one of the
    first failing polynomial, as if they were rooted one at a time.

    The polynomials do not interact: each one's roots are bit for bit the
    ones it gets alone, and the ones of Horner's rule on Python complex
    scalars.  p and p' of every polynomial still iterating are evaluated
    together on real planes (``_horner``), the Aberth step is one array
    expression over all their roots, and each polynomial stops at the
    iteration where it would stop alone.  Only the sums of 1 / (z_i - z_j)
    run on the polynomials of one degree at a time: numpy's pairwise
    summation order depends on the row length, so zero-padded rows would
    sum in another order.
    """
    starts, pending = [], None
    for coeffs in polys:
        try:
            starts.append(_aberth_start(coeffs))
        except ValueError as exc:   # raised after the polynomials before it
            pending = exc
            break
    order = sorted((k for k, s in enumerate(starts) if len(s.z)),
                   key=lambda k: len(starts[k].z))
    final, worst = _aberth([starts[k] for k in order])
    found = [np.zeros(s.n_zero, dtype=complex) for s in starts]
    for k, z, w in sorted(zip(order, final, worst), key=lambda t: t[0]):
        if not w <= ROOT_RESIDUAL_TOL:   # also rejects NaN
            raise NoConvergence(f"root refinement stalled (max residual {w:.3e})")
        found[k] = np.concatenate([found[k], z])
    if pending is not None:
        raise pending
    return found


def det_poly(P: np.ndarray) -> np.ndarray:
    """Determinant of a 2x2 matrix polynomial, by coefficient convolution."""
    P = np.asarray(P, dtype=complex)
    a, b = P[:, 0, 0], P[:, 0, 1]
    c, d = P[:, 1, 0], P[:, 1, 1]
    return np.convolve(a, d) - np.convolve(b, c)


_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def _companion(psi) -> tuple[np.ndarray, np.ndarray] | None:
    """The monic form of psi and its (n, n, 4) companion matrix; None below
    degree 1.

    The leading coefficient is divided out on the zero-preserving side: for
    QPolyL (coefficients right of the powers) every coefficient is
    right-multiplied by its inverse, which multiplies all values on the right
    and so fixes the zero set; for QPolyR it is left-multiplied.  The
    companion matrix of QPolyL has subdiagonal ones and the last column
    -coefficients, its mirror for QPolyR superdiagonal ones and the bottom
    row -coefficients.
    """
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
    return np.concatenate([body, _ONE[None]]), A


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


def _slice_problem(psi, frame: SliceFrame):
    """Companion matrix, route-1 polynomial and whether that is the scalar
    factor alone, for the monic form of a trimmed input; None for a nonzero
    constant."""
    if not isinstance(psi, (QPolyL, QPolyR)):
        raise TypeError("expected QPolyL or QPolyR")
    built = _companion(_numeric_trim(psi))
    if built is None:
        return None
    monic, comp = built
    image = chi(monic, frame)
    if image[:, 0, 1].any():
        return comp, det_poly(image), False
    return comp, image[:, 0, 0], True


def _spectra(comps: list[np.ndarray], frame: SliceFrame) -> list:
    """Route 2 for every companion matrix, by one eigenvalue call per size;
    None where that call failed, so the failing matrix can raise in turn."""
    out = [None] * len(comps)
    by_size: dict[int, list[int]] = {}
    for k, comp in enumerate(comps):
        by_size.setdefault(len(comp), []).append(k)
    for ks in by_size.values():
        try:
            spectra = right_eigen_slice(np.stack([comps[k] for k in ks]), frame)
        except NoConvergence:
            continue
        for k, spectrum in zip(ks, spectra):
            out[k] = spectrum
    return out


def zero_slice(polys, frame: SliceFrame, route_tol: float = ROUTE_TOL) -> list[ZeroReport]:
    """Slice zero sets of a sequence of quaternionic polynomials, two routes
    cross-checked, one ZeroReport per polynomial.

    Route 1: Aberth roots of det(chi image of the monic-normalised input),
    the companion polynomial a a-bar + b b-bar of the image's first row
    (a, b).  When b is exactly zero, as for real coefficients in any frame,
    the determinant is a a-bar and every root would be double; route 1 then
    roots a alone, at degree n, and adds the conjugates (the roots of
    a-bar), so a simple zero of psi stays a simple root for Aberth.
    Route 2: spectrum of the embedded companion matrix.

    One ``roots`` call serves route 1 of the whole sequence, and one
    eigenvalue call route 2 of each companion size.  The error raised is
    the one of the first failing polynomial at its first failing stage, as
    if they were checked one at a time: after a stall, or a failed stacked
    eigenvalue call, the polynomials are rooted or their companions
    diagonalised one by one, in order.
    """
    problems, pending = [], None
    for psi in polys:
        try:
            problems.append(_slice_problem(psi, frame))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            # raised after the polynomials before it are checked
            pending = exc
            break
    posed = [p for p in problems if p is not None]
    try:
        route1 = roots([coeffs for _, coeffs, _ in posed])
    except NoConvergence:
        route1 = [None] * len(posed)
    route2 = _spectra([comp for comp, _, _ in posed], frame)
    reports, k = [], 0
    for problem in problems:
        if problem is None:
            # nonzero constants have empty zero sets; both location flags are
            # vacuously true
            reports.append(ZeroReport(slice_roots=(), moduli=(), all_inside_ball=True,
                                      all_outside_closed_ball=True))
            continue
        comp, coeffs, scalar = problem
        found = roots([coeffs])[0] if route1[k] is None else route1[k]
        if scalar:
            found = np.concatenate([found, found.conj()])
        spectrum = right_eigen_slice(comp, frame) if route2[k] is None else route2[k]
        k += 1
        dist = multiset_distance(found, spectrum)
        if dist > route_tol:
            raise RouteMismatch(
                f"determinant roots and companion spectrum disagree ({dist:.3e})",
                residual=dist)
        reps = _reduce_conjugate_pairs(found)
        reps.sort(key=lambda z: (abs(z), z.real, z.imag))
        moduli = tuple(float(abs(z)) for z in reps)
        reports.append(ZeroReport(
            slice_roots=tuple(reps),
            moduli=moduli,
            all_inside_ball=bool(all(m < 1.0 for m in moduli)),
            all_outside_closed_ball=bool(all(m > 1.0 for m in moduli)),
        ))
    if pending is not None:
        raise pending
    return reports


def zeros_theorem_check(fam: OrthonormalFamily, frame: SliceFrame | None = None,
                        route_tol: float = ROUTE_TOL) -> tuple[list[dict], list[dict]]:
    """Per-degree zero-location checks for an orthonormal family.

    For each degree 1 <= n <= fam.order: all slice roots of the orthonormal
    polynomials lie strictly inside the ball, all roots of their reverses
    strictly outside the closed ball, and the left/right slice zero
    multisets agree.  Returns the per-degree rows and, per degree, the four
    ZeroReports keyed "right", "left", "right_reverse", "left_reverse".
    One ``zero_slice`` call checks all 4 * fam.order polynomials, per degree
    in that order.
    """
    frame = frame or SliceFrame.standard()
    polys = []
    for n in range(1, fam.order + 1):
        right_poly = fam.right[n]        # in H[p]^L
        left_poly = fam.left[n]          # in H[p]^R
        polys += [right_poly, left_poly, reverse_L(right_poly, n), reverse_R(left_poly, n)]
    found = zero_slice(polys, frame, route_tol)
    rows, reports = [], []
    for n in range(1, fam.order + 1):
        rep_r, rep_l, rev_r, rev_l = found[4 * n - 4:4 * n]
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
