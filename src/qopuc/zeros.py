"""Companion matrices, determinantal zero sets, and root finding.

Two independent routes to the slice zero set of a quaternionic polynomial
are kept deliberately: Aberth-Ehrlich on the determinant of the embedded
coefficient polynomial, and LAPACK eigenvalues of the embedded companion
matrix.  Their agreement is asserted on every call; it is the computable
content of the zero-set theorems.  Both routes start from one pose of the
input, ``_pose``, which trims each polynomial, makes it monic and takes its
coefficient image.

The input is one zero-padded (P, D+1, 4) coefficient array and a (P,) bool
mask that marks the polynomials of H[p]^L (coefficients right of the
powers); the others lie in H[p]^R.  A ``zeros`` job slices its polynomials
out of route B's stacked family rows and their reverses
(``polynomials.reversed_rows``) and checks them all in one ``zero_slice``
call.  Each stage of that call runs once over the whole job, in stacked
numpy steps: the pose on the coefficient array; route 1 as one
simultaneous Aberth run (``roots``); route 2 as one stacked eigenvalue call
per companion size; and the report, whose route cross-check and
conjugate-pair reduction take one greedy step per root over all
polynomials at once.  Only the determinant's convolution runs per
polynomial.  Every root, distance and flag keeps the bits of checking the
polynomials one at a time, with Horner's rule and the root matching on
Python complex scalars.

The reports are the ones the ``zeros`` command prints: ``zero_slice`` gives
one dict per polynomial in the schema's shape, its roots as [re, im]
pairs, and ``zeros_theorem_check`` returns the whole result, the per-degree
rows and those reports, which it reads back for the left/right matching.

Every error is the one that checking the polynomials one at a time would
raise first.  The stacked pass keeps no record of which polynomial failed:
a cross-check failure is already the first in order, as every polynomial
has passed the stages before it, and a failure before the cross-check
sends the job through ``zero_slice`` again, one polynomial per call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, RouteMismatch
from .polynomials import ROUTE_TOL, reversed_rows
from .quaternions import SliceFrame, chi, qarr_inv, qarr_mul, right_eigen_slice

ROOT_RESIDUAL_TOL = 1e-10
MAX_ABERTH_ITER = 500
NUMERIC_DEGREE_TOL = 1e-12


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| by libm's hypot: the bits of Python's abs(complex), which numpy's
    complex absolute does not keep."""
    return np.hypot(z.real, z.imag)


def _stack(rows, dtype, tail: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Rows of varying length as one zero-padded array, and their lengths."""
    size = np.array([len(row) for row in rows], dtype=int)
    out = np.zeros((len(rows), int(size.max(initial=1))) + tail, dtype=dtype)
    out[np.arange(out.shape[1]) < size[:, None]] = np.concatenate(
        [*rows, np.zeros((0,) + tail)])
    return out, size


def _greedy_distances(a: np.ndarray, a_size: np.ndarray, b: np.ndarray,
                      b_size: np.ndarray) -> np.ndarray:
    """Greedy matching distance of each pair of complex multisets, the first
    ``a_size`` entries of a row of ``a`` against the first ``b_size`` of that
    row of ``b``; inf where the sizes differ.

    Per row this is the one-pair loop on Python complex scalars, bit for
    bit: the entries of a go by decreasing modulus, ties in their order,
    each to the nearest entry of b not yet taken, the first on a tie, and
    the distance is the largest such step.
    """
    rows = np.arange(len(a))
    key = np.where(np.arange(a.shape[1]) < a_size[:, None], _abs(a), -np.inf)
    xs = np.take_along_axis(a, np.argsort(-key, axis=1, kind="stable"), axis=1)
    free = np.arange(b.shape[1]) < b_size[:, None]
    worst = np.zeros(len(a))
    for t in range(int(a_size.max(initial=0))):
        dist = np.where(free, _abs(xs[:, t, None] - b), np.inf)
        k = dist.argmin(axis=1)
        step = dist[rows, k]
        live = t < a_size
        worst = np.where(live & (step > worst), step, worst)
        free[rows[live], k[live]] = False
    return np.where(a_size == b_size, worst, np.inf)


def _conjugate_representatives(vals: np.ndarray, size: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """One representative with Im >= 0 of each conjugate pair among the first
    ``size`` entries of each row of ``vals``, sorted by (modulus, real,
    imaginary part), and their number per row; entries past that number
    are unspecified.

    Per row this is the one-row loop on Python complex scalars, bit for
    bit: the first unpaired entry z pairs with the unpaired entry nearest
    conj z, the first on a tie; the representative is z if Im z >= 0, else
    that partner, else (an odd leftover) conj z; and an imaginary part
    below 1e-12 max(1, |rep|) is made nonnegative.
    """
    rows = np.arange(len(vals))
    free = np.arange(vals.shape[1]) < size[:, None]
    count = (size + 1) // 2
    reps = np.zeros((len(vals), int(count.max(initial=0))), dtype=complex)
    for t in range(reps.shape[1]):
        live = t < count
        i = free.argmax(axis=1)
        z = vals[rows, i]
        free[rows[live], i[live]] = False
        target = np.conj(z)
        paired = live & free.any(axis=1)
        j = np.where(free, _abs(vals - target[:, None]), np.inf).argmin(axis=1)
        free[rows[paired], j[paired]] = False
        rep = np.where(z.imag >= 0, z, np.where(paired, vals[rows, j], target))
        flat = np.abs(rep.imag) < 1e-12 * np.maximum(1.0, _abs(rep))
        reps.real[:, t] = rep.real
        reps.imag[:, t] = np.where(flat, np.abs(rep.imag), rep.imag)
    modulus = np.where(np.arange(reps.shape[1]) < count[:, None], _abs(reps), np.inf)
    order = np.lexsort((reps.imag, reps.real, modulus), axis=1)
    return np.take_along_axis(reps, order, axis=1), count


class _Start(NamedTuple):
    """Polynomials set up for the iteration, one row each: the number of
    exact roots at the origin, the degree left after deflating them, the
    deflated monic form and its derivative (ascending), and the circular
    start, all zero-padded."""

    n_zero: np.ndarray
    degree: np.ndarray
    monic: np.ndarray
    deriv: np.ndarray
    z: np.ndarray


def _aberth_start(coeffs: np.ndarray, length: np.ndarray) -> _Start:
    """The starts of the ascending coefficient rows ``coeffs``, zero-padded
    past ``length``, each of degree at least 1 with a nonzero leading
    coefficient: the deflation, the monic form and the radius as stacked
    steps, the circle once per degree."""
    rows, col = np.arange(len(coeffs)), np.arange(coeffs.shape[1])
    scale = np.abs(coeffs).max(axis=1, initial=0.0)
    # deflate exact (or numerically negligible) roots at the origin
    origin = (_abs(coeffs) <= 1e-300 * scale[:, None]) & (col < length[:, None] - 1)
    n_zero = origin.argmin(axis=1)
    degree = length - 1 - n_zero
    kept = col <= degree[:, None]
    work = np.take_along_axis(coeffs, np.minimum(col + n_zero[:, None], col[-1]), axis=1)
    monic = np.where(kept, work / work[rows, degree][:, None], 0.0)
    below = col[:-1] < degree[:, None]   # the powers under the leading one
    deriv = np.zeros_like(monic)
    deriv[:, :-1] = np.where(below, monic[:, 1:] * col[1:], 0.0)
    # deterministic circular initialisation: Cauchy-style radius estimate
    absm = np.where(below, np.abs(monic)[:, :-1], 0.0)
    radius = 1.0 + absm.max(axis=1, initial=0.0)
    bound = (absm ** (1.0 / np.where(below, degree[:, None] - col[:-1], 1))
             ).max(axis=1, initial=0.0) * 2.0 + 0.5
    radius = np.where(bound < radius, bound, radius)
    z = np.zeros(deriv.shape, dtype=complex)
    for d in sorted(set(degree.tolist()) - {0}):
        ks = np.flatnonzero(degree == d)
        z[ks, :d] = radius[ks, None] * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.4))
    return _Start(n_zero, degree, monic, deriv, z)


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


def _aberth(start: _Start) -> tuple[list[np.ndarray], np.ndarray]:
    """Iterate every row of ``start`` at once; the final iterates and the
    worst residual not at the noise floor, per row.  The rows are sorted by
    degree, each at least 1, so the roots of one degree are one run of the
    flat root array z.

    A row that stops keeps its iterate, as it would alone, and leaves the
    live mask; the others go on.  The coefficient planes of all rows are
    built once: a stopped row's work is cheaper to carry than to cut out.
    Degrees whose rows all stopped skip the 1 / (z_i - z_j) sums.
    """
    degree = start.degree
    if not len(degree):
        return [], np.zeros(0)
    top = int(degree[-1])
    owner = np.repeat(np.arange(len(degree)), degree)
    heads = np.concatenate([[0], np.cumsum(degree)[:-1]])
    planes = np.concatenate([start.monic[owner, top::-1], start.deriv[owner, top::-1]]).T
    coef = np.empty((top + 1, 2, planes.shape[1]))
    coef[:, 0], coef[:, 1] = planes.real, planes.imag
    z = start.z[owner, np.arange(len(owner)) - heads[owner]]
    first = np.flatnonzero(np.diff(degree, prepend=0))
    groups = list(zip(heads[first].tolist(), first.tolist(),
                      np.diff(first, append=len(degree)).tolist(), degree[first].tolist()))
    live = np.ones(len(degree), dtype=bool)
    live_roots, live_groups = np.ones(len(z), dtype=bool), groups
    # stopped rows iterate on unchecked: their divisions may meet 0 or inf
    with np.errstate(all="ignore"):
        for _ in range(MAX_ABERTH_ITER):
            p, dp = _horner(coef, z)
            newton = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
            sums = np.zeros_like(z)
            for lo, _, count, d in live_groups:
                zg = z[lo:lo + count * d].reshape(count, d)
                inv = zg[:, :, None] - zg[:, None, :]
                inv.reshape(count, d * d)[:, ::d + 1] = np.inf
                np.divide(1.0, inv, out=inv)
                inv.sum(axis=2, out=sums[lo:lo + count * d].reshape(count, d))
            denom = 1.0 - newton * sums
            step = newton / np.where(denom == 0, 1.0, denom)
            zl = z - step
            stop = live & (np.maximum.reduceat(np.abs(step), heads)
                           < 1e-14 * np.maximum(1.0, np.maximum.reduceat(np.abs(zl), heads)))
            z = np.where(live_roots, zl, z)
            if stop.any():
                live &= ~stop
                if not live.any():
                    break
                live_roots = np.repeat(live, degree)
                live_groups = [(lo, f, c, d) for lo, f, c, d in live_groups
                               if live[f:f + c].any()]

    p, dp = _horner(coef, z)
    residual = np.abs(p) / np.maximum(np.abs(dp), 1e-300)
    # multiple roots: |p| collapses into evaluation roundoff while |p'| stays
    # small; accept when the value is roundoff-indistinguishable from zero
    noise = np.empty(len(z))
    absmonic = np.abs(start.monic)
    for lo, first, count, d in groups:
        hi = lo + count * d
        absz = np.abs(z[lo:hi]).reshape(count, d)
        noise[lo:hi] = (absmonic[first:first + count, None, :d + 1]
                        * absz[:, :, None] ** np.arange(d + 1)).sum(axis=2).ravel()
    at_noise_floor = np.abs(p) <= 4.0 * np.finfo(float).eps * noise
    worst = np.maximum.reduceat(np.where(at_noise_floor, 0.0, residual), heads)
    return np.split(z, heads[1:]), worst


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
    scalars.  The starts are stacked steps on the zero-padded coefficient
    rows (``_aberth_start``); p and p' of every polynomial are evaluated
    together on real planes (``_horner``), the Aberth step is one array
    expression over all their roots, and each polynomial stops at the
    iteration where it would stop alone.  Only the sums of 1 / (z_i - z_j)
    run on the polynomials of one degree at a time: numpy's pairwise
    summation order depends on the row length, so zero-padded rows would
    sum in another order.
    """
    rows, pending = [], None
    for coeffs in polys:
        coeffs = np.asarray(coeffs, dtype=complex)
        if len(coeffs) < 2:   # raised after the polynomials before it
            pending = ValueError("degree must be at least 1")
            break
        if coeffs[-1] == 0:
            pending = ValueError("leading coefficient must be nonzero")
            break
        rows.append(coeffs)
    start = _aberth_start(*_stack(rows, complex))
    order = np.flatnonzero(start.degree)
    order = order[np.argsort(start.degree[order], kind="stable")]
    final, worst = _aberth(_Start(*(field[order] for field in start)))
    found = [np.zeros(k, dtype=complex) for k in start.n_zero.tolist()]
    for i in np.argsort(order).tolist():
        if not worst[i] <= ROOT_RESIDUAL_TOL:   # also rejects NaN
            raise NoConvergence(f"root refinement stalled (max residual {worst[i]:.3e})")
        found[order[i]] = np.concatenate([found[order[i]], final[i]])
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


class _Posed(NamedTuple):
    """The polynomials of a ``zero_slice`` call, one row each: the degree
    after the numeric trim (0 for a nonzero constant), its monic form and
    that form's coefficient image (zero-padded), and whether the image's
    off-diagonal is exactly zero."""

    degree: np.ndarray
    monic: np.ndarray
    image: np.ndarray
    single_plane: np.ndarray


def _pose(coeffs: np.ndarray, left: np.ndarray, frame: SliceFrame) -> _Posed:
    """Trim, make monic and embed every polynomial of the zero-padded
    (P, D+1, 4) array ``coeffs``, as stacked steps; ``left`` marks the
    polynomials of H[p]^L.

    The trim drops leading coefficients of norm at most NUMERIC_DEGREE_TOL
    times the largest.  A polynomial whose true degree dropped (e.g. the
    reverse of a family member with a vanishing constant term) would
    otherwise be normalised by a roundoff-sized leading coefficient,
    manufacturing spurious roots near infinity; dropped directions lie far
    outside the closed ball, so the location flags are unaffected.

    The leading coefficient is then divided out on the zero-preserving
    side: in H[p]^L (coefficients right of the powers) every coefficient is
    right-multiplied by its inverse, which multiplies all values on the
    right and so fixes the zero set; in H[p]^R it is left-multiplied.
    Coefficients above the trimmed degree are set to +0.0, so their signs
    (the padding's, or a reverse's conj(0)) reach no later stage.

    It raises at once: ValueError for a coefficient that is not finite,
    then for a squared coefficient norm that overflows, then for the zero
    polynomial.  Which polynomial of a batch fails first is
    ``zero_slice``'s question.
    """
    arr = np.asarray(coeffs, dtype=float)
    w, x, y, z = np.moveaxis(arr, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        mags = np.sqrt(w * w + x * x + y * y + z * z)
    scale = mags.max(axis=1, initial=0.0)
    finite = np.isfinite(arr).all(axis=(1, 2))
    for fails, message in ((~finite, "polynomial coefficients must be finite"),
                           (scale == np.inf, "polynomial coefficient norms overflow"),
                           (scale == 0.0, "zero polynomial has no zero-set report")):
        if fails.any():
            raise ValueError(message)
    kept = mags > NUMERIC_DEGREE_TOL * scale[:, None]
    degree = kept.shape[1] - 1 - kept[:, ::-1].argmax(axis=1)
    inv = qarr_inv(arr[np.arange(len(arr)), degree])[:, None]
    monic = np.where(left[:, None, None], qarr_mul(arr, inv), qarr_mul(inv, arr))
    col = np.arange(arr.shape[1])
    monic[col > degree[:, None]] = 0.0
    monic[col == degree[:, None]] = _ONE
    image = chi(monic, frame)
    return _Posed(degree, monic, image, ~image[:, :, 0, 1].any(axis=1))


def _companions(body: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The (k, n, n, 4) companion matrices of k monic polynomials of degree
    n, given their lower coefficients ``body`` (k, n, 4) and the mask
    ``left`` of those in H[p]^L.  The companion matrix of a polynomial in
    H[p]^L has subdiagonal ones and the last column -coefficients, its
    mirror in H[p]^R superdiagonal ones and the bottom row -coefficients."""
    k, n = body.shape[:2]
    A = np.zeros((k, n, n, 4))
    lo, up = np.arange(1, n), np.arange(n - 1)
    ls, rs = np.flatnonzero(left), np.flatnonzero(~left)
    A[ls[:, None], lo, up, 0] = 1.0
    A[ls, :, n - 1] = -body[ls]
    A[rs[:, None], up, lo, 0] = 1.0
    A[rs, n - 1] = -body[rs]
    return A


def zero_slice(coeffs: np.ndarray, left: np.ndarray, frame: SliceFrame,
               route_tol: float = ROUTE_TOL) -> list[dict]:
    """Slice zero sets of quaternionic polynomials, two routes cross-checked,
    one report per polynomial in the ``zeros`` schema's shape:
    ``slice_roots``, one representative with Im >= 0 of each conjugate pair
    as an [re, im] pair, sorted by (modulus, real, imaginary part); their
    ``moduli``; and the flags ``all_inside_ball`` and
    ``all_outside_closed_ball``, both true for a nonzero constant, which has
    no zeros.

    ``coeffs`` holds the P polynomials as one zero-padded (P, D+1, 4)
    coefficient array, and the (P,) bool mask ``left`` marks those of
    H[p]^L (sums p^k phi_k); the others are read as sums phi_k p^k.

    Route 1: Aberth roots of det(chi image of the monic-normalised input),
    the companion polynomial a a-bar + b b-bar of the image's first row
    (a, b).  When b is exactly zero, as for real coefficients in any frame,
    the determinant is a a-bar and every root would be double; route 1 then
    roots a alone, at degree n, and adds the conjugates (the roots of
    a-bar), so a simple zero of psi stays a simple root for Aberth.
    Route 2: spectrum of the embedded companion matrix.

    Each stage runs once over all the polynomials: the pose (``_pose``), one
    ``roots`` call for route 1, one eigenvalue call per companion size for
    route 2, and the report, where the route cross-check (greedy matching
    distance against ``route_tol``), the reduction to one representative per
    conjugate pair and the sort of the representatives are stacked steps on
    zero-padded rows.

    The error raised is the one that checking the polynomials one at a time
    would raise first.  Per polynomial the stages are the pose (ValueError
    for a non-finite coefficient, an overflowing coefficient norm or the
    zero polynomial), route 1 (NoConvergence), route 2
    (NoConvergence) and the cross-check (RouteMismatch).  The cross-check
    runs only once every polynomial has passed the stages before it, so its
    first failing row is that error.  If an earlier stage raises, a call of
    more than one polynomial checks them again one row at a time, in
    order, and raises the first error; a one-polynomial call raises it
    directly.
    """
    try:
        posed = _pose(coeffs, left, frame)
        rows = np.flatnonzero(posed.degree)
        degree = posed.degree[rows]
        single = posed.single_plane[rows]
        route1 = roots([posed.image[p, :n + 1, 0, 0] if s else det_poly(posed.image[p, :n + 1])
                        for p, n, s in zip(rows.tolist(), degree.tolist(), single.tolist())])
        size = 2 * degree
        spectra = np.zeros((len(rows), int(size.max(initial=0))), dtype=complex)
        for n in sorted(set(degree.tolist())):
            ks = np.flatnonzero(degree == n)
            spectra[ks, :2 * n] = right_eigen_slice(
                _companions(posed.monic[rows[ks], :n], left[rows[ks]]), frame)
    except (ValueError, NoConvergence):
        if len(coeffs) > 1:
            for p in range(len(coeffs)):
                zero_slice(coeffs[p:p + 1], left[p:p + 1], frame, route_tol)
        raise
    found, _ = _stack([np.concatenate([f, f.conj()]) if s else f
                       for f, s in zip(route1, single.tolist())], complex)
    dist = _greedy_distances(found, size, spectra, size)
    over = dist > route_tol
    if over.any():
        worst = float(dist[over.argmax()])
        raise RouteMismatch(f"determinant roots and companion spectrum disagree ({worst:.3e})",
                            residual=worst)
    reps, count = _conjugate_representatives(found, size)
    moduli = _abs(reps)
    padding = np.arange(reps.shape[1]) >= count[:, None]
    inside = ((moduli < 1.0) | padding).all(axis=1).tolist()
    outside = ((moduli > 1.0) | padding).all(axis=1).tolist()
    pairs = reps[..., None].view(float).tolist()   # [re, im] per root
    reports = [{"slice_roots": [], "moduli": [], "all_inside_ball": True,
                "all_outside_closed_ball": True} for _ in range(len(coeffs))]
    for p, c, r, m, i, o in zip(rows.tolist(), count.tolist(), pairs, moduli.tolist(),
                                inside, outside):
        reports[p] = {"slice_roots": r[:c], "moduli": m[:c], "all_inside_ball": i,
                      "all_outside_closed_ball": o}
    return reports


def _slice_roots(reports: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """The slice roots of each report, read back from their [re, im] pairs
    (exactly, through ``view(complex)``), zero-padded, and their numbers."""
    pairs, size = _stack([np.reshape(r["slice_roots"], (-1, 2)) for r in reports], float, (2,))
    return pairs.view(complex)[..., 0], size


def zeros_theorem_check(rows: np.ndarray, frame: SliceFrame,
                        route_tol: float = ROUTE_TOL) -> dict:
    """Per-degree zero-location checks for the orthonormal families of route
    B's (2, N+1, N+1, 4) coefficient rows (``orthonormal_polys``), as the
    ``zeros`` report.

    For each degree 1 <= n <= N: all slice roots of the orthonormal
    polynomials lie strictly inside the ball, all roots of their reverses
    strictly outside the closed ball, and the left/right slice zero
    multisets agree.  Returns {"per_degree": one row per degree, "reports":
    one {"degree", "family", "report"} entry per polynomial}, the families
    "right", "left", "right_reverse" and "left_reverse" in that order per
    degree, each report as ``zero_slice`` gives it.  The 4N polynomials are
    sliced out of the rows and their reverses (``reversed_rows``) in that
    order, with the mask [True, False, False, True] per degree: the right
    family and the left family's reverses lie in H[p]^L.  One ``zero_slice``
    call checks them all, and one stacked greedy matching gives the
    left/right distance of every degree.
    """
    N = rows.shape[1] - 1
    polys = np.stack([rows[0, 1:], rows[1, 1:], *reversed_rows(rows)[:, 1:]], axis=1)
    left = np.tile([True, False, False, True], N)
    found = zero_slice(polys.reshape(4 * N, N + 1, 4), left, frame, route_tol)
    lr_dist = _greedy_distances(*_slice_roots(found[0::4]), *_slice_roots(found[1::4]))
    rows = []
    for n in range(1, N + 1):
        rep_r, rep_l, rev_r, rev_l = found[4 * n - 4:4 * n]
        rows.append({
            "degree": n,
            "max_root_modulus": max(rep_r["moduli"] + rep_l["moduli"]),
            "min_reverse_modulus": min(rev_r["moduli"] + rev_l["moduli"],
                                       default=float("inf")),
            "all_inside_ball": rep_r["all_inside_ball"] and rep_l["all_inside_ball"],
            "reverses_outside": (rev_r["all_outside_closed_ball"]
                                 and rev_l["all_outside_closed_ball"]),
            "left_right_distance": float(lr_dist[n - 1]),
        })
    families = ("right", "left", "right_reverse", "left_reverse")
    return {"per_degree": rows,
            "reports": [{"degree": k // 4 + 1, "family": families[k % 4], "report": report}
                        for k, report in enumerate(found)]}
