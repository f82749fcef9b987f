from __future__ import annotations

import numpy as np
import pytest

import qopuc.zeros as zeros_module
from qopuc.errors import NoConvergence, NotPositiveDefinite, RouteMismatch
from qopuc.measures import MomentSequence, moments_from_density
from qopuc.polynomials import orthonormal_polys
from qopuc.quaternions import Quaternion, SliceFrame, chi
from qopuc.zeros import (
    _aberth_start, _companions, _conjugate_representatives, _greedy_distances, _pose, _stack,
    det_poly, roots, zero_slice, zeros_theorem_check,
)
from conftest import (
    QPolyL, QPolyR, aberth_start, bernstein_szego_density, companion, family, lebesgue_density,
    multiset_distance, qmul_scalar, random_frame, random_moment_fixture, random_quaternion,
    random_unit_ball_quaternion, reduce_conjugate_pairs, reverse_L, reverse_R, root_values,
    signed_zero_coeff_arrays, slice_problem, smooth_trig_density, stacked, star_mul_L,
    vanishing_density,
)


def test_roots_simple():
    got, = roots([[1.0, 0.0, 1.0]])  # z^2 + 1
    assert multiset_distance(got, [1j, -1j]) < 1e-12


def test_roots_planted_products(rng):
    for _ in range(10):
        planted = rng.uniform(-0.9, 0.9, size=5) + 1j * rng.uniform(-0.9, 0.9, size=5)
        coeffs = np.array([1.0 + 0j])
        for r in planted:
            coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
        got, = roots([coeffs])
        assert multiset_distance(got, planted) < 1e-10


def test_roots_wilkinson_mild():
    # degree 12, roots on radius 0.9
    planted = 0.9 * np.exp(2j * np.pi * np.arange(12) / 12 + 0.15j)
    coeffs = np.array([1.0 + 0j])
    for r in planted:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    got, = roots([coeffs])
    assert multiset_distance(got, planted) < 1e-8


def test_roots_deflates_origin():
    # z^8: all roots at the origin (Lebesgue-type determinant)
    coeffs = np.zeros(9)
    coeffs[8] = 1.0
    got, = roots([coeffs])
    assert np.max(np.abs(got)) == 0.0


def test_det_poly_examples(rng, frame):
    zI = np.array([np.zeros((2, 2)), np.eye(2)])
    d = det_poly(zI)
    assert np.allclose(d, [0, 0, 1])
    gamma = random_unit_ball_quaternion(rng)
    P = np.array([chi(-gamma, frame), np.eye(2)])  # image of (p - gamma)
    d = det_poly(P)
    expect = [gamma.norm_sq(), -2 * gamma.w, 1.0]
    assert np.max(np.abs(d - np.array(expect))) < 1e-12
    for _ in range(5):
        P = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        d = det_poly(P)
        for z in rng.normal(size=10):
            val = np.polyval(d[::-1], z)
            M = sum(P[k] * z ** k for k in range(4))
            assert abs(val - np.linalg.det(M)) < 1e-9 * max(1.0, abs(val))


def _posed_companions(polys, frame=SliceFrame.standard()):
    """Per polynomial, its monic form and companion matrix as the stacked pose
    gives them; None for a nonzero constant."""
    coeffs, left = stacked(polys)
    posed = _pose(coeffs, left, frame)
    out = []
    for p, n in enumerate(posed.degree.tolist()):
        out.append(None if n == 0 else (
            posed.monic[p, :n + 1], _companions(posed.monic[[p], :n], left[[p]])[0]))
    return out


def test_companion_shapes():
    psi = QPolyL([Quaternion(-0.3, 0.1, 0, 0), Quaternion(1.0)])  # p - a
    p2 = QPolyL([Quaternion(), Quaternion(), Quaternion(1.0)])
    p2r = QPolyR([Quaternion(), Quaternion(), Quaternion(1.0)])
    lin, sq, halved, const, sq_r = _posed_companions(
        [psi, p2, QPolyL([Quaternion(1.0), Quaternion(2.0)]), QPolyL([Quaternion(2.0)]), p2r])
    C = lin[1]
    assert C.shape == (1, 1, 4)
    assert Quaternion.from_array(C[0, 0]) == -psi.coeffs[0]
    C = sq[1]
    assert Quaternion.from_array(C[1, 0]) == Quaternion(1.0)
    assert Quaternion.from_array(C[0, 0]) == Quaternion()
    # the leading coefficient is divided out first; a constant has none
    monic, C = halved
    assert monic.tolist() == [[0.5, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    assert C.tolist() == [[[-0.5, -0.0, -0.0, -0.0]]]
    assert const is None
    C = sq_r[1]
    assert Quaternion.from_array(C[0, 1]) == Quaternion(1.0)


def test_companion_planted_roots(rng, frame):
    # plant quaternionic roots via star-factor construction; slice roots are
    # the conjugate representatives of each root's sphere
    for _ in range(5):
        planted = [random_unit_ball_quaternion(rng, rmax=0.9, rmin=0.1)
                   for _ in range(4)]
        poly = QPolyL([Quaternion(1.0)])
        for a in planted:
            poly = star_mul_L(poly, QPolyL([-a, Quaternion(1.0)]))
        report, = zero_slice(*stacked([poly]), frame)
        expected = [complex(a.w, np.linalg.norm(a.imag)) for a in planted]
        assert multiset_distance(root_values(report), expected) < 1e-8


def test_zero_slice_simple(frame):
    report, = zero_slice(*stacked([QPolyL([Quaternion(), Quaternion(1.0)])]), frame)
    assert report["slice_roots"] == [[0.0, 0.0]]
    assert report["all_inside_ball"] and not report["all_outside_closed_ball"]


def test_zero_slice_bernstein(frame):
    c = moments_from_density(bernstein_szego_density(), 4)
    fam = family(c, 2)
    report, = zero_slice(*stacked([fam.right[1]]), frame)
    assert len(report["slice_roots"]) == 1
    assert abs(root_values(report)[0] - 0.5) < 1e-14
    assert report["moduli"][0] < 1.0 and report["all_inside_ball"]
    rev = reverse_L(fam.right[1], 1)
    report, = zero_slice(*stacked([rev]), frame)
    assert abs(root_values(report)[0] - 2.0) < 1e-14
    assert report["all_outside_closed_ball"]


def test_bernstein_szego_closed_form_zeros(rng):
    # phi_n = z^(n-1) (z - a) up to a positive factor, a = 1/2: roots 0 (n - 1
    # times) and a; the reverse is a multiple of 1 - a z, root 1/a
    c = moments_from_density(bernstein_szego_density(), 10)
    fam = family(c, 10)
    for fr in (SliceFrame.standard(), random_frame(rng)):
        reports = zeros_theorem_check(fam.rows, fr)["reports"]
        assert len(reports) == 4 * 10
        for entry in reports:
            n, rep = entry["degree"], entry["report"]
            if entry["family"] in ("right", "left"):
                assert multiset_distance(root_values(rep),
                                         [0.0] * (n - 1) + [0.5]) <= 1e-14
            else:
                assert multiset_distance(root_values(rep), [2.0]) <= 1e-14


def test_single_plane_slice_roots_the_scalar_factor(rng, monkeypatch):
    # real coefficients embed as multiples of I in every frame, so the image's
    # off-diagonal is exactly zero and route 1 roots a degree-n polynomial;
    # otherwise it roots the degree-2n determinant
    degrees = []

    def counting_roots(polys):
        degrees.extend(len(coeffs) - 1 for coeffs in polys)
        return roots(polys)

    monkeypatch.setattr(zeros_module, "roots", counting_roots)
    single = family(moments_from_density(vanishing_density(), 6), 6)
    general = family(random_moment_fixture(41, 7), 6)
    for fr in (SliceFrame.standard(), random_frame(rng)):
        for n in range(1, 7):
            for fam, want in ((single, n), (general, 2 * n)):
                for poly in (fam.right[n], fam.left[n]):
                    degrees.clear()
                    zero_slice(*stacked([poly]), fr)
                    assert degrees == [want]
    # coefficients in span{1, i} of the standard frame, where the star
    # products stay exactly in the plane: a diagonal image whose entry a is
    # not real, so its roots are not closed under conjugation
    planted = [complex(*rng.uniform(-0.8, 0.8, size=2)) for _ in range(4)]
    poly = QPolyL([Quaternion(1.0)])
    for z in planted:
        poly = star_mul_L(poly, QPolyL([Quaternion(-z.real, -z.imag), Quaternion(1.0)]))
    degrees.clear()
    report, = zero_slice(*stacked([poly]), SliceFrame.standard())
    assert degrees == [4]
    expected = [complex(z.real, abs(z.imag)) for z in planted]
    assert multiset_distance(root_values(report), expected) < 1e-12


def test_roots_rejects_nan():
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence):
        roots([[float("nan"), 1.0]])


def test_roots_rejects_a_bad_input_after_the_polynomials_before_it(monkeypatch):
    with pytest.raises(ValueError, match="degree must be at least 1"):
        roots([[1.0]])
    with pytest.raises(ValueError, match="leading coefficient must be nonzero"):
        roots([[1.0, 2.0, 0.0]])
    # the pass stops at the bad input: the NaN after it would stall
    with pytest.raises(ValueError, match="degree must be at least 1"):
        roots([[1.0, 1.0], [], [float("nan"), 1.0]])
    # a stall before the bad input comes first
    monkeypatch.setattr(zeros_module, "MAX_ABERTH_ITER", 1)
    with pytest.raises(NoConvergence, match="stalled"):
        roots([[1.0, 0.3, 0.2, 1.0], [1.0, 0.0]])


def test_zero_slice_q_poly_r(rng, frame):
    a = random_unit_ball_quaternion(rng, rmax=0.8, rmin=0.2)
    poly = QPolyR([-a, Quaternion(1.0)])
    report, = zero_slice(*stacked([poly]), frame)
    assert multiset_distance(root_values(report),
                             [complex(a.w, np.linalg.norm(a.imag))]) < 1e-10


def test_zeros_theorem_on_fixtures(rng):
    c = moments_from_density(lebesgue_density(), 8)
    results = zeros_theorem_check(orthonormal_polys(c, 4)[1],
                                  SliceFrame.standard())["per_degree"]
    for row in results:
        assert row["max_root_modulus"] < 1e-8
        assert row["all_inside_ball"] and row["reverses_outside"]
        assert row["left_right_distance"] < 1e-8
    c = random_moment_fixture(41, 11)
    results = zeros_theorem_check(orthonormal_polys(c, 10)[1],
                                  SliceFrame.standard())["per_degree"]
    for row in results:
        assert row["max_root_modulus"] < 1.0
        assert row["min_reverse_modulus"] > 1.0
        assert row["all_inside_ball"] and row["reverses_outside"]
        assert row["left_right_distance"] < 1e-8


def test_zeros_theorem_rejects_trivial():
    atom = MomentSequence([Quaternion(1.0)] * 6)
    with pytest.raises(NotPositiveDefinite):
        zeros_theorem_check(orthonormal_polys(atom, 3)[1], SliceFrame.standard())


def test_frame_independence_of_moduli(rng):
    c = random_moment_fixture(55, 7)
    fam = family(c, 6)
    base = None
    for _ in range(5):
        fr = random_frame(rng)
        report, = zero_slice(*stacked([fam.right[5]]), fr)
        mods = np.sort(np.array(report["moduli"]))
        if base is None:
            base = mods
        else:
            assert np.max(np.abs(mods - base)) < 1e-8


def test_monic_normalisation_preserves_zeros(rng, frame):
    a = random_unit_ball_quaternion(rng, rmax=0.7, rmin=0.3)
    lead = random_quaternion(rng)
    poly = QPolyL([(-a) * lead, lead])  # (p - a) star lead
    report, = zero_slice(*stacked([poly]), frame)
    assert multiset_distance(root_values(report),
                             [complex(a.w, np.linalg.norm(a.imag))]) < 1e-9
    (monic, _), = _posed_companions([poly], frame)
    assert Quaternion.from_array(monic[1]) == Quaternion(1.0)


def test_two_route_agreement_desk_scale_ceiling(rng, frame):
    # degree-16 at default tolerance; degree-24 (48x48 embedded companion)
    # with the tolerance the determinant conditioning supports
    for degree, rmax, tol, match in ((16, 0.85, 1e-8, 1e-7), (24, 0.9, 1e-6, 1e-5)):
        planted = [random_unit_ball_quaternion(rng, rmax=rmax, rmin=0.15)
                   for _ in range(degree)]
        poly = QPolyL([Quaternion(1.0)])
        for a in planted:
            poly = star_mul_L(poly, QPolyL([-a, Quaternion(1.0)]))
        report, = zero_slice(*stacked([poly]), frame, route_tol=tol)
        expected = [complex(a.w, np.linalg.norm(a.imag)) for a in planted]
        assert multiset_distance(root_values(report), expected) < match


# ---- the one-polynomial Aberth loop that the batched ``roots`` replaced,
# Horner's rule on Python complex scalars, kept as its oracle ----

def _horner_pair(desc_p, desc_dp, zs):
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


def _roots_scalar_loop(coeffs, max_iter=500, residual_tol=1e-10):
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(coeffs))
    n_zero = 0
    while n_zero < len(coeffs) - 1 and abs(coeffs[n_zero]) <= 1e-300 * scale:
        n_zero += 1
    work = coeffs[n_zero:]
    deg = len(work) - 1
    if deg == 0:
        return np.zeros(n_zero, dtype=complex)
    monic = work / work[-1]
    deriv = monic[1:] * np.arange(1, deg + 1)
    radius = 1.0 + np.max(np.abs(monic[:-1]))
    radius = min(radius, max(np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1))) * 2.0 + 0.5)
    angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
    z = radius * np.exp(1j * angles)
    monic_desc = monic[::-1].tolist()
    deriv_desc = deriv[::-1].tolist()
    zs = z.tolist()
    for _ in range(max_iter):
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
    noise = (np.abs(monic) * np.abs(z)[:, None] ** np.arange(deg + 1)).sum(axis=1)
    at_noise_floor = np.abs(p) <= 4.0 * np.finfo(float).eps * noise
    worst = float(np.max(np.where(at_noise_floor, 0.0, residual)))
    if not worst <= residual_tol:
        raise NoConvergence(f"root refinement stalled (max residual {worst:.3e})")
    return np.concatenate([np.zeros(n_zero, dtype=complex), z])


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_roots_bitwise_equal_to_scalar_loop():
    rng = np.random.default_rng(404)
    cases = []
    for degree in (1, 2, 3, 5, 8, 12, 20):
        planted = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        if degree >= 2:
            planted[1] = planted[0]          # a double root
        cases.append(np.poly(planted)[::-1] * (0.3 + 2j))
    for degree in (4, 9):                    # exact zeros at the origin
        planted = np.concatenate([np.zeros(2), rng.normal(size=degree - 2)])
        cases.append(np.poly(planted)[::-1])
    cases.append(np.array([0.25, -1.0, 1.0]))   # (z - 1/2)^2, exactly
    cases.append(np.array([0.0, 0.0, 2.0]))     # every root at the origin
    want = _bytes(_roots_scalar_loop(c) for c in cases)
    assert _bytes(roots(cases)) == want
    assert [_bytes(roots([c]))[0] for c in cases] == want


ZEROS_JOB_FIXTURES = ("bernstein_szego_05", "lebesgue", "random_gamma_7", "smooth_trig",
                      "vanishing_density")


def _zeros_job_batches(monkeypatch):
    """The route-1 batch of every ``zeros --n 10`` job on the shipped
    fixtures, in the standard frame and two seeded ones, as ``roots`` got it
    and as it answered."""
    import contextlib
    import io
    import json
    from pathlib import Path

    from qopuc import cli

    batches = []

    def recording_roots(polys):
        polys = [np.array(c) for c in polys]
        found = roots(polys)
        batches.append((polys, found))
        return found

    monkeypatch.setattr(zeros_module, "roots", recording_roots)
    fixdir = Path(__file__).resolve().parent.parent / "fixtures"
    frames = [[]] + [["--frame", json.dumps(random_frame(np.random.default_rng(seed))
                                            .to_json())] for seed in (31, 32)]
    for name in ZEROS_JOB_FIXTURES:
        for frame in frames:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["zeros", str(fixdir / f"{name}.json"), "--n", "10", *frame])
            assert code == 0
    monkeypatch.undo()
    return batches


def test_batched_roots_of_zeros_jobs_bitwise_equal_to_one_at_a_time(monkeypatch):
    """Every polynomial of a zeros job gets, in its batch, the bits of the
    Python-complex oracle, of its own run alone and of a shuffled batch."""
    rng = np.random.default_rng(14)
    batches = _zeros_job_batches(monkeypatch)
    assert len(batches) == 15
    for polys, found in batches:
        assert 20 <= len(polys) == len(found) <= 40   # constants are not rooted
        want = _bytes(found)
        assert _bytes(_roots_scalar_loop(c) for c in polys) == want
        assert [_bytes(roots([c]))[0] for c in polys] == want
        perm = rng.permutation(len(polys))
        shuffled = roots([polys[k] for k in perm])
        assert [shuffled[j].tobytes() for j in np.argsort(perm)] == want


def test_stacked_spectra_bitwise_equal_to_one_at_a_time(rng):
    from qopuc.quaternions import right_eigen_slice
    fam = family(random_moment_fixture(41, 9), 8)
    for fr in (SliceFrame.standard(), random_frame(rng)):
        comps = [companion(fam.right[n])[1] for n in range(1, 9)]
        comps += [companion(fam.left[n])[1] for n in range(1, 9)]
        for n in range(1, 9):
            same = [A for A in comps if len(A) == n]
            stacked = right_eigen_slice(np.stack(same), fr)
            assert _bytes(stacked) == _bytes(right_eigen_slice(A, fr) for A in same)


def _first_error_one_at_a_time(polys, frame, route_tol, max_iter=500):
    """The error of checking the polynomials one at a time, each rooted by
    the oracle: the error the job must raise."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros_module, "roots",
                   lambda batch: [_roots_scalar_loop(c, max_iter) for c in batch])
        try:
            for psi in polys:
                zero_slice(*stacked([psi]), frame, route_tol)
        except Exception as exc:
            return exc
    return None


def _counted_zero_slice(monkeypatch):
    """Route ``zero_slice`` through a wrapper; the list of its entries, a
    re-check of one polynomial included."""
    entries, original = [], zeros_module.zero_slice

    def counted(*args, **kwargs):
        entries.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(zeros_module, "zero_slice", counted)
    return entries


def _zeros_job_polys(fam):
    return [poly for n in range(1, fam.order + 1)
            for poly in (fam.right[n], fam.left[n], reverse_L(fam.right[n], n),
                         reverse_R(fam.left[n], n))]


def test_zeros_job_raises_the_first_error_in_order(monkeypatch):
    """With the iteration budget cut so that high-degree rows stall, a
    route tolerance below every residual still raises the degree-1
    RouteMismatch, and the default one the stall of the first polynomial
    that stalls; so does the job stacked from its polynomial objects."""
    fam = family(moments_from_density(smooth_trig_density(), 10), 10)
    frame = SliceFrame.standard()
    polys = _zeros_job_polys(fam)
    with pytest.raises(RouteMismatch) as degree_1:
        zero_slice(*stacked(polys[:1]), frame, route_tol=1e-40)
    monkeypatch.setattr(zeros_module, "MAX_ABERTH_ITER", 8)
    for route_tol, kind in ((1e-40, RouteMismatch), (1e-8, NoConvergence)):
        want = _first_error_one_at_a_time(polys, frame, route_tol, max_iter=8)
        with pytest.raises(kind) as got:
            zeros_theorem_check(fam.rows, frame, route_tol)
        assert type(want) is kind and str(got.value) == str(want)
        with pytest.raises(kind) as got_objects:
            zero_slice(*stacked(polys), frame, route_tol)
        assert str(got_objects.value) == str(want)
    assert str(_first_error_one_at_a_time(polys, frame, 1e-40, max_iter=8)) == \
        str(degree_1.value)


def test_failed_stacked_spectrum_raises_in_order(monkeypatch):
    """A LAPACK failure on one companion size fails its whole stacked call;
    the job then diagonalises that size one matrix at a time, so an earlier
    polynomial's RouteMismatch still comes first.  A lone polynomial of
    that size raises the failure itself, without a re-check."""
    from qopuc.quaternions import right_eigen_slice

    def failing_on_size_3(A, frame):
        if A.shape[-2] == 3:
            raise NoConvergence("eigenvalue iteration failed: size 3")
        return right_eigen_slice(A, frame)

    monkeypatch.setattr(zeros_module, "right_eigen_slice", failing_on_size_3)
    fam = family(moments_from_density(smooth_trig_density(), 5), 5)
    frame = SliceFrame.standard()
    polys = _zeros_job_polys(fam)
    for route_tol, kind in ((1e-40, RouteMismatch), (1e-8, NoConvergence)):
        want = _first_error_one_at_a_time(polys, frame, route_tol)
        with pytest.raises(kind) as got:
            zeros_theorem_check(fam.rows, frame, route_tol)
        assert type(want) is kind and str(got.value) == str(want)
    entries = _counted_zero_slice(monkeypatch)
    with pytest.raises(NoConvergence, match="size 3"):
        zeros_module.zero_slice(*stacked([fam.right[3]]), frame)
    assert len(entries) == 1


def test_zero_slice_raises_a_stage_one_error_after_earlier_checks(monkeypatch):
    """An input that fails before rooting (a zero polynomial, or one with a
    coefficient that is not finite) is raised only after the polynomials
    before it are checked, and not before a later polynomial's stall.  A
    lone stalling polynomial raises its stall without a re-check."""
    fam = family(moments_from_density(smooth_trig_density(), 3), 3)
    frame = SliceFrame.standard()
    zero = QPolyL(np.zeros((2, 4)))
    not_finite = QPolyL(np.concatenate([[[np.nan, 0.0, 0.0, 0.0]], fam.right[2].arr[1:]]))
    with pytest.raises(RouteMismatch):
        zero_slice(*stacked([fam.right[2], zero]), frame, route_tol=1e-40)
    with pytest.raises(RouteMismatch):
        zero_slice(*stacked([fam.right[2], not_finite]), frame, route_tol=-1.0)
    with pytest.raises(ValueError, match="zero polynomial"):
        zero_slice(*stacked([fam.right[2], zero, fam.right[3]]), frame)
    monkeypatch.setattr(zeros_module, "MAX_ABERTH_ITER", 2)
    with pytest.raises(ValueError, match="zero polynomial"):
        zero_slice(*stacked([zero, fam.right[3]]), frame)
    with pytest.raises(ValueError, match="must be finite"):
        zero_slice(*stacked([not_finite, fam.right[3]]), frame)
    with pytest.raises(NoConvergence, match="stalled"):
        zero_slice(*stacked([fam.right[3], not_finite]), frame)
    entries = _counted_zero_slice(monkeypatch)
    with pytest.raises(NoConvergence, match="stalled"):
        zeros_module.zero_slice(*stacked([fam.right[3]]), frame)
    assert len(entries) == 1


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 0, 0, 0], [float("nan"), 0, 0, 0]], "must be finite"),
    ([[0.5, 0, 0, 0], [1.0, 0, 0, 0], [float("inf"), 0, 0, 0]], "must be finite"),
    ([[float("nan"), 0, 0, 0], [1.0, 0, 0, 0]], "must be finite"),
    ([[0.5, 0, 0, 0], [float("nan"), 0, 0, 0], [1.0, 0, 0, 0]], "must be finite"),
    ([[1e200, 0, 0, 0], [1.0, 0, 0, 0]], "norms overflow"),
])
def test_zero_slice_rejects_non_finite_coefficients(bad, message):
    """A polynomial with a non-finite coefficient (or one whose squared norm
    overflows) fails its pose with a ValueError after the good polynomial
    before it is checked, and before a later polynomial is."""
    good = QPolyL([[-0.5, 0, 0, 0], [1.0, 0, 0, 0]])
    frame = SliceFrame.standard()
    for cls in (QPolyL, QPolyR):
        with pytest.raises(ValueError, match=message):
            zero_slice(*stacked([good, cls(bad), QPolyL(np.zeros((2, 4)))]), frame)
    with pytest.raises(RouteMismatch):
        zero_slice(*stacked([good, QPolyL(bad)]), frame, route_tol=-1.0)


def _report_bits(report):
    return (root_values(report).tobytes(),
            np.array(report["moduli"], dtype=float).tobytes(),
            report["all_inside_ball"], report["all_outside_closed_ball"])


def _zero_report_one(psi, frame):
    """The zero report of one polynomial by the one-polynomial stages: the
    bits that ``zero_slice`` gives each polynomial of a batch."""
    problem = slice_problem(psi, frame)
    if problem is None:
        return (np.zeros(0, complex).tobytes(), np.zeros(0).tobytes(), True, True)
    comp, coeffs, scalar = problem
    found = roots([coeffs])[0]
    if scalar:
        found = np.concatenate([found, found.conj()])
    from qopuc.quaternions import right_eigen_slice
    assert multiset_distance(found, right_eigen_slice(comp, frame)) <= 1e-8
    reps = _sorted_reps(reduce_conjugate_pairs(found))
    moduli = np.array([abs(z) for z in reps.tolist()])
    return (reps.tobytes(), moduli.tobytes(), bool(all(moduli < 1.0)),
            bool(all(moduli > 1.0)))


def test_mixed_and_shuffled_batches_bitwise_equal_to_one_polynomial_stages(rng):
    """A batch that mixes trimmed-degree, single-plane (b = 0) and constant
    polynomials of both spaces, as given and shuffled: every report has the
    bits of the one-polynomial stages."""
    frame = random_frame(np.random.default_rng(33))
    fam = family(random_moment_fixture(41, 7), 6)
    real = family(moments_from_density(vanishing_density(), 6), 6)
    batch = _zeros_job_polys(fam)[:12]
    for cls in (QPolyL, QPolyR):
        batch += [
            cls(np.concatenate([fam.right[3].arr, [[1e-15, 0.0, -0.0, 1e-16]]])),   # trimmed
            cls(np.concatenate([fam.left[4].arr, [[2e-14, 0.0, 0.0, 0.0]] * 2])),
            cls([[1.0, 0, 0, 0], [-0.5, 0, 0, 0], [1e-12, 0, 0, 0]]),   # at the threshold
            cls(real.right[5].arr), cls(real.left[2].arr),                         # b = 0
            cls([[2.0, 0.0, 0.0, 0.0]]), cls([[0.5, -0.5, 0.0, 0.0], [1e-13, 0, 0, 0]]),
        ]
    want = [_zero_report_one(psi, frame) for psi in batch]
    assert sum(w[0] == b"" for w in want) == 4
    assert [_report_bits(r) for r in zero_slice(*stacked(batch), frame)] == want
    perm = rng.permutation(len(batch))
    shuffled = zero_slice(*stacked([batch[k] for k in perm]), frame)
    assert [_report_bits(shuffled[j]) for j in np.argsort(perm)] == want


def _fixture_family(name, n, frame):
    from pathlib import Path

    from qopuc.cli import load_fixture, moments_from_fixture

    fix = load_fixture(str(Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"),
                       frame)
    return family(moments_from_fixture(fix, n), n), fix.frame


def test_stacked_stages_of_zeros_jobs_bitwise_equal_to_one_polynomial_oracles(monkeypatch):
    """Every ``zeros`` job of the report set's shipped fixtures at n = 1-12,
    in the standard frame and two seeded ones: the stacked pose, the route-1
    polynomials, the stacked Aberth starts, the route cross-check, the
    conjugate-pair reduction with its sort, and the left/right distance,
    against the one-polynomial oracles, row by row and bit for bit."""
    calls = {"roots": [], "match": [], "pairs": []}

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append(([np.array(a) for a in args[0]] if name == "roots"
                                else [np.array(a) for a in args], out))
            return out
        return wrapper

    monkeypatch.setattr(zeros_module, "roots", recording("roots", roots))
    monkeypatch.setattr(zeros_module, "_greedy_distances",
                        recording("match", _greedy_distances))
    monkeypatch.setattr(zeros_module, "_conjugate_representatives",
                        recording("pairs", _conjugate_representatives))
    frames = [None] + [random_frame(np.random.default_rng(seed)) for seed in (31, 32)]
    jobs = 0
    for name in ZEROS_JOB_FIXTURES:
        for override in frames:
            for n in range(1, 13):
                for batch in calls.values():
                    batch.clear()
                fam, frame = _fixture_family(name, n, override)
                polys = _zeros_job_polys(fam)
                zeros_theorem_check(fam.rows, frame)
                jobs += 1
                coeffs, left = stacked(polys)
                posed = _pose(coeffs, left, frame)
                problems = [slice_problem(psi, frame) for psi in polys]
                (batch, _), = calls["roots"]
                assert len(batch) == sum(pr is not None for pr in problems)
                posed_coeffs = iter(batch)
                for p, problem in enumerate(problems):
                    deg = int(posed.degree[p])
                    if problem is None:
                        assert deg == 0
                        continue
                    comp, coeffs, scalar = problem
                    got = _companions(posed.monic[[p], :deg], left[[p]])[0]
                    assert got.tobytes() == comp.tobytes()
                    assert bool(posed.single_plane[p]) == scalar
                    assert next(posed_coeffs).tobytes() == np.asarray(coeffs).tobytes()
                start = _aberth_start(*_stack(batch, complex))
                for k, coeffs in enumerate(batch):
                    want = aberth_start(coeffs)
                    d = len(want.z)
                    assert (start.n_zero[k], start.degree[k]) == (want.n_zero, d)
                    assert start.monic[k, :d + 1].tobytes() == want.monic.tobytes()
                    assert start.deriv[k, :d].tobytes() == want.deriv.tobytes()
                    assert start.z[k, :d].tobytes() == want.z.tobytes()
                route, lr = calls["match"]
                assert len(lr[1]) == n
                for (a, a_size, b, b_size), out in (route, lr):
                    for r in range(len(a)):
                        want = multiset_distance(a[r, :a_size[r]], b[r, :b_size[r]])
                        assert np.float64(want).tobytes() == out[r].tobytes()
                (vals, size), (reps, count) = calls["pairs"][0]
                for r in range(len(vals)):
                    want = _sorted_reps(reduce_conjugate_pairs(vals[r, :size[r]]))
                    assert reps[r, :count[r]].tobytes() == want.tobytes()
    assert jobs == 180


# ---- the Quaternion-object and numpy-scalar implementations that the array
# and Python-complex forms replaced, kept as byte-level oracles ----

def _monic_scalar(quats, left):
    inv = quats[-1].inverse()
    body = [qmul_scalar(c, inv) if left else qmul_scalar(inv, c) for c in quats[:-1]]
    return np.array([q.to_array() for q in body + [Quaternion(1.0)]])


def _companion_scalar(quats, left):
    n = len(quats) - 1
    zero, one = Quaternion(), Quaternion(1.0)
    if left:
        rows = [[one if r >= 1 and c == r - 1 else zero for c in range(n - 1)] + [-quats[r]]
                for r in range(n)]
    else:
        rows = [[one if c == r + 1 else zero for c in range(n)] for r in range(n - 1)]
        rows.append([-quats[c] for c in range(n)])
    return np.array([[q.to_array() for q in row] for row in rows])


def _multiset_distance_numpy(a, b):
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x in sorted(a, key=abs, reverse=True):
        dists = [abs(x - y) for y in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


def _reduce_conjugate_pairs_numpy(vals):
    remaining = list(vals)
    reps = []
    while remaining:
        z = remaining.pop(0)
        target = np.conj(z)
        dists = [abs(y - target) for y in remaining]
        k = int(np.argmin(dists)) if dists else None
        if k is not None:
            partner = remaining.pop(k)
            rep = z if z.imag >= 0 else partner
        else:
            rep = z if z.imag >= 0 else np.conj(z)
        reps.append(complex(rep.real, abs(rep.imag))
                    if abs(rep.imag) < 1e-12 * max(1.0, abs(rep)) else complex(rep))
    return reps


def test_monic_companion_trim_bitwise_equal_to_scalar_loops(rng):
    """The stacked pose of one batch of signed-zero inputs, in both spaces and
    with a negligible leading coefficient appended, against the Quaternion
    loops and the Python trim."""
    arrays = signed_zero_coeff_arrays(rng)[1:]
    polys, want = [], []
    for arr in arrays:
        quats = [Quaternion(*row) for row in arr.tolist()]
        tiny = np.concatenate([arr, [[1e-15, -0.0, 0.0, 0.0]]])
        mags = [abs(Quaternion(*row)) for row in tiny.tolist()]
        deg = max(k for k, v in enumerate(mags) if v > 1e-12 * max(mags))
        assert deg == len(arr) - 1
        for left, cls in ((True, QPolyL), (False, QPolyR)):
            polys += [cls(arr), cls(tiny)]
            want += [(quats, left)] * 2
    got = _posed_companions(polys)
    for (monic, comp), (quats, left) in zip(got, want):
        assert monic.tobytes() == _monic_scalar(quats, left).tobytes()
        mq = [Quaternion(*row) for row in monic.tolist()]
        assert comp.tobytes() == _companion_scalar(mq, left).tobytes()


def _sorted_reps(reps):
    return np.array(sorted(reps, key=lambda z: (abs(z), z.real, z.imag)), dtype=complex)


def _check_matching(pairs, reductions):
    """The stacked greedy distances of ``pairs`` and the stacked pair
    reductions of ``reductions`` against the one-row oracles, bit for bit."""
    a, a_size = _stack([a for a, _ in pairs], complex)
    b, b_size = _stack([b for _, b in pairs], complex)
    got = _greedy_distances(a, a_size, b, b_size)
    for (x, y), dist in zip(pairs, got.tolist()):
        want = multiset_distance(x, y)
        assert np.float64(dist).tobytes() == np.float64(want).tobytes()
        assert np.float64(want).tobytes() == np.float64(_multiset_distance_numpy(x, y)).tobytes()
    reps, count = _conjugate_representatives(*_stack(reductions, complex))
    for vals, row, c in zip(reductions, reps, count.tolist()):
        want = _sorted_reps(reduce_conjugate_pairs(vals))
        assert row[:c].tobytes() == want.tobytes()
        assert want.tobytes() == _sorted_reps(_reduce_conjugate_pairs_numpy(vals)).tobytes()


def test_root_matching_bitwise_equal_to_numpy_scalar_loops(rng):
    cases = []
    for n in (1, 2, 3, 6, 11):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        noise = 1e-13 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        cases.append(np.concatenate([z, np.conj(z) + noise]))
    cases.append(np.array([0.5 + 0j, 0.5 - 0j, complex(2.0, -0.0), complex(2.0, 0.0),
                           1j, -1j, 1j, -1j]))          # ties, signed zeros, repeats
    cases.append(np.array([0.3 - 0.2j, 0.3 + 0.2j, -0.7 - 1e-14j]))   # odd leftover
    cases.append(np.array([], dtype=complex))
    pairs = []
    for vals in cases:
        other = rng.permutation(vals) + 1e-12 * rng.normal(size=len(vals))
        pairs += [(vals, other), (other, vals), (vals, vals), (vals, other[:-1])]
    _check_matching(pairs, cases)


def test_matching_ties_and_odd_leftovers_bitwise_equal_to_oracles():
    """Entries on a coarse grid tie in modulus and in distance, so the greedy
    order and the first-on-a-tie choices decide the results; odd sizes leave
    a leftover, real or below the axis, to the pair reduction."""
    rng = np.random.default_rng(2111)
    grid = lambda n: (rng.integers(-3, 4, size=n) + 1j * rng.integers(-3, 4, size=n)) / 4
    pairs = [(np.array([2.0, 0.1, 3.5]), np.array([1.0, 3.0, 3.5]))]   # a tie that decides
    reductions = [np.array([0.5 - 0.5j, 0.5 + 0.25j, 0.5 + 0.75j]),  # partners tie
                  np.array([-0.7 - 1e-14j]), np.array([0.25 - 0.5j]), np.array([0.5 + 0j])]
    for _ in range(60):
        n = int(rng.integers(1, 12))
        vals = grid(n)
        reductions += [vals, np.concatenate([vals, np.conj(vals)])[rng.permutation(2 * n)]]
        pairs += [(vals, grid(n)), (vals, vals[::-1]), (vals, np.conj(vals))]
    assert multiset_distance(*pairs[0]) == 2.9
    _check_matching(pairs, reductions)
