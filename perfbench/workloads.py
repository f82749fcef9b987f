"""Job lists, seeded fixtures and output checks for the three workloads.

A job is one in-process call of ``qopuc.cli.main(argv)``.  Every job
declares the outcome it should have: an exit code, an error type for the
reject paths, and a check of its report against references that do not
come from the code under test (closed forms, the seeded inputs, the
report schemas, agreement between jobs).

Accuracy headroom is recorded per job as ``(residual, tolerance)`` pairs in
two groups: ``route`` (how close a two-route or self-consistency check came
to its tolerance) and ``truth`` (distance to a reference).  The end-to-end
margins are taken over jobs whose inputs do not depend on ``--seed``: the
seeded random-gamma moments are ill-conditioned at N >= 25 (their errors
spread over three decades from seed to seed), so their margins are printed
beside the metrics instead of entering them.  Their misses still count as
failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DENSITIES = ("lebesgue", "bernstein_szego_05", "vanishing_density", "smooth_trig")
ROUTE_TOL = 1e-8          # the CLI's default --tol-route
CLOSED_FORM_TOL = 1e-12   # acceptance suite: closed forms
ROUND_TRIP_TOL = 1e-9     # acceptance suite: gamma round trip
CD_TOL = 1e-9             # acceptance suite: CD identity residual
ZEROS_LR_TOL = 1e-8       # acceptance suite: left/right zero-set distance
RMAX = 0.8                # the CLI's default --rmax
SEEDED_FIXTURES = 3       # seeded random-gamma fixtures per workload


class CheckFailure(Exception):
    """A job's output disagrees with its expected outcome."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Job:
    name: str
    argv: list
    n: int | None = None
    exit_code: int = 0
    error_type: str | None = None
    error_order: int | None = None
    check: object = None            # callable(report, job, outcome) -> None
    seeded_fixture: bool = False    # margins printed, not in the metrics
    known_defect: object = None     # callable(failure) -> label or None
    group: str | None = None        # jobs compared against each other

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "csv" if "csv" in self.argv else "json"


@dataclass
class Outcome:
    """What the checks found for one job."""

    ok: bool = True
    kind: str = ""                  # failure kind: exit, schema, accuracy, ...
    error: str = ""                 # CLI error type or check message
    known_defect: str | None = None
    route: list = field(default_factory=list)
    truth: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    jobs: list
    warmups: list
    self_check_job: str
    fixtures: dict
    pass_s: float          # nominal pass time; --seconds buys whole passes of it


# ------------------------------ fixtures ----------------------------------

def _qnorm(q) -> float:
    return math.sqrt(sum(float(x) * float(x) for x in q))


def _qdist(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _gamma_fixture(qopuc, seed: int, n: int):
    gammas = qopuc.fixtures.random_gamma_seq(seed, n, rmax=RMAX)
    return {"frame": qopuc.SliceFrame.standard().to_json(),
            "gammas": [g.to_json() for g in gammas]}


def _non_pd_fixture(qopuc, seed: int, horizon: int, order: int):
    """Moments of seeded gammas with |c_order| raised to 1.5.

    T_k for k < order is untouched and positive definite; T_order holds the
    2x2 principal block [[1, c_m], [c_m^*, 1]], which is indefinite once
    |c_m| > 1.  So order ``order`` is the first failing one.
    """
    gammas = qopuc.fixtures.random_gamma_seq(seed, horizon, rmax=RMAX)
    c = qopuc.polynomials.moments_from_verblunsky_q(gammas, horizon)
    moments = c.to_json()
    q = moments[order][1]
    scale = 1.5 / max(_qnorm(q), 1e-3)
    moments[order][1] = ([1.5, 0.0, 0.0, 0.0] if _qnorm(q) < 1e-3
                         else [x * scale for x in q])
    return {"moments": moments}


# ------------------------------ references --------------------------------

def _closed_form_gammas(density: str, n: int):
    """Verblunsky coefficients known in closed form, or None."""
    if density == "lebesgue":
        return [[0.0, 0.0, 0.0, 0.0]] * n
    if density == "bernstein_szego_05":
        return [[0.5, 0.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0, 0.0]] * (n - 1)
    return None


def _closed_form_moduli(density: str, n: int):
    if density == "vanishing_density":
        return [1.0 / (k + 2) for k in range(n)]
    gammas = _closed_form_gammas(density, n)
    return None if gammas is None else [_qnorm(g) for g in gammas]


def _closed_form_entropy(density: str):
    return {"lebesgue": 0.0, "bernstein_szego_05": math.log(0.5625),
            "vanishing_density": float("-inf")}.get(density)


def _require(cond: bool, kind: str, message: str) -> None:
    if not cond:
        raise CheckFailure(kind, message)


# ------------------------------ job checks --------------------------------

def _check_m2v_density(density):
    def check(report, job, out):
        gammas = report["result"]["gammas"]
        _require(len(gammas) == job.n, "schema", f"{len(gammas)} gammas, want {job.n}")
        out.route.append((report["result"]["route_residual"], ROUTE_TOL))
        moduli = _closed_form_moduli(density, job.n)
        exact = _closed_form_gammas(density, job.n)
        if exact is not None:
            out.truth.append((max(_qdist(g, e) for g, e in zip(gammas, exact)),
                              CLOSED_FORM_TOL))
        elif moduli is not None:
            out.truth.append((max(abs(_qnorm(g) - m) for g, m in zip(gammas, moduli)),
                              CLOSED_FORM_TOL))
    return check


def _check_m2v_round_trip(gammas_ref):
    def check(report, job, out):
        gammas = report["result"]["gammas"]
        _require(len(gammas) == job.n, "schema", f"{len(gammas)} gammas, want {job.n}")
        out.route.append((report["result"]["route_residual"], ROUTE_TOL))
        out.truth.append((max(_qdist(g, e) for g, e in zip(gammas, gammas_ref)),
                          ROUND_TRIP_TOL))
    return check


def _check_sv(density):
    def check(report, job, out):
        res = report["result"]
        partial = res["partial_products"]
        _require(len(partial) == job.n, "schema", f"{len(partial)} products, want {job.n}")
        moduli = _closed_form_moduli(density, job.n)
        if moduli is not None:
            prod, err = 1.0, 0.0
            for m, p in zip(moduli, partial):
                prod *= (1.0 - m * m) ** 2
                err = max(err, abs(prod - p))
            out.truth.append((err, CLOSED_FORM_TOL))
        entropy = _closed_form_entropy(density)
        if entropy is not None:
            got = float(res["entropy"])
            if math.isinf(entropy):
                _require(got == entropy, "accuracy", f"entropy {got}, want {entropy}")
            else:
                out.truth.append((abs(got - entropy), CLOSED_FORM_TOL))
    return check


def _check_baxter(density):
    verdict = ("consistent-nonsummable" if density == "vanishing_density"
               else "consistent-summable")

    def check(report, job, out):
        res = report["result"]
        moduli = res["gamma_moduli"]
        _require(len(moduli) == job.n, "schema", f"{len(moduli)} moduli, want {job.n}")
        _require(res["verdict"] == verdict, "accuracy",
                 f"verdict {res['verdict']}, want {verdict}")
        acc, err = 0.0, 0.0
        for m, s in zip(moduli, res["gamma_l1_partial"]):
            acc += m
            err = max(err, abs(acc - s))
        _require(err <= 1e-12 * max(1.0, acc), "accuracy",
                 f"l1 partial sums off by {err:.3e}")
        ref = _closed_form_moduli(density, job.n)
        if ref is not None:
            out.truth.append((max(abs(a - b) for a, b in zip(moduli, ref)),
                              CLOSED_FORM_TOL))
    return check


def _check_v2m_bernstein(report, job, out):
    moments = report["result"]["moments"]
    _require(len(moments) == job.n + 1, "schema",
             f"{len(moments)} moments, want {job.n + 1}")
    out.truth.append((max(_qdist(q, [0.5 ** n, 0.0, 0.0, 0.0]) for n, q in moments),
                      CLOSED_FORM_TOL))


def _check_v2m_seeded(report, job, out):
    moments = report["result"]["moments"]
    _require(len(moments) == job.n + 1, "schema",
             f"{len(moments)} moments, want {job.n + 1}")
    _require(moments[0][1] == [1, 0, 0, 0], "accuracy", "c_0 is not 1")


def _check_zeros(report, job, out):
    rows = report["result"]["per_degree"]
    _require(len(rows) == job.n, "schema", f"{len(rows)} degrees, want {job.n}")
    for row in rows:
        _require(row["all_inside_ball"] and row["reverses_outside"], "accuracy",
                 f"zero location fails at degree {row['degree']}")
    _require(len(report["result"]["reports"]) == 4 * job.n, "schema",
             "want four families per degree")
    out.route.append((max(r["left_right_distance"] for r in rows), ZEROS_LR_TOL))


def _check_cd(report, job, out):
    out.truth.append((report["result"]["max_residual"], CD_TOL))


def _check_orthopolys(density):
    def check(report, job, out):
        res = report["result"]
        for fam in ("right", "left"):
            _require(len(res[fam]) == job.n + 1, "schema", f"{fam}: want {job.n + 1} polys")
        if density == "lebesgue":
            # the orthonormal polynomials of Lebesgue measure are p^n
            err = 0.0
            for fam in ("right", "left"):
                for n, poly in enumerate(res[fam]):
                    coeffs = poly["coeffs"]
                    _require(len(coeffs) == n + 1, "accuracy", f"{fam}[{n}] has wrong degree")
                    want = [[0.0] * 4] * n + [[1.0, 0.0, 0.0, 0.0]]
                    err = max([err] + [_qdist(a, b) for a, b in zip(coeffs, want)])
            out.truth.append((err, CLOSED_FORM_TOL))
    return check


def _check_grid_json(density, grid):
    def check(report, job, out):
        res = report["result"]
        _require(len(res["rows"]) == grid, "schema", f"{len(res['rows'])} rows, want {grid}")
        entropy = _closed_form_entropy(density)
        if entropy is not None:
            got = float(res["entropy"])
            if math.isinf(entropy):
                _require(got == entropy, "accuracy", f"entropy {got}, want {entropy}")
            else:
                out.truth.append((abs(got - entropy), CLOSED_FORM_TOL))
    return check


def _check_random_gamma(n):
    def check(report, job, out):
        gammas = report["result"]["gammas"]
        _require(len(gammas) == n, "schema", f"{len(gammas)} gammas, want {n}")
        radii = [_qnorm(g) for g in gammas]
        _require(all(0.05 - 1e-12 <= r <= RMAX + 1e-12 for r in radii), "accuracy",
                 "radius outside [0.05, rmax]")
    return check


def _ill_conditioned(failure: Outcome) -> str | None:
    """The known defect: moments of seeded random gammas (rmax 0.8) are
    ill-conditioned, badly so at N >= 25.

    Route A leaves the chi image (exit 2, NotInImage), a cross-check fires
    (exit 3, RouteMismatch) or a result misses its tolerance.  In a probe of
    60 seeds the worst N = 12 CD residual was 3.6e-11 against 1e-9, so the
    zeros_cd jobs on seeded fixtures carry this label too.
    """
    if failure.error in ("NotInImage", "RouteMismatch") or failure.kind == "accuracy":
        return "ill-conditioned seeded moments"
    return None


def _double_root(failure: Outcome) -> str | None:
    """The known defect: the vanishing density's polynomials have a double
    root, where Aberth and the companion spectrum differ by ~2e-8 > 1e-8."""
    if failure.error == "RouteMismatch":
        return "double root beyond the zero-set route tolerance"
    return None


# ------------------------------ workloads ---------------------------------

def _fixture_seeds(rng: random.Random, count: int) -> list:
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def dual_route(qopuc, fixdir: Path, workdir: Path, seed: int) -> Workload:
    """Both Verblunsky routes and the PD scan; see README.md for why."""
    jobs = []
    for density in DENSITIES:
        path = str(fixdir / f"{density}.json")
        for n in (12, 25, 40):
            jobs.append(Job(f"moments-to-verblunsky {density} --n {n}",
                            ["moments-to-verblunsky", path, "--n", str(n)], n=n,
                            check=_check_m2v_density(density)))
            jobs.append(Job(f"sv {density} --n {n}", ["sv", path, "--n", str(n)], n=n,
                            check=_check_sv(density)))
    shipped = json.loads((fixdir / "random_gamma_7.json").read_text(encoding="utf-8"))
    jobs.append(Job("moments-to-verblunsky random_gamma_7 --n 12",
                    ["moments-to-verblunsky", str(fixdir / "random_gamma_7.json"), "--n", "12"],
                    n=12, check=_check_m2v_round_trip(shipped["gammas"])))
    rng = random.Random(f"dual_route-{seed}")
    fixtures = {}
    for k, fseed in enumerate(_fixture_seeds(rng, SEEDED_FIXTURES)):
        fix = _gamma_fixture(qopuc, fseed, 40)
        path = _write_json(workdir / f"gamma_{k}.json", fix)
        fixtures[f"gamma_{k}"] = fseed
        for n in (12, 25, 40):
            jobs.append(Job(f"moments-to-verblunsky gamma_{k}(seed {fseed}) --n {n}",
                            ["moments-to-verblunsky", path, "--n", str(n)], n=n,
                            check=_check_m2v_round_trip(fix["gammas"]), seeded_fixture=True,
                            known_defect=_ill_conditioned if n >= 25 else None))
    for k, horizon in enumerate((12, 25, 40)):
        order = rng.randint(1, horizon)
        fseed = _fixture_seeds(rng, 1)[0]
        path = _write_json(workdir / f"non_pd_{k}.json",
                           _non_pd_fixture(qopuc, fseed, horizon, order))
        fixtures[f"non_pd_{k}"] = {"seed": fseed, "order": order}
        jobs.append(Job(f"moments-to-verblunsky non_pd_{k}(order {order}) --n {horizon}",
                        ["moments-to-verblunsky", path, "--n", str(horizon)], n=horizon,
                        exit_code=2, error_type="NotPositiveDefinite", error_order=order,
                        seeded_fixture=True))
    warm = str(fixdir / "smooth_trig.json")
    warmups = [["moments-to-verblunsky", warm, "--n", "4"], ["sv", warm, "--n", "4"]]
    return Workload("dual_route", jobs, warmups,
                    "moments-to-verblunsky lebesgue --n 12", fixtures, pass_s=32.0)


def long_horizon(qopuc, fixdir: Path, workdir: Path, seed: int) -> Workload:
    """Route A at long horizons and the forward map; route B never runs."""
    jobs = []
    for density in ("vanishing_density", "smooth_trig", "bernstein_szego_05"):
        path = str(fixdir / f"{density}.json")
        for n in (50, 100, 200):
            jobs.append(Job(f"baxter {density} --n {n}", ["baxter", path, "--n", str(n)],
                            n=n, check=_check_baxter(density), group=f"baxter {density}"))
    bern = _write_json(workdir / "bernstein_gammas.json",
                       {"frame": qopuc.SliceFrame.standard().to_json(),
                        "gammas": [[0.5, 0.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0, 0.0]] * 79})
    sources = [("bernstein_gammas", bern, _check_v2m_bernstein, False)]
    rng = random.Random(f"long_horizon-{seed}")
    fixtures = {}
    for k, fseed in enumerate(_fixture_seeds(rng, SEEDED_FIXTURES)):
        path = _write_json(workdir / f"gamma_{k}.json", _gamma_fixture(qopuc, fseed, 80))
        fixtures[f"gamma_{k}"] = fseed
        sources.append((f"gamma_{k}(seed {fseed})", path, _check_v2m_seeded, True))
    for label, path, check, seeded in sources:
        for k in (20, 40, 80):
            jobs.append(Job(f"verblunsky-to-moments {label} --n {k}",
                            ["verblunsky-to-moments", path, "--n", str(k)], n=k,
                            check=check, seeded_fixture=seeded,
                            group=f"verblunsky-to-moments {label}"))
    warm = str(fixdir / "smooth_trig.json")
    warmups = [["baxter", warm, "--n", "8"], ["verblunsky-to-moments", bern, "--n", "4"]]
    return Workload("long_horizon", jobs, warmups,
                    "verblunsky-to-moments bernstein_gammas --n 20", fixtures, pass_s=15.0)


def zeros_cd(qopuc, fixdir: Path, workdir: Path, seed: int) -> Workload:
    """Many short jobs: root finding, CD evaluation, reports."""
    rng = random.Random(f"zeros_cd-{seed}")
    sources = [(name, str(fixdir / f"{name}.json"), False)
               for name in DENSITIES + ("random_gamma_7",)]
    fixtures = {}
    for k, fseed in enumerate(_fixture_seeds(rng, SEEDED_FIXTURES)):
        path = _write_json(workdir / f"gamma_{k}.json", _gamma_fixture(qopuc, fseed, 13))
        fixtures[f"gamma_{k}"] = fseed
        sources.append((f"gamma_{k}(seed {fseed})", path, True))
    jobs = []
    for label, path, seeded in sources:
        defect = (_double_root if label == "vanishing_density"
                  else _ill_conditioned if seeded else None)
        for n in (4, 6, 8, 10):
            jobs.append(Job(f"zeros {label} --n {n}", ["zeros", path, "--n", str(n)], n=n,
                            check=_check_zeros, seeded_fixture=seeded, known_defect=defect))
        for n in (4, 8, 12):
            cd_seed = rng.randrange(1000)
            job = Job(f"cd {label} --n {n} --seed {cd_seed}",
                      ["cd", path, "--n", str(n), "--seed", str(cd_seed)], n=n,
                      check=_check_cd, seeded_fixture=seeded, known_defect=defect)
            if label == "random_gamma_7" and n == 12:
                # the shipped fixture holds 12 coefficients; cd needs n + 1
                job.exit_code, job.error_type, job.check = 2, "HorizonExceeded", None
            jobs.append(job)
        jobs.append(Job(f"orthopolys {label} --n 8", ["orthopolys", path, "--n", "8"], n=8,
                        check=_check_orthopolys(label), seeded_fixture=seeded))
    for density in DENSITIES:
        path = str(fixdir / f"{density}.json")
        jobs.append(Job(f"grid {density} --grid 2048 json",
                        ["grid", path, "--grid", "2048"], check=_check_grid_json(density, 2048),
                        group=f"grid {density}"))
        jobs.append(Job(f"grid {density} --grid 2048 csv",
                        ["grid", path, "--grid", "2048", "--format", "csv"],
                        group=f"grid {density}"))
    for k in range(3):
        gseed = rng.randrange(10 ** 6)
        jobs.append(Job(f"random-gamma --seed {gseed} --n 12",
                        ["random-gamma", "--seed", str(gseed), "--n", "12"],
                        check=_check_random_gamma(12), seeded_fixture=True))
    warm = str(fixdir / "smooth_trig.json")
    warmups = [["zeros", warm, "--n", "2"], ["cd", warm, "--n", "2", "--samples", "4"],
               ["orthopolys", warm, "--n", "2"], ["grid", warm, "--grid", "16"],
               ["grid", warm, "--grid", "16", "--format", "csv"],
               ["random-gamma", "--seed", "1", "--n", "2"]]
    return Workload("zeros_cd", jobs, warmups, "orthopolys lebesgue --n 8", fixtures,
                    pass_s=14.0)


WORKLOADS = {"dual_route": dual_route, "long_horizon": long_horizon, "zeros_cd": zeros_cd}


# ------------------------------ checking ----------------------------------

def load_schemas(schema_dir: Path) -> dict:
    import jsonschema

    out = {}
    for path in sorted(schema_dir.glob("*.schema.json")):
        schema = json.loads(path.read_text(encoding="utf-8"))
        out[path.name[: -len(".schema.json")]] = jsonschema.Draft7Validator(schema)
    return out


def check_job(job: Job, exit_code, text: str, schemas: dict) -> Outcome:
    """Outcome of one job from its exit code and output text."""
    out = Outcome()
    try:
        if exit_code is None:
            raise CheckFailure("exception", text)
        if job.fmt == "csv" and exit_code == 0:
            _check_csv_shape(text)
            return out
        obj = json.loads(text)
        if exit_code != 0:
            error = obj.get("error", {})
            out.error = error.get("type", "?")
            _require(exit_code == job.exit_code and out.error == job.error_type, "exit",
                     f"exit {exit_code} {out.error}: {error.get('message', '')}")
            if job.error_order is not None:
                _require(error.get("order") == job.error_order, "exit",
                         f"order {error.get('order')}, want {job.error_order}")
            return out
        _require(exit_code == job.exit_code, "exit",
                 f"exit 0, want {job.exit_code} {job.error_type}")
        validator = schemas[job.command.replace("-", "_")]
        errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.path))
        _require(not errors, "schema", errors[0].message if errors else "")
        if job.check is not None:
            job.check(obj, job, out)
        for residual, tol in out.route + out.truth:
            _require(residual <= tol, "accuracy",
                     f"residual {residual:.3e} above tolerance {tol:.0e}")
    except CheckFailure as exc:
        # an exit failure keeps the CLI's error type, which the defect labels read
        out.ok, out.kind = False, exc.kind
        if exc.kind != "exit" or not out.error:
            out.error = str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.ok, out.kind, out.error = False, "schema", f"{type(exc).__name__}: {exc}"
    if not out.ok and job.known_defect is not None:
        out.known_defect = job.known_defect(out)
    return out


def _check_csv_shape(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 2, "schema", "csv without data rows")
    width = len(rows[0])
    _require(all(len(r) == width for r in rows), "schema", "ragged csv")


def check_groups(jobs: list, reports: dict, outcomes: dict) -> list:
    """Checks that compare jobs of one group; returns failures by job name.

    * baxter at N = 50, 100, 200: the shorter runs' moduli equal the longest
      run's prefix (route A agrees with itself across horizons);
    * verblunsky-to-moments at K = 20, 40: equal to the K = 80 prefix;
    * grid csv rows equal the json rows of the same density.
    The first two are recorded as route residuals against --tol-route.
    """
    failures = []
    groups = {}
    for job in jobs:
        if job.group is not None and outcomes[job.name].ok:
            groups.setdefault(job.group, []).append(job)
    for members in groups.values():
        if members[0].command == "grid":
            by_fmt = {j.fmt: j for j in members}
            if set(by_fmt) != {"json", "csv"}:
                continue
            rows = json.loads(reports[by_fmt["json"].name])["result"]["rows"]
            table = list(csv.reader(io.StringIO(reports[by_fmt["csv"].name])))
            header, body = table[0], table[1:]
            same = len(body) == len(rows) and all(
                float(cell) == float(r[h]) for r, line in zip(rows, body)
                for h, cell in zip(header, line))
            if not same:
                failures.append((by_fmt["csv"].name, "csv rows differ from json rows"))
            continue
        members = sorted(members, key=lambda j: j.n)
        longest = members[-1]
        key = "gamma_moduli" if longest.command == "baxter" else "moments"
        ref = json.loads(reports[longest.name])["result"][key]
        for job in members[:-1]:
            got = json.loads(reports[job.name])["result"][key]
            if key == "moments":
                diff = max(_qdist(a[1], b[1]) for a, b in zip(got, ref))
                if got != ref[: len(got)]:
                    failures.append((job.name, f"K={job.n} moments are not a prefix "
                                                f"of K={longest.n} (max diff {diff:.3e})"))
            else:
                diff = max(abs(a - b) for a, b in zip(got, ref))
            outcomes[job.name].route.append((diff, ROUTE_TOL))
            if diff > ROUTE_TOL:
                failures.append((job.name, f"prefix differs by {diff:.3e}"))
    return failures


def margin_decades(pairs) -> float | None:
    """min over pairs of log10(tol / max(residual, 2.2e-16))."""
    if not pairs:
        return None
    return min(math.log10(tol / max(res, 2.2e-16)) for res, tol in pairs)
