"""One benchmark process: set up, run the timed job list, check the outputs.

Started by ``run.py`` in a fresh interpreter for each setup and each
measured run.  It prints ``READY`` once qopuc is imported, the workload's
fixtures are generated and one warm-up job per command has run; the parent
times the interval from process start to that line as the setup time.  A
``--setup-only`` process exits there.  Otherwise the process runs the job
list, checks every output outside the timed region and writes a JSON result
file for the parent.

Timed region: whole passes over the workload's job list, each in a new
seeded order, one job at a time (a closed loop with one client).  The
number of passes is ``--seconds`` over the workload's nominal pass time
(at least one), not a count of how many fit: then every run of a workload
holds the same jobs and the same number of known-defect failures, however
fast the host or the program is.  With ``--trace 1`` one untraced pass is
followed by one traced pass of the same order.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)
from tracer import Tracer  # noqa: E402

TAIL_BEYOND = 10          # jobs beyond the tail percentile
SELF_CHECK_REPEATS = 5    # untraced repeats of the tracer self-check job
CAL_REF_S = 0.003         # calibration time that defines the reference host speed
CAL_SAMPLES = 3           # timings per calibration
SETUP_CALS = 5            # calibrations after a setup
INF = float("inf")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The host's speed drifts by tens of percent within seconds (shared
    machine).  Timing this fixed kernel right before and right after each
    job measures the speed the job ran at: job times are reported in
    reference seconds, wall seconds times ``CAL_REF_S`` over the mean of the
    two calibrations around the job.  The kernel is benchmark code, so a
    change to qopuc does not move it.  Each calibration is the median of
    ``CAL_SAMPLES`` timings with the garbage collector paused, so that one
    collection or hiccup cannot halve a job's reported time.
    """
    gc.disable()
    try:
        return statistics.median(_calibration_sample() for _ in range(CAL_SAMPLES))
    finally:
        gc.enable()


def _calibration_sample() -> float:
    import numpy as np

    a = np.array([[0.3, 0.1j], [-0.2, 0.4]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += (i * 7) % 13
    m = a
    for _ in range(200):
        m = np.linalg.inv(np.einsum("ij,jk->ik", m, a) + eye)
    return time.perf_counter() - t0


def run_job(cli, job, out_path: Path):
    """One in-process CLI call; returns (exit code or None, wall seconds, error)."""
    argv = job.argv + ["--out", str(out_path)]
    error = ""
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a traceback is a failed job, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, error


def run_pass(cli, order, outdir: Path, tracer=None):
    """Run every job once, with a calibration before each job and after
    the last, outside the job timers.  The pass's busy time is the sum of
    its job times."""
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    cals = []
    for k, job in enumerate(order):
        out = outdir / f"job{k}.out"
        cals.append(calibrate())
        before = None
        if tracer is not None:
            tracer.job_id = k
            before = (list(tracer.calls), sum(tracer.self_s))
        code, wall, error = run_job(cli, job, out)
        rec = {"job": job, "code": code, "wall": wall, "error": error, "path": out}
        if tracer is not None:
            rec["calls"] = (before[0], list(tracer.calls))
            rec["self_total"] = sum(tracer.self_s) - before[1]
        records.append(rec)
    cals.append(calibrate())
    if tracer is not None:
        tracer.job_id = -1
    for k, r in enumerate(records):
        r["ref"] = r["wall"] * 2.0 * CAL_REF_S / (cals[k] + cals[k + 1])
    wall = sum(r["wall"] for r in records)
    ref = sum(r["ref"] for r in records)
    return {"records": records, "wall": wall, "ref": ref, "scale": ref / wall}


def read_outputs(passes) -> None:
    for p in passes:
        for rec in p["records"]:
            path = rec["path"]
            rec["text"] = (path.read_text(encoding="utf-8") if path.exists() else rec["error"])
            if path.exists():
                path.unlink()


def check_passes(wl, passes, schemas):
    """Outcome per record; identical outputs of one job are checked once."""
    first = {}
    outcomes = {}
    for p in passes:
        for rec in p["records"]:
            name = rec["job"].name
            key = (rec["code"], rec["text"])
            if name not in first:
                first[name] = key
                outcomes[name] = workloads.check_job(rec["job"], rec["code"], rec["text"],
                                                     schemas)
                rec["outcome"] = outcomes[name]
            elif key == first[name]:
                rec["outcome"] = outcomes[name]
            else:
                rec["outcome"] = workloads.Outcome(
                    ok=False, kind="determinism", error="output differs between passes")
    reports = {name: key[1] for name, key in first.items()}
    for name, message in workloads.check_groups(wl.jobs, reports, outcomes):
        out = outcomes[name]
        out.ok, out.kind, out.error = False, "cross-check", message
    return outcomes


def tail(walls):
    """Wall time with TAIL_BEYOND jobs beyond it, and its percentile."""
    xs = sorted(walls)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} jobs are too few for a tail with {TAIL_BEYOND} beyond it")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(passes, outcomes, jobs):
    recs = [r for p in passes for r in p["records"]]
    ok = [r for r in recs if r["outcome"].ok]
    walls = [r["ref"] if r["outcome"].ok else INF for r in recs]
    tail_value, tail_pct, tail_n = tail(walls)
    route, truth, seeded_route, seeded_truth = [], [], [], []
    for job in jobs:
        out = outcomes[job.name]
        if not out.ok:
            continue
        (seeded_route if job.seeded_fixture else route).extend(out.route)
        (seeded_truth if job.seeded_fixture else truth).extend(out.truth)
    failed = {}
    for r in recs:
        out = r["outcome"]
        if not out.ok:
            entry = failed.setdefault(r["job"].name, {
                "job": r["job"].name, "kind": out.kind, "error": out.error,
                "known_defect": out.known_defect, "count": 0})
            entry["count"] += 1
    return {
        "attempted": len(recs),
        "failed": len(recs) - len(ok),
        "unexpected": sum(e["count"] for e in failed.values() if not e["known_defect"]),
        "failed_jobs": sorted(failed.values(), key=lambda e: e["job"]),
        "goodput_jobs_per_s": len(ok) / sum(p["ref"] for p in passes),
        # a median or tail made of failed jobs is reported as 1e6 s, not inf
        "job_p50_s": min(statistics.median(walls), 1e6),
        "job_tail_s": min(tail_value, 1e6),
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "ok_frac": len(ok) / len(recs),
        "failed_frac": (len(recs) - len(ok)) / len(recs),
        "route_margin_decades": workloads.margin_decades(route),
        "truth_margin_decades": workloads.margin_decades(truth),
        "seeded_route_margin_decades": workloads.margin_decades(seeded_route),
        "seeded_truth_margin_decades": workloads.margin_decades(seeded_truth),
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_scales": [p["scale"] for p in passes],
        "raw_job_p50_s": statistics.median(
            r["wall"] if r["outcome"].ok else INF for r in recs),
    }


# ------------------------------ traced run ---------------------------------

def duplicate_work(tracer, records):
    """Known duplicate work as exact per-job counts, on jobs that exited 0
    (a rejected job stops its positive-definiteness scan early)."""
    def per_job(command, *names):
        fids = [tracer.names.index(name) for name in names]
        out = []
        for r in records:
            if r["job"].command == command and r["outcome"].ok and r["code"] == 0:
                before, after = r["calls"]
                out.append((sum(after[f] - before[f] for f in fids), r["job"].n))
        return out

    counts = {
        "measures.pd_factorisations_per_m2v_job_minus_n": [
            c - n for c, n in per_job("moments-to-verblunsky", "measures.is_nontrivial",
                                      "measures.require_nontrivial")],
        "polynomials.orthonormal_polys_per_zeros_job": [
            c for c, _ in per_job("zeros", "polynomials.orthonormal_polys")],
        "zeros.zero_slice_per_zeros_job_over_n": [
            c / n for c, n in per_job("zeros", "zeros.zero_slice")],
        "matrix_opuc.route_a_runs_per_baxter_job": [
            c for c, _ in per_job("baxter", "matrix_opuc.alphas_from_moments")],
    }
    return {k: {"value": max(v) if v else 0, "distinct": sorted(set(v)), "jobs": len(v)}
            for k, v in counts.items()}


def baseline_table(tracer, records):
    """ROADMAP's baseline ladder: per-call time of each route at each size,
    with the accuracy the benchmark measured for jobs of that size."""
    acc = {}
    for r in records:
        out, job = r["outcome"], r["job"]
        if out.ok and not job.seeded_fixture:
            for kind in ("route", "truth"):
                pairs = getattr(out, kind)
                if pairs:
                    key = (job.command, job.n, kind)
                    acc[key] = max([acc.get(key, 0.0)] + [p[0] for p in pairs])
    rows = []
    ladder = (
        ("route A (alphas_from_moments)", "matrix_opuc.alphas_from_moments",
         (12, 25, 40, 50, 100, 200),
         lambda n: acc.get(("moments-to-verblunsky", n, "truth"),
                           acc.get(("baxter", n, "truth"))), "closed-form error"),
        ("route B (orthonormal_polys)", "polynomials.orthonormal_polys", (12, 25, 40),
         lambda n: acc.get(("moments-to-verblunsky", n, "route")), "route residual"),
        ("forward map (moments_from_verblunsky_q)", "polynomials.moments_from_verblunsky_q",
         (20, 40, 80), lambda n: acc.get(("verblunsky-to-moments", n, "truth")),
         "closed-form error"),
    )
    for label, name, sizes, accuracy, acc_kind in ladder:
        for n in sizes:
            durs = tracer.inclusive.get((name, n))
            if durs:
                rows.append({"layer": label, "n": n, "calls": len(durs),
                             "median_call_s": statistics.median(durs),
                             "accuracy": accuracy(n), "accuracy_kind": acc_kind})
    return rows


def per_layer(tracer, records, dup, overhead_frac):
    scope = tracer.scope_self
    calls = dict(zip(tracer.names, tracer.calls))
    m = {}

    def scoped(key, n=None):
        return scope.get(key if n is None else (key, n), 0.0)

    m["polynomials.orthonormal_polys_s"] = scoped("polynomials.orthonormal_polys")
    for n in (12, 25, 40):
        m[f"polynomials.orthonormal_polys_s.n{n}"] = scoped("polynomials.orthonormal_polys", n)
    m["polynomials.orthonormal_polys_calls"] = calls["polynomials.orthonormal_polys"]
    m["measures.is_nontrivial_calls"] = calls["measures.is_nontrivial"]
    m["measures.require_nontrivial_calls"] = calls["measures.require_nontrivial"]
    m["measures.pd_check_s"] = scoped("measures.pd_check")
    m["matrix_opuc.alphas_from_moments_s"] = scoped("matrix_opuc.alphas_from_moments")
    for n in (12, 25, 40, 50, 100, 200):
        m[f"matrix_opuc.alphas_from_moments_s.n{n}"] = scoped(
            "matrix_opuc.alphas_from_moments", n)
    m["matrix_opuc.schur_step_calls"] = calls["matrix_opuc.schur_step"]
    m["series.series_inv_s"] = scoped("series.series_inv")
    m["series.series_inv_calls"] = calls["series.series_inv"]
    m["series.cayley_s"] = scoped("series.cayley")
    m["matrix_opuc.moments_from_alphas_s"] = scoped("matrix_opuc.moments_from_alphas")
    for k in (20, 40, 80):
        m[f"matrix_opuc.moments_from_alphas_s.k{k}"] = scoped(
            "matrix_opuc.moments_from_alphas", k)
    m["polynomials.moments_from_verblunsky_q_s"] = scoped(
        "polynomials.moments_from_verblunsky_q")
    m["zeros.roots_s"] = scoped("zeros.roots")
    m["zeros.roots_calls"] = calls["zeros.roots"]
    m["zeros.zero_slice_s"] = scoped("zeros.zero_slice")
    m["zeros.zero_slice_calls"] = calls["zeros.zero_slice"]
    m["quaternions.right_eigen_slice_s"] = scoped("quaternions.right_eigen_slice")
    m["polynomials.eval_s"] = scoped("polynomials.eval")
    m["polynomials.eval_calls"] = calls["polynomials.eval_L"] + calls["polynomials.eval_R"]
    m["analysis.cd_identity_check_s"] = scoped("analysis.cd_identity_check")
    m["cli.emit_s"] = scoped("cli.emit")
    m["cli.load_s"] = scoped("cli.load")
    m["cli.main_s"] = scoped("cli.main")
    for name in ("analysis.szego_entropy", "analysis.sv_check", "analysis.baxter_check",
                 "measures.density_grid", "measures.moments_from_density"):
        m[f"{name}_s"] = scoped(name)
    m["quaternions.chi_calls"] = calls["quaternions.chi"]
    m["quaternions.chi_inv_calls"] = calls["quaternions.chi_inv"]
    residuals = {}
    for r in records:
        job = r["job"]
        if job.command == "moments-to-verblunsky" and r["outcome"].ok and r["code"] == 0:
            res = r["outcome"].route[0][0]
            residuals[job.n] = max(residuals.get(job.n, 0.0), res)
    for n in (12, 25, 40):
        m[f"polynomials.route_residual.n{n}"] = residuals.get(n, 0.0)
    for layer, s in tracer.layer_self().items():
        m[f"{layer}.self_s"] = s
    for name, entry in dup.items():
        m[name] = entry["value"]
    m["trace_overhead_frac"] = overhead_frac
    top = sorted(zip(tracer.names, tracer.self_s), key=lambda kv: -kv[1])[:12]
    return m, top


def tracer_self_check(tracer, traced, untraced_walls, overhead_frac, job_name):
    """On one short job: the self times of all its spans, recomputed from the
    stored spans, must sum to the job's traced wall time within the tracing
    overhead measured for it, and must equal the self time accumulated online."""
    k, rec = next((k, r) for k, r in enumerate(traced["records"])
                  if r["job"].name == job_name)
    recomputed, roots = tracer.job_self_times(k)
    untraced = min(untraced_walls)
    allowed = max(rec["wall"] - untraced, overhead_frac * untraced)
    gap = rec["wall"] - recomputed
    online = rec["self_total"]
    ok = (0.0 <= gap <= allowed and abs(recomputed - roots) <= 1e-9 * max(roots, 1e-9) + 1e-12
          and abs(recomputed - online) <= 1e-9 * max(online, 1e-9) + 1e-12)
    return {"job": job_name, "ok": ok, "traced_wall_s": rec["wall"],
            "untraced_wall_s": untraced, "self_sum_s": recomputed, "online_self_sum_s": online,
            "gap_s": gap, "allowed_gap_s": allowed,
            "spans": sum(1 for j in tracer.job if j == k)}


# ------------------------------ environment --------------------------------

def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads}


# ------------------------------ main ---------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="working directory inside the checkout")
    ap.add_argument("--result", help="path of the JSON result file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    qopuc = importlib.import_module("qopuc")
    if Path(qopuc.__file__).resolve().parent != (src / "qopuc").resolve():
        raise SystemExit(f"qopuc imported from {qopuc.__file__}, not from {src}")
    for name in ("cli", "fixtures", "polynomials"):
        importlib.import_module(f"qopuc.{name}")
    cli = qopuc.cli
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](qopuc, ROOT / "fixtures", work, args.seed)
    for warm in wl.warmups:
        cli.main(warm + ["--out", str(work / "warmup.out")])
    print("READY", flush=True)
    print(f"CAL {statistics.median(calibrate() for _ in range(SETUP_CALS))!r}", flush=True)
    if args.setup_only:
        return 0

    schemas = workloads.load_schemas(src / "qopuc" / "schemas")
    rng = random.Random(f"order-{args.seed}")
    n_passes = 1 if args.trace else max(1, int(args.seconds // wl.pass_s))
    passes = []
    for k in range(n_passes):
        order = list(wl.jobs)
        rng.shuffle(order)
        passes.append(run_pass(cli, order, work / f"pass{k}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    read_outputs(passes)
    outcomes = check_passes(wl, passes, schemas)
    result = {"workload": wl.name, "env": environment(args.seed), "fixtures": wl.fixtures,
              "jobs_per_pass": len(wl.jobs), **end_to_end(passes, outcomes, wl.jobs),
              "peak_rss_mb": peak_rss_mb}
    correct = result["unexpected"] == 0

    if args.trace:
        tracer = Tracer()
        tracer.install(qopuc)
        try:
            traced = run_pass(cli, order, work / "traced", tracer=tracer)
        finally:
            tracer.uninstall()
        read_outputs([traced])
        same = all(a["code"] == b["code"] and a["text"] == b["text"]
                   for a, b in zip(passes[-1]["records"], traced["records"]))
        for rec in traced["records"]:
            rec["outcome"] = outcomes[rec["job"].name]
        overhead = traced["ref"] / passes[-1]["ref"] - 1.0
        probe = next(j for j in wl.jobs if j.name == wl.self_check_job)
        untraced = [r["wall"] for r in passes[-1]["records"] if r["job"] is probe]
        for _ in range(SELF_CHECK_REPEATS):
            untraced.append(run_job(cli, probe, work / "selfcheck.out")[1])
        self_check = tracer_self_check(tracer, traced, untraced, max(overhead, 0.0),
                                       wl.self_check_job)
        dup = duplicate_work(tracer, traced["records"])
        layer_metrics, top = per_layer(tracer, traced["records"], dup, overhead)
        total_self = sum(tracer.self_s)
        trace_path = ROOT / ".perfbench_out" / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.save(trace_path, [r["job"].name for r in traced["records"]])
        result.update({
            "per_layer": layer_metrics,
            "traced_outputs_identical": same,
            "tracer_self_check": self_check,
            "top_self_time": [[name, s, s / total_self if total_self else 0.0]
                              for name, s in top],
            "layer_self_share": {layer: s / total_self if total_self else 0.0
                                 for layer, s in tracer.layer_self().items()},
            "duplicate_work": dup,
            "baseline_table": baseline_table(tracer, traced["records"]),
            "spans": len(tracer.fid),
            "trace_file": str(trace_path.relative_to(ROOT)),
        })
        correct = correct and same and self_check["ok"]
    result["correct"] = correct
    Path(args.result).write_text(json.dumps(result, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
