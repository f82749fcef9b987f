"""qopuc benchmark: three CLI job workloads, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dual_route --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen): ``dual_route``,
``long_horizon`` and ``zeros_cd``.  Each run starts fresh worker processes
(``worker.py``): ``SETUP_REPEATS - 1`` that only set up, then one that sets
up and measures.  ``setup_s`` is the median of the five setup times.
Times are in reference seconds: wall seconds scaled by a calibration kernel
timed in the same process (see ``worker.calibrate``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines above it
print every metric with its unit, the failed jobs, the environment, and in
traced runs the baseline ladder, duplicate-work counts and the tracer
self-check.  Spans of traced runs are written to ``.perfbench_out/``.

The benchmark reads and writes only inside the checkout and exits non-zero
without a result when the checkout holds no qopuc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_S  # sibling module

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_metrics() -> dict:
    """The metric lists of BENCHMARK.json: name -> unit, by kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict:
    """One BLAS/OpenMP thread per process: a single client runs one job at a
    time, and one thread stays within nproc on any machine."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, work: Path, result: Path | None, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    cmd += ["--setup-only"] if setup_only else ["--result", str(result)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready (printed {line!r})")
        cal = proc.stdout.readline().split()
        if len(cal) != 2 or cal[0] != "CAL":
            raise RuntimeError(f"worker printed no calibration ({cal!r})")
        rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        if rest.strip():
            sys.stderr.write(rest)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup_s, setup_s * CAL_REF_S / float(cal[1])


def setup_value(setups) -> float:
    return statistics.median(s[1] for s in setups)


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(args, res: dict, setups: list, declared: dict) -> None:
    env = res["env"]
    print(f"# qopuc benchmark  workload={res['workload']}  seed={env['seed']}  "
          f"trace={args.trace}  seconds={args.seconds}")
    print(f"# env: nproc={env['nproc']} affinity={env['affinity_cpus']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"threads={json.dumps(env['blas_threads'])}")
    print(f"# seeded fixtures: {json.dumps(res['fixtures'])}")
    print(f"# {res['passes']} pass(es) of {res['jobs_per_pass']} jobs, closed loop, one "
          f"client; busy wall per pass {[round(w, 3) for w in res['pass_walls_s']]} s; "
          f"reference/wall per pass {[round(s, 3) for s in res['pass_scales']]}")
    print(f"# setups: wall {[round(s[0], 3) for s in setups]} s, reference "
          f"{[round(s[1], 3) for s in setups]} s; raw job p50 {fmt(res['raw_job_p50_s'])} s")
    print("# end-to-end (untraced; times in reference seconds, see README.md):")
    rows = [(name, res[name] if name != "setup_s" else setup_value(setups), unit)
            for name, unit in declared["end_to_end"].items()]
    rows.insert(5, ("failed_frac", res["failed_frac"], "frac"))
    for name, value, unit in rows:
        print(f"  {name:<28} {fmt(value):>14} {unit}")
    print(f"  job_tail_s is p{res['tail_percentile']:.2f} of {res['tail_samples']} jobs "
          f"(10 beyond it)")
    print(f"  seeded-fixture margins (not in the metrics): route "
          f"{fmt(res['seeded_route_margin_decades'])}, truth "
          f"{fmt(res['seeded_truth_margin_decades'])} decades")
    print(f"# failed jobs: {res['failed']} of {res['attempted']} "
          f"({res['unexpected']} unexpected)")
    for f in res["failed_jobs"]:
        label = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  {f['job']} x{f['count']}: {f['kind']} {f['error'][:120]} [{label}]")
    if args.trace:
        print_traced(res, declared["per_layer"])


def print_traced(res: dict, units: dict) -> None:
    print(f"# traced pass: {res['spans']} spans written to {res['trace_file']}; "
          f"outputs identical to the untraced pass: {res['traced_outputs_identical']}")
    sc = res["tracer_self_check"]
    print(f"# tracer self-check on '{sc['job']}': self-time sum {fmt(sc['self_sum_s'])} s over "
          f"{sc['spans']} spans vs traced wall {fmt(sc['traced_wall_s'])} s; gap "
          f"{fmt(sc['gap_s'])} s within overhead {fmt(sc['allowed_gap_s'])} s: "
          f"{'ok' if sc['ok'] else 'FAILED'}")
    print("# self time by layer (share of all traced self time):")
    for layer, share in sorted(res["layer_self_share"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {100 * share:6.2f} %")
    print("# top functions by self time:")
    for name, s, share in res["top_self_time"]:
        print(f"  {name:<44} {fmt(s):>12} s {100 * share:6.2f} %")
    print("# duplicate work, exact per-job counts (accept-path jobs):")
    for name, entry in res["duplicate_work"].items():
        print(f"  {name:<50} {fmt(entry['value'])} (distinct {entry['distinct']}, "
              f"{entry['jobs']} jobs)")
    print("# baseline ladder (median inclusive time per call, traced):")
    for row in res["baseline_table"]:
        acc = "n/a" if row["accuracy"] is None else f"{row['accuracy']:.3e}"
        print(f"  {row['layer']:<42} n={row['n']:<4} {row['median_call_s']:.4g} s "
              f"x{row['calls']:<3} {row['accuracy_kind']} {acc}")
    print("# per-layer:")
    for name, value in res["per_layer"].items():
        print(f"  {name:<52} {fmt(value):>14} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qopuc benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("dual_route", "long_horizon", "zeros_cd"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qopuc" / "cli.py").is_file():
        print(f"error: no qopuc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    result_path = work / "result.json"
    try:
        setups = [start_worker(args, work / f"setup{k}", None, True)
                  for k in range(SETUP_REPEATS - 1)]
        setups.append(start_worker(args, work / "run", result_path, False))
        res = json.loads(result_path.read_text(encoding="utf-8"))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    declared = declared_metrics()
    print_report(args, res, setups, declared)
    values = dict(res["per_layer"]) if args.trace else {**res, "setup_s": setup_value(setups)}
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [name for name in declared[kind] if values.get(name) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared[kind].items()}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
