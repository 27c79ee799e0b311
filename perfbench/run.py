"""chemostokes benchmark: time to t_final on reference workloads.

    python3 perfbench/run.py --workload plume-256 --seed 1 --seconds 20 \
        --trace 0

A closed loop with one client: each workload instance runs in a fresh
interpreter (perfbench/child.py), started only after the previous one has
ended, until --seconds have been spent.  Every metric is the median over
those instances.  With --trace 0 the end-to-end metrics of BENCHMARK.json
are reported; with --trace 1 untraced and traced instances alternate, and
the per-layer metrics come from the traced ones.

Human-readable lines (each metric with its unit, sample count and
quartiles, and a provenance record) precede the last line, which is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1, with no result printed, when an instance cannot run at all, e.g.
because the program's sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "SCIPY_FFT_WORKERS")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402
from tracer import LIMITS  # noqa: E402


class HarnessError(RuntimeError):
    """An instance could not run at all; no result may be reported."""


def run_child(workload, seed, trace, smoke, out) -> dict:
    """One instance in a fresh interpreter and its own process group; waits
    until every process of the group (sweep workers too) has ended."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out,
           "--spawned-at", repr(time.monotonic())]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{workload} instance exceeded {CHILD_TIMEOUT_S}s")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise HarnessError(f"{workload} instance exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _reap_group(pgid: int, grace_s: float = 10.0):
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.01)


def _remove(path):
    """Delete an instance's outputs and flush the file system before the
    next instance starts.  Deleted files whose blocks were allocated (the
    manifest is replaced by rename, which allocates them) otherwise leave
    block discards and journal work that stall the next instance's file
    operations (on ext4 mounted with ``discard``, later instances of a run
    slowed by up to 70%)."""
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def measure(workload, seed, seconds, trace, smoke) -> list:
    """Instances until the next one would overrun --seconds (at least one;
    with tracing, at least one untraced and one traced)."""
    compileall.compile_dir(os.path.join(ROOT, "src", "chemostokes"),
                           quiet=1)
    run_dir = os.path.join(WORK, f"{os.getpid()}")
    _remove(run_dir)
    reports, walls = [], []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(reports) % 2 == 1
            out = os.path.join(run_dir, str(len(reports)))
            t0 = time.monotonic()
            report = run_child(workload, seed, traced, smoke, out)
            walls.append(time.monotonic() - t0)
            report["traced"] = traced
            reports.append(report)
            _remove(out)
            elapsed = time.monotonic() - start
            enough = len(reports) >= (2 if trace else 1)
            if enough and elapsed + statistics.median(walls) > seconds:
                return reports
    finally:
        _remove(run_dir)


# ------------------------------------------------------------
# reduction
# ------------------------------------------------------------

def _stats(values):
    values = [v for v in values if math.isfinite(v)]
    if not values:
        return float("nan"), 0, (float("nan"), float("nan"))
    quart = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return statistics.median(values), len(values), (quart[0], quart[2])


def end_to_end(reports) -> dict:
    """Per metric: median, sample count and quartiles over the instances."""
    out = {}
    for name in ("time_to_solution_s", "resume_s", "setup_s", "peak_rss_mb",
                 "cpu_s"):
        out[name] = _stats([r[name] for r in reports])
    return out


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(report, untraced_wall) -> dict:
    """The per-layer metrics of one traced instance."""
    trace = report["trace"]
    summ, sweep = trace["summary"], trace["sweep"]
    calls, self_s = summ["calls"], summ["self_s"]
    steps = calls.get("solver.step", 0)
    chosen = max(calls.get("solver.choose_dt", 0), 1)
    m = {"solver.steps": steps}
    for limit in LIMITS:
        m[f"solver.dt_limit.{limit}_share"] = \
            summ["limits"].get(limit, 0) / chosen
    step_ms = [1e3 * d for d in summ["durations"].get("solver.step", [])]
    m["solver.step.ms_p50"] = _percentile(step_ms, 0.5)
    m["solver.step.ms_p99"] = _percentile(step_ms, 0.99)
    for name in ("step_u", "step_c", "step_n", "choose_dt", "run"):
        m[f"solver.{name}.self_s"] = self_s.get(f"solver.{name}", 0.0)
    m["solver.stability_rates.calls"] = calls.get("solver.stability_rates", 0)
    m["solver.stability_rates.self_s"] = \
        self_s.get("solver.stability_rates", 0.0)

    m["spectral.cache_build_s"] = report["cache_build_s"]
    for name in ("solve_neumann_poisson", "solve_face_helmholtz",
                 "solve_cell_helmholtz", "transform"):
        m[f"spectral.{name}.calls"] = calls.get(f"spectral.{name}", 0)
        m[f"spectral.{name}.self_s"] = self_s.get(f"spectral.{name}", 0.0)
    m["spectral.transform.bytes_computed"] = summ["bytes"].get("transform", 0)
    m["spectral.residual.self_s"] = self_s.get("spectral.residual", 0.0)

    for name in ("divergence", "face_diff", "face_avg", "face_upwind",
                 "full_faces"):
        m[f"grid.{name}.calls"] = calls.get(f"grid.{name}", 0)
        m[f"grid.{name}.self_s"] = self_s.get(f"grid.{name}", 0.0)
    for name in ("d_eps", "chi_eps", "f_eps"):
        m[f"regularization.{name}.calls"] = calls.get(
            f"regularization.{name}", 0)
        m[f"regularization.{name}.self_s"] = self_s.get(
            f"regularization.{name}", 0.0)

    m["diagnostics.evaluate.calls"] = calls.get("diagnostics.evaluate", 0)
    for name in ("evaluate", "tallies", "checks", "csv"):
        m[f"diagnostics.{name}.self_s"] = self_s.get(f"diagnostics.{name}",
                                                     0.0)
    m["diagnostics.c_mass_identity_dev"] = report.get("c_mass_identity_dev",
                                                      float("nan"))
    m["diagnostics.mass_drift_rel"] = report.get("mass_drift_rel",
                                                 float("nan"))

    manifest_ms = [1e3 * d for d in
                   summ["durations"].get("snapshots.write_manifest", [])]
    m["snapshots.write_manifest.calls"] = calls.get(
        "snapshots.write_manifest", 0)
    m["snapshots.write_manifest.self_s"] = self_s.get(
        "snapshots.write_manifest", 0.0)
    m["snapshots.write_manifest.ms_p50"] = _percentile(manifest_ms, 0.5)
    m["snapshots.write_manifest.ms_p99"] = _percentile(manifest_ms, 0.99)
    m["snapshots.manifest_bytes"] = summ["bytes"].get("manifest", 0)
    m["snapshots.write_field.self_s"] = self_s.get("snapshots.write_field",
                                                   0.0)
    m["snapshots.bytes_written"] = summ["bytes"].get("field", 0)
    m["snapshots.read.self_s"] = self_s.get("snapshots.read", 0.0)

    for name in ("member_s", "makespan_efficiency", "post_s",
                 "members_complete"):
        m[f"sweep.{name}"] = sweep.get(name, 0)

    m["config.parse_s"] = report["parse_s"]
    m["process.import_s"] = report["import_s"]
    m["process.cpu_s"] = report["cpu_s"]

    wall = report["time_to_solution_s"] + report["resume_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.coverage"] = trace["coverage"]
    m["trace.spans"] = summ["spans"]
    return m


def provenance(workload, seed, reports) -> dict:
    """Machine, versions, program source and the run's CPU-versus-wall."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass

    def cache(level):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{level}/size"
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "chemostokes",
                                              "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu_model": model, "l2": cache(2), "l3": cache(3),
        **reports[0]["versions"], "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "instances": [{k: r[k] for k in ("traced", "setup_s",
                                         "time_to_solution_s", "resume_s",
                                         "cpu_s")} for r in reports],
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    try:
        reports = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = [r for r in reports if r["failures"]]
    for r in failed:
        print(f"FAILED instance: {', '.join(r['failures'])}")
    untraced = [r for r in reports if not r["traced"]]
    e2e = end_to_end(untraced)
    units = {d["name"]: d["unit"] for d in declared["end_to_end"]}
    print(f"failed_share {len(failed) / len(reports):.4g} ratio "
          f"(n={len(reports)})")
    for name, (median, count, (q1, q3)) in e2e.items():
        print(f"{name} {median:.6g} {units.get(name, 's')} "
              f"(median of n={count}; q1={q1:.6g}, q3={q3:.6g})")

    if args.trace:
        wall = statistics.median(r["time_to_solution_s"] + r["resume_s"]
                                 for r in untraced)
        per = [layer_metrics(r, wall) for r in reports if r["traced"]]
        values = {k: statistics.median(p[k] for p in per) for k in per[0]}
        print(f"per-layer medians over {len(per)} traced instances; "
              f"untraced wall {wall:.6g} s")
        declared_metrics = declared["per_layer"]
    else:
        values = {name: stats[0] for name, stats in e2e.items()}
        declared_metrics = declared["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared_metrics}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed,
                                                reports)))
    print(json.dumps({"correct": not failed, "attempted": len(reports),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
