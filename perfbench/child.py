"""One workload instance in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --out DIR \
        --spawned-at T [--trace] [--smoke]

Times set-up (import, parse, grid, spectral cache, initial state,
resolved diagnostics), the solve through the workload's public entry
point, and resumes from the middle sample (the median of
RESUME_REPEATS, as one resume is short and noisy); checks every output; prints
one JSON object as its last line.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so set-up includes interpreter start-up.

The module-level code imports only the standard library (and the
stdlib-only tracer module) and does nothing else: spawn workers of the eps sweep import this file again as
``__mp_main__``, and the ``__main__`` guard keeps them from re-running it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESUME_REPEATS = 3


def _import_program():
    """Import chemostokes from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import chemostokes
    where = os.path.dirname(os.path.abspath(chemostokes.__file__))
    if where != os.path.join(SRC, "chemostokes"):
        raise ImportError(f"chemostokes imported from {where}, not {SRC}")
    return chemostokes


def _usage() -> dict:
    """Peak RSS (MiB) and CPU seconds of this process and its reaped
    children (the sweep's spawn workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,
            "cpu_s": own.ru_utime + own.ru_stime
            + kids.ru_utime + kids.ru_stime}


def _setup(cs, workload, config):
    """The public set-up calls, each timed; returns (parsed, timings)."""
    if workload == "eps-sweep":
        from chemostokes.sweep import parse_sweep
        t0 = time.perf_counter()
        spec = parse_sweep(config)
        return spec, {"parse_s": time.perf_counter() - t0,
                      "cache_build_s": 0.0}
    from chemostokes.diagnostics import resolve_diagnostics
    t0 = time.perf_counter()
    cfg = cs.parse_config(config)
    t1 = time.perf_counter()
    grid = cs.Grid(cfg.grid_cells, cfg.grid_extent)
    t2 = time.perf_counter()
    cache = cs.SpectralCache(grid)
    t3 = time.perf_counter()
    state = cs.init_state(grid, cfg.model, cfg.ic, seed=cfg.seed, cache=cache)
    resolve_diagnostics(cfg.diagnostics, cfg.model, grid, state.n, state.c)
    return cfg, {"parse_s": t1 - t0, "cache_build_s": t3 - t2}


def _region(tracer, name):
    """A root span of the benchmark's own code (nothing when untraced)."""
    return tracer.region(name) if tracer else nullcontext()


def _checking(tracer):
    """Output checks: the program calls they make are not traced."""
    return tracer.paused() if tracer else nullcontext()


def _run_single(wl, cfg, run, tracer):
    """Solve, check, then (if sound) resume from the middle sample."""
    t0 = time.perf_counter()
    with _region(tracer, "bench.solve"):
        result = run(cfg)
        with _checking(tracer):
            failures = wl.result_failures(result)
    solve_s = time.perf_counter() - t0
    readouts = wl.accuracy_readouts(result.records)
    if failures:
        return failures, solve_s, float("nan"), readouts, {}

    resume_failures, resume_s = _resume(wl, cfg, run, tracer)
    return failures + resume_failures, solve_s, resume_s, readouts, {}


def _resume(wl, cfg, run, tracer):
    """Cut the finished run back to its middle sample and resume it, a few
    times over (each resume rebuilds the same complete run directory);
    returns the failures and the median resume time."""
    with _checking(tracer):
        reference = wl.run_fingerprint(cfg.output_dir)
    failures, times = [], []
    for _ in range(RESUME_REPEATS):
        with _checking(tracer):
            wl.cut_to_middle(cfg.output_dir)
        t0 = time.perf_counter()
        with _region(tracer, "bench.resume"):
            resumed = run(cfg, resume=True)
            with _checking(tracer):
                failures += [f"resume:{f}"
                             for f in wl.result_failures(resumed)]
        times.append(time.perf_counter() - t0)
        with _checking(tracer):
            failures += wl.resume_failures(cfg.output_dir, reference)
    return failures, statistics.median(times)


def _run_sweep(wl, spec, out_dir, seed, run, tracer):
    """The eps sweep on min(2, nproc) spawn workers, checked; then its
    finest member is resumed from the middle sample."""
    from chemostokes.sweep import run_sweep
    workers = min(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    start = time.monotonic()
    with _region(tracer, "bench.solve"):
        summaries, _ = run_sweep(spec, out_dir, workers=workers, seed=seed)
        done = time.monotonic()
        with _checking(tracer):
            failures, records = wl.sweep_failures(summaries)
    solve_s = time.perf_counter() - t0
    readouts = {}
    if records:
        per_member = [wl.accuracy_readouts(r) for r in records]
        readouts = {k: max(r[k] for r in per_member) for k in per_member[0]}
    sweep_info = {}
    if tracer:
        members = [s.pop("bench_member") for s in summaries]
        member_s = sum(m["end"] - m["start"] for m in members)
        sweep_info = {
            "member_s": member_s,
            "makespan_efficiency": member_s / (workers * (done - start)),
            "post_s": done - max(m["end"] for m in members),
            "members_complete": sum(s["status"] == "complete"
                                    for s in summaries),
            "member_traces": [m["trace"] for m in members if m["trace"]]}
    if failures:
        return failures, solve_s, float("nan"), readouts, sweep_info

    with _checking(tracer):
        cfg = wl.member_config(summaries[-1]["run_dir"])
    failures, resume_s = _resume(wl, cfg, run, tracer)
    return failures, solve_s, resume_s, readouts, sweep_info


def measure(cs, wl, workload, parsed, out, seed, run, tracer=None):
    """(failures, solve_s, resume_s, readouts, sweep_info) of one instance.

    ``tracer`` is None for an untraced instance.  A ChemoStokesError is the
    program refusing or failing: the instance counts as failed, it is not a
    crash of the benchmark.
    """
    try:
        if workload == "eps-sweep":
            return _run_sweep(wl, parsed, os.path.join(out, "sweep"), seed,
                              run, tracer)
        return _run_single(wl, parsed, run, tracer)
    except cs.ChemoStokesError as exc:
        return ([f"{type(exc).__name__}: {exc}"], float("nan"), float("nan"),
                {}, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    cs = _import_program()
    import_s = time.perf_counter() - t0
    import numpy
    import scipy
    import workloads as wl
    config = wl.make_config(args.workload, args.seed,
                            os.path.join(args.out, "run"), args.smoke)
    parsed, timings = _setup(cs, args.workload, config)
    setup_s = time.monotonic() - args.spawned_at

    tracer, run = None, cs.run
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("solver.run", cs.run)
    try:
        failures, solve_s, resume_s, readouts, sweep_info = measure(
            cs, wl, args.workload, parsed, args.out, args.seed, run, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {"failures": failures, "setup_s": setup_s,
              "time_to_solution_s": solve_s, "resume_s": resume_s,
              "import_s": import_s, **timings, **readouts, **_usage(),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "chemostokes": cs.__version__}}
    if tracer is not None:
        own = tracer.summary()
        parts = [own] + sweep_info.pop("member_traces", [])
        report["trace"] = {"summary": tracing.merge(parts),
                           "coverage": own["covered_s"] / own["root_s"],
                           "sweep": sweep_info}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
