"""The benchmark still fits the package it measures.

perfbench/tracer.py wraps each function where its caller looks the name
up (``solver.full_faces``, ``spectral.dctn``, ...), and two of its hooks
read what ``stability_rates`` returns and which argument of ``choose_dt``
is dt_max.  The workloads call the package's API (``init_state``'s
keywords, ``RunResult``'s fields, ``load_snapshot``'s arguments, ...).  A
rename, deletion or signature change in the package would only surface
when the benchmark runs; these tests, perfbench/selftest.py among them,
surface it in the test suite instead.  The tracer is loaded by path (it
imports only the standard library).
"""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

from chemostokes import solver
from chemostokes.config import parse_config
from chemostokes.solver import CFL, run, stability_rates

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracer = _load_tracer()
    missing = []
    for target, attr, span in tracer.PATCHES:
        owner = tracer._resolve(target)
        # install() reads a class attribute from the class __dict__
        names = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if not callable(names.get(attr)):
            missing.append(f"chemostokes.{target}.{attr} ({span})")
    if not callable(getattr(tracer._resolve("sweep"), "run_one", None)):
        missing.append("chemostokes.sweep.run_one")
    assert not missing, missing


def test_dt_limit_hook_sees_dt_max_bind():
    tracer_module = _load_tracer()
    # 12^2 with dt_max = 1e-4: every limit lies far above dt_max
    cfg = parse_config({
        "grid": {"cells": [12, 12], "extent": [1.0, 1.0]},
        "model": {"m": 1.2, "k_D": 1.0, "eps": 0.2},
        "phi": {"gradient": [0.0, -1.0]},
        "time": {"t_final": 1e-3, "dt_max": 1e-4},
        "ic": {"n0": {"preset": "gaussian", "amplitude": 1.0, "width": 0.2,
                      "floor": 0.2},
               "c0": {"preset": "constant", "value": 1.0},
               "u0": {"preset": "vortex", "amplitude": 0.1}}})
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = run(cfg)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["solver.step"] == result.steps_taken == 10
    assert dict(tracer.limits) == {"dt_max": calls["solver.step"]}
    rates = tracer._last_rates
    assert isinstance(rates, tuple) and len(rates) == 3
    assert all(type(r) is float for r in rates)


def test_tracer_sees_every_density_update(monkeypatch):
    """step() runs k n-updates on terms it hoists once; the tracer still
    records one solver.step_n span per update, so the span count is the
    sum of k over the steps (k counted here from the stability rates of
    the state the first update starts from)."""
    tracer_module = _load_tracer()
    # 24^2 with dt_max = 1e-3: the diffusive rate asks for k of about 4
    cfg = parse_config({
        "grid": {"cells": [24, 24], "extent": [1.0, 1.0]},
        "model": {"m": 1.2, "k_D": 1.0, "eps": 0.2},
        "phi": {"gradient": [0.0, -1.0]},
        "time": {"t_final": 5e-3, "dt_max": 1e-3},
        "ic": {"n0": {"preset": "gaussian", "amplitude": 1.0, "width": 0.2,
                      "floor": 0.2},
               "c0": {"preset": "gaussian", "amplitude": 1.0, "width": 0.3},
               "u0": {"preset": "vortex", "amplitude": 0.1}}})
    steps = []
    real_step, real_step_n = solver.step, solver.step_n

    def step(grid, cache, state, model, dt):
        steps.append({"dt": dt, "k": None})
        return real_step(grid, cache, state, model, dt)

    def step_n(grid, state, model, dt, terms):
        if steps[-1]["k"] is None:
            ratio = steps[-1]["dt"] * sum(
                stability_rates(grid, state, model)) / CFL
            steps[-1]["k"] = math.ceil(ratio) if 1.0 < ratio < math.inf \
                else 1
        return real_step_n(grid, state, model, dt, terms)

    monkeypatch.setattr(solver, "step", step)
    monkeypatch.setattr(solver, "step_n", step_n)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = run(cfg)
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["solver.step"] == len(steps) == result.steps_taken == 5
    assert min(s["k"] for s in steps) >= 2
    assert calls["solver.step_n"] == sum(s["k"] for s in steps)


def test_benchmark_selftest_passes():
    """Every workload at tiny sizes, untraced and traced, through the calls
    the benchmark makes; the script's own checks are the assertions."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("selftest passed\n")
