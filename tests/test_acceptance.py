"""Acceptance battery: one test per primary criterion, named and ordered.

Each test prints one [acceptance] PASS line (visible with -s, and always
in the -v report as the per-test verdict) and asserts its runtime budget.
Shared long runs are module-scoped fixtures so criteria that analyze the
same trajectory reuse it instead of recomputing.
"""

import json
import os
import time

import numpy as np
import pytest

from chemostokes.cli import main as cli_main
from chemostokes.config import parse_config
from chemostokes.diagnostics import (check_c_l2_inequality, check_decay,
                                     check_energy_boundedness,
                                     check_entropy_floor)
from chemostokes.exponents import (gamma_of, pivot, psi, rho,
                                   run_linear_ladder, run_psi_ladder,
                                   threshold_certificate)
from chemostokes.grid import Grid
from chemostokes.regularization import d_eps, f_eps, run_property_suite
from chemostokes.solver import FieldState, choose_dt, run, step
from chemostokes.spectral import SpectralCache
from chemostokes.sweep import parse_sweep, run_sweep


def announce(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, \
        f"criterion {num} runtime {elapsed:.1f}s exceeds budget {budget}s"
    print(f"[acceptance] criterion {num} ({label}): "
          f"PASS in {elapsed:.1f}s (budget {budget}s)")


# ------------------------------------------------------------
# reference configurations
# ------------------------------------------------------------

def config4(out_dir=None, dt_max=2e-4):
    cfg = {
        "grid": {"cells": [64, 64], "extent": [4.0, 4.0]},
        "model": {"m": 1.2, "k_D": 1.0, "eps": 0.05},
        "phi": {"gradient": [0.0, -1.0]},
        "time": {"t_final": 2.0, "dt_max": dt_max, "sample_every": 0.05},
        "ic": {"n0": {"preset": "gaussian", "amplitude": 2.0, "width": 0.5},
               "c0": {"preset": "constant", "value": 1.0},
               "u0": {"preset": "zero"}},
    }
    if out_dir is not None:
        cfg["output"] = {"dir": out_dir}
    return cfg


def config6(t_final=20.0):
    cfg = config4()
    cfg["ic"]["n0"] = {"preset": "two_bumps", "amplitude": 1.0,
                       "width": 0.5, "mean": 1.0}
    cfg["time"] = {"t_final": t_final, "dt_max": 2.5e-4,
                   "sample_every": 0.25}
    return cfg


@pytest.fixture(scope="module")
def run4():
    t0 = time.perf_counter()
    result = run(parse_config(config4()))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run6():
    t0 = time.perf_counter()
    result = run(parse_config(config6()))
    return result, time.perf_counter() - t0


def assert_linearized_rates(result, t_lo, t_hi, tol):
    """The paper's second theorem by its rate.  Linearized about
    (n_bar, 0, 0), u.grad n and div(n grad c) are second order, so n's
    slowest Neumann mode decays at d_eps(n_bar) lam_h1, with
    lam_h1 = 4 sin^2(pi / 2N) / h^2, and c's flat mode at f_eps(n_bar).
    The log gaps fitted over [t_lo, t_hi] must match both within tol."""
    grid, model = result.grid, result.config.model
    n_bar = result.records[0].mass / grid.volume
    lam_h1 = min(4.0 * np.sin(np.pi / (2.0 * n)) ** 2 / (h * h)
                 for n, h in zip(grid.cells, grid.h))
    predicted_n = d_eps(n_bar, model.eps, model.m, model.k_d) * lam_h1
    predicted_c = f_eps(n_bar, model.eps)
    # the n gap is the slower one, or the fit would see the c mode
    assert predicted_n < predicted_c
    window = [r for r in result.records if t_lo <= r.t <= t_hi]
    ts = [r.t for r in window]
    for gap, predicted in (("decay_gap_n", predicted_n),
                           ("decay_gap_c", predicted_c)):
        rate = -np.polyfit(ts, np.log([getattr(r, gap) for r in window]),
                           1)[0]
        assert abs(rate - predicted) <= tol * predicted, \
            f"{gap} decays at {rate:.6f}, linearized rate {predicted:.6f}"


# ------------------------------------------------------------
# criteria
# ------------------------------------------------------------

def test_criterion_1_threshold_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for m in rng.uniform(1.0 + 1e-9, 3.0, size=1000):
        piv = pivot(m)
        gap_expect = 16.0 * (8.0 * m - 9.0) * (m - 1.0)
        gap = psi(piv, m) - piv
        assert abs(gap - gap_expect) <= 1e-10 * (1.0 + abs(gap_expect))
        rho_expect = 9.0 * (m - 1.0) * (192.0 * m - 215.0)
        assert abs(rho(piv, m) - rho_expect) \
            <= 1e-10 * (1.0 + abs(rho_expect))
    below = threshold_certificate(9.0 / 8.0 - 1e-12)
    above = threshold_certificate(9.0 / 8.0 + 1e-12)
    assert not below.above_9_8
    assert above.above_9_8
    announce(1, "threshold algebra", t0, 1.0)


def test_criterion_2_ladders():
    t0 = time.perf_counter()
    lad = run_psi_ladder(1.25, cap=1e6)
    assert lad.terminated_reason == "reached_cap"
    assert lad.entries[-1].p >= 1e6
    steps = lad.entries[-1].k
    assert steps <= 40, f"needed {steps} steps to escape the cap"
    gamma = gamma_of(1.25)
    p0 = lad.entries[0].p
    for e in lad.entries:
        assert e.growth_ok
        assert e.p >= gamma ** e.k * p0 * (1.0 - 1e-12)
    lin = run_linear_ladder(4.0 / 3.0, 1.0, cap=1e6)
    assert lin.terminated_reason == "converged"
    assert lin.entries[-1].k <= 100
    assert abs(lin.entries[-1].p - 3.0) < 1e-10
    announce(2, "bootstrap ladders", t0, 1.0)


def test_criterion_3_regularization_suite():
    t0 = time.perf_counter()
    reports = run_property_suite((0.5, 0.1, 0.05, 0.01),
                                 n_samples=10_000, seed=7, m=1.2)
    for report in reports:
        failed = [r.name for r in report.results if not r.passed]
        assert not failed, f"eps={report.eps}: {failed}"
    announce(3, "regularization properties", t0, 5.0)


def test_criterion_4_conservation_and_max_principle(run4):
    result, elapsed = run4
    t0 = time.perf_counter() - elapsed
    records = result.records
    mass0 = records[0].mass
    for r in records:
        assert abs(r.mass - mass0) <= 1e-12 * mass0, f"t={r.t}"
        assert r.div_u_inf <= 1e-10, f"t={r.t}"
    for prev, cur in zip(records, records[1:]):
        assert cur.c_max <= prev.c_max + 1e-12 * (1.0 + records[0].c_max)
    # the stepper aborts on any negative cell, so completing certifies
    # positivity at every step; the endpoint is checked directly
    assert float(np.min(result.state.n)) >= 0.0
    announce(4, "conservation and max principle", t0, 60.0)


def test_criterion_5_attractant_identities(run4):
    result, elapsed4 = run4
    t0 = time.perf_counter()
    records = result.records
    ref = records[0].c_mass
    devs = [abs(r.c_mass + r.consumed_mass_running - ref) for r in records]
    dev_coarse = max(devs)
    assert dev_coarse <= 1e-3
    assert check_c_l2_inequality(records).passed

    fine = run(parse_config(config4(dt_max=1e-4)))
    ref_f = fine.records[0].c_mass
    dev_fine = max(abs(r.c_mass + r.consumed_mass_running - ref_f)
                   for r in fine.records)
    ratio = dev_coarse / dev_fine
    assert 1.7 <= ratio <= 2.3, \
        f"halving dt_max changed the deviation by {ratio:.3f}x"
    elapsed = elapsed4 + (time.perf_counter() - t0)
    assert elapsed < 180.0, f"criterion 5 runtime {elapsed:.1f}s"
    print(f"[acceptance] criterion 5 (attractant identities): "
          f"PASS in {elapsed:.1f}s (budget 180s)")


def test_criterion_6_stabilization(run6):
    result, elapsed = run6
    t0 = time.perf_counter() - elapsed
    records = result.records
    decay = check_decay(records)
    assert decay.passed, decay.detail
    entropy = check_entropy_floor(records, result.grid.volume)
    assert entropy.passed, entropy.detail
    energy = check_energy_boundedness(records)
    assert energy.passed, energy.detail
    assert_linearized_rates(result, 10.0, 20.0, tol=0.01)
    announce(6, "stabilization to the flat state", t0, 300.0)


def test_criterion_6_stabilization_3d():
    # the paper's domain is three-dimensional; at 16^3 the fit over [6, 8]
    # is still 1.1% above the n prediction, hence the wider band
    t0 = time.perf_counter()
    cfg = config6(t_final=8.0)
    cfg["grid"] = {"cells": [16, 16, 16], "extent": [4.0, 4.0, 4.0]}
    cfg["phi"] = {"gradient": [0.0, 0.0, -1.0]}
    cfg["time"]["dt_max"] = 1e-3
    result = run(parse_config(cfg))
    records = result.records
    for r in records:
        assert abs(r.mass - records[0].mass) <= 1e-12 * records[0].mass
    assert float(np.min(result.state.n)) > 0.0
    decay = check_decay(records)
    assert decay.passed, decay.detail
    # not every check: c_mass_identity's O(dt) deviation exceeds its 1e-3
    # tolerance at this dt_max
    assert_linearized_rates(result, 6.0, 8.0, tol=0.03)
    announce(6, "stabilization to the flat state in 3D", t0, 60.0)


def test_criterion_7_heat_equation_oracle():
    t0 = time.perf_counter()
    grid = Grid((128, 4), (1.0, 4.0 / 128.0))
    cache = SpectralCache(grid)
    model = parse_config(config4()).model
    xs = grid.centers()
    c0 = 1.0 + 0.5 * np.cos(np.pi * xs[0])
    state = FieldState(t=0.0, n=np.zeros(grid.cells), c=c0,
                       u=grid.zero_velocity(), p=np.zeros(grid.cells))
    samples = [(0.0, float(np.max(state.c) - np.mean(state.c)))]
    while state.t < 0.3 - 1e-12:
        dt = min(choose_dt(grid, state, model, 1e-3),
                 0.3 - state.t)
        step(grid, cache, state, model, dt)
        samples.append((state.t,
                        float(np.max(state.c) - np.mean(state.c))))
    ts = np.array([s[0] for s in samples])
    amps = np.array([s[1] for s in samples])
    rate = -np.polyfit(ts, np.log(amps), 1)[0]
    target = np.pi ** 2
    assert abs(rate - target) <= 0.02 * target, \
        f"observed decay rate {rate:.4f} vs (pi/L)^2 = {target:.4f}"
    announce(7, "heat-equation oracle", t0, 30.0)


def test_criterion_8_eps_sweep_cauchy(tmp_path):
    t0 = time.perf_counter()
    spec = parse_sweep({"axis": "eps", "values": [0.1, 0.05, 0.025],
                        "base_config": config6(t_final=5.0)})
    workers = min(3, os.cpu_count() or 1)
    summaries, _ = run_sweep(spec, str(tmp_path / "sw"), workers=workers)
    assert [s["status"] for s in summaries] == ["complete"] * 3
    d1 = float(summaries[1]["l1_distance_to_prev"])
    d2 = float(summaries[2]["l1_distance_to_prev"])
    assert d1 > 0.0 and d2 > 0.0
    assert d2 < d1, f"L1 distances not decreasing: {d1:.3e} -> {d2:.3e}"
    announce(8, "eps-sweep Cauchy check", t0, 600.0)


def test_criterion_9_worker_count_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config4(), fh)

    def csv_bytes(tag, threads):
        out = str(tmp_path / tag)
        rc = cli_main(["--output-dir", out, "--threads", str(threads),
                       "simulate", "--config", cfg_path])
        assert rc == 0
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            return fh.read()

    assert csv_bytes("w1", 1) == csv_bytes("w8", 8)

    # a sweep with 1, 2 and 3 members at once (in the calling process,
    # or on 2 or 3 forked workers) writes the same bytes
    base = config6(t_final=0.1)
    base["grid"]["cells"] = [16, 16]
    base["time"]["sample_every"] = 0.05
    spec = parse_sweep({"axis": "eps", "values": [0.1, 0.05, 0.025],
                        "base_config": base})

    def sweep_outputs(workers):
        out = str(tmp_path / f"sweep{workers}")
        summaries, path = run_sweep(spec, out, workers=workers, seed=5)
        assert [s["status"] for s in summaries] == ["complete"] * 3
        members = []
        for s in summaries:
            with open(os.path.join(s["run_dir"], "diagnostics.csv"),
                      "rb") as fh:
                csv = fh.read()
            with open(os.path.join(s["run_dir"], "manifest.json")) as fh:
                samples = json.load(fh)["samples"]
            members.append((csv, [sorted((name, f["sha256"])
                                         for name, f in smp["files"].items())
                                  for smp in samples]))
        with open(path) as fh:
            summary = fh.read().replace(out, "")
        return members, summary

    serial = sweep_outputs(1)
    assert sweep_outputs(2) == serial
    assert sweep_outputs(3) == serial
    announce(9, "worker-count determinism", t0, 120.0)
