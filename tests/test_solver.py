"""Solver tests: initial-state construction, the three sub-steps, the
time loop, and the run driver with its resume contract.

Identity-style assertions (conservation, fixed points, the implicit L2
balance) are grid-independent and checked tight; accuracy-style claims
live in the acceptance module at production resolution, apart from the
Barenblatt-Pattle oracle of the density step, which is cheap in 1-D.
"""

import copy
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemostokes import solver
from chemostokes.config import ModelParams, SimConfig, parse_config
from chemostokes.diagnostics import resolve_diagnostics
from chemostokes.errors import ConfigError, NumericalError
from chemostokes.grid import (Grid, divergence, face_avg, face_diff,
                              face_upwind, full_faces, grad_squared_cells,
                              interior)
from chemostokes.regularization import f_eps, smoothstep
from chemostokes.snapshots import (load_manifest, load_snapshot, read_field,
                                   write_field, write_manifest)
from chemostokes.solver import (FieldState, _project, choose_dt, init_state,
                                run, sample_times, stability_rates, step,
                                step_c)
from chemostokes.spectral import SpectralCache


# ------------------------------------------------------------
# shared builders
# ------------------------------------------------------------

BASE = {
    "grid": {"cells": [24, 24], "extent": [2.0, 2.0]},
    "model": {"m": 1.2, "k_D": 1.0, "eps": 0.1},
    "phi": {"gradient": [0.0, -1.0]},
    "time": {"t_final": 0.1, "dt_max": 1e-3, "sample_every": 0.05},
    "ic": {"n0": {"preset": "gaussian", "amplitude": 1.5, "width": 0.4,
                  "floor": 0.1},
           "c0": {"preset": "constant", "value": 1.0},
           "u0": {"preset": "vortex", "amplitude": 0.2}},
    "seed": 11,
}


def make_cfg(tmp_path=None, **patch) -> SimConfig:
    raw = copy.deepcopy(BASE)
    for key, val in patch.items():
        section, _, leaf = key.partition(".")
        if leaf:
            raw[section][leaf] = val
        else:
            raw[section] = val
    if tmp_path is not None:
        raw["output"] = {"dir": str(tmp_path / "run")}
    return parse_config(raw)


def fresh(cfg):
    grid = Grid(cfg.grid_cells, cfg.grid_extent)
    cache = SpectralCache(grid)
    state = init_state(grid, cfg.model, cfg.ic, seed=cfg.seed, cache=cache)
    return grid, cache, state


# ------------------------------------------------------------
# initial state
# ------------------------------------------------------------

def test_init_state_presets_and_validation():
    cfg = make_cfg()
    grid, cache, state = fresh(cfg)
    assert float(np.min(state.n)) >= 0.1 - 1e-12
    assert float(np.max(state.n)) > 1.0
    assert np.all(state.c == 1.0)
    assert float(np.max(np.abs(divergence(grid, state.u)))) <= 1e-12

    bad = make_cfg(**{"ic.n0": {"preset": "constant", "value": -1.0}})
    with pytest.raises(ConfigError, match=">= 0"):
        fresh(bad)
    zero = make_cfg(**{"ic.n0": {"preset": "constant", "value": 0.0}})
    with pytest.raises(ConfigError, match="vanish identically"):
        fresh(zero)
    with pytest.raises(ConfigError, match="preset"):
        fresh(make_cfg(**{"ic.c0": {"preset": "sawtooth"}}))
    # cosine dipping below zero is rejected for both scalars
    with pytest.raises(ConfigError):
        fresh(make_cfg(**{"ic.c0": {"preset": "cosine", "value": 0.2,
                                    "amplitude": 0.5}}))


def test_two_bumps_mean_normalization():
    cfg = make_cfg(**{"ic.n0": {"preset": "two_bumps", "amplitude": 1.0,
                                "width": 0.3, "mean": 1.0}})
    grid, _, state = fresh(cfg)
    assert float(np.mean(state.n)) == pytest.approx(1.0, rel=1e-13)


def test_perturbation_is_seed_deterministic():
    spec = {"ic.perturb": {"amplitude": 0.05}}
    cfg = make_cfg(**spec)
    _, _, s1 = fresh(cfg)
    _, _, s2 = fresh(cfg)
    assert np.array_equal(s1.n, s2.n)
    cfg2 = make_cfg(seed=12, **spec)
    _, _, s3 = fresh(cfg2)
    assert not np.array_equal(s1.n, s3.n)
    # multiplicative with small amplitude keeps the field positive
    assert float(np.min(s3.n)) > 0.0


def test_vortex_in_three_dimensions_is_the_planar_roll():
    planar = make_cfg(grid={"cells": [8, 6], "extent": [2.0, 1.5]})
    cfg = make_cfg(grid={"cells": [8, 6, 4], "extent": [2.0, 1.5, 1.0]},
                   phi={"gradient": [0.0, 0.0, -1.0]})
    _, _, flat = fresh(planar)
    grid, _, state = fresh(cfg)
    assert float(np.max(np.abs(flat.u[0]))) > 0.1
    for a in range(2):
        for k in range(4):
            assert np.max(np.abs(state.u[a][:, :, k] - flat.u[a])) <= 1e-13
    assert float(np.max(np.abs(state.u[2]))) <= 1e-13
    assert float(np.max(np.abs(divergence(grid, state.u)))) <= 1e-12


def test_initial_velocity_projection_idempotent():
    cfg = make_cfg()
    grid, cache, state = fresh(cfg)
    before = [ua.copy() for ua in state.u]
    from chemostokes.solver import _project
    _project(grid, cache, state.u)
    for b, a in zip(before, state.u):
        assert np.max(np.abs(b - a)) <= 1e-13


# ------------------------------------------------------------
# fixed points and per-step oracles
# ------------------------------------------------------------

def test_rest_state_stays_at_rest():
    cfg = make_cfg(**{
        "ic.n0": {"preset": "constant", "value": 0.8},
        "ic.c0": {"preset": "constant", "value": 0.5},
        "ic.u0": {"preset": "zero"}})
    grid, cache, state = fresh(cfg)
    model = cfg.model
    dt = 1e-3
    c_expect = 0.5
    rate = float(f_eps(0.8, model.eps))
    for _ in range(5):
        step(grid, cache, state, model, dt)
        c_expect /= 1.0 + dt * rate
    # uniform n has no gradients: it cannot move at all
    assert float(np.max(state.n) - np.min(state.n)) == 0.0
    # gravity on a uniform column is a pure pressure gradient
    assert max(float(np.max(np.abs(ua))) for ua in state.u) <= 1e-15
    # c solves the scalar implicit ODE exactly (diffusion of a constant
    # is the identity up to transform round-off)
    assert float(np.max(state.c)) == pytest.approx(c_expect, rel=1e-12)
    assert float(np.max(state.c) - np.min(state.c)) <= 1e-14


def test_mass_conservation_and_monotone_bounds():
    cfg = make_cfg(**{"ic.c0": {"preset": "cosine", "value": 1.0,
                                "amplitude": 0.4, "axis": 0, "mode": 1}})
    grid, cache, state = fresh(cfg)
    model = cfg.model
    vol = grid.cell_volume
    mass0 = float(np.sum(state.n)) * vol
    c_max = float(np.max(state.c))
    for _ in range(40):
        dt = choose_dt(grid, state, model, 1e-3)
        step(grid, cache, state, model, dt)
        c_max_new = float(np.max(state.c))
        assert c_max_new <= c_max + 1e-12 * (1.0 + c_max)
        c_max = c_max_new
    mass1 = float(np.sum(state.n)) * vol
    assert abs(mass1 - mass0) <= 1e-13 * mass0
    assert float(np.min(state.n)) >= 0.0
    assert float(np.min(state.c)) >= 0.0


def test_implicit_l2_identity_pure_diffusion():
    # n == 0 switches off consumption; u == 0 switches off transport.
    # The backward-Euler step then satisfies, bit-for-bit up to transform
    # round-off:  ||c1||^2 + 2 dt |grad c1|^2 + ||c1 - c0||^2 = ||c0||^2.
    grid = Grid((32, 32), (1.0, 1.0))
    cache = SpectralCache(grid)
    xs = grid.centers()
    c0 = 1.0 + 0.5 * np.cos(np.pi * xs[0]) * np.cos(2 * np.pi * xs[1])
    state = FieldState(t=0.0, n=np.zeros(grid.cells), c=c0.copy(),
                       u=grid.zero_velocity(), p=np.zeros(grid.cells))
    cfg = make_cfg()
    dt = 2e-3
    step_c(grid, cache, state, cfg.model, dt)
    vol = grid.cell_volume
    l2_0 = float(np.sum(c0 * c0)) * vol
    l2_1 = float(np.sum(state.c * state.c)) * vol
    diff = state.c - c0
    energy = float(np.sum(grad_squared_cells(grid, state.c))) * vol
    lhs = l2_1 + 2.0 * dt * energy + float(np.sum(diff * diff)) * vol
    assert lhs == pytest.approx(l2_0, rel=1e-12)


def barenblatt_cell_averages(cells: int, t: float, m: float) -> np.ndarray:
    """Cell averages (32-point midpoint rule) on [0, 1] of the Barenblatt-
    Pattle profile of n_t = (1/m)(n^m)'' centred at x = 1/2, scaled so
    that its front reaches |x - 1/2| = 0.25 at t = 0.02 (Vazquez, The
    Porous Medium Equation, ch. 4, in time t/m)."""
    alpha = 1.0 / (m + 1.0)
    k = (m - 1.0) / (2.0 * m * (m + 1.0))
    level = k * 0.25 ** 2 * (0.02 / m) ** (-2.0 * alpha)
    s = t / m
    x = (np.arange(cells)[:, None] + (np.arange(32) + 0.5) / 32) / cells
    core = level - k * (x - 0.5) ** 2 * s ** (-2.0 * alpha)
    return (s ** -alpha * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))).mean(1)


@pytest.mark.parametrize("m", [1.2, 1.5, 2.0])
def test_density_step_converges_to_the_barenblatt_profile(m):
    """Known answer for the degenerate diffusion: with c = 0, u = 0 and a
    flat potential the density equation is the porous medium equation
    up to eps.  Stepped on an (N, 4) strip from the profile's cell
    averages at t = 0.01 to t = 0.02, n matches the exact cell averages
    with a relative L1 error falling at second order.  n is not smooth
    where it meets 0, so the observed orders move with where the front
    sits in its cell: bands 1.6 to 2.3 (1.78-1.99 measured)."""
    model = ModelParams(m=m, k_d=1.0, eps=1e-6, phi_gradient=(0.0, 0.0))
    errors = []
    for cells in (64, 128, 256):
        grid = Grid((cells, 4), (1.0, 4.0 / cells))
        cache = SpectralCache(grid)
        n0 = barenblatt_cell_averages(cells, 0.01, m)
        state = FieldState(t=0.01, n=np.repeat(n0[:, None], 4, axis=1),
                           c=np.zeros(grid.cells), u=grid.zero_velocity(),
                           p=np.zeros(grid.cells))
        while state.t < 0.02 - 1e-12:
            dt = min(choose_dt(grid, state, model, 1e-3), 0.02 - state.t)
            step(grid, cache, state, model, dt)
        exact = barenblatt_cell_averages(cells, 0.02, m)
        assert np.all(state.n == state.n[:, :1])     # the strip stays 1-D
        errors.append(float(np.sum(np.abs(state.n[:, 0] - exact))
                            / np.sum(exact)))
    assert errors[0] < 1.5e-3 and errors[-1] < 1e-4, errors
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 1.6) & (orders < 2.3)), (errors, orders)


def test_step_rejects_nonpositive_dt():
    cfg = make_cfg()
    grid, cache, state = fresh(cfg)
    with pytest.raises(NumericalError, match="dt"):
        step(grid, cache, state, cfg.model, 0.0)


def test_choose_dt_contract():
    cfg = make_cfg()
    grid, _, state = fresh(cfg)
    auto = choose_dt(grid, state, cfg.model, 1e-3)
    assert 0.0 < auto <= 1e-3
    tiny = choose_dt(grid, state, cfg.model, 1e-9)
    assert tiny == 1e-9
    # u = 0 and constant c: only the diffusive rate is nonzero, and it
    # does not limit dt (step() substeps the density update instead)
    still = make_cfg(**{"ic.u0": {"preset": "zero"}})
    grid, _, state = fresh(still)
    r_adv, r_drift, r_diff = stability_rates(grid, state, still.model)
    assert r_adv == 0.0 and r_drift == 0.0 and 0.9 / r_diff < 1.0
    assert choose_dt(grid, state, still.model, 1.0) == 1.0
    # u = 0 and a cosine c: the drift rate does not limit dt either
    tilted = make_cfg(**{"ic.u0": {"preset": "zero"},
                         "ic.c0": {"preset": "cosine", "value": 1.0,
                                   "amplitude": 0.5}})
    grid, _, state = fresh(tilted)
    r_adv, r_drift, _ = stability_rates(grid, state, tilted.model)
    assert r_adv == 0.0 and 0.9 / r_drift < 1.0
    assert choose_dt(grid, state, tilted.model, 1.0) == 1.0


def test_oversized_density_update_raises_positivity():
    # one n-update of dt_max under a grid-scale cosine c spends about three
    # times the budget; the cells at the minima of c go negative
    cfg = plume_cfg(None, (32, 32), dt_max=2e-4, t_final=2e-3,
                    c0={"preset": "cosine", "value": 50.0,
                        "amplitude": 50.0, "mode": 31})
    grid, _, state = fresh(cfg)
    with pytest.raises(NumericalError,
                       match=r"density positivity lost at cell \("):
        solver.step_n(grid, state, cfg.model, 2e-4, solver.frozen_terms(
            state, solver.c_gradients(grid, state)))


def test_numerical_failure_marks_run_failed(tmp_path, monkeypatch):
    def failing_step_n(grid, state, model, dt, terms):
        raise NumericalError(f"injected failure at t = {state.t}")

    monkeypatch.setattr(solver, "step_n", failing_step_n)
    cfg = make_cfg(tmp_path)
    with pytest.raises(NumericalError, match="injected failure"):
        run(cfg)
    manifest = load_manifest(cfg.output_dir)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "injected failure at t = 0.0"


# ------------------------------------------------------------
# schedule and snapshot plumbing
# ------------------------------------------------------------

def test_sample_times_exact():
    assert sample_times(1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sample_times(0.3, None) == [0.0, 0.3]
    # t_final lands exactly once even when it is a multiple
    times = sample_times(0.2, 0.1)
    assert times == [0.0, 0.1, 0.2]


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((7, 5))
    path = str(tmp_path / "f.bin")
    sha = write_field(path, arr, 0.125)
    back, t = read_field(path, expect_sha256=sha)
    assert t == 0.125
    assert np.array_equal(back, arr)
    with pytest.raises(ConfigError, match="checksum"):
        read_field(path, expect_sha256="0" * 64)
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(ConfigError, match="magic"):
        read_field(path)


def test_damaged_snapshots_are_refused(tmp_path):
    arr = np.arange(6.0).reshape(3, 2)
    path = str(tmp_path / "f.bin")
    write_field(path, arr, 0.5)
    with open(path, "rb") as fh:
        blob = fh.read()
    for damaged, fragment in (
            (blob[:40], "truncated header"),
            (blob[:4] + struct.pack("<I", 2) + blob[8:],
             "unsupported version 2"),
            (blob[:-8], "payload has 5 values, header promises 6")):
        with open(path, "wb") as fh:
            fh.write(damaged)
        with pytest.raises(ConfigError, match=fragment):
            read_field(path)
    # the fields of one sample must share its time
    files = {name: {"path": f"{name}.bin",
                    "sha256": write_field(str(tmp_path / f"{name}.bin"),
                                          arr, t)}
             for name, t in (("n", 0.5), ("c", 0.25))}
    with pytest.raises(ConfigError, match="field c: time 0.25 disagrees"):
        load_snapshot(str(tmp_path), files, 2)


def test_run_artifacts_and_checks(tmp_path):
    cfg = make_cfg(tmp_path)
    result = run(cfg)
    assert result.steps_taken > 0
    # the long-time decay criterion is not expected to hold at T = 0.1;
    # every identity-style check must
    by_name = {c.name: c for c in result.checks}
    assert len(by_name) == 8
    for name in ("mass_conservation", "c_max_monotone", "c_mass_identity",
                 "c_l2_inequality", "entropy_floor", "energy_boundedness",
                 "quasi_energy"):
        assert by_name[name].passed, (name, by_name[name].detail)
    assert [r.t for r in result.records] == [0.0, 0.05, 0.1]
    assert result.max_residuals["div_u_inf"] <= 1e-12
    assert result.max_residuals["c_helmholtz_rel"] <= 1e-12
    d = cfg.output_dir
    assert os.path.exists(os.path.join(d, "diagnostics.csv"))
    assert os.path.exists(os.path.join(d, "checks.json"))
    manifest = load_manifest(d)
    assert manifest["status"] == "complete"
    assert len(manifest["samples"]) == 3
    # final time is hit exactly, not just approximately
    assert result.state.t == cfg.time.t_final
    with open(os.path.join(d, "checks.json")) as fh:
        names = [c["name"] for c in json.load(fh)]
    assert "mass_conservation" in names and len(names) == 8


def assert_resume_bit_exact(cfg):
    """Cut a finished run back to its middle sample, resume it, and
    compare the CSV bytes and every snapshot sha256 with the original."""
    d = cfg.output_dir
    with open(os.path.join(d, "diagnostics.csv"), "rb") as fh:
        csv_ref = fh.read()
    manifest = load_manifest(d)
    sha_ref = {s["index"]: {k: v["sha256"] for k, v in s["files"].items()}
               for s in manifest["samples"]}
    # pretend the run died after the middle sample
    manifest["samples"] = manifest["samples"][:len(sha_ref) // 2]
    manifest["status"] = "running"
    write_manifest(d, manifest)

    result = run(cfg, resume=True)
    with open(os.path.join(d, "diagnostics.csv"), "rb") as fh:
        csv_new = fh.read()
    assert csv_new == csv_ref
    manifest2 = load_manifest(d)
    assert manifest2["status"] == "complete"
    assert len(manifest2["samples"]) == len(sha_ref)
    for s in manifest2["samples"]:
        assert {k: v["sha256"] for k, v in s["files"].items()} \
            == sha_ref[s["index"]]
    return result


def test_resume_is_bit_exact(tmp_path):
    cfg = make_cfg(tmp_path, **{"time.t_final": 0.15})
    run(cfg)
    assert len(load_manifest(cfg.output_dir)["samples"]) == 4
    result = assert_resume_bit_exact(cfg)
    assert result.state.t == 0.15


def test_resume_names_m_exactly(tmp_path):
    # %g keeps 6 significant digits; m's Lp column must keep all of them,
    # or the resumed run cannot find its own column
    cfg = make_cfg(tmp_path, **{"model.m": 1.125001})
    run(cfg)
    with open(os.path.join(cfg.output_dir, "diagnostics.csv")) as fh:
        assert "lp_norm_1.125001" in fh.readline().rstrip().split(",")
    assert_resume_bit_exact(cfg)


def cut_csv_to_first_row(d):
    path = os.path.join(d, "diagnostics.csv")
    with open(path) as fh:
        header, first = fh.readlines()[:2]
    with open(path, "w") as fh:
        fh.write(header + first)


def drop_samples(d):
    manifest = load_manifest(d)
    manifest["samples"] = []
    write_manifest(d, manifest)


def edit_manifest(change):
    """A damage that applies `change` to the manifest dict in place."""
    def damage(d):
        manifest = load_manifest(d)
        change(manifest)
        write_manifest(d, manifest)
    return damage


def empty_csv(d):
    open(os.path.join(d, "diagnostics.csv"), "w").close()


def directory_bytes(d):
    out = {}
    for root, _, names in os.walk(d):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                out[os.path.relpath(os.path.join(root, name), d)] = fh.read()
    return out


@pytest.mark.parametrize("damage, fragment", [
    pytest.param(cut_csv_to_first_row, "diagnostics.csv has 1 rows",
                 id="short-csv"),
    pytest.param(drop_samples, "no samples in .*manifest.json",
                 id="no-samples"),
    pytest.param(lambda d: os.remove(os.path.join(d, "diagnostics.csv")),
                 "no such file .*diagnostics.csv", id="no-csv"),
    pytest.param(lambda d: os.remove(os.path.join(
        d, "snapshots", "sample_000004_n.bin")),
        "no such file .*sample_000004_n.bin", id="no-last-snapshot"),
    pytest.param(empty_csv, "damaged .*diagnostics.csv", id="empty-csv"),
    pytest.param(edit_manifest(lambda m: m["samples"][-1].pop("tallies")),
                 "damaged .*manifest.json: KeyError: 'tallies'",
                 id="no-tallies"),
    pytest.param(edit_manifest(lambda m: m["samples"][-1]["files"].pop("u1")),
                 "damaged .*manifest.json: KeyError: 'u1'",
                 id="no-field-entry"),
    pytest.param(edit_manifest(lambda m: m.update(
        samples={str(s["index"]): s for s in m["samples"]})),
        "no samples in .*manifest.json", id="samples-not-a-list"),
])
def test_resume_refuses_a_damaged_run_directory(tmp_path, damage, fragment):
    """The restart index comes from the manifest: a run directory whose
    files cannot supply it is refused, and nothing in it is rewritten."""
    cfg = make_cfg(tmp_path, grid={"cells": [8, 8], "extent": [2.0, 2.0]},
                   **{"time.t_final": 0.004, "time.sample_every": 0.001})
    run(cfg)
    assert len(load_manifest(cfg.output_dir)["samples"]) == 5
    damage(cfg.output_dir)
    before = directory_bytes(cfg.output_dir)
    with pytest.raises(ConfigError, match=fragment):
        run(cfg, resume=True)
    assert directory_bytes(cfg.output_dir) == before


def test_resume_reads_the_previous_manifest_format(tmp_path):
    """Manifests of earlier versions carry a resolved_diagnostics section
    (kappa, sigma_c, lp, mean_n0, and before that c1_quasi, window and
    mass_c0).  Resume ignores it and keeps it as it is, so such a run
    resumes bit for bit."""
    cfg = make_cfg(tmp_path, grid={"cells": [8, 8], "extent": [2.0, 2.0]},
                   **{"time.t_final": 0.004, "time.sample_every": 0.001})
    result = run(cfg)
    manifest = load_manifest(cfg.output_dir)
    assert "resolved_diagnostics" not in manifest
    grid, _, state = fresh(cfg)
    diag = resolve_diagnostics(cfg.diagnostics, cfg.model, grid,
                               state.n, state.c)
    section = {"kappa": diag.kappa, "c1_quasi": None,
               "sigma_c": diag.sigma_c, "lp": list(diag.lp), "window": 1.0,
               "mean_n0": diag.mean_n0,
               "mass_c0": result.records[0].c_mass}
    manifest["resolved_diagnostics"] = section
    write_manifest(cfg.output_dir, manifest)
    assert_resume_bit_exact(cfg)
    assert load_manifest(cfg.output_dir)["resolved_diagnostics"] == section


def test_vanishing_attractant_has_finite_energy(tmp_path):
    """c0 = 0 is a valid input: the gradient-energy floor stays positive,
    so the energies are finite (0, not 0/0) and energy_boundedness holds."""
    ic = copy.deepcopy(BASE["ic"])
    ic["c0"] = {"preset": "constant", "value": 0.0}
    cfg = make_cfg(grid={"cells": [8, 8], "extent": [2.0, 2.0]}, ic=ic,
                   **{"time.t_final": 0.004, "time.sample_every": 0.001})
    result = run(cfg)
    for r in result.records:
        assert r.grad_c_energy == 0.0 and r.dissipation_c == 0.0
        assert math.isfinite(r.e_total)
    by_name = {c.name: c for c in result.checks}
    assert by_name["energy_boundedness"].passed


def test_resume_rejects_changed_config(tmp_path):
    cfg = make_cfg(tmp_path)
    run(cfg)
    other = make_cfg(tmp_path, **{"model.eps": 0.2})
    with pytest.raises(ConfigError, match="manifest"):
        run(other, resume=True)
    nodir = make_cfg()
    with pytest.raises(ConfigError, match="output"):
        run(nodir, resume=True)


# ------------------------------------------------------------
# density substeps under the stability budget
# ------------------------------------------------------------

def plume_cfg(tmp_path, cells, dt_max, t_final, sample_every=None,
              c0=None):
    """Acceptance config4's physics (a Gaussian plume under gravity along
    the last axis) on the given grid, optionally with another c0."""
    gravity = [0.0] * len(cells)
    gravity[-1] = -1.0
    raw = {"grid": {"cells": list(cells), "extent": [4.0] * len(cells)},
           "model": {"m": 1.2, "k_D": 1.0, "eps": 0.05},
           "phi": {"gradient": gravity},
           "time": {"t_final": t_final, "dt_max": dt_max},
           "ic": {"n0": {"preset": "gaussian", "amplitude": 2.0,
                         "width": 0.5},
                  "c0": c0 or {"preset": "constant", "value": 1.0},
                  "u0": {"preset": "zero"}}}
    if sample_every is not None:
        raw["time"]["sample_every"] = sample_every
    if tmp_path is not None:
        raw["output"] = {"dir": str(tmp_path / "run")}
    return parse_config(raw)


@pytest.fixture
def density_updates(monkeypatch):
    """Records, per coupled step: its dt, the dt of each n-update it runs,
    and the three stability rates of the state its first n-update starts
    from."""
    steps = []
    step_orig, step_n_orig = solver.step, solver.step_n

    def recording_step(grid, cache, state, model, dt):
        steps.append({"dt": dt, "n_dts": [], "rates": None})
        return step_orig(grid, cache, state, model, dt)

    def recording_step_n(grid, state, model, dt, terms):
        if steps[-1]["rates"] is None:
            steps[-1]["rates"] = stability_rates(grid, state, model)
        steps[-1]["n_dts"].append(dt)
        return step_n_orig(grid, state, model, dt, terms)

    monkeypatch.setattr(solver, "step", recording_step)
    monkeypatch.setattr(solver, "step_n", recording_step_n)
    return steps


def assert_equal_substeps(steps):
    """Each step runs k = ceil(dt (r_adv + r_drift + r_diff) / 0.9) equal
    n-updates of dt/k."""
    for s in steps:
        dt, n_dts = s["dt"], s["n_dts"]
        r_adv, r_drift, r_diff = s["rates"]
        ratio = dt * (r_adv + r_drift + r_diff) / 0.9
        k = math.ceil(ratio) if ratio > 1.0 else 1
        assert n_dts == [dt / k] * k, s


def assert_conserved_and_positive(result):
    mass0 = result.records[0].mass
    for r in result.records:
        assert abs(r.mass - mass0) <= 1e-12 * mass0, f"t={r.t}"
    assert float(np.min(result.state.n)) >= 0.0


def test_diffusion_bound_run_substeps_density(tmp_path, density_updates):
    # config4 at 64^2: the diffusive limit (7.3e-4) is 4x below dt_max
    cfg = plume_cfg(tmp_path, (64, 64), dt_max=3e-3, t_final=0.03,
                    sample_every=0.01)
    result = run(cfg)
    # dt_max sets every step: three full steps and a closing one a sample
    assert result.steps_taken == 12
    assert [s["dt"] == 3e-3 for s in density_updates[:12]] \
        == [True, True, True, False] * 3
    assert_equal_substeps(density_updates)
    assert all(len(s["n_dts"]) >= 4 for s in density_updates[:12]
               if s["dt"] == 3e-3)
    assert_conserved_and_positive(result)
    assert_resume_bit_exact(cfg)


def test_drift_bound_run_substeps_density(tmp_path, density_updates):
    # config4 at 128^2 under a steep cosine c: the drift rate matters as
    # much as the diffusive one, so positivity needs the summed budget,
    # which takes dt_max and one more substep than diffusion alone would
    cfg = plume_cfg(tmp_path, (128, 128), dt_max=2e-4, t_final=2e-3,
                    sample_every=4e-4,
                    c0={"preset": "cosine", "value": 50.0,
                        "amplitude": 50.0, "mode": 4})
    result = run(cfg)
    # dt_max (not the drift limit, 1.8e-4) sets every step
    assert result.steps_taken == 10
    assert [s["dt"] for s in density_updates[:10]] \
        == pytest.approx([2e-4] * 10, rel=1e-9)
    assert_equal_substeps(density_updates)
    assert all(len(s["n_dts"]) > math.ceil(s["dt"] * s["rates"][2] / 0.9)
               for s in density_updates[:10])
    assert_conserved_and_positive(result)
    assert_resume_bit_exact(cfg)


@pytest.mark.parametrize("cells, mode", [(32, 31), (32, 30), (64, 63)])
def test_grid_scale_drift_counts_both_faces(cells, mode, density_updates):
    # config4 under a cosine c at the grid's own scale: at each minimum of
    # c, drift drains the cell through both faces of the axis, so the
    # budget must count the drift rate twice to keep n nonnegative
    cfg = plume_cfg(None, (cells, cells), dt_max=2e-4, t_final=2e-3,
                    c0={"preset": "cosine", "value": 50.0,
                        "amplitude": 50.0, "mode": mode})
    result = run(cfg)
    assert result.steps_taken == 10
    assert_equal_substeps(density_updates)
    assert_conserved_and_positive(result)


def test_density_update_takes_dt_below_the_diffusive_limit(density_updates):
    cfg = plume_cfg(None, (64, 64), dt_max=2e-4, t_final=1e-3)
    grid, cache, state = fresh(cfg)
    for _ in range(3):
        dt = choose_dt(grid, state, cfg.model, 2e-4)
        assert dt * stability_rates(grid, state, cfg.model)[2] <= 0.9
        solver.step(grid, cache, state, cfg.model, dt)
    assert [s["n_dts"] for s in density_updates] == [[2e-4]] * 3


def test_coupled_3d_run_substeps_density(tmp_path, density_updates):
    # 16^3: the diffusive limit (7.8e-3) sits just below dt_max, so k = 2
    cfg = plume_cfg(tmp_path, (16, 16, 16), dt_max=0.01, t_final=0.04,
                    sample_every=0.01)
    result = run(cfg)
    assert result.steps_taken == 4
    assert_equal_substeps(density_updates)
    assert [len(s["n_dts"]) for s in density_updates[:4]] == [2] * 4
    assert_conserved_and_positive(result)
    assert all(r.div_u_inf <= 1e-10 for r in result.records)
    assert_resume_bit_exact(cfg)


# ------------------------------------------------------------
# scheme fuzz: one step from a random admissible state
# ------------------------------------------------------------

@st.composite
def random_states(draw):
    """A random admissible state and model: n >= 0 (not identically
    zero, with vacuum cells), c >= 0, a projected no-slip u, m in (1, 3],
    eps in (0, 1] and a random phi gradient, on 2-12 cells per axis in 2D
    or 2-6 in 3D.  The fields come from a numpy generator seeded by
    hypothesis, so every example is reproducible."""
    dim = draw(st.sampled_from((2, 3)))
    cells = tuple(draw(st.integers(2, 12 if dim == 2 else 6))
                  for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    m = draw(st.floats(1.0, 3.0, exclude_min=True))
    eps = draw(st.floats(0.0, 1.0, exclude_min=True))
    phi = tuple(draw(st.floats(-10.0, 10.0)) for _ in range(dim))
    n_amp, c_amp, u_amp = (10.0 ** draw(st.floats(-3.0, 1.0))
                           for _ in range(3))
    dt_max = 10.0 ** draw(st.floats(-5.0, -2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    grid = Grid(cells, extent)
    cache = SpectralCache(grid)
    n = n_amp * rng.random(cells) * (rng.random(cells) < 0.7)
    n.flat[rng.integers(n.size)] = n_amp
    c = c_amp * rng.random(cells)
    u = grid.zero_velocity()
    for a in range(dim):
        interior(u[a], a)[...] = u_amp * rng.uniform(
            -1.0, 1.0, interior(u[a], a).shape)
    _project(grid, cache, u)
    state = FieldState(t=0.0, n=n, c=c, u=u, p=np.zeros(cells))
    model = ModelParams(m=m, k_d=1.0, eps=eps, phi_gradient=phi)
    return grid, cache, state, model, dt_max


@settings(derandomize=True, deadline=None, max_examples=200)
@given(random_states())
def test_one_step_keeps_the_invariants_or_raises(case):
    """One step from any admissible state keeps mass to round-off, n >= 0,
    max c non-increasing and ||div u||_inf <= DIV_TOL, or raises
    NumericalError."""
    grid, cache, state, model, dt_max = case
    mass0 = float(np.sum(state.n))
    c_max = float(np.max(state.c))
    dt = choose_dt(grid, state, model, dt_max)
    try:
        step(grid, cache, state, model, dt)
    except NumericalError:
        return
    assert abs(float(np.sum(state.n)) - mass0) <= 1e-13 * mass0
    assert float(np.min(state.n)) >= 0.0
    assert float(np.max(state.c)) <= c_max + 1e-12 * (1.0 + c_max)
    assert float(np.max(np.abs(divergence(grid, state.u)))) \
        <= solver.DIV_TOL


# ------------------------------------------------------------
# the n-update on hoisted terms against the per-call update
# ------------------------------------------------------------

def per_call_step_n(grid, state, model, dt):
    """The density update with nothing hoisted, as an oracle: every call
    takes c's face gradient and both upwind selections through
    face_upwind, the polynomial chi_eps and d_base, and the divergence of
    zero-padded full face arrays."""
    n, c = state.n, state.c
    de = model.k_d * np.power(np.maximum(n, 0.0), model.m - 1.0) + model.eps
    fluxes = []
    for a in range(grid.dim):
        adv = interior(state.u[a], a)
        g = face_diff(grid, c, a)
        n_up = face_upwind(n, g, a)
        chi = 1.0 - smoothstep(np.clip(model.eps * n_up - 1.0, 0.0, 1.0))
        flux = adv * face_upwind(n, adv, a) \
            + n_up * (chi * g) \
            - face_avg(de, a) * face_diff(grid, n, a)
        fluxes.append(full_faces(grid, flux, a))
    return n - dt * divergence(grid, fluxes)


@st.composite
def n_phases(draw):
    """A random admissible state (random_states) whose attractant is
    exactly 0 on about a third of the cells, and a substep count k."""
    grid, _, state, model, dt_max = draw(random_states())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    state.c = state.c * (rng.random(state.c.shape) < 0.7)
    return grid, state, model, dt_max, draw(st.integers(1, 4))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n_phases())
def test_step_n_on_frozen_terms_matches_the_per_call_update(case):
    """k n-updates on one frozen_terms() give the per-call update's bits
    after every substep, or both go negative; the drift rate on the shared
    c gradients is the one stability_rates takes on its own."""
    grid, state, model, dt_max, k = case
    grad_c = solver.c_gradients(grid, state)
    assert stability_rates(grid, state, model, grad_c) \
        == stability_rates(grid, state, model)
    terms = solver.frozen_terms(state, grad_c)
    for _ in range(k):
        expected = per_call_step_n(grid, state, model, dt_max / k)
        try:
            solver.step_n(grid, state, model, dt_max / k, terms)
        except NumericalError:
            assert float(np.min(expected)) < 0.0
            return
        assert np.array_equal(state.n, expected)
