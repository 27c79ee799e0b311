"""Diagnostics tests: record evaluation on hand-computable states,
running tallies, the verification checks on synthetic record lists, and
the repr-exact CSV round trip.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from chemostokes.config import DiagnosticsParams, ModelParams, parse_config
from chemostokes.diagnostics import (DiagnosticsRecord, RunningTallies,
                                     check_c_l2_inequality,
                                     check_c_mass_identity,
                                     check_c_max_monotone, check_decay,
                                     check_energy_boundedness,
                                     check_entropy_floor,
                                     check_mass_conservation,
                                     check_quasi_energy, csv_header,
                                     derive_diagnostics, evaluate, lp_norm,
                                     read_csv,
                                     resolve_diagnostics, standard_checks,
                                     write_csv, append_csv)
from chemostokes.grid import Grid, grad_squared_cells, interior
from chemostokes.regularization import f_eps
from chemostokes.solver import FieldState, init_state, run


MODEL = ModelParams(m=1.2, k_d=1.0, eps=0.1, phi_gradient=(0.0, -1.0))


def uniform_state(grid, n_val, c_val):
    return FieldState(t=0.0, n=np.full(grid.cells, n_val),
                      c=np.full(grid.cells, c_val),
                      u=grid.zero_velocity(), p=np.zeros(grid.cells))


def rec(t, **kw):
    base = dict(mass=1.0, c_mass=1.0, c_max=1.0, c_l2sq=1.0, entropy=0.0,
                grad_c_energy=0.0, kinetic=0.0, e_total=0.0,
                dissipation_n=0.0, dissipation_c=0.0, dissipation_u=0.0,
                y_quasi=1.0, decay_gap_n=0.0, decay_gap_c=1.0,
                decay_gap_u=0.0, div_u_inf=0.0, consumed_mass_running=0.0,
                gradc_l2_running=0.0, lp_norms={})
    base.update(kw)
    return DiagnosticsRecord(t=t, **base)


# ------------------------------------------------------------
# resolution and evaluation
# ------------------------------------------------------------

def test_resolve_defaults_and_lp():
    grid = Grid((4, 4), (2.0, 2.0))
    n0 = np.full(grid.cells, 2.0)
    c0 = np.full(grid.cells, 3.0)
    params = DiagnosticsParams()  # kappa/sigma_c default, lp=(2,4,"m")
    diag = resolve_diagnostics(params, MODEL, grid, n0, c0)
    assert diag.kappa == 0.5 * 3.0 + 1.0
    assert diag.sigma_c == 1e-12 * 3.0
    assert diag.lp == (1.2, 2.0, 4.0)
    assert diag.mean_n0 == pytest.approx(2.0, rel=1e-15)
    # "m" duplicating a numeric entry is deduped
    params2 = DiagnosticsParams(lp=(1.2, "m"))
    diag2 = resolve_diagnostics(params2, MODEL, grid, n0, c0)
    assert diag2.lp == (1.2,)


def gaussian(amplitude, floor=0.0):
    return {"preset": "gaussian", "amplitude": amplitude, "width": 0.3,
            "floor": floor}


def initial(n0, c0, **extra):
    return {"n0": n0, "c0": c0, **extra}


def cosine(value, amplitude, **extra):
    return {"preset": "cosine", "value": value, "amplitude": amplitude,
            **extra}


@pytest.mark.parametrize("dim, ic", [
    pytest.param(2, initial({"preset": "constant", "value": 0.7},
                            gaussian(2.3, 0.1)), id="constant"),
    pytest.param(2, initial(gaussian(1.5, 0.1), cosine(0.9, 0.4, axis=1)),
                 id="gaussian"),
    pytest.param(2, initial({"preset": "two_bumps", "amplitude": 1.3},
                            {"preset": "two_bumps", "amplitude": 0.6}),
                 id="two_bumps"),
    pytest.param(2, initial({"preset": "two_bumps", "mean": 0.3},
                            {"preset": "constant", "value": 1e-200}),
                 id="two_bumps-mean-c0-1e-200"),
    pytest.param(2, initial(cosine(1.1, 0.7, mode=2),
                            {"preset": "constant", "value": 0.0}),
                 id="cosine-c0-zero"),
    pytest.param(2, initial(gaussian(1.5, 0.1), gaussian(0.8),
                            perturb={"amplitude": 0.2}), id="perturb"),
    pytest.param(3, initial(cosine(0.9, 0.3, axis=2),
                            {"preset": "constant", "value": 0.0}),
                 id="3d-c0-zero"),
])
def test_constants_derive_from_the_first_csv_row(tmp_path, dim, ic):
    """Resume derives kappa, sigma_c, lp and mean_n0 from the mass and
    c_max of diagnostics.csv's first row; they equal resolve_diagnostics
    on the initial fields bit for bit."""
    cfg = parse_config({
        "grid": {"cells": [8, 6, 5][:dim], "extent": [2.0, 1.5, 1.2][:dim]},
        "model": {"m": 1.3, "eps": 0.1},
        "phi": {"gradient": [0.0] * (dim - 1) + [-1.0]},
        "time": {"t_final": 0.01, "dt_max": 1e-3},
        "ic": ic, "seed": 5})
    grid = Grid(cfg.grid_cells, cfg.grid_extent)
    state = init_state(grid, cfg.model, cfg.ic, seed=cfg.seed)
    diag = resolve_diagnostics(cfg.diagnostics, cfg.model, grid,
                               state.n, state.c)
    tallies = RunningTallies()
    tallies.observe_state(state)
    path = str(tmp_path / "d.csv")
    write_csv([evaluate(grid, cfg.model, diag, state, tallies)], diag.lp,
              path)
    first = read_csv(path)[0]
    derived = derive_diagnostics(cfg.diagnostics, cfg.model, grid,
                                 first.mass, first.c_max)
    for f in fields(diag):
        assert getattr(derived, f.name) == getattr(diag, f.name), f.name


def test_evaluate_uniform_state_hand_values():
    grid = Grid((4, 4), (2.0, 2.0))      # |Omega| = 4, cell vol 0.25
    state = uniform_state(grid, 2.0, 3.0)
    diag = resolve_diagnostics(DiagnosticsParams(), MODEL, grid,
                               state.n, state.c)
    tallies = RunningTallies()
    tallies.observe_state(state)
    r = evaluate(grid, MODEL, diag, state, tallies)
    assert r.mass == pytest.approx(8.0, rel=1e-15)
    assert r.c_mass == pytest.approx(12.0, rel=1e-15)
    assert r.c_max == 3.0
    assert r.c_l2sq == pytest.approx(36.0, rel=1e-15)
    assert r.entropy == pytest.approx(4.0 * 2.0 * np.log(2.0), rel=1e-14)
    # uniform fields: no gradients, no motion, zero quasi-energy
    for name in ("grad_c_energy", "kinetic", "dissipation_n",
                 "dissipation_c", "dissipation_u", "y_quasi",
                 "decay_gap_n", "decay_gap_u", "div_u_inf"):
        assert getattr(r, name) == 0.0, name
    assert r.decay_gap_c == 3.0
    assert r.e_total == r.entropy
    assert r.lp_norms[2.0] == pytest.approx(2.0 * 4.0 ** 0.5, rel=1e-15)
    assert r.lp_norms[4.0] == pytest.approx(2.0 * 4.0 ** 0.25, rel=1e-15)
    assert r.lp_norms[1.2] == pytest.approx(2.0 * 4.0 ** (1 / 1.2), rel=1e-14)


def test_lp_norm_at_large_p_keeps_its_value():
    """n^p under- or overflows at large p; the norm is then taken scaled
    by max n.  Every sum that stays a positive finite float keeps the
    plain formula's bits, and NaN stays NaN."""
    vol = 0.25
    for n in (np.array([0.5, 1.5, 2.0, 0.0]), np.array([1e-3, 7.0])):
        for p in (1.0, 1.2, 2.0, 4.0, 9.5):
            plain = float(np.sum(np.power(n, p)) * vol) ** (1.0 / p)
            assert lp_norm(n, p, vol) == plain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(np.full(4, 0.5), 2000.0, vol) == 0.5
        assert lp_norm(np.full(4, 2.0), 2000.0, vol) == 2.0
        assert lp_norm(np.array([1.0, 2.0]), 2000.0, 0.5) \
            == pytest.approx(2.0 * 0.5 ** (1 / 2000), rel=1e-15)
        assert lp_norm(np.full(4, 1e200), 4.0, vol) \
            == pytest.approx(1e200, rel=1e-15)
        assert lp_norm(np.zeros(4), 2000.0, vol) == 0.0
        assert math.isnan(lp_norm(np.array([1.0, math.nan]), 2000.0, vol))


def test_lp_norm_of_the_exponent_m_at_m_2000():
    """m = 2000 with constant n0 0.5: lp_norm_m recorded 0.0 on every row
    when 0.5^2000 underflowed."""
    cfg = parse_config({
        "grid": {"cells": [8, 8], "extent": [1.0, 1.0]},
        "model": {"m": 2000.0, "k_D": 1.0, "eps": 0.1},
        "phi": {"gradient": [0.0, -1.0]},
        "time": {"t_final": 1e-3, "dt_max": 1e-3},
        "ic": {"n0": {"preset": "constant", "value": 0.5},
               "c0": {"preset": "constant", "value": 1.0}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = run(cfg).records
    assert len(records) == 2
    for r in records:
        assert r.lp_norms[2000.0] == pytest.approx(0.5, rel=1e-12)


def test_dissipation_n_at_large_m_is_never_nan():
    """n^(m/2) overflows at m = 4000: a flat n = 2 recorded NaN (inf - inf)
    instead of 0, and a field with max n = 2 NaN instead of +inf, its
    value being beyond the float range.  At m = 1e200 (2/m)^2 underflows
    to 0 as well.  Where the plain formula is finite, its bits are kept."""
    grid = Grid((8, 8), (1.0, 1.0))
    flat = uniform_state(grid, 2.0, 1.0)
    bumpy = uniform_state(grid, 1.0, 1.0)
    bumpy.n[3, 4] = 2.0
    bumpy.n[5, 1] = 0.25

    def dissipation_n(m, state):
        model = ModelParams(m=m, k_d=1.0, eps=0.1, phi_gradient=(0.0, -1.0))
        diag = resolve_diagnostics(DiagnosticsParams(), model, grid,
                                   state.n, state.c)
        return evaluate(grid, model, diag, state,
                        RunningTallies()).dissipation_n

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (4000.0, 1e200):
            assert dissipation_n(m, flat) == 0.0
            assert dissipation_n(m, bumpy) == math.inf
    for m in (1.2, 2.0, 40.0, 1000.0):
        gn2 = grad_squared_cells(grid, np.power(bumpy.n, 0.5 * m))
        plain = (2.0 / m) ** 2 * float(np.sum(gn2)) * grid.cell_volume
        assert math.isfinite(plain) and dissipation_n(m, bumpy) == plain


def test_entropy_floor_is_attained_not_crossed():
    # n == 1/e minimizes x log x pointwise; the summed entropy sits exactly
    # on -|Omega|/e
    grid = Grid((6, 6), (3.0, 3.0))
    state = uniform_state(grid, 1.0 / np.e, 1.0)
    diag = resolve_diagnostics(DiagnosticsParams(), MODEL, grid,
                               state.n, state.c)
    r = evaluate(grid, MODEL, diag, state, RunningTallies())
    assert r.entropy == pytest.approx(-grid.volume / np.e, rel=1e-14)
    # a zero-density state contributes 0 log 0 = 0
    state.n[...] = 0.0
    r0 = evaluate(grid, MODEL, diag, state, RunningTallies())
    assert r0.entropy == 0.0


def test_nan_cell_fails_entropy_floor():
    grid = Grid((4, 4), (2.0, 2.0))
    state = uniform_state(grid, 2.0, 3.0)
    diag = resolve_diagnostics(DiagnosticsParams(), MODEL, grid,
                               state.n, state.c)
    records = [evaluate(grid, MODEL, diag, state, RunningTallies())]
    state.n[1, 2] = np.nan
    records.append(evaluate(grid, MODEL, diag, state, RunningTallies()))
    assert np.isnan(records[-1].entropy)
    assert check_entropy_floor(records, grid.volume).passed is False


@pytest.mark.parametrize("cells, extent, axis", [
    ((8, 12), (2.0, 3.0), 0), ((8, 12), (2.0, 3.0), 1),
    ((6, 5, 4), (1.0, 1.5, 0.8), 0), ((6, 5, 4), (1.0, 1.5, 0.8), 2)])
def test_dissipation_u_of_a_discrete_eigenmode(cells, extent, axis):
    """One velocity component set to an eigenmode of the no-slip face
    operator: sin(pi k i/N) on the interior faces of its own axis,
    sin(pi k (j + 1/2)/N) along the others, so -Lap_h u = lam u."""
    grid = Grid(cells, extent)
    state = uniform_state(grid, 1.0, 1.0)
    modes = [1 + b for b in range(grid.dim)]
    profiles = [np.sin(np.pi * k * (np.arange(1, n) if b == axis
                                     else np.arange(n) + 0.5) / n)
                for b, (k, n) in enumerate(zip(modes, cells))]
    mode = np.prod(np.meshgrid(*profiles, indexing="ij"), axis=0)
    interior(state.u[axis], axis)[...] = mode
    lam = sum(4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2 / (h * h)
              for k, n, h in zip(modes, cells, grid.h))
    diag = resolve_diagnostics(DiagnosticsParams(), MODEL, grid,
                               state.n, state.c)
    r = evaluate(grid, MODEL, diag, state, RunningTallies())
    expect = lam * float(np.sum(mode * mode)) * grid.cell_volume
    assert r.dissipation_u == pytest.approx(expect, rel=1e-12)

    # a motionless fluid dissipates +0.0, never -0.0
    state.u = grid.zero_velocity()
    r0 = evaluate(grid, MODEL, diag, state, RunningTallies())
    assert r0.dissipation_u == 0.0
    assert math.copysign(1.0, r0.dissipation_u) == 1.0


def test_dissipation_c_finite_for_a_tiny_attractant():
    """|grad c|^4 / (c + sigma)^3 must not underflow to 0/0 when c is
    of order 1e-120 (sigma = 1e-12 max c0 is tinier still)."""
    cfg = parse_config({
        "grid": {"cells": [12, 12], "extent": [1.0, 1.0]},
        "model": {"m": 1.2, "k_D": 1.0, "eps": 0.2},
        "time": {"t_final": 0.004, "dt_max": 1e-3, "sample_every": 0.002},
        "ic": {"n0": {"preset": "gaussian", "amplitude": 1.0,
                      "width": 0.2, "floor": 0.2},
               "c0": {"preset": "gaussian", "amplitude": 1e-120,
                      "width": 0.2}},
    })
    values = [r.dissipation_c for r in run(cfg).records]
    assert len(values) == 3
    assert all(np.isfinite(v) and v >= 0.0 for v in values), values
    assert values[0] > 0.0


def test_tallies_right_endpoint_arithmetic():
    grid = Grid((4, 4), (2.0, 2.0))
    state = uniform_state(grid, 2.0, 3.0)
    tallies = RunningTallies()
    tallies.observe_state(state)
    dt = 0.125
    tallies.update(grid, MODEL, state, dt)
    expect = dt * float(f_eps(2.0, MODEL.eps)) * 3.0 * 4.0
    assert tallies.consumed_mass == pytest.approx(expect, rel=1e-15)
    assert tallies.gradc_l2 == 0.0
    assert tallies.sup_max_n == 2.0
    state.n[0, 0] = 5.0
    tallies.update(grid, MODEL, state, dt)
    assert tallies.sup_max_n == 5.0


# ------------------------------------------------------------
# checks on synthetic records
# ------------------------------------------------------------

def test_check_mass_conservation():
    good = [rec(0.0, mass=2.0), rec(1.0, mass=2.0 * (1 + 1e-15))]
    assert check_mass_conservation(good).passed
    bad = [rec(0.0, mass=2.0), rec(1.0, mass=2.002)]
    res = check_mass_conservation(bad)
    assert not res.passed
    assert res.max_deviation == pytest.approx(1e-3, rel=1e-9)
    assert res.at_time == 1.0


def test_check_c_max_monotone():
    good = [rec(0.0, c_max=1.0), rec(1.0, c_max=0.9), rec(2.0, c_max=0.9)]
    assert check_c_max_monotone(good).passed
    bad = [rec(0.0, c_max=1.0), rec(1.0, c_max=0.9), rec(2.0, c_max=0.95)]
    res = check_c_max_monotone(bad)
    assert not res.passed and res.at_time == 2.0
    assert res.max_deviation == pytest.approx(0.05)


def test_check_c_mass_identity():
    good = [rec(0.0, c_mass=2.0, consumed_mass_running=0.0),
            rec(1.0, c_mass=1.5, consumed_mass_running=0.5 + 2e-4)]
    assert check_c_mass_identity(good).passed
    bad = [rec(0.0, c_mass=2.0, consumed_mass_running=0.0),
           rec(1.0, c_mass=1.5, consumed_mass_running=0.503)]
    res = check_c_mass_identity(bad)
    assert not res.passed
    assert res.max_deviation == pytest.approx(3e-3)


def test_check_c_l2_inequality():
    good = [rec(0.0, c_l2sq=2.0, gradc_l2_running=0.0),
            rec(1.0, c_l2sq=1.0, gradc_l2_running=0.4)]
    assert check_c_l2_inequality(good).passed
    bad = [rec(0.0, c_l2sq=2.0, gradc_l2_running=0.0),
           rec(1.0, c_l2sq=1.9, gradc_l2_running=0.1)]
    res = check_c_l2_inequality(bad)
    assert not res.passed and res.max_deviation > 0.0


def test_check_entropy_floor():
    vol = 4.0
    floor = -vol / np.e
    good = [rec(0.0, entropy=floor + 0.1)]
    assert check_entropy_floor(good, vol).passed
    bad = [rec(0.0, entropy=floor + 0.1), rec(1.0, entropy=floor - 0.1)]
    res = check_entropy_floor(bad, vol)
    assert not res.passed and res.at_time == 1.0
    assert res.max_deviation == pytest.approx(-0.1)


def test_check_decay():
    good = [rec(0.0, decay_gap_n=1.0, decay_gap_c=2.0, decay_gap_u=0.5),
            rec(9.0, decay_gap_n=0.05, decay_gap_c=0.1, decay_gap_u=0.01)]
    res = check_decay(good)
    assert res.passed
    assert res.max_deviation == pytest.approx(0.05)  # n and c tie at 5%
    bad = [rec(0.0, decay_gap_n=1.0, decay_gap_c=2.0, decay_gap_u=0.5),
           rec(9.0, decay_gap_n=0.5, decay_gap_c=0.1, decay_gap_u=0.01)]
    assert not check_decay(bad).passed
    # all-zero references count as decayed
    flat = [rec(0.0, decay_gap_c=0.0), rec(1.0, decay_gap_c=0.0)]
    assert check_decay(flat).passed


def test_check_energy_boundedness_windows():
    def series(diss_by_window):
        out = []
        for j, d in enumerate(diss_by_window):
            for frac in (0.0, 0.5):
                out.append(rec(j + frac, dissipation_n=d, e_total=1.0))
        out.append(rec(float(len(diss_by_window)),
                       dissipation_n=diss_by_window[-1], e_total=1.0))
        return out

    ok = check_energy_boundedness(series([5.0, 4.0, 1.0, 0.5]))
    assert ok.passed, ok.detail
    bad = check_energy_boundedness(series([5.0, 4.0, 0.5, 3.0]))
    assert not bad.passed
    short = check_energy_boundedness([rec(0.0), rec(0.5), rec(1.0)])
    assert short.passed and "not testable" in short.detail
    inf = check_energy_boundedness(
        [rec(0.0, e_total=np.inf), rec(1.0)])
    assert not inf.passed


def test_check_energy_boundedness_sparse_window():
    """A window holding fewer than two samples cannot be integrated: the
    check fails at that window instead of passing it."""
    recs = [rec(t, e_total=1.0) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 4.0)]
    res = check_energy_boundedness(recs)
    assert not res.passed and res.at_time == 2.0
    assert "< 2 samples" in res.detail


def test_check_quasi_energy_window_constant():
    recs = [rec(0.0, y_quasi=1.0, c_l2sq=1.0),
            rec(0.5, y_quasi=4.0, c_l2sq=1.0),
            rec(1.0, y_quasi=2.0, c_l2sq=1.0),
            rec(1.5, y_quasi=1.0, c_l2sq=1.0),
            rec(2.0, y_quasi=0.5, c_l2sq=1.0)]
    res = check_quasi_energy(recs)
    assert res.passed
    # window starting at t=0: max y in (0,1] is 4, denom 1 + 1 = 2
    assert res.max_deviation == pytest.approx(2.0)
    assert res.at_time == 0.0


def healthy_series():
    """Nine samples over [0, 4] on which all eight checks pass; with
    window 1 the windowed dissipation and quasi-energy scans are active."""
    return [rec(0.5 * i, dissipation_n=1.0 / (1.0 + 0.5 * i),
                decay_gap_n=0.01 if i == 8 else 1.0,
                decay_gap_c=0.01 if i == 8 else 1.0,
                decay_gap_u=0.01 if i == 8 else 1.0)
            for i in range(9)]


@pytest.mark.parametrize("name, field, index", [
    ("mass_conservation", "mass", 4),
    ("c_max_monotone", "c_max", 4),
    ("c_max_monotone", "c_max", 0),
    ("c_mass_identity", "c_mass", 4),
    ("c_mass_identity", "consumed_mass_running", 8),
    ("c_l2_inequality", "c_l2sq", 4),
    ("c_l2_inequality", "gradc_l2_running", 8),
    ("entropy_floor", "entropy", 4),
    ("decay", "decay_gap_c", 0),
    ("decay", "decay_gap_n", 4),
    ("decay", "decay_gap_u", 8),
    ("energy_boundedness", "e_total", 4),
    ("energy_boundedness", "dissipation_n", 7),
    ("quasi_energy", "y_quasi", 4),
    ("quasi_energy", "y_quasi", 8),
])
def test_nan_sample_fails_its_check(name, field, index):
    grid = Grid((4, 4), (2.0, 2.0))
    records = healthy_series()
    assert all(c.passed for c in standard_checks(records, grid))
    setattr(records[index], field, float("nan"))
    res = {c.name: c for c in standard_checks(records, grid)}[name]
    assert res.passed is False, res


def test_standard_checks_battery_names():
    grid = Grid((4, 4), (2.0, 2.0))
    state = uniform_state(grid, 2.0, 3.0)
    diag = resolve_diagnostics(DiagnosticsParams(), MODEL, grid,
                               state.n, state.c)
    records = [evaluate(grid, MODEL, diag, state, RunningTallies())]
    names = [c.name for c in standard_checks(records, grid)]
    assert names == ["mass_conservation", "c_max_monotone",
                     "c_mass_identity", "c_l2_inequality", "entropy_floor",
                     "decay", "energy_boundedness", "quasi_energy"]


# ------------------------------------------------------------
# CSV round trip
# ------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    lp = (1.2, 2.0)
    recs = [rec(0.1 + 0.2, mass=1.0 / 3.0, entropy=-4.0 / np.e,
                c_l2sq=1e-300, lp_norms={1.2: 37.0 / 13.0, 2.0: np.pi}),
            rec(1.0, mass=float(np.nextafter(1.0, 2.0)),
                lp_norms={1.2: 0.0, 2.0: 1e308})]
    path = str(tmp_path / "d.csv")
    write_csv(recs, lp, path)
    back = read_csv(path)
    assert back == recs   # dataclass equality: bit-exact floats, dict equal
    header = csv_header(lp)
    assert header[0] == "t"
    assert header[-2:] == ["lp_norm_1.2", "lp_norm_2"]


def test_append_matches_bulk_write(tmp_path):
    lp = (2.0, 4.0)
    r1 = rec(0.0, lp_norms={2.0: 1.5, 4.0: 2.5})
    r2 = rec(0.5, mass=0.7, lp_norms={2.0: 1.4, 4.0: 2.4})
    bulk, inc = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv([r1, r2], lp, bulk)
    write_csv([r1], lp, inc)
    append_csv(inc, r2, lp)
    assert open(bulk, "rb").read() == open(inc, "rb").read()
