"""Conservative finite-volume stepper for the regularized system.

Unknowns on a MAC grid: cell density n, attractant c (cell centers),
velocity u (faces), pressure accumulator P (cell centers).  One step of
size dt is a Lie splitting u -> c -> n:

  u:  add the buoyancy force n_face * grad(phi), Helmholtz-project it
      (an exact discrete gradient force is absorbed into pressure here,
      so a buoyancy-balanced rest state stays at rest to round-off),
      implicit viscous solve (I - dt Lap), final projection.  Both
      projections and the viscous solve are exact spectral solves;
      ||div u||_inf is checked every step, the solves once, at set-up.

  c:  explicit flux-form upwind advection, implicit pointwise consumption
      c/(1 + dt f_eps(n)), implicit diffusion (DCT solve), then a clip of
      negative transform round-off.  Every sub-step is monotone, so
      0 <= c_new and max c is non-increasing by construction.

  n:  explicit flux-form update with three face fluxes per axis:
      upwind advection u * n_up, upwind chemotactic drift
      n_up chi_eps(n_up) * grad_h c, and degenerate diffusion
      -avg(d_eps(n)) * grad_h n.  Boundary faces carry zero flux, so the
      cell sum telescopes and mass is conserved to round-off.

One stability budget serves every step.  The c-step's only explicit
term is upwind advection by u, so dt is 0.9 (CFL) times its limit 1/r_adv,
capped at dt_max.  The density update has three explicit rates: advection
r_adv, drift r_drift (chi_eps <= 1 times the face gradient of c, counted
for both faces of an axis) and degenerate diffusion r_diff, which scales
with 1/h^2.  After the c-step, with u and c frozen for the n-phase,
step() runs the n-update k = ceil(dt * (r_adv + r_drift + r_diff) / 0.9)
times in equal substeps of dt/k, so the u- and c-steps run once per step
whatever h is.  k is not recounted between substeps.  The positivity
guard on every n-update is the runtime certificate: it raises
NumericalError naming the first cell whose density went negative.

What u and c fix for the n-phase is computed once per step, not once
per n-update: per axis, the interior face speed, c's face gradient and
the masks `> 0` that pick the upwind cell of each (frozen_terms).  c's
face gradient is taken once after the c-step and serves both the drift
rate and the n-phase.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import SimConfig, _int, config_to_dict, known_keys
from .diagnostics import C_MAX_SLACK, RunningTallies, derive_diagnostics, \
    resolve_diagnostics, evaluate, standard_checks, write_csv, read_csv, \
    append_csv
from .errors import ConfigError, NumericalError
from .grid import Grid, axslice, divergence, face_avg, face_diff, \
    face_upwind, full_faces, interior
from .regularization import chi_eps, d_eps, f_eps
from .snapshots import load_manifest, load_snapshot, write_json, \
    write_manifest, write_snapshot
from .spectral import SpectralCache, face_laplacian, neumann_laplacian, \
    solve_cell_helmholtz, solve_face_helmholtz, solve_neumann_poisson

DIV_TOL = 1e-10      # projection residual contract
SOLVE_TOL = 1e-10    # implicit-solve residual contract
CFL = 0.9            # share of the stability budget one update uses
# Most density substeps one step may take.  The tests and benchmark runs
# need at most 192; a million updates of even an 8^2 grid take about a
# minute (50 us each).  k grows with max(n)^(m-1), so past the cap a run
# would not end (n = 5 on an 8^2 grid asks for 5e26 at m = 40): it stops.
MAX_SUBSTEPS = 10**6


@dataclass
class FieldState:
    """Prognostic fields at one instant.  u[a] is the full face array of
    component a, boundary faces included (and kept at zero)."""
    t: float
    n: np.ndarray
    c: np.ndarray
    u: list
    p: np.ndarray


# ============================================================
# initial conditions
# ============================================================

_SCALAR_PRESETS = ("constant", "gaussian", "two_bumps", "cosine")


def _preset_num(spec: dict, key: str, default, where: str) -> float:
    """float() of spec[key] (default if absent); exit 1 where it fails."""
    try:
        return float(spec.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key}: must be a number, "
                          f"got {spec[key]!r}") from None


def _build_scalar(grid: Grid, spec: dict, where: str) -> np.ndarray:
    preset = spec.get("preset")
    xs = grid.centers()
    center = [0.5 * e for e in grid.extent]
    if preset == "constant":
        known_keys(spec, ("preset", "value"), where)
        value = _preset_num(spec, "value", 1.0, where)
        if value < 0.0:
            raise ConfigError(f"{where}: constant value must be >= 0, "
                              f"got {value}")
        return np.full(grid.cells, value)
    if preset == "gaussian":
        known_keys(spec, ("preset", "amplitude", "width", "floor"), where)
        amp = _preset_num(spec, "amplitude", 1.0, where)
        width = _preset_num(spec, "width", 0.1 * min(grid.extent), where)
        floor = _preset_num(spec, "floor", 0.0, where)
        if amp < 0 or floor < 0 or width <= 0:
            raise ConfigError(
                f"{where}: gaussian needs amplitude >= 0, floor >= 0, "
                f"width > 0")
        r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        return floor + amp * np.exp(-r2 / (2.0 * width * width))
    if preset == "two_bumps":
        known_keys(spec, ("preset", "amplitude", "width", "mean"), where)
        amp = _preset_num(spec, "amplitude", 1.0, where)
        width = _preset_num(spec, "width", 0.1 * min(grid.extent), where)
        if amp <= 0 or width <= 0:
            raise ConfigError(
                f"{where}: two_bumps needs amplitude > 0 and width > 0")
        shift = 0.25 * grid.extent[0]
        out = np.zeros(grid.cells)
        for sgn in (-1.0, 1.0):
            at = [center[0] + sgn * shift, *center[1:]]
            r2 = sum((x - c) ** 2 for x, c in zip(xs, at))
            out += amp * np.exp(-r2 / (2.0 * width * width))
        if spec.get("mean") is not None:
            mean = _preset_num(spec, "mean", None, where)
            if mean <= 0:
                raise ConfigError(f"{where}: mean must be > 0, got {mean}")
            out *= mean / (np.sum(out) * grid.cell_volume / grid.volume)
        return out
    if preset == "cosine":
        known_keys(spec, ("preset", "value", "amplitude", "axis", "mode"),
                   where)
        base = _preset_num(spec, "value", 1.0, where)
        amp = _preset_num(spec, "amplitude", 0.5, where)
        axis = _int(spec.get("axis", 0), f"{where}.axis")
        mode = _int(spec.get("mode", 1), f"{where}.mode")
        if not 0 <= axis < grid.dim:
            raise ConfigError(f"{where}: cosine axis {axis} out of range")
        if base < abs(amp):
            raise ConfigError(
                f"{where}: cosine needs value >= |amplitude| to stay "
                f"nonnegative, got {base} < |{amp}|")
        x = xs[axis]
        return base + amp * np.cos(mode * np.pi * x / grid.extent[axis])
    raise ConfigError(
        f"{where}: unknown preset {preset!r}; known: {_SCALAR_PRESETS}")


def _build_velocity(grid: Grid, spec: dict):
    preset = spec.get("preset", "zero")
    if preset == "zero":
        known_keys(spec, ("preset",), "ic.u0")
        return grid.zero_velocity()
    if preset == "vortex":
        known_keys(spec, ("preset", "amplitude"), "ic.u0")
        # streamfunction on corner nodes -> discretely divergence-free
        amp = _preset_num(spec, "amplitude", 1.0, "ic.u0")
        nx, ny = grid.cells[0], grid.cells[1]
        hx, hy = grid.h[0], grid.h[1]
        xn = np.arange(nx + 1) * hx
        yn = np.arange(ny + 1) * hy
        psi2 = amp * np.outer(np.sin(np.pi * xn / grid.extent[0]),
                              np.sin(np.pi * yn / grid.extent[1]))
        u = grid.zero_velocity()
        ux = np.diff(psi2, axis=1) / hy           # (nx+1, ny)
        uy = -np.diff(psi2, axis=0) / hx          # (nx, ny+1)
        if grid.dim == 2:
            u[0][...] = ux
            u[1][...] = uy
        else:
            u[0][...] = ux[:, :, None]
            u[1][...] = uy[:, :, None]
            # u_z stays zero; the roll is independent of z
        return u
    raise ConfigError(f"ic.u0: unknown preset {preset!r}; known: "
                      f"('zero', 'vortex')")


def init_state(grid: Grid, model, ic, seed: int = 0,
               cache: SpectralCache | None = None) -> FieldState:
    """Build the initial state: nonnegative n (not identically zero),
    nonnegative c, divergence-free no-slip u, zero pressure.

    The optional multiplicative perturbation of n uses the counter-based
    Philox generator, so a (seed, shape) pair fully determines it.
    """
    n0 = _build_scalar(grid, ic.n0, "ic.n0")
    if ic.perturb is not None:
        amp = float(ic.perturb["amplitude"])
        rng = np.random.Generator(np.random.Philox(seed))
        n0 = n0 * (1.0 + amp * rng.uniform(-1.0, 1.0, size=n0.shape))
    if float(np.max(n0)) <= 0.0:
        raise ConfigError("ic.n0: initial density must not vanish identically")
    c0 = _build_scalar(grid, ic.c0, "ic.c0")
    u0 = _build_velocity(grid, ic.u0)
    cache = cache if cache is not None else SpectralCache(grid)
    state = FieldState(t=0.0, n=n0, c=c0, u=u0, p=np.zeros(grid.cells))
    _project(grid, cache, state.u)
    return state


# ============================================================
# sub-steps
# ============================================================

def _project(grid: Grid, cache: SpectralCache, faces) -> np.ndarray:
    """Remove the discrete-gradient part of a face field in place.

    Solves the compatible Neumann Poisson problem for div(faces) and
    subtracts grad(phi) on interior faces; boundary faces are untouched
    (they stay zero).  Returns phi.
    """
    div = divergence(grid, faces)
    phi = solve_neumann_poisson(cache, div)
    for a in range(grid.dim):
        interior(faces[a], a)[...] -= face_diff(grid, phi, a)
    return phi


def step_u(grid: Grid, cache: SpectralCache, state: FieldState, model,
           dt: float) -> float:
    """Forced Stokes update; see the module docstring for the scheme."""
    w = [ua.copy() for ua in state.u]
    for a in range(grid.dim):
        g = model.phi_gradient[a]
        if g != 0.0:
            interior(w[a], a)[...] += dt * g * face_avg(state.n, a)
    phi1 = _project(grid, cache, w)

    for a in range(grid.dim):
        ustar = solve_face_helmholtz(cache, interior(w[a], a), a, dt)
        state.u[a] = full_faces(grid, ustar, a)
    phi2 = _project(grid, cache, state.u)
    state.p = (phi1 + phi2) / dt

    div_inf = float(np.max(np.abs(divergence(grid, state.u))))
    if div_inf > DIV_TOL:
        raise NumericalError(
            f"projection left ||div u||_inf = {div_inf:.3e} > {DIV_TOL} "
            f"at t = {state.t}")
    return div_inf


def step_c(grid: Grid, cache: SpectralCache, state: FieldState, model,
           dt: float) -> None:
    """Attractant update: upwind advection, implicit consumption,
    implicit diffusion, round-off clip."""
    c = state.c
    max_before = float(np.max(c))

    fluxes = []
    for a in range(grid.dim):
        speed = interior(state.u[a], a)
        fluxes.append(full_faces(
            grid, speed * face_upwind(c, speed, a), a))
    c_adv = c - dt * divergence(grid, fluxes)

    c_cons = c_adv / (1.0 + dt * f_eps(state.n, model.eps))
    c_new = np.maximum(solve_cell_helmholtz(cache, c_cons, dt), 0.0)
    max_after = float(np.max(c_new))
    if max_after > max_before + C_MAX_SLACK * (1.0 + max_before):
        raise NumericalError(
            f"attractant max rose from {max_before} to {max_after} in one "
            f"step at t = {state.t}; monotone sub-steps must be broken")
    state.c = c_new


def c_gradients(grid: Grid, state: FieldState) -> list:
    """c's face gradient on the interior faces of each axis."""
    return [face_diff(grid, state.c, a) for a in range(grid.dim)]


def frozen_terms(state: FieldState, grad_c: list) -> list:
    """What the n-phase reads of u and c, which stay frozen through it:
    per axis, the interior face speed, c's face gradient (grad_c, from
    c_gradients) and the masks `> 0` that pick their upwind cells."""
    terms = []
    for a, g in enumerate(grad_c):
        speed = interior(state.u[a], a)
        terms.append((speed, speed > 0.0, g, g > 0.0))
    return terms


def step_n(grid: Grid, state: FieldState, model, dt: float,
           terms: list) -> None:
    """Density update: one conservative flux-form step, guarded for
    positivity (step() keeps dt/k within the stability budget).  `terms`
    is frozen_terms() of the state after the c-step."""
    n = state.n
    de = d_eps(n, model.eps, model.m, model.k_d)

    fluxes = []
    for a, (speed, ahead, g, uphill) in enumerate(terms):
        # face_upwind's rule, on the hoisted masks
        left = axslice(n, a, slice(0, -1))
        right = axslice(n, a, slice(1, None))
        n_up = np.where(uphill, left, right)
        flux = speed * np.where(ahead, left, right) \
            + n_up * (chi_eps(n_up, model.eps) * g) \
            - face_avg(de, a) * face_diff(grid, n, a)
        fluxes.append(full_faces(grid, flux, a))

    n_new = n - dt * divergence(grid, fluxes)
    n_min = float(np.min(n_new))
    if n_min < 0.0:
        idx = np.unravel_index(int(np.argmin(n_new)), n_new.shape)
        raise NumericalError(
            f"density positivity lost at cell {tuple(int(i) for i in idx)} "
            f"(n = {n_min:.3e}) at t = {state.t} with dt = {dt}")
    state.n = n_new


# ============================================================
# full step and dt selection
# ============================================================

def stability_rates(grid: Grid, state: FieldState, model,
                    grad_c: list | None = None):
    """Summed per-axis rates of the three explicit mechanisms: upwind
    advection by u, chemotactic drift (chi_eps <= 1) and degenerate
    diffusion of n.  The drift rate counts both faces of an axis: at a
    grid-scale minimum of c, drift drains a cell through both.  grad_c
    is c_gradients() of the state when the caller has it already."""
    if grad_c is None:
        grad_c = c_gradients(grid, state)
    r_adv = sum(float(np.max(np.abs(state.u[a]))) / grid.h[a]
                for a in range(grid.dim))
    r_drift = sum(2.0 * float(np.max(np.abs(g))) / grid.h[a]
                  for a, g in enumerate(grad_c))
    max_n = float(np.max(state.n))
    try:
        max_d = model.k_d * max_n ** (model.m - 1.0) + model.eps
    except OverflowError:   # step()'s substep cap stops an infinite rate
        max_d = math.inf
    r_diff = sum(2.0 * max_d / (grid.h[a] * grid.h[a])
                 for a in range(grid.dim))
    return r_adv, r_drift, r_diff


def choose_dt(grid: Grid, state: FieldState, model, dt_max: float) -> float:
    """0.9 times the advective limit of the c-step, capped at dt_max;
    step() substeps the density update under the whole budget."""
    r_adv = stability_rates(grid, state, model)[0]
    return min(dt_max, CFL / r_adv) if r_adv > 0.0 else dt_max


def step(grid: Grid, cache: SpectralCache, state: FieldState, model,
         dt: float) -> float:
    """Advance the coupled state by dt (Lie order u -> c -> n); returns
    the u-step's ||div u||_inf.

    A NaN substep ratio gives k = 1; a ratio over MAX_SUBSTEPS, inf
    included, raises NumericalError before the first n-update.  Not
    recounting k is safe: aggregation can raise max n, and so r_diff,
    within the n-phase, but only by a fraction of the 0.1 left below 1.
    """
    if dt <= 0.0:
        raise NumericalError(f"nonpositive dt = {dt} at t = {state.t}")
    div_inf = step_u(grid, cache, state, model, dt)
    step_c(grid, cache, state, model, dt)
    grad_c = c_gradients(grid, state)
    rates = stability_rates(grid, state, model, grad_c)
    ratio = dt * sum(rates) / CFL
    if ratio > MAX_SUBSTEPS:
        r_adv, r_drift, r_diff = rates
        raise NumericalError(
            f"the density update needs k = {ratio:.6g} substeps, over the "
            f"cap of {MAX_SUBSTEPS:g}: r_adv = {r_adv:.3g}, r_drift = "
            f"{r_drift:.3g}, r_diff = {r_diff:.3g}, max n = "
            f"{float(np.max(state.n))}, m = {model.m}, t = {state.t}")
    k = math.ceil(ratio) if ratio > 1.0 else 1
    terms = frozen_terms(state, grad_c)
    for _ in range(k):
        step_n(grid, state, model, dt / k, terms)
    state.t += dt
    return div_inf


# ============================================================
# run driver
# ============================================================

@dataclass
class RunResult:
    config: SimConfig
    grid: Grid
    records: list
    checks: list
    state: FieldState
    steps_taken: int
    max_residuals: dict     # verify_solves()'s, and div_u_inf over steps


def verify_solves(grid: Grid, cache: SpectralCache, a: float) -> dict:
    """Largest max|x - a Lap_h x - b| / (1 + max|b|) of c's and u's
    spectral solves of (I - a Lap_h) x = b, b a seeded field that excites
    every mode; raises unless <= SOLVE_TOL.  A corrupt eigenvalue moves
    it more the larger a is, so run() passes a bound on every step's dt."""
    rng = np.random.Generator(np.random.Philox(0))
    found = {"c_helmholtz_rel": 0.0, "viscous_rel": 0.0}
    for axis in range(-1, grid.dim):      # -1: the cell solve
        b = rng.uniform(-1.0, 1.0, size=[n - (d == axis) for d, n in
                                         enumerate(grid.cells)])
        if axis < 0:
            key, x = "c_helmholtz_rel", solve_cell_helmholtz(cache, b, a)
            lap = neumann_laplacian(grid, x)
        else:
            key, x = "viscous_rel", solve_face_helmholtz(cache, b, axis, a)
            lap = face_laplacian(grid, full_faces(grid, x, axis), axis)
        lap *= -a           # x - a Lap_h x - b, with no temporaries
        lap += x
        lap -= b
        rel = float(np.max(np.abs(lap, out=lap))) \
            / (1.0 + float(np.max(np.abs(b))))
        if not rel <= SOLVE_TOL:
            where = "cells" if axis < 0 else f"faces of axis {axis}"
            raise NumericalError(f"{key} {rel:.3e} > {SOLVE_TOL} at set-up "
                                 f"({where}, dt {a})")
        found[key] = max(found[key], rel)
    return found


def sample_times(t_final: float, sample_every: float | None):
    """Record times: 0, every sample_every, and t_final exactly once."""
    times = [0.0]
    if sample_every is not None:
        k = 1
        while k * sample_every < t_final * (1.0 - 1e-12):
            times.append(k * sample_every)
            k += 1
    times.append(t_final)
    return times


def run(cfg: SimConfig, resume: bool = False) -> RunResult:
    """Execute a configured run; optionally resume from its manifest.

    Writes diagnostics.csv incrementally, one snapshot per sample time,
    and a manifest that makes the run resumable bit-for-bit.  On
    NumericalError the partial outputs are finalized with status "failed"
    before the error propagates (CLI exit code 2).
    """
    grid = Grid(cfg.grid_cells, cfg.grid_extent)
    cache = SpectralCache(grid)
    max_residuals = verify_solves(
        grid, cache, min(cfg.time.dt_max, cfg.time.t_final))
    max_residuals["div_u_inf"] = 0.0
    model = cfg.model
    run_dir = cfg.output_dir
    csv_path = os.path.join(run_dir, "diagnostics.csv") if run_dir else None
    schedule = sample_times(cfg.time.t_final, cfg.time.sample_every)

    if resume:
        if not run_dir:
            raise ConfigError("resume requires an output directory")
        manifest = load_manifest(run_dir)
        if manifest.get("config") != config_to_dict(cfg):
            raise ConfigError(
                "resume: config does not match the manifest echo; "
                "refusing to continue a different run")
        # values are read by the names they are used under; `path` names
        # the file being read for the error of a damaged directory
        path = os.path.join(run_dir, "manifest.json")
        try:
            samples = manifest["samples"]
            if not isinstance(samples, list) or not samples:
                raise ConfigError(f"resume: no samples in {path}")
            last = samples[-1]
            t0, snap = load_snapshot(run_dir, last["files"], grid.dim)
            state = FieldState(
                t=t0, n=snap["n"], c=snap["c"],
                u=[snap[f"u{a}"] for a in range(grid.dim)], p=snap["p"])
            tallies = RunningTallies(**{f.name: float.fromhex(
                last["tallies"][f.name]) for f in fields(RunningTallies)})
            steps_taken = int(last["step_count"])
            path = csv_path
            records = read_csv(csv_path)
        except FileNotFoundError as exc:
            raise ConfigError(f"resume: no such file {exc.filename}") from None
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise ConfigError(f"resume: damaged {path}: "
                              f"{type(exc).__name__}: {exc}") from None
        if len(records) < len(samples):
            raise ConfigError(f"resume: {csv_path} has {len(records)} rows "
                              f"for {len(samples)} samples")
        records = records[:len(samples)]
        # the first row's mass and max c give the constants bit for bit
        diag = derive_diagnostics(cfg.diagnostics, model, grid,
                                  records[0].mass, records[0].c_max)
        found = tuple(records[0].lp_norms)
        if found != diag.lp:
            raise ConfigError(f"resume: damaged {csv_path}: lp_norm columns "
                              f"for p = {found}, not {diag.lp}")
        manifest["status"] = "running"
        manifest.pop("error", None)
    else:
        state = init_state(grid, model, cfg.ic, seed=cfg.seed, cache=cache)
        tallies = RunningTallies()
        tallies.observe_state(state)
        diag = resolve_diagnostics(cfg.diagnostics, model, grid,
                                   state.n, state.c)
        steps_taken = 0
        records = []
        manifest = {"format": "chemostokes-run", "version": 1,
                    "config": config_to_dict(cfg),
                    "status": "running", "samples": []}

    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        # header, plus replayed rows on resume (truncates stale tail rows)
        write_csv(records, diag.lp, csv_path)

    def emit(index):
        rec = evaluate(grid, model, diag, state, tallies)
        records.append(rec)
        if run_dir:
            append_csv(csv_path, rec, diag.lp)
            files = write_snapshot(run_dir, index, state)
            manifest["samples"].append({
                "index": index, "t": state.t, "step_count": steps_taken,
                "files": files,
                "tallies": {name: float(value).hex()
                            for name, value in asdict(tallies).items()}})
            write_manifest(run_dir, manifest)

    try:
        for idx in range(len(records), len(schedule)):
            target = schedule[idx]
            while state.t < target:
                dt = choose_dt(grid, state, model, cfg.time.dt_max)
                closing = state.t + dt >= target - 1e-12 * max(1.0, target)
                if closing:
                    dt = target - state.t
                div_inf = step(grid, cache, state, model, dt)
                if closing:
                    state.t = target
                tallies.update(grid, model, state, dt)
                steps_taken += 1
                # np.maximum, unlike max(), keeps a NaN from any step
                max_residuals["div_u_inf"] = float(np.maximum(
                    max_residuals["div_u_inf"], div_inf))
            emit(idx)
    except NumericalError as exc:
        if run_dir:
            manifest["status"] = "failed"
            manifest["error"] = str(exc)
            write_manifest(run_dir, manifest)
        raise

    checks = standard_checks(records, grid)
    if run_dir:
        write_json(os.path.join(run_dir, "checks.json"),
                   [asdict(c) for c in checks])
        manifest["status"] = "complete"
        write_manifest(run_dir, manifest)
    return RunResult(config=cfg, grid=grid, records=records, checks=checks,
                     state=state, steps_taken=steps_taken,
                     max_residuals=max_residuals)
