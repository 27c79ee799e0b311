"""Diagnostics records, running accumulators, and verification checks.

Everything here is evaluated from sampled states and per-step tallies;
nothing feeds back into the solver.  Conventions:

  * gradients are face-based; |grad f|^2 per cell is the face-average, so
    cell sums equal face sums exactly (see grid.grad_squared_cells),
  * the velocity dissipation sum |grad u|^2 * vol is taken as
    -<u, Lap_h u> * vol with the viscous solve's no-slip operator
    (spectral.face_laplacian), equal to it by summation by parts,
  * running integrals are right-endpoint Riemann sums accumulated every
    step (dt * integrand at the post-step state), independent of any
    bookkeeping inside the steppers,
  * the entropy uses x log x with 0 log 0 = 0, which is >= -1/e cell by
    cell for every density, so it is >= -|Omega|/e (check_entropy_floor),
  * the energy constants come from the data, none from the config: the
    kinetic weight kappa = 0.5 max c0 + 1 and the gradient-energy floor
    sigma = 1e-12 max c0 (1e-12 when c0 vanishes) are fixed at t = 0,
    and the quasi-energy constant C1 is the running sup of max n.

Checks return CheckResult rows (name, passed, max deviation, worst time)
that run() serializes into checks.json.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .config import float_name
from .grid import Grid, divergence, grad_squared_cells, interior, \
    velocity_magnitude_squared_cells
from .regularization import f_eps
from .spectral import face_laplacian

MASS_TOL_REL = 1e-12        # mass drift, relative to the initial mass
C_MAX_SLACK = 1e-12         # rise of max c, times 1 + max c; step_c too
C_MASS_TOL = 1e-3           # c-mass identity deviation, absolute
C_L2_TOL_REL = 1e-6         # c L2 inequality margin, relative
ENTROPY_SLACK = 1e-9        # below -|Omega|/e, times 1 + |Omega|
DECAY_THRESHOLD = 0.1       # endpoint decay-gap ratio
WINDOW = 1.0                # window length of the windowed checks
SKIP_WINDOWS = 2            # transient windows energy_boundedness skips
ENERGY_TOL_REL = 1e-6       # windowed-dissipation rise, relative


@dataclass
class ResolvedDiagnostics:
    """Diagnostics parameters resolved against the initial state."""
    kappa: float                # kinetic-energy weight
    sigma_c: float              # gradient-energy floor, > 0
    lp: tuple                   # numeric exponents, resolved and deduped
    mean_n0: float              # initial mean density (decay reference)


def derive_diagnostics(params, model, grid: Grid, mass0: float,
                       c0max: float) -> ResolvedDiagnostics:
    """The constants from mass(0) and max c0 (diagnostics.csv's row 0)."""
    lp = {model.m if p == "m" else float(p) for p in params.lp}
    return ResolvedDiagnostics(
        kappa=0.5 * c0max + 1.0,
        # 1e-12 where max c0 = 0, so that |grad c|^2/(c + sigma) is never 0/0
        sigma_c=1e-12 * c0max or 1e-12,
        lp=tuple(sorted(lp)),
        mean_n0=mass0 / grid.volume,
    )


def resolve_diagnostics(params, model, grid: Grid, n0, c0) -> ResolvedDiagnostics:
    """derive_diagnostics() on the initial fields."""
    return derive_diagnostics(params, model, grid,
                              float(np.sum(n0)) * grid.cell_volume,
                              float(np.max(c0)))


@dataclass
class RunningTallies:
    """Per-step accumulators: consumed attractant mass, time-integrated
    Dirichlet energy of c, and the running sup of max n."""
    consumed_mass: float = 0.0
    gradc_l2: float = 0.0
    sup_max_n: float = 0.0

    def observe_state(self, state):
        self.sup_max_n = max(self.sup_max_n, float(np.max(state.n)))

    def update(self, grid: Grid, model, state, dt: float):
        """Right-endpoint update after one completed step of size dt."""
        vol = grid.cell_volume
        self.consumed_mass += dt * float(
            np.sum(f_eps(state.n, model.eps) * state.c)) * vol
        self.gradc_l2 += dt * float(
            np.sum(grad_squared_cells(grid, state.c))) * vol
        self.observe_state(state)


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float                  # sum n * vol
    c_mass: float                # sum c * vol
    c_max: float
    c_l2sq: float                # sum c^2 * vol
    entropy: float               # sum n log n * vol
    grad_c_energy: float         # 0.5 sum |grad c|^2/(c+sigma) * vol
    kinetic: float               # kappa * sum |u|^2 * vol
    e_total: float
    dissipation_n: float         # (2/m)^2 sum |grad n^(m/2)|^2 * vol
    dissipation_c: float         # sum |grad c|^4/(c+sigma)^3 * vol
    dissipation_u: float         # -<u, Lap_h u> * vol (no-slip walls)
    y_quasi: float
    decay_gap_n: float           # || n - mean_n0 ||_L2
    decay_gap_c: float           # max c + max |grad c|
    decay_gap_u: float           # max |u| over faces
    div_u_inf: float             # max |div u| over cells
    consumed_mass_running: float
    gradc_l2_running: float
    lp_norms: dict               # p -> || n ||_Lp


def lp_norm(n: np.ndarray, p: float, vol: float) -> float:
    """(sum n^p vol)^(1/p).  Where that sum is not a positive finite float
    (n^p under- or overflows at large p), it is taken as
    M (sum (n/M)^p vol)^(1/p) with M = max n instead; NaN stays NaN."""
    with np.errstate(over="ignore"):
        total = float(np.sum(np.power(n, p)) * vol)
    if not 0.0 < total < np.inf:
        big = float(np.max(n))
        if 0.0 < big < np.inf:
            return big * float(np.sum(np.power(n / big, p)) * vol) ** (1.0 / p)
    return total ** (1.0 / p)


def _rescaled_dissipation_n(grid: Grid, n: np.ndarray, m: float) -> float:
    """(2/m)^2 sum |grad n^(m/2)|^2 where n^(m/2) overflows a float (large
    m), taken as ((2/m) M^(m/2))^2 sum |grad (n/M)^(m/2)|^2 with M = max n:
    0.0 for a flat field, +inf beyond the float range, NaN where M is not
    a positive float."""
    big = float(np.max(n))
    if not 0.0 < big < np.inf:
        return np.nan
    q = 0.5 * m
    scaled = float(np.sum(grad_squared_cells(grid, np.power(n / big, q))))
    with np.errstate(over="ignore"):
        return float(scaled and (2.0 / m * np.power(big, q)) ** 2 * scaled)


def evaluate(grid: Grid, model, diag: ResolvedDiagnostics, state,
             tallies: RunningTallies) -> DiagnosticsRecord:
    vol = grid.cell_volume
    n, c, u = state.n, state.c, state.u

    mass = float(np.sum(n)) * vol
    c_mass = float(np.sum(c)) * vol
    c_max = float(np.max(c))
    c_l2sq = float(np.sum(c * c)) * vol

    entropy = float(np.sum(n * np.log(np.maximum(n, 1e-300)))) * vol

    gc2 = grad_squared_cells(grid, c)
    c_safe = c + diag.sigma_c
    q = gc2 / c_safe
    grad_c_energy = 0.5 * float(np.sum(q)) * vol
    kinetic = diag.kappa * float(
        np.sum(velocity_magnitude_squared_cells(grid, u))) * vol

    with np.errstate(over="ignore", invalid="ignore"):
        gn2 = grad_squared_cells(grid, np.power(n, 0.5 * model.m))
    dissipation_n = (2.0 / model.m) ** 2 * float(np.sum(gn2)) * vol
    if not dissipation_n < np.inf:  # n^(m/2) overflowed, or n holds a NaN
        dissipation_n = _rescaled_dissipation_n(grid, n, model.m) * vol
    # as q^2 / c_safe: gc2^2 / c_safe^3 is 0/0 when c is tiny
    dissipation_c = float(np.sum(q * q / c_safe)) * vol
    # negated term by term, so that u = 0 gives +0.0
    dissipation_u = sum(
        -float(np.sum(interior(ua, a) * face_laplacian(grid, ua, a)))
        for a, ua in enumerate(u)) * vol

    c1 = tallies.sup_max_n
    dev = n - diag.mean_n0
    dev_l2sq = float(np.sum(dev * dev)) * vol
    y_quasi = dev_l2sq + c1 * c1 * float(np.sum(gc2)) * vol

    return DiagnosticsRecord(
        t=state.t, mass=mass, c_mass=c_mass, c_max=c_max, c_l2sq=c_l2sq,
        entropy=entropy, grad_c_energy=grad_c_energy, kinetic=kinetic,
        e_total=entropy + grad_c_energy + kinetic,
        dissipation_n=dissipation_n, dissipation_c=dissipation_c,
        dissipation_u=dissipation_u, y_quasi=y_quasi,
        decay_gap_n=float(np.sqrt(dev_l2sq)),
        decay_gap_c=c_max + float(np.sqrt(np.max(gc2))),
        decay_gap_u=max(float(np.max(np.abs(ua))) for ua in u),
        div_u_inf=float(np.max(np.abs(divergence(grid, u)))),
        consumed_mass_running=tallies.consumed_mass,
        gradc_l2_running=tallies.gradc_l2,
        lp_norms={p: lp_norm(n, p, vol) for p in diag.lp},
    )


# ============================================================
# checks
# ============================================================

@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    at_time: float
    detail: str = ""


def _worst(values, times, lowest=False):
    """The first largest (lowest: smallest) of `values` and its time; a
    NaN counts as the extreme, so it fails the caller's comparison."""
    k = int(np.argmin(values) if lowest else np.argmax(values))
    return values[k], times[k]


def check_mass_conservation(records) -> CheckResult:
    """|mass(t) - mass(0)| <= MASS_TOL_REL * mass(0) at every sample."""
    m0 = records[0].mass
    worst, at = _worst([abs(r.mass - m0) for r in records],
                       [r.t for r in records])
    return CheckResult("mass_conservation", worst <= MASS_TOL_REL * abs(m0),
                       worst / abs(m0) if m0 else worst, at,
                       f"relative to initial mass {m0!r}")


def check_c_max_monotone(records) -> CheckResult:
    """max c never rises between samples by over C_MAX_SLACK (1 + max c0)."""
    slack = C_MAX_SLACK * (1.0 + records[0].c_max)
    rises = [cur.c_max - prev.c_max for prev, cur in zip(records, records[1:])]
    worst, at = _worst([-np.inf] + rises, [r.t for r in records])
    return CheckResult("c_max_monotone", worst <= slack, worst, at,
                       f"largest rise between consecutive samples, slack {slack!r}")


def check_c_mass_identity(records) -> CheckResult:
    """|c_mass(t) + consumed_mass_running(t) - c_mass(0)| <= C_MASS_TOL.

    The accumulator is an independent right-endpoint Riemann sum, so the
    deviation is dominated by the O(dt) splitting error of the c-step and
    shrinks roughly linearly under dt halving.
    """
    ref = records[0].c_mass
    devs = [abs(r.c_mass + r.consumed_mass_running - ref) for r in records]
    worst, at = _worst(devs, [r.t for r in records])
    return CheckResult("c_mass_identity", worst <= C_MASS_TOL, worst, at,
                       f"absolute deviation from initial c-mass {ref!r}")


def check_c_l2_inequality(records) -> CheckResult:
    """0.5 c_l2sq(t) + gradc_l2_running(t) <= 0.5 c_l2sq(0) (1 + C_L2_TOL_REL).

    Consumption and upwind advection only dissipate, so the implicit-Euler
    diffusion identity becomes an inequality with margin.
    """
    rhs = 0.5 * records[0].c_l2sq * (1.0 + C_L2_TOL_REL)
    excess = [0.5 * r.c_l2sq + r.gradc_l2_running - rhs for r in records]
    worst, at = _worst(excess, [r.t for r in records])
    return CheckResult("c_l2_inequality", worst <= 0.0, worst, at,
                       "largest excess over the initial-energy bound")


def check_entropy_floor(records, volume: float) -> CheckResult:
    """entropy(t) >= -|Omega|/e at every sample (pointwise bound, summed)."""
    floor = -volume / np.e
    worst, at = _worst([r.entropy - floor for r in records],
                       [r.t for r in records], lowest=True)
    return CheckResult("entropy_floor", worst >= -ENTROPY_SLACK * (1.0 + volume),
                       worst, at, f"smallest margin above -|Omega|/e = {floor!r}")


def check_decay(records) -> CheckResult:
    """Endpoint decay gaps: n against its run max, c against its initial
    value, u against its run max; each must drop below DECAY_THRESHOLD
    times the reference."""
    last = records[-1]
    ref_n = float(np.max([r.decay_gap_n for r in records]))
    ref_c = records[0].decay_gap_c
    ref_u = float(np.max([r.decay_gap_u for r in records]))
    ratios = [0.0 if ref == 0.0 else gap / ref for gap, ref in (
        (last.decay_gap_n, ref_n), (last.decay_gap_c, ref_c),
        (last.decay_gap_u, ref_u))]
    worst, at = _worst(ratios, [last.t] * 3)
    return CheckResult("decay", worst <= DECAY_THRESHOLD, worst, at,
                       f"gap ratios n/c/u = {ratios[0]:.3g}/{ratios[1]:.3g}/{ratios[2]:.3g}")


def check_energy_boundedness(records) -> CheckResult:
    """E_total stays finite and windowed dissipation integrals are
    non-increasing once the initial transient (SKIP_WINDOWS windows) has
    passed.  Window integrals use the trapezoid rule on sample times."""
    if any(not np.isfinite(r.e_total) for r in records):
        return CheckResult("energy_boundedness", False, np.inf,
                           records[-1].t, "non-finite total energy")
    t0, t1 = records[0].t, records[-1].t
    nwin = int(np.floor((t1 - t0) / WINDOW + 1e-9))
    if nwin < SKIP_WINDOWS + 2:
        return CheckResult("energy_boundedness", True, 0.0, t1,
                           f"only {nwin} windows; monotonicity not testable")
    ts = np.array([r.t for r in records])
    diss = np.array([r.dissipation_n + r.dissipation_c + r.dissipation_u
                     for r in records])
    integrals = []
    for j in range(nwin):
        lo, hi = t0 + j * WINDOW, t0 + (j + 1) * WINDOW
        sel = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        if np.count_nonzero(sel) < 2:
            return CheckResult("energy_boundedness", False, np.inf, lo,
                               f"window [{lo}, {hi}] has < 2 samples")
        integrals.append(float(np.trapezoid(diss[sel], ts[sel])))
    later = range(SKIP_WINDOWS, nwin - 1)
    rises = [integrals[j + 1] - integrals[j] * (1.0 + ENERGY_TOL_REL) for j in later]
    worst, at = _worst([-np.inf] + rises,
                       [t0] + [t0 + (j + 1) * WINDOW for j in later])
    return CheckResult("energy_boundedness",
                       worst <= 1e-12 * (1.0 + max(integrals)), worst, at,
                       f"largest windowed-dissipation rise after window {SKIP_WINDOWS}")


def check_quasi_energy(records) -> CheckResult:
    """Empirical short-time quasi-energy constants.

    For each sample time t* with t* + WINDOW <= T, the constant
    C(t*) = max_{t in (t*, t*+WINDOW]} y(t) / (y(t*) + sup c_l2sq over the
    window) must be finite; the largest one is reported.  This is a
    monitor: it fails only on non-finite values."""
    consts, starts = [0.0], [records[0].t]
    for i, r in enumerate(records):
        hi = r.t + WINDOW
        in_win = [s for s in records[i + 1:] if s.t <= hi + 1e-12]
        if not in_win or in_win[-1].t < hi - 1e-9:
            break
        denom = r.y_quasi + float(np.max([s.c_l2sq for s in in_win]))
        consts.append(1.0 if denom == 0.0 else
                      float(np.max([s.y_quasi for s in in_win])) / denom)
        starts.append(r.t)
    worst, at = _worst(consts, starts)
    return CheckResult("quasi_energy", bool(np.isfinite(worst)), worst, at,
                       "largest empirical window constant")


def standard_checks(records, grid: Grid):
    """The default battery run() writes to checks.json."""
    return [
        check_mass_conservation(records),
        check_c_max_monotone(records),
        check_c_mass_identity(records),
        check_c_l2_inequality(records),
        check_entropy_floor(records, grid.volume),
        check_decay(records),
        check_energy_boundedness(records),
        check_quasi_energy(records),
    ]


# ============================================================
# CSV round trip
# ============================================================

_SCALAR_FIELDS = [f.name for f in fields(DiagnosticsRecord)
                  if f.name != "lp_norms"]


def _lp_column(p: float) -> str:
    return f"lp_norm_{float_name(p)}"


def csv_header(lp: tuple) -> list:
    return _SCALAR_FIELDS + [_lp_column(p) for p in lp]


def _record_row(r: DiagnosticsRecord, lp: tuple) -> list:
    row = [repr(getattr(r, name)) for name in _SCALAR_FIELDS]
    row += [repr(r.lp_norms[p]) for p in lp]
    return row


def write_csv(records, lp: tuple, path: str):
    """Write records with repr-exact floats (bit-faithful round trip)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(csv_header(lp))
        for r in records:
            w.writerow(_record_row(r, lp))


def append_csv(path: str, record: DiagnosticsRecord, lp: tuple):
    """Append one record row to an existing CSV (same formatting)."""
    with open(path, "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(_record_row(record, lp))


def read_csv(path: str):
    """Read a diagnostics CSV back into records (exact float round trip)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    lp = [float(h[len("lp_norm_"):]) for h in header
          if h.startswith("lp_norm_")]
    records = []
    for row in body:
        vals = dict(zip(header, row))
        scalars = {name: float(vals[name]) for name in _SCALAR_FIELDS}
        lp_norms = {p: float(vals[_lp_column(p)]) for p in lp}
        records.append(DiagnosticsRecord(**scalars, lp_norms=lp_norms))
    return records
