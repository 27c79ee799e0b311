"""Outside-in tracing of chemostokes: spans around the public functions
of each layer, recorded from the benchmark's own code.

A span is (name, start, end, parent index).  Spans stay in memory and are
reduced to per-layer counts and self times when the traced run ends; a
span's self time is its duration minus the durations of its child spans.

Each function is patched where its caller looks the name up: ``solver``
imports ``solve_*``, ``d_eps``, ``chi_eps``, ``f_eps`` and the grid
operators by name, ``spectral`` imports the scipy transforms and grid
operators, and ``diagnostics`` imports ``f_eps``.  Patching only the
defining module (``chemostokes.spectral.X``) would record nothing.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Several attributes may share one span
# name: the span name is the layer metric they report under.
_GRID_LOOKUPS = {
    "solver": ("divergence", "face_diff", "face_avg", "face_upwind",
               "full_faces"),
    "spectral": ("divergence", "face_diff", "full_faces"),
    "grid": ("face_diff", "full_faces"),        # grad_squared_cells
    "diagnostics": ("divergence",),
}
PATCHES = [
    ("solver", "step", "solver.step"),
    ("solver", "step_u", "solver.step_u"),
    ("solver", "step_c", "solver.step_c"),
    ("solver", "step_n", "solver.step_n"),
    ("solver", "stability_rates", "solver.stability_rates"),
    ("solver", "choose_dt", "solver.choose_dt"),
    ("solver", "init_state", "solver.init_state"),
    ("solver", "SpectralCache", "spectral.cache_build"),
    ("solver", "solve_neumann_poisson", "spectral.solve_neumann_poisson"),
    ("solver", "solve_face_helmholtz", "spectral.solve_face_helmholtz"),
    ("solver", "solve_cell_helmholtz", "spectral.solve_cell_helmholtz"),
    ("solver", "face_laplacian", "spectral.residual"),
    ("solver", "neumann_laplacian", "spectral.residual"),
    *[("spectral", name, "spectral.transform")
      for name in ("dctn", "idctn", "dst", "idst")],
    *[(module, name, f"grid.{name}")
      for module, names in _GRID_LOOKUPS.items() for name in names],
    *[("solver", name, f"regularization.{name}")
      for name in ("d_eps", "chi_eps", "f_eps")],
    ("diagnostics", "f_eps", "regularization.f_eps"),
    ("solver", "evaluate", "diagnostics.evaluate"),
    ("solver", "resolve_diagnostics", "diagnostics.resolve"),
    ("diagnostics.RunningTallies", "update", "diagnostics.tallies"),
    ("diagnostics.RunningTallies", "observe_state", "diagnostics.tallies"),
    ("solver", "standard_checks", "diagnostics.checks"),
    *[("solver", name, "diagnostics.csv")
      for name in ("write_csv", "append_csv", "read_csv")],
    ("solver", "write_snapshot", "snapshots.write_snapshot"),
    ("snapshots", "write_field", "snapshots.write_field"),
    ("solver", "write_manifest", "snapshots.write_manifest"),
    ("solver", "load_manifest", "snapshots.read"),
    ("solver", "load_snapshot", "snapshots.read"),
    ("snapshots", "read_field", "snapshots.read"),
    ("sweep", "load_manifest", "snapshots.read"),
    ("sweep", "read_field", "snapshots.read"),
]

# span names whose every duration is kept for percentiles
_KEEP_DURATIONS = ("solver.step", "snapshots.write_manifest")
LIMITS = ("advective", "drift", "diffusive", "dt_max")


def _resolve(target: str):
    module, _, cls = target.partition(".")
    obj = importlib.import_module(f"chemostokes.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder with the chemostokes patches it installs."""

    def __init__(self):
        # one span per index; flat arrays keep the garbage collector from
        # walking (and slowing on) tens of thousands of span objects
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = []
        self.limits = Counter()  # which stability limit bound each dt
        self.bytes = Counter()   # computed or written bytes, by kind
        self._last_rates = None
        self._saved = []
        self.active = True       # False while the benchmark checks outputs

    # ---- span recording ----

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """A root span around code of the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self):
        """Benchmark code (output checks) that calls into the program:
        its layer calls are not the program's work and record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ---- hooks that count work at the layer boundary ----

    def _rates(self, args, out):
        self._last_rates = out

    def _dt_limit(self, args, dt):
        dt_max = args[3]
        if dt == dt_max:
            self.limits["dt_max"] += 1
        else:
            worst = max(range(3), key=lambda i: self._last_rates[i])
            self.limits[LIMITS[worst]] += 1

    def _transform_bytes(self, args, out):
        self.bytes["transform"] += args[0].nbytes + out.nbytes

    def _field_bytes(self, args, out):
        self.bytes["field"] += 64 + args[1].nbytes

    def _manifest_bytes(self, args, out):
        self.bytes["manifest"] += os.path.getsize(
            os.path.join(args[0], "manifest.json"))

    # ---- installing the patches ----

    def install(self):
        hooks = {"solver.stability_rates": self._rates,
                 "solver.choose_dt": self._dt_limit,
                 "spectral.transform": self._transform_bytes,
                 "snapshots.write_field": self._field_bytes,
                 "snapshots.write_manifest": self._manifest_bytes}
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
        sweep = _resolve("sweep")
        self._saved.append((sweep, "run_one", sweep.run_one))
        traced_run_one.original = sweep.run_one
        sweep.run_one = traced_run_one

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        del traced_run_one.original

    # ---- reduction ----

    def summary(self) -> dict:
        """Per span name: calls and self time; plus durations and counters.

        ``covered_s`` is the self time of every layer span below
        ``chemostokes.run``; ``root_s`` the duration of the benchmark's
        root regions.
        """
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        durations = defaultdict(list)
        root_s = covered_s = 0.0
        for (name, start, end, parent), inner in zip(spans, child):
            own = end - start - inner
            calls[name] += 1
            self_s[name] += own
            if name in _KEEP_DURATIONS:
                durations[name].append(end - start)
            if parent < 0:
                root_s += end - start
            elif name != "solver.run":
                covered_s += own
        return {"calls": dict(calls), "self_s": dict(self_s),
                "durations": dict(durations), "limits": dict(self.limits),
                "bytes": dict(self.bytes), "root_s": root_s,
                "covered_s": covered_s, "spans": len(spans)}


def merge(parts) -> dict:
    """Sum the counts and self times of several summaries (the workload
    process and each sweep member)."""
    out = {"calls": Counter(), "self_s": defaultdict(float),
           "durations": defaultdict(list), "limits": Counter(),
           "bytes": Counter(), "spans": 0}
    for part in parts:
        for key in ("calls", "limits", "bytes"):
            out[key].update(part[key])
        for name, value in part["self_s"].items():
            out["self_s"][name] += value
        for name, values in part["durations"].items():
            out["durations"][name].extend(values)
        out["spans"] += part["spans"]
    return out


def traced_run_one(task):
    """Sweep member wrapper, pickled by reference into each spawn worker.

    A worker starts without patches: it installs its own tracer, runs the
    member, and returns the member's summary and wall-clock interval with
    the sweep summary row.  On one core ``run_sweep`` runs members in the
    workload process itself, whose tracer is already installed; then only
    the interval is taken.
    """
    from chemostokes import sweep
    original = getattr(traced_run_one, "original", None)
    own = original is None           # nothing installed: a spawn worker
    run_one = sweep.run_one if own else original
    tracer = Tracer() if own else None
    if own:
        tracer.install()
    start = time.monotonic()
    try:
        summary = run_one(task)
    finally:
        end = time.monotonic()
        if own:
            tracer.uninstall()
    summary["bench_member"] = {
        "start": start, "end": end,
        "trace": tracer.summary() if own else None}
    return summary
