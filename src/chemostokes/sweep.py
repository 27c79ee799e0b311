"""Parameter sweeps: one base config, one swept axis, members at once.

A sweep spec is JSON:

    {"axis": "eps", "values": [0.1, 0.05, 0.025],
     "base_config": { ... } or "config.json",
     "parallel_runs": 3}

Each value gets its own run directory under the sweep output root.
parallel_runs = K runs K members at once: K = 1 runs them in the calling
process, and K > 1 on K workers forked from it, so it needs a POSIX fork.
A forked worker starts with the package imported and every member parsed,
and a driver script needs no __main__ guard.  Each worker takes the next
member in value order as soon as it is free.  A member depends only on
its own config, so results are independent of K.  The summary CSV
orders rows by the given value order and, for eps sweeps, records the L1
distance between final density fields of consecutive runs (the
regularization-convergence monitor).  For m sweeps every run directory
gets an exponents_certificate.json with whatever part of the exponent
algebra is defined at that m.
"""

from __future__ import annotations

import csv
import json
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, asdict

import numpy as np

from . import exponents as expo
from .config import _int, _list, float_name, known_keys, load_json, \
    parse_config, with_overrides
from .errors import ChemoStokesError, ConfigError
from .grid import Grid
from .snapshots import load_manifest, read_field, write_json
from .solver import init_state, run

_AXES = ("m", "eps", "grid")
_LADDER_CAP = 1e6   # cap of both ladders in an m-sweep's certificates


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    base_config: dict
    parallel_runs: int = 1


def _members_at_once(value, where: str) -> int:
    if _int(value, where) < 1:
        raise ConfigError(f"{where}: must be a positive integer, got {value}")
    return value


def parse_sweep(source) -> SweepSpec:
    """Parse and validate a sweep spec from a dict or a file path."""
    raw = load_json(source, "sweep spec")
    known_keys(raw, ("axis", "values", "base_config", "parallel_runs"),
               "sweep")

    axis = raw.get("axis")
    if axis not in _AXES:
        raise ConfigError(f"sweep.axis: must be one of {_AXES}, got {axis!r}")
    vals = _list(raw.get("values"), "sweep.values")
    if not vals:
        raise ConfigError("sweep.values: must be a nonempty list")
    diffs = np.diff(vals)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError(
            f"sweep.values: must be strictly monotone, got {vals}")
    if axis == "grid" and any(v != int(v) or v < 2 for v in vals):
        raise ConfigError(
            f"sweep.values: grid sweeps need integer cell counts >= 2, "
            f"got {vals}")

    base = load_json(raw.get("base_config"), "sweep.base_config")
    # validate the base once, up front, initial condition included
    cfg = parse_config(base)
    init_state(Grid(cfg.grid_cells, cfg.grid_extent), cfg.model, cfg.ic,
               seed=cfg.seed)

    workers = _members_at_once(raw.get("parallel_runs", 1),
                               "sweep.parallel_runs")
    return SweepSpec(axis=axis, values=tuple(vals), base_config=base,
                     parallel_runs=workers)


def apply_override(base: dict, axis: str, value: float) -> dict:
    """Deep-copied base config with the swept value substituted."""
    cfg = json.loads(json.dumps(base))
    if axis == "grid":
        dim = len(cfg["grid"]["cells"])
        cfg["grid"]["cells"] = [int(value)] * dim
    else:
        cfg.setdefault("model", {})[axis] = value
    return cfg


def _value_tag(axis: str, value: float) -> str:
    return f"run_{axis}_{float_name(value)}".replace(".", "p")


def _summary(run_dir: str, error: str = "") -> dict:
    """A member's summary row; a member with an error has failed."""
    return {"run_dir": run_dir, "status": "failed" if error else "complete",
            "error": error, "steps": 0, "mass_drift_rel": "",
            "decay_gap_n": "", "decay_gap_c": "", "decay_gap_u": "",
            "checks_passed": ""}


def run_one(cfg):
    """Run one member, in the calling process or a forked worker.  Must
    stay a module-level function: the pool pickles it by reference, and
    run_sweep looks it up by name at each call."""
    try:
        result = run(cfg)
    except ChemoStokesError as exc:
        return _summary(cfg.output_dir, str(exc))
    summary = _summary(cfg.output_dir)
    first, last = result.records[0], result.records[-1]
    summary["steps"] = result.steps_taken
    summary["mass_drift_rel"] = abs(last.mass - first.mass) / abs(first.mass)
    summary["decay_gap_n"] = last.decay_gap_n
    summary["decay_gap_c"] = last.decay_gap_c
    summary["decay_gap_u"] = last.decay_gap_u
    summary["checks_passed"] = (
        f"{sum(c.passed for c in result.checks)}/{len(result.checks)}")
    return summary


def write_exponent_certificate(run_dir: str, m: float):
    """Attach whatever exponent evidence is defined at this m; an
    undefined part is {"undefined": <reason>}."""
    cert: dict = {"m": m}
    for name, build, args in (
            ("threshold", expo.threshold_certificate, (m,)),
            ("linear_ladder", expo.run_linear_ladder, (m, 1.0, _LADDER_CAP)),
            ("psi_ladder", expo.run_psi_ladder, (m, _LADDER_CAP))):
        try:
            cert[name] = asdict(build(*args))
        except ConfigError as exc:
            cert[name] = {"undefined": str(exc)}
    write_json(os.path.join(run_dir, "exponents_certificate.json"), cert)


def _final_density(run_dir: str) -> np.ndarray:
    """The last snapshot's density of a complete run."""
    entry = load_manifest(run_dir)["samples"][-1]["files"]["n"]
    arr, _ = read_field(os.path.join(run_dir, entry["path"]),
                        expect_sha256=entry["sha256"])
    return arr


def _run_members(configs, nworkers: int) -> list:
    """Summaries of all member configs, in order, with nworkers members at
    once: in the calling process when nworkers is 1, else on nworkers
    workers forked from it while the caller waits.

    The pool forks all its workers at the first submit, before it starts
    its manager thread, so the caller forks with no executor thread alive.
    The only other threads are OpenBLAS's idle pools, which OpenBLAS
    readies for fork; Python 3.12 and later may still emit a (hidden by
    default) DeprecationWarning about forking them.

    A worker that dies breaks the pool: every member whose result had not
    arrived is reported failed.  Leaving the pool's block joins its
    manager thread and its workers, so a later sweep in this process
    never forks beside a live thread.
    """
    if nworkers == 1:
        return [run_one(cfg) for cfg in configs]
    with ProcessPoolExecutor(nworkers,
                             mp_context=mp.get_context("fork")) as pool:
        futures = [pool.submit(run_one, cfg) for cfg in configs]
        summaries = []
        for cfg, future in zip(configs, futures):
            try:
                summaries.append(future.result())
            except BrokenProcessPool as exc:
                summaries.append(_summary(
                    cfg.output_dir,
                    f"a worker process died before this member's result "
                    f"arrived: {exc}"))
    return summaries


def run_sweep(spec: SweepSpec, out_root: str, workers: int | None = None,
              seed: int | None = None):
    """Execute all members; returns (summaries, summary_csv_path).

    workers is the number of members run at once; None takes the spec's
    parallel_runs.  seed, when given, overrides every member's config
    seed.
    """
    nworkers = spec.parallel_runs if workers is None else \
        _members_at_once(workers, "workers (--threads)")
    # every member is parsed before any output: a bad value or seed exits
    configs = [parse_config(with_overrides(
        apply_override(spec.base_config, spec.axis, value),
        os.path.join(out_root, _value_tag(spec.axis, value)), seed))
        for value in spec.values]
    os.makedirs(out_root, exist_ok=True)

    summaries = _run_members(configs, min(nworkers, len(configs)))

    for value, summary in zip(spec.values, summaries):
        summary["axis"] = spec.axis
        summary["value"] = value
        if spec.axis == "m" and summary["status"] == "complete":
            write_exponent_certificate(summary["run_dir"], value)

    if spec.axis == "eps":
        # an eps sweep keeps the base grid in every member
        cell_vol = Grid(configs[0].grid_cells,
                        configs[0].grid_extent).cell_volume
        prev = None
        for summary in summaries:
            summary["l1_distance_to_prev"] = ""
            if summary["status"] != "complete":
                prev = None
                continue
            cur = _final_density(summary["run_dir"])
            if prev is not None:
                summary["l1_distance_to_prev"] = float(
                    np.sum(np.abs(cur - prev)) * cell_vol)
            prev = cur

    columns = ["axis", "value", "run_dir", "status", "steps",
               "mass_drift_rel", "decay_gap_n", "decay_gap_c",
               "decay_gap_u", "checks_passed"]
    if spec.axis == "eps":
        columns.append("l1_distance_to_prev")
    columns.append("error")
    path = os.path.join(out_root, "sweep_summary.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for summary in summaries:
            w.writerow([_csv_cell(summary.get(col, "")) for col in columns])
    return summaries, path


def _csv_cell(v):
    return repr(v) if isinstance(v, float) else v
