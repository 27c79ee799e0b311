"""Workload inputs and output checks of the chemostokes benchmark.

Every workload is generated from the benchmark seed: the seed becomes the
config's ``seed``, which drives the Philox perturbation ``ic.perturb`` of
the initial density.  The program only ever sees the generated config.

The checks here are the benchmark's own and test invariants that hold at
any horizon.  They are written so that NaN fails them (every comparison
is "value within bound", which NaN never is) and never trust the
manifest status or the absence of an exception: a NaN run finishes with
status "complete".  ``decay`` and ``energy_boundedness`` are not used,
because they need t of order 10 and every workload here is short.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("plume-256", "cube-32", "checkpoint-32", "eps-sweep")

PERTURB_AMPLITUDE = 0.05

# Full sizes.  t_final is a fixed multiple of the binding dt limit:
#   plume-256      diffusive limit 4.6e-5 binds (4.3x below dt_max): 31 steps
#   cube-32        dt_max binds (diffusive limit 2e-3): 30 steps
#   checkpoint-32  dt_max binds; a sample every 2.5 dt_max, 80 samples
#   eps-sweep      dt_max binds in every member: 200 steps a member
# Each instance stays near 3 s, so that a run holds enough instances for a
# steady median on this noisy 2-core box.  "smoke" shrinks every workload
# for the self-test; it keeps the code paths (2D/3D, output directory,
# resume, spawn pool) but not the binding limits.
SIZES = {
    "full": {
        "plume-256": {"cells": (256, 256), "t_final": 1.4e-3,
                      "dt_max": 2e-4, "samples": 4},
        "cube-32": {"cells": (32, 32, 32), "t_final": 6e-3,
                    "dt_max": 2e-4, "samples": 4},
        "checkpoint-32": {"cells": (32, 32), "t_final": 4e-2,
                          "dt_max": 2e-4, "samples": 80},
        "eps-sweep": {"cells": (64, 64), "t_final": 5e-2,
                      "dt_max": 2.5e-4, "samples": 4},
    },
    "smoke": {
        "plume-256": {"cells": (24, 24), "t_final": 4e-3,
                      "dt_max": 2e-4, "samples": 4},
        "cube-32": {"cells": (8, 8, 8), "t_final": 2e-3,
                    "dt_max": 2e-4, "samples": 4},
        "checkpoint-32": {"cells": (12, 12), "t_final": 4e-3,
                          "dt_max": 2e-4, "samples": 8},
        "eps-sweep": {"cells": (16, 16), "t_final": 4e-3,
                      "dt_max": 2.5e-4, "samples": 4},
    },
}

EPS_VALUES = (0.1, 0.05, 0.025)


def make_config(workload: str, seed: int, out_dir: str,
                smoke: bool = False) -> dict:
    """The generated input: a run config, or a sweep spec for eps-sweep."""
    size = SIZES["smoke" if smoke else "full"][workload]
    cells = list(size["cells"])
    gravity = [0.0] * len(cells)
    gravity[-1] = -1.0
    cfg = {
        "grid": {"cells": cells, "extent": [4.0] * len(cells)},
        "model": {"m": 1.2, "k_D": 1.0, "eps": 0.05},
        "phi": {"gradient": gravity},
        "time": {"t_final": size["t_final"], "dt_max": size["dt_max"],
                 "sample_every": size["t_final"] / size["samples"]},
        "ic": {"n0": {"preset": "gaussian", "amplitude": 2.0,
                      "width": 0.5},
               "c0": {"preset": "constant", "value": 1.0},
               "u0": {"preset": "zero"},
               "perturb": {"amplitude": PERTURB_AMPLITUDE}},
        "seed": seed,
    }
    if workload == "eps-sweep":
        # acceptance config6: two bumps normalized to mean 1
        cfg["ic"]["n0"] = {"preset": "two_bumps", "amplitude": 1.0,
                           "width": 0.5, "mean": 1.0}
        return {"axis": "eps", "values": list(EPS_VALUES),
                "base_config": cfg, "parallel_runs": 2}
    cfg["output"] = {"dir": out_dir}
    return cfg


# ------------------------------------------------------------
# invariant checks (NaN fails every one of them)
# ------------------------------------------------------------

def invariant_failures(records, final_fields, volume: float,
                       t_final: float, n_samples: int) -> list:
    """Names of the violated invariants; empty when the output is sound."""
    col = {name: np.array([getattr(r, name) for r in records], dtype=float)
           for name in ("t", "mass", "c_mass", "c_max", "c_l2sq", "entropy",
                        "div_u_inf", "consumed_mass_running",
                        "gradc_l2_running")}
    mass, c_max, c_l2sq = col["mass"], col["c_max"], col["c_l2sq"]
    identity = col["c_mass"] + col["consumed_mass_running"] - col["c_mass"][0]
    checks = {
        "horizon": len(records) == n_samples and col["t"][-1] == t_final,
        "mass_drift": bool(np.all(np.abs(mass - mass[0])
                                  <= 1e-12 * np.abs(mass[0]))),
        "div_u_inf": bool(np.all(col["div_u_inf"] <= 1e-10)),
        "c_max_monotone": bool(np.all(np.diff(c_max)
                                      <= 1e-12 * (1.0 + c_max[0]))),
        "entropy_floor": bool(np.all(col["entropy"] >= -volume / np.e
                                     - 1e-9 * (1.0 + volume))),
        "c_l2_inequality": bool(np.all(
            0.5 * c_l2sq + col["gradc_l2_running"]
            <= 0.5 * c_l2sq[0] * (1.0 + 1e-6))),
        "c_mass_identity": bool(np.all(np.abs(identity) <= 1e-3)),
        "finite_fields": all(bool(np.all(np.isfinite(a)))
                             for a in final_fields),
    }
    return [name for name, ok in checks.items() if not ok]


def accuracy_readouts(records) -> dict:
    """The O(dt) c-mass splitting error and the relative mass drift."""
    m0, c0 = records[0].mass, records[0].c_mass
    return {
        "c_mass_identity_dev": max(
            abs(r.c_mass + r.consumed_mass_running - c0) for r in records),
        "mass_drift_rel": max(abs(r.mass - m0) for r in records) / abs(m0),
    }


def result_failures(result) -> list:
    """Invariant check of a RunResult returned by chemostokes.run."""
    from chemostokes.solver import sample_times
    cfg, state = result.config, result.state
    return invariant_failures(
        result.records, [state.n, state.c, state.p, *state.u],
        result.grid.volume, cfg.time.t_final,
        len(sample_times(cfg.time.t_final, cfg.time.sample_every)))


# ------------------------------------------------------------
# checkpoint cut and bit-exact comparison
# ------------------------------------------------------------

def run_fingerprint(run_dir: str) -> dict:
    """diagnostics.csv bytes and every snapshot sha256 the manifest lists."""
    from chemostokes.snapshots import load_manifest
    with open(os.path.join(run_dir, "diagnostics.csv"), "rb") as fh:
        csv_bytes = fh.read()
    manifest = load_manifest(run_dir)
    return {"csv": csv_bytes,
            "sha256": [sorted((k, v["sha256"]) for k, v in s["files"].items())
                       for s in manifest["samples"]]}


def cut_to_middle(run_dir: str):
    """Cut the manifest back to its middle sample, as if the run had been
    interrupted there, and delete the snapshot files written after it.

    Ends with a file-system flush, so that the journal work of these
    deletions (and of the run before) does not stall the timed resume."""
    from chemostokes.snapshots import load_manifest, write_manifest
    manifest = load_manifest(run_dir)
    samples = manifest["samples"]
    keep = len(samples) // 2 + 1
    for sample in samples[keep:]:
        for entry in sample["files"].values():
            os.remove(os.path.join(run_dir, entry["path"]))
    manifest["samples"] = samples[:keep]
    manifest["status"] = "running"
    write_manifest(run_dir, manifest)
    os.remove(os.path.join(run_dir, "checks.json"))
    os.sync()


def resume_failures(run_dir: str, reference: dict) -> list:
    """Bit-exactness of a resumed run against the uninterrupted one."""
    from chemostokes.snapshots import load_manifest, load_snapshot
    got = run_fingerprint(run_dir)
    failures = []
    if got["csv"] != reference["csv"]:
        failures.append("resume_csv_bytes")
    if got["sha256"] != reference["sha256"]:
        failures.append("resume_snapshot_sha256")
    # the regenerated files on disk must match the manifest too
    manifest = load_manifest(run_dir)
    dim = len(manifest["config"]["grid"]["cells"])
    for sample in manifest["samples"][len(manifest["samples"]) // 2:]:
        load_snapshot(run_dir, sample["files"], dim)
    return failures


# ------------------------------------------------------------
# sweep outputs
# ------------------------------------------------------------

def member_config(run_dir: str):
    """The parsed config of a sweep member, rebuilt from its manifest echo."""
    from chemostokes import parse_config
    from chemostokes.snapshots import load_manifest
    echo = load_manifest(run_dir)["config"]
    return parse_config({**echo, "output": {"dir": run_dir}})


def member_failures(run_dir: str) -> tuple:
    """Invariant check of one finished sweep member, read back from disk.

    Returns (failures, records) so callers can take accuracy readouts.
    """
    from chemostokes.diagnostics import read_csv
    from chemostokes.snapshots import load_manifest, load_snapshot
    from chemostokes.solver import sample_times
    cfg = member_config(run_dir)
    manifest = load_manifest(run_dir)
    records = read_csv(os.path.join(run_dir, "diagnostics.csv"))
    _, fields = load_snapshot(run_dir, manifest["samples"][-1]["files"],
                              cfg.dim)
    volume = float(np.prod(cfg.grid_extent))
    n_samples = len(sample_times(cfg.time.t_final, cfg.time.sample_every))
    return (invariant_failures(records, list(fields.values()), volume,
                               cfg.time.t_final, n_samples), records)


def sweep_failures(summaries) -> tuple:
    """All members complete and sound, and the eps -> 0 L1 distances
    decrease (d2 < d1).  Returns (failures, per-member records)."""
    failures = []
    if [s["status"] for s in summaries] != ["complete"] * len(EPS_VALUES):
        return ["members_complete"], []
    all_records = []
    for summary in summaries:
        member, records = member_failures(summary["run_dir"])
        failures += [f"{os.path.basename(summary['run_dir'])}:{name}"
                     for name in member]
        all_records.append(records)
    d1 = summaries[1]["l1_distance_to_prev"]
    d2 = summaries[2]["l1_distance_to_prev"]
    if not (isinstance(d1, float) and isinstance(d2, float)
            and 0.0 < d2 < d1 and np.isfinite(d1)):
        failures.append("l1_cauchy")
    return failures, all_records
