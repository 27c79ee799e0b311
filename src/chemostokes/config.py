"""Run configuration: dataclasses + JSON parsing with path-named errors.

A configuration is a JSON object (a dict or a file); parse_config reads
every value into typed dataclasses, overrides merged in beforehand.  Error
messages name the offending JSON path ("model.m: must be > 1") so CLI
users can fix files without reading code.  Each value has one key, and a
key the parser does not know exits 1 naming its path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .grid import Grid


@dataclass(frozen=True)
class ModelParams:
    """Physical/regularization parameters.

    m: nonlinear diffusion exponent (> 1).
    k_d: diffusivity scale (> 0), JSON key model.k_D.
    eps: regularization strength (0 < eps <= 1).
    phi_gradient: constant gradient of the gravitational-type potential,
        one entry per axis; the buoyancy force on the fluid is
        n * phi_gradient.
    """
    m: float
    k_d: float
    eps: float
    phi_gradient: tuple


@dataclass(frozen=True)
class TimeParams:
    t_final: float
    dt_max: float
    sample_every: float | None = None   # None: record only t=0 and t_final


@dataclass(frozen=True)
class ICSpec:
    """Initial-condition presets; see init_state for the preset registry."""
    n0: dict
    c0: dict
    u0: dict = field(default_factory=lambda: {"preset": "zero"})
    perturb: dict | None = None         # {"amplitude": a}: seeded multiplicative noise on n0


@dataclass(frozen=True)
class DiagnosticsParams:
    """What to record; diagnostics.resolve_diagnostics derives the rest."""
    lp: tuple = (2.0, 4.0, "m")     # Lp norms of n to record ("m" -> model.m)


@dataclass(frozen=True)
class SimConfig:
    dim: int
    grid_cells: tuple
    grid_extent: tuple
    model: ModelParams
    ic: ICSpec
    time: TimeParams
    output_dir: str | None = None
    seed: int = 0
    diagnostics: DiagnosticsParams = field(default_factory=DiagnosticsParams)


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: missing required key")
    return obj[key]


def _num(value, where: str) -> float:
    """A finite number; JSON's NaN and Infinity literals, and integers
    beyond float range, are rejected."""
    try:
        finite = not isinstance(value, bool) \
            and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:           # math.isfinite(10**400)
        finite = False
    if not finite:
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


def _int(value, where: str) -> int:
    """An integer; JSON's true and false are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return value


def _list(value, where: str, item=_num) -> list:
    """A list (or tuple) with each entry read by `item`."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: must be a list, got {value!r}")
    return [item(v, where) for v in value]


def float_name(x: float) -> str:
    """x as written into a column or directory name: the short %g form
    when it parses back to x, repr(x) otherwise, so names never collide."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def known_keys(obj, keys, where: str):
    """Reject a section that is not a JSON object or holds a key outside
    `keys`, so that a misspelled key cannot run silently with a default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown key; known: "
                              f"{', '.join(keys)}")


def _check(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def load_json(source, what: str) -> dict:
    """A JSON object from a dict or a file path; `what` names the document
    in error messages."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise ConfigError(f"{what}: must be a JSON object or a path to one, "
                          f"got {source!r}")
    if not os.path.isfile(source):
        raise ConfigError(f"no such {what} file: {source}")
    try:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:
        # bad JSON, non-UTF-8 bytes, or an int over Python's digit limit
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what}: top level must be a JSON object")
    return raw


def with_overrides(raw: dict, output_dir=None, seed=None) -> dict:
    """A copy of raw with output.dir and seed replaced where given; an
    `output` that is not an object is kept for parse_config to reject."""
    raw = dict(raw)
    if seed is not None:
        raw["seed"] = seed
    output = raw.get("output", {})
    if output_dir is not None and isinstance(output, dict):
        raw["output"] = {**output, "dir": output_dir}
    return raw


def parse_config(source) -> SimConfig:
    """Parse a config from a dict or a file path."""
    raw = load_json(source, "config")
    known_keys(raw, ("grid", "model", "phi", "ic", "time", "diagnostics",
                     "output", "seed"), "config")

    gr = _req(raw, "grid", "config")
    known_keys(gr, ("cells", "extent"), "grid")
    grid = Grid(_list(_req(gr, "cells", "grid"), "grid.cells", _int),
                _list(_req(gr, "extent", "grid"), "grid.extent"))
    cells, dim = grid.cells, grid.dim

    md = _req(raw, "model", "config")
    known_keys(md, ("m", "k_D", "eps"), "model")
    m = _num(_req(md, "m", "model"), "model.m")
    _check(m > 1.0, f"model.m: must be > 1 (degenerate diffusion), got {m}")
    k_d = _num(md.get("k_D", 1.0), "model.k_D")
    _check(k_d > 0.0, f"model.k_D: must be > 0, got {k_d}")
    eps = _num(_req(md, "eps", "model"), "model.eps")
    _check(0.0 < eps <= 1.0, f"model.eps: must lie in (0, 1], got {eps}")

    phi = raw.get("phi", {"gradient": [0.0] * dim})
    known_keys(phi, ("gradient",), "phi")
    grad = tuple(_list(_req(phi, "gradient", "phi"), "phi.gradient"))
    _check(len(grad) == dim,
           f"phi.gradient: must have {dim} entries, got {grad}")
    model = ModelParams(m=m, k_d=k_d, eps=eps, phi_gradient=grad)

    ic_raw = _req(raw, "ic", "config")
    known_keys(ic_raw, ("n0", "c0", "u0", "perturb"), "ic")
    for fld in ("n0", "c0"):
        spec = _req(ic_raw, fld, "ic")
        _check(isinstance(spec, dict) and "preset" in spec,
               f"ic.{fld}: must be an object with a 'preset' key")
    u0 = ic_raw.get("u0", {"preset": "zero"})
    _check(isinstance(u0, dict), f"ic.u0: must be a JSON object, got {u0!r}")
    perturb = ic_raw.get("perturb")
    if perturb is not None:
        known_keys(perturb, ("amplitude",), "ic.perturb")
        amp = _num(_req(perturb, "amplitude", "ic.perturb"),
                   "ic.perturb.amplitude")
        _check(0.0 <= amp < 1.0,
               f"ic.perturb.amplitude: must lie in [0, 1), got {amp}")
    ic = ICSpec(n0=dict(ic_raw["n0"]), c0=dict(ic_raw["c0"]), u0=dict(u0),
                perturb=dict(perturb) if perturb else None)

    tm = _req(raw, "time", "config")
    known_keys(tm, ("t_final", "dt_max", "sample_every"), "time")
    t_final = _num(_req(tm, "t_final", "time"), "time.t_final")
    _check(t_final > 0.0, f"time.t_final: must be > 0, got {t_final}")
    dt_max = _num(_req(tm, "dt_max", "time"), "time.dt_max")
    _check(dt_max > 0.0, f"time.dt_max: must be > 0, got {dt_max}")
    sample_every = None if tm.get("sample_every") is None else \
        _num(tm["sample_every"], "time.sample_every")
    _check(sample_every is None or 0.0 < sample_every <= t_final,
           f"time.sample_every: must lie in (0, t_final], got {sample_every}")
    time = TimeParams(t_final=t_final, dt_max=dt_max,
                      sample_every=sample_every)

    dg = raw.get("diagnostics", {})
    known_keys(dg, ("lp",), "diagnostics")
    lp = tuple(_list(dg.get("lp", (2.0, 4.0, "m")), "diagnostics.lp",
                     lambda p, where: p if p == "m" else _num(p, where)))
    _check(all(p == "m" or p >= 1.0 for p in lp),
           f"diagnostics.lp: exponents must be >= 1, got {lp}")
    diag = DiagnosticsParams(lp=lp)

    output = raw.get("output", {})
    known_keys(output, ("dir",), "output")
    out_dir = output.get("dir")
    _check(out_dir is None or isinstance(out_dir, str),
           f"output.dir: must be a string, got {out_dir!r}")
    seed = _int(raw.get("seed", 0), "seed")
    _check(seed >= 0, f"seed: must be >= 0, got {seed}")

    return SimConfig(dim=dim, grid_cells=cells, grid_extent=grid.extent,
                     model=model, ic=ic, time=time,
                     output_dir=out_dir, seed=seed, diagnostics=diag)


def _present(**items) -> dict:
    """The items whose value is not None (optional keys of the echo)."""
    return {key: value for key, value in items.items() if value is not None}


def config_to_dict(cfg: SimConfig) -> dict:
    """Canonical dict form of a config (manifest echo, resume comparison)."""
    return {
        "grid": {"cells": list(cfg.grid_cells),
                 "extent": list(cfg.grid_extent)},
        "model": {"m": cfg.model.m, "k_D": cfg.model.k_d,
                  "eps": cfg.model.eps},
        "phi": {"gradient": list(cfg.model.phi_gradient)},
        "ic": {"n0": cfg.ic.n0, "c0": cfg.ic.c0, "u0": cfg.ic.u0,
               **_present(perturb=cfg.ic.perturb)},
        "time": {"t_final": cfg.time.t_final, "dt_max": cfg.time.dt_max,
                 **_present(sample_every=cfg.time.sample_every)},
        "diagnostics": {"lp": list(cfg.diagnostics.lp)},
        "seed": cfg.seed,
    }
