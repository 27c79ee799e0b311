"""Config parsing, sweep specs, and the command-line surface.

CLI tests call main() in-process and assert on exit codes and printed
lines.  One subprocess test proves that the console script declared in
pyproject.toml resolves to cli.main and, written as the standard
launcher, runs by name from this checkout without an install.
"""

import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from chemostokes import solver
from chemostokes.cli import main
from chemostokes.config import config_to_dict, parse_config
from chemostokes.errors import ConfigError, NumericalError
from chemostokes.sweep import (SweepSpec, apply_override, parse_sweep,
                               run_sweep)


TINY = {
    "grid": {"cells": [12, 12], "extent": [1.0, 1.0]},
    "model": {"m": 1.2, "k_D": 1.0, "eps": 0.2},
    "phi": {"gradient": [0.0, -1.0]},
    "time": {"t_final": 0.05, "dt_max": 1e-3, "sample_every": 0.025},
    "ic": {"n0": {"preset": "gaussian", "amplitude": 1.0, "width": 0.2,
                  "floor": 0.2},
           "c0": {"preset": "constant", "value": 1.0},
           "u0": {"preset": "vortex", "amplitude": 0.1},
           "perturb": {"amplitude": 0.05}},
}


def write_json(tmp_path, name, obj):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ------------------------------------------------------------
# config parsing
# ------------------------------------------------------------

def test_parse_config_sources_agree(tmp_path):
    from_dict = parse_config(dict(TINY))
    from_file = parse_config(write_json(tmp_path, "cfg.json", TINY))
    assert from_dict == from_file
    # canonical echo reparses to the same config
    assert parse_config(config_to_dict(from_dict)) == from_dict


def test_parse_config_defaults():
    cfg = parse_config(dict(TINY))
    assert cfg.dim == 2
    assert cfg.model.k_d == 1.0
    assert cfg.model.phi_gradient == (0.0, -1.0)
    assert cfg.diagnostics.lp == (2.0, 4.0, "m")
    assert cfg.seed == 0 and cfg.output_dir is None


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["model"].update(m=0.9), "model.m"),
    (lambda d: d["model"].update(eps=0.0), "model.eps"),
    (lambda d: d["model"].update(eps=1.5), "model.eps"),
    (lambda d: d["model"].update(k_D=-1.0), "model.k_D"),
    (lambda d: d["grid"].update(cells=[12]), "grid.cells"),
    (lambda d: d["grid"].update(cells=[1, 12]), "grid.cells"),
    (lambda d: d["grid"].update(cells="88"), "grid.cells"),
    (lambda d: d["grid"].update(cells=[8.7, 8]), "grid.cells"),
    (lambda d: d["grid"].update(cells=["x", 8]), "grid.cells"),
    (lambda d: d["grid"].update(cells=[True, 8]), "grid.cells"),
    (lambda d: d["grid"].update(extent=[1.0]), "grid.extent"),
    (lambda d: d["grid"].update(extent=[1.0, -1.0]), "grid.extent"),
    (lambda d: d["phi"].update(gradient=[1.0]), "phi.gradient"),
    (lambda d: d["time"].update(t_final=0.0), "time.t_final"),
    (lambda d: d["time"].update(dt_max=-1e-3), "time.dt_max"),
    (lambda d: d["time"].update(sample_every=1.0), "time.sample_every"),
    (lambda d: d["time"].update(force_dt=0.0), "time.force_dt"),
    pytest.param(lambda d: d["time"].update(force_dt=1e-4), "time.force_dt",
                 id="positive-time.force_dt"),
    (lambda d: d["ic"].update(perturb={"amplitude": 1.0}), "perturb"),
    (lambda d: d["ic"].pop("n0"), "n0"),
    (lambda d: d.pop("time"), "time"),
    (lambda d: d.update(seed=1.5), "seed"),
    (lambda d: d.update(diagnostics={"lp": [0.5]}), "diagnostics.lp"),
    (lambda d: d.update(diagnostics={"window": -1.0}), "diagnostics.window"),
    (lambda d: d.update(diagnostics={"window": float("inf")}),
     "diagnostics.window"),
    (lambda d: d.update(diagnostics={"window": float("nan")}),
     "diagnostics.window"),
    # NaN and Infinity (JSON literals Python's json accepts) are rejected
    *[pytest.param(mutate, fragment, id=f"{name}-{fragment}")
      for name, mutate, fragment in [
          ("nan", lambda d: d["phi"].update(gradient=[0.0, float("nan")]),
           "phi.gradient"),
          ("inf", lambda d: d["time"].update(dt_max=float("inf")),
           "time.dt_max"),
          ("inf", lambda d: d["time"].update(t_final=float("inf")),
           "time.t_final"),
          ("inf", lambda d: d["grid"].update(extent=[float("inf"), 1.0]),
           "grid.extent"),
          ("-inf", lambda d: d["grid"].update(extent=[-float("inf"), 1.0]),
           "grid.extent"),
          ("inf", lambda d: d["model"].update(m=float("inf")), "model.m"),
          ("nan", lambda d: d["ic"].update(perturb={"amplitude": float("nan")}),
           "ic.perturb.amplitude"),
          ("negative", lambda d: d.update(diagnostics={"kappa": -1.0}),
           "diagnostics.kappa"),
          ("nan", lambda d: d.update(diagnostics={"kappa": float("nan")}),
           "diagnostics.kappa"),
          ("negative", lambda d: d.update(diagnostics={"c1_quasi": -1.0}),
           "diagnostics.c1_quasi"),
          ("negative", lambda d: d.update(diagnostics={"sigma_c": -1.0}),
           "diagnostics.sigma_c"),
          ("zero", lambda d: d.update(diagnostics={"sigma_c": 0.0}),
           "diagnostics.sigma_c"),
      ]],
    # each JSON kind is read by its reader, never iterated or converted
    *[pytest.param(mutate, fragment, id=f"{name}-{fragment}")
      for name, mutate, fragment in [
          ("scalar", lambda d: d["grid"].update(extent=5), "grid.extent"),
          ("scalar", lambda d: d["phi"].update(gradient=5), "phi.gradient"),
          ("scalar", lambda d: d.update(diagnostics={"lp": 5}),
           "diagnostics.lp"),
          ("string", lambda d: d.update(diagnostics={"lp": "m"}),
           "diagnostics.lp"),
          ("scalar", lambda d: d.update(output={"dir": 5}), "output.dir"),
          ("scalar", lambda d: d["ic"].update(u0=5), "ic.u0"),
          ("string", lambda d: d["ic"].update(u0="zero"), "ic.u0"),
          ("null", lambda d: d["ic"].update(u0=None), "ic.u0"),
          ("list", lambda d: d["ic"].update(u0=[]), "ic.u0"),
          ("negative", lambda d: d.update(seed=-1), "seed"),
      ]],
])
def test_parse_config_rejections(mutate, fragment):
    raw = json.loads(json.dumps(TINY))
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        parse_config(raw)


def test_parse_config_bad_sources(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        parse_config(str(tmp_path / "absent.json"))
    with pytest.raises(ConfigError, match="no such config file"):
        parse_config(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(broken))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        parse_config(str(arr))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError, match="not valid JSON.*utf-8"):
        parse_config(str(binary))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json_examples() -> list:
    """The indented code blocks of README.md that hold a JSON object."""
    blocks, block = [], []
    for line in README.read_text(encoding="utf-8").splitlines() + [""]:
        if line.startswith("    "):
            block.append(line)
        elif block:
            blocks.append("\n".join(block))
            block = []
    examples = []
    for text in blocks:
        try:
            examples.append(json.loads(text))
        except ValueError:
            pass
    return examples


def test_readme_examples_parse():
    """The README's config example, and its sweep spec around it, pass
    the parsers: the README cannot show a key the parser rejects."""
    examples = readme_json_examples()
    configs = [ex for ex in examples if "grid" in ex]
    specs = [ex for ex in examples if "axis" in ex]
    assert len(configs) == 1 and len(specs) == 1
    parse_config(configs[0])
    parse_sweep({**specs[0], "base_config": configs[0]})


def test_three_dimensional_config_parses():
    raw = json.loads(json.dumps(TINY))
    raw["grid"] = {"cells": [8, 8, 8], "extent": [1.0, 1.0, 1.0]}
    raw["phi"] = {"gradient": [0.0, 0.0, -1.0]}
    cfg = parse_config(raw)
    assert cfg.dim == 3 and len(cfg.model.phi_gradient) == 3


# ------------------------------------------------------------
# sweep specs
# ------------------------------------------------------------

def test_parse_sweep_and_overrides():
    spec = parse_sweep({"axis": "eps", "values": [0.2, 0.1],
                        "base_config": dict(TINY), "parallel_runs": 2})
    assert isinstance(spec, SweepSpec)
    assert spec.values == (0.2, 0.1) and spec.parallel_runs == 2
    assert apply_override(spec.base_config, "eps", 0.1)["model"]["eps"] == 0.1
    assert apply_override(spec.base_config, "m", 1.4)["model"]["m"] == 1.4
    grid_cfg = apply_override(spec.base_config, "grid", 24)
    assert grid_cfg["grid"]["cells"] == [24, 24]
    # base config is not mutated by overrides
    assert spec.base_config["model"]["eps"] == 0.2


@pytest.mark.parametrize("patch, fragment", [
    ({"axis": "nu"}, "sweep.axis"),
    ({"values": []}, "sweep.values"),
    ({"values": [0.1, 0.3, 0.2]}, "monotone"),
    ({"values": [0.1, "x"]}, "finite number"),
    ({"axis": "grid", "values": [12.5, 16]}, "integer"),
    ({"base_config": "/nonexistent.json"}, "no such sweep.base_config file"),
    ({"parallel_runs": 0}, "parallel_runs"),
    pytest.param({"values": [float("nan")]}, "finite number",
                 id="nan-finite numbers"),
    pytest.param({"axis": "grid", "values": [float("inf")]}, "finite number",
                 id="inf-finite numbers"),
    pytest.param({"values": [0.2, 10 ** 400]}, "finite number",
                 id="huge-finite numbers"),
])
def test_parse_sweep_rejections(patch, fragment):
    raw = {"axis": "eps", "values": [0.2, 0.1], "base_config": dict(TINY),
           "parallel_runs": 1}
    raw.update(patch)
    with pytest.raises(ConfigError, match=fragment):
        parse_sweep(raw)


def test_sweep_base_config_validated_up_front():
    bad = json.loads(json.dumps(TINY))
    bad["model"]["m"] = 0.5
    with pytest.raises(ConfigError, match="model.m"):
        parse_sweep({"axis": "eps", "values": [0.2, 0.1],
                     "base_config": bad})


def test_parse_sweep_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"sweep\.paralel_runs: unknown key"):
        parse_sweep({"axis": "eps", "values": [0.2, 0.1],
                     "base_config": dict(TINY), "paralel_runs": 2})


def test_run_sweep_eps_distances_and_summary(tmp_path):
    spec = parse_sweep({"axis": "eps", "values": [0.2, 0.1],
                        "base_config": dict(TINY)})
    out_root = str(tmp_path / "sw")
    summaries, path = run_sweep(spec, out_root, workers=1, seed=3)
    assert [s["status"] for s in summaries] == ["complete", "complete"]
    assert summaries[0]["l1_distance_to_prev"] == ""
    assert float(summaries[1]["l1_distance_to_prev"]) > 0.0
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("axis,value,run_dir,status,steps")
    assert len(lines) == 3
    assert "l1_distance_to_prev" in lines[0]


def test_run_sweep_m_axis_writes_certificates(tmp_path):
    spec = parse_sweep({"axis": "m", "values": [1.1, 1.2, 1.3],
                        "base_config": dict(TINY)})
    summaries, _ = run_sweep(spec, str(tmp_path / "sw"), workers=1)
    certs = {}
    for s in summaries:
        cert_path = os.path.join(s["run_dir"], "exponents_certificate.json")
        with open(cert_path) as fh:
            cert = certs[s["value"]] = json.load(fh)
        assert set(cert) == {"m", "threshold", "linear_ladder", "psi_ladder"}
        above = s["value"] > 9 / 8
        assert cert["threshold"]["above_9_8"] is above
        # both ladders are defined above 9/8 and undefined at m = 1.1
        for ladder in ("linear_ladder", "psi_ladder"):
            assert ("entries" in cert[ladder]) is above
            assert ("undefined" in cert[ladder]) is not above
    # each entry nests its step certificate; the last entry's p is final
    entries = certs[1.2]["psi_ladder"]["entries"]
    assert entries[0]["certificate"] is None
    assert set(entries[1]["certificate"]) == {"q", "bound", "admissible"}
    assert "final_p" not in certs[1.2]["psi_ladder"]


def test_run_sweep_m_certificate_where_the_pivot_overflows(tmp_path):
    """At m = 1e308 the pivot 9(m-1) overflows a float: the member's
    certificate records every part as undefined, and the sweep still
    writes its summary.  n stays at 1, where n^(m-1) is finite."""
    base = {**TINY, "grid": {"cells": [6, 6], "extent": [1.0, 1.0]},
            "ic": {"n0": {"preset": "constant", "value": 1.0},
                   "c0": {"preset": "constant", "value": 1.0}}}
    spec = parse_sweep({"axis": "m", "values": [1.5, 1e308],
                        "base_config": base})
    summaries, path = run_sweep(spec, str(tmp_path / "sw"), workers=1)
    with open(path) as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["complete"] * 2
    with open(os.path.join(summaries[1]["run_dir"],
                           "exponents_certificate.json")) as fh:
        cert = json.load(fh)
    for part in ("threshold", "linear_ladder", "psi_ladder"):
        assert "pivot 9(m-1) overflows" in cert[part]["undefined"]


def test_run_sweep_m_values_alike_to_six_digits(tmp_path):
    spec = parse_sweep({"axis": "m", "values": [1.1250001, 1.125001, 1.12501],
                        "base_config": dict(TINY)})
    summaries, _ = run_sweep(spec, str(tmp_path / "sw"), workers=1)
    assert [s["status"] for s in summaries] == ["complete"] * 3
    assert [os.path.basename(s["run_dir"]) for s in summaries] == [
        "run_m_1p1250001", "run_m_1p125001", "run_m_1p12501"]


# ------------------------------------------------------------
# command line
# ------------------------------------------------------------

def test_cli_simulate_reports_checks(tmp_path, capsys):
    cfg_path = write_json(tmp_path, "cfg.json", TINY)
    rc = main(["--output-dir", str(tmp_path / "out"),
               "simulate", "--config", cfg_path])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    check_lines = [ln for ln in out if ": pass" in ln or ": FAIL" in ln]
    assert len(check_lines) == 8
    assert any(ln.startswith("mass_conservation: pass") for ln in check_lines)
    assert out[-1].startswith("completed ")
    assert os.path.exists(os.path.join(str(tmp_path / "out"),
                                       "diagnostics.csv"))


def test_cli_simulate_seed_determinism(tmp_path, capsys):
    cfg_path = write_json(tmp_path, "cfg.json", TINY)

    def csv_bytes(tag, seed):
        out = str(tmp_path / tag)
        rc = main(["--output-dir", out, "--seed", str(seed),
                   "simulate", "--config", cfg_path])
        assert rc == 0
        capsys.readouterr()
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            return fh.read()

    assert csv_bytes("a", 7) == csv_bytes("b", 7)
    assert csv_bytes("c", 8) != csv_bytes("a", 7)


def manifest_seed(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)["config"]["seed"]


def test_cli_seed_zero_overrides_config_seed(tmp_path, capsys):
    """--seed 0 replaces a config's seed like any other value does."""
    cfg_path = write_json(tmp_path, "cfg.json", dict(TINY, seed=5))
    for tag, flags in (("zero", ["--seed", "0"]), ("seven", ["--seed", "7"]),
                       ("none", [])):
        assert main(["--output-dir", str(tmp_path / tag), *flags,
                     "simulate", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert [manifest_seed(tmp_path / tag)
            for tag in ("zero", "seven", "none")] == [0, 7, 5]
    # the perturbation follows the seed: seed 0 is TINY's default
    assert main(["--output-dir", str(tmp_path / "default"), "simulate",
                 "--config", write_json(tmp_path, "tiny.json", TINY)]) == 0
    capsys.readouterr()
    with open(tmp_path / "zero" / "diagnostics.csv", "rb") as a, \
            open(tmp_path / "default" / "diagnostics.csv", "rb") as b:
        assert a.read() == b.read()


def test_cli_sweep_seed_overrides_member_seeds(tmp_path, capsys):
    """sweep --seed S runs every member at S; without it each member keeps
    its config's seed."""
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1],
        "base_config": dict(TINY, seed=5)})
    for tag, flags in (("seven", ["--seed", "7"]), ("none", [])):
        assert main(["--output-dir", str(tmp_path / tag), *flags,
                     "sweep", "--spec", spec_path]) == 0
    capsys.readouterr()
    for tag, seed in (("seven", 7), ("none", 5)):
        runs = sorted((tmp_path / tag).glob("run_eps_*"))
        assert [manifest_seed(run) for run in runs] == [seed, seed]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # missing config file -> 1
    assert main(["simulate", "--config",
                 str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # invalid model parameter -> 1
    bad = json.loads(json.dumps(TINY))
    bad["model"]["m"] = 0.9
    assert main(["simulate", "--config",
                 write_json(tmp_path, "bad.json", bad)]) == 1
    capsys.readouterr()
    # zero diagnostics window -> 1 at parse time, not a traceback at the end
    zero = json.loads(json.dumps(TINY))
    zero["diagnostics"] = {"window": 0}
    assert main(["--output-dir", str(tmp_path / "zero"), "simulate",
                 "--config", write_json(tmp_path, "zero.json", zero)]) == 1
    assert "diagnostics.window" in capsys.readouterr().err
    # a NaN literal in the config file -> 1 at parse time, not a NaN run
    nan = json.loads(json.dumps(TINY))
    nan["phi"]["gradient"] = [0.0, float("nan")]
    nan_path = write_json(tmp_path, "nan.json", nan)
    with open(nan_path) as fh:
        assert "NaN" in fh.read()
    assert main(["--output-dir", str(tmp_path / "nan"), "simulate",
                 "--config", nan_path]) == 1
    assert "phi.gradient" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "nan")
    # resume without a manifest -> 1
    cfg_path = write_json(tmp_path, "cfg.json", TINY)
    assert main(["--output-dir", str(tmp_path / "fresh"),
                 "simulate", "--config", cfg_path, "--resume"]) == 1
    assert "no manifest" in capsys.readouterr().err
    # a numerical failure inside the run -> 2
    def failing_step_n(grid, state, model, dt, terms):
        raise NumericalError(f"density positivity lost at t = {state.t}")

    monkeypatch.setattr(solver, "step_n", failing_step_n)
    rc = main(["--output-dir", str(tmp_path / "blow"),
               "simulate", "--config", cfg_path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "numerical failure:" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate"], id="no-config"),
    pytest.param(["--threads", "x", "sweep", "--spec", "s.json"],
                 id="threads-x"),
    pytest.param(["bogus"], id="unknown-command")])
def test_cli_usage_errors_exit_1(capsys, argv):
    """Exit 2 means a numerical failure; a usage error is invalid input."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: chemostokes") and len(err.splitlines()) == 1


def cosine_c0(**params):
    return lambda d: d["ic"].update(c0={"preset": "cosine", **params})


@pytest.mark.parametrize("flags, mutate, fragment", [
    pytest.param(["--seed", "-1"], None, "seed", id="flag-seed"),
    pytest.param([], lambda d: d.update(seed=-1), "seed", id="config-seed"),
    pytest.param([], cosine_c0(mode=1.7), "ic.c0.mode", id="cosine-mode"),
    pytest.param([], cosine_c0(axis=True), "ic.c0.axis", id="cosine-axis"),
    # JSON integers beyond float range, below Python's digit limit
    *[pytest.param([], mutate, f"{path}: must be a finite number",
                   id=f"huge-{path}")
      for path, mutate in [
          ("model.m", lambda d: d["model"].update(m=10 ** 400)),
          ("grid.extent", lambda d: d["grid"].update(extent=[10 ** 400, 1])),
          ("time.t_final", lambda d: d["time"].update(t_final=10 ** 309)),
          ("diagnostics.lp",
           lambda d: d.update(diagnostics={"lp": [10 ** 400]}))]],
    pytest.param([], lambda d: d["grid"].update(cells=[10 ** 400, 8]),
                 "grid.cells", id="huge-grid.cells"),
])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_probes_exit_1_without_output(tmp_path, capsys, command, flags,
                                          mutate, fragment):
    """Values that used to end in a traceback (a negative seed reaching the
    Philox generator, int() of a float or a bool, an integer that
    overflows a float) exit 1 with one error line, before any output
    directory is made."""
    cfg = json.loads(json.dumps(TINY))
    if mutate is not None:
        mutate(cfg)
    source = (["--config", write_json(tmp_path, "cfg.json", cfg)]
              if command == "simulate" else
              ["--spec", write_json(tmp_path, "sweep.json", {
                  "axis": "eps", "values": [0.2, 0.1], "base_config": cfg})])
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), *flags, command, *source]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and len(err.splitlines()) == 1
    assert not out.exists()


def write_with_huge_int(path, obj):
    """Write obj as JSON with its "HUGE" strings as a 5000-digit integer,
    over Python's 4300-digit limit for int()."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj).replace('"HUGE"', "9" * 5000))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_cli_integer_over_the_digit_limit_exits_1(tmp_path, capsys, command):
    """json.load raises a plain ValueError on such an integer; a config or
    sweep spec holding one exits 1 with one error line and no output."""
    cfg = {**TINY, "seed": "HUGE"}
    source = (["--config", write_with_huge_int(tmp_path / "c.json", cfg)]
              if command == "simulate" else
              ["--spec", write_with_huge_int(tmp_path / "s.json", {
                  "axis": "eps", "values": [0.2, 0.1], "base_config": cfg})])
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), command, *source]) == 1
    err = capsys.readouterr().err
    what = "config" if command == "simulate" else "sweep spec"
    assert err.startswith(f"error: {what} is not valid JSON") \
        and "digits" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_resume_refuses_an_integer_over_the_digit_limit(tmp_path, capsys):
    """A manifest holding such an integer is refused on resume, and the run
    directory keeps its bytes."""
    out = tmp_path / "out"
    argv = ["--output-dir", str(out), "simulate", "--config",
            write_json(tmp_path, "cfg.json", TINY)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    write_with_huge_int(out / "manifest.json", {**manifest, "version": "HUGE"})
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main([*argv, "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest") and "digits" in err \
        and len(err.splitlines()) == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} \
        == before


@pytest.mark.parametrize("value", [None, "abc", [1]],
                         ids=["null", "string", "list"])
@pytest.mark.parametrize("field, key", [
    ("n0", "amplitude"), ("n0", "width"), ("c0", "value"), ("u0", "amplitude")])
def test_cli_preset_number_kind_exits_1(tmp_path, capsys, field, key, value):
    """A preset number that float() refuses exits 1 naming its JSON path,
    not with a TypeError or ValueError traceback, and makes no output."""
    cfg = json.loads(json.dumps(TINY))
    cfg["ic"][field][key] = value
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "simulate", "--config",
                 write_json(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ic.{field}.{key}: must be a number") \
        and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [
    ("eps", [0.5, 2.0]), ("m", [1.2, 0.9]), ("m", [1.3, 1.0])])
def test_cli_sweep_bad_value_exits_1_before_any_output(tmp_path, capsys,
                                                       axis, values):
    """A swept value that the config parser rejects is bad input: exit 1
    naming the key, no output root and no member run, even when another
    value of the sweep is valid."""
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": axis, "values": values, "base_config": dict(TINY)})
    out = tmp_path / "sw"
    assert main(["--output-dir", str(out), "--threads", "1", "sweep",
                 "--spec", spec_path]) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith(f"error: model.{axis}: must") and not cap.out
    assert not out.exists()


def test_cli_sweep_failed_member(tmp_path, capsys, monkeypatch):
    """A member that fails is reported with its error, breaks the L1 chain
    for the member after it, and makes the sweep exit 2."""
    real_step_n = solver.step_n

    def step_n(grid, state, model, dt, terms):
        if model.eps == 0.1:
            raise NumericalError(f"density positivity lost at t = {state.t}")
        return real_step_n(grid, state, model, dt, terms)

    monkeypatch.setattr(solver, "step_n", step_n)
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1, 0.05], "base_config": dict(TINY)})
    out = tmp_path / "sw"
    assert main(["--output-dir", str(out), "--threads", "1", "sweep",
                 "--spec", spec_path]) == 2
    assert "eps=0.1: failed" in capsys.readouterr().out
    with open(out / "sweep_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["complete", "failed", "complete"]
    assert rows[1]["error"] == "density positivity lost at t = 0.0"
    assert [r["l1_distance_to_prev"] for r in rows] == ["", "", ""]


@pytest.mark.parametrize("path", [
    "config.extra", "grid.extra", "model.extra", "phi.extra", "ic.extra",
    "ic.perturb.extra", "time.sampel_every", "diagnostics.extra",
    "output.extra", "ic.n0.amplitde", "ic.c0.extra", "ic.u0.extra",
    # keys of values that are derived or spelled once
    "model.k_d", "diagnostics.kappa", "diagnostics.c1_quasi",
    "diagnostics.sigma_c", "diagnostics.window"])
def test_unknown_config_key_exits_1(tmp_path, capsys, path):
    """A misspelled key exits 1 naming its JSON path, before any output
    directory is made; it never runs silently with a default."""
    cfg = json.loads(json.dumps(TINY))
    *sections, key = path.split(".")
    target = cfg
    for name in sections[1:] if sections[0] == "config" else sections:
        target = target.setdefault(name, {})
    target[key] = 1.0
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "simulate", "--config",
                 write_json(tmp_path, "cfg.json", cfg)]) == 1
    assert f"error: {path}: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_bad_sources(tmp_path, capsys):
    """A missing spec, a spec that is not an object, a base_config file
    holding malformed JSON and a base config whose initial condition
    cannot be built all exit 1 with an error line, not a traceback."""
    assert main(["--output-dir", str(tmp_path / "a"), "sweep", "--spec",
                 str(tmp_path / "absent.json")]) == 1
    assert "error: no such sweep spec file" in capsys.readouterr().err
    assert main(["--output-dir", str(tmp_path / "a"), "sweep", "--spec",
                 write_json(tmp_path, "list.json", [1, 2])]) == 1
    assert "error: sweep spec: top level" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"grid": ')
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1], "base_config": str(broken)})
    assert main(["--output-dir", str(tmp_path / "b"), "sweep", "--spec",
                 spec_path]) == 1
    assert "error: sweep.base_config is not valid JSON" in \
        capsys.readouterr().err
    bad_ic = json.loads(json.dumps(TINY))
    bad_ic["ic"]["n0"] = {"preset": "sawtooth"}
    spec_path = write_json(tmp_path, "bad_ic.json", {
        "axis": "eps", "values": [0.2, 0.1], "base_config": bad_ic})
    out = tmp_path / "c"
    assert main(["--output-dir", str(out), "sweep", "--spec",
                 spec_path]) == 1
    assert "error: ic.n0: unknown preset 'sawtooth'" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_sweep_rejects_nonpositive_threads(tmp_path, capsys, threads):
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1], "base_config": dict(TINY)})
    out = tmp_path / "sw"
    assert main(["--output-dir", str(out), "--threads", threads,
                 "sweep", "--spec", spec_path]) == 1
    assert "must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def _sweep_driver(tmp_path, prelude=""):
    """Run `chemostokes --threads 2 sweep` over three members from a driver
    script without a __main__ guard; returns its exit code and the
    [status, error] rows of its summary."""
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1, 0.05], "base_config": dict(TINY)})
    out = tmp_path / "sw"
    script = tmp_path / "driver.py"
    script.write_text(
        "import sys\n"
        "from chemostokes.cli import main\n"
        + prelude +
        f"sys.exit(main(['--output-dir', {str(out)!r}, '--threads', '2', "
        f"'sweep', '--spec', {spec_path!r}]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 2), proc.stderr
    with open(out / "sweep_summary.csv") as fh:
        rows = [[r["status"], r["error"]] for r in csv.DictReader(fh)]
    assert len(rows) == 3
    return proc.returncode, rows


def test_sweep_driver_needs_no_main_guard(tmp_path):
    """Workers are forked from the driver, not booted afresh, so they
    never re-import a driver script that has no __main__ guard."""
    assert _sweep_driver(tmp_path) == (0, [["complete", ""]] * 3)


def test_dead_worker_fails_its_member(tmp_path):
    """Every worker dies at its first member.  The sweep must still end:
    the dead worker breaks the pool, every member whose result had not
    arrived is reported failed with the cause, and the sweep exits 2."""
    rc, rows = _sweep_driver(tmp_path, (
        "import os\n"
        "import chemostokes.sweep\n"
        "caller, run = os.getpid(), chemostokes.sweep.run\n"
        "def dying_run(cfg):\n"
        "    if os.getpid() != caller:\n"
        "        os._exit(3)\n"
        "    return run(cfg)\n"
        "chemostokes.sweep.run = dying_run\n"))
    assert rc == 2
    for status, error in rows:
        assert status == "failed" and "worker process died" in error


def test_pooled_sweep_leaves_no_thread_or_process(tmp_path):
    """A sweep on 2 workers joins its pool's manager thread and workers
    before it returns, so a later fork never copies a live thread."""
    spec = parse_sweep({"axis": "eps", "values": [0.2, 0.1],
                        "base_config": dict(TINY)})
    before = set(threading.enumerate())
    summaries, _ = run_sweep(spec, str(tmp_path / "sw"), workers=2)
    assert [s["status"] for s in summaries] == ["complete"] * 2
    assert set(threading.enumerate()) == before
    assert multiprocessing.active_children() == []


def test_cli_exponents_table(capsys):
    rc = main(["exponents", "--m", "1.2", "--ladder", "linear"])
    cap = capsys.readouterr()
    assert rc == 0
    lines = cap.out.splitlines()
    assert lines[0] == "k,p_k,gamma_bound,admissible"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    assert "terminated:" in cap.err
    # psi ladder is undefined at m below its threshold -> config error
    assert main(["exponents", "--m", "1.1", "--ladder", "psi"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_psi_ladder_names_its_threshold(capsys):
    assert main(["exponents", "--m", "1.1", "--ladder", "psi"]) == 1
    assert "m > 9/8" in capsys.readouterr().err


def test_cli_psi_ladder_at_huge_m():
    """The psi ladder ends with finite exponents wherever Gamma is a
    finite float, and exits 1 naming m where it overflows.  Run in a
    subprocess so that a ladder that never ends fails by timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def exponents(m):
        return subprocess.run(
            [sys.executable, "-m", "chemostokes.cli", "exponents",
             "--m", m, "--ladder", "psi"],
            capture_output=True, text=True, timeout=60, env=env)

    for m in ("2e6", "1e100"):
        proc = exponents(m)
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert rows and all(math.isfinite(float(r.split(",")[1]))
                            for r in rows)
    proc = exponents("1e160")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "m = 1e+160" in proc.stderr


def test_cli_ladders_refuse_an_overflowing_pivot(capsys):
    """At m = 1e308 the pivot 9(m-1) is inf: both ladders exit 1 naming m
    and print no row; at m = 1e300 the linear ladder still prints its
    finite rows."""
    for ladder in ("linear", "psi"):
        assert main(["exponents", "--m", "1e308", "--ladder", ladder]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == ("error: pivot 9(m-1) overflows a float at "
                           "m = 1e+308\n")
    assert main(["exponents", "--m", "1e300", "--ladder", "linear"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[1] == "1,3e+300,,true"
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(["exponents", "--m", "1.25", "--cap", "nan"],
                 "argument --cap", id="cap-nan"),
    pytest.param(["exponents", "--m", "1.25", "--cap", "inf"],
                 "argument --cap", id="cap-inf"),
    pytest.param(["exponents", "--m", "1.3", "--ladder", "linear",
                  "--p0", "nan"], "argument --p0", id="p0-nan"),
    pytest.param(["exponents", "--m", "nan", "--ladder", "linear"],
                 "argument --m", id="m-nan"),
    pytest.param(["regcheck", "--eps", "0.1", "--m", "nan"],
                 "argument --m", id="regcheck-m-nan"),
    pytest.param(["regcheck", "--eps", "0.1", "--m", "0.5"],
                 "m must be > 1", id="regcheck-m-below-1"),
    pytest.param(["regcheck", "--eps", "0.1,inf"], "argument --eps",
                 id="regcheck-eps-inf"),
    pytest.param(["--seed", "-1", "regcheck", "--eps", "0.1", "--samples",
                  "10"], "seed must be >= 0", id="regcheck-seed-negative"),
])
def test_cli_number_flags_exit_1(capsys, argv, fragment):
    """Numbers given to exponents and regcheck are checked like config
    numbers: a non-finite or out-of-range value is invalid input."""
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and fragment in cap.err
    assert len(cap.err.splitlines()) == 1


def test_cli_regcheck(capsys):
    rc = main(["regcheck", "--eps", "0.5,0.1", "--samples", "400"])
    cap = capsys.readouterr()
    assert rc == 0
    assert "regcheck: all properties hold" in cap.out
    assert "eps=0.5" in cap.out and "eps=0.1" in cap.out
    assert main(["regcheck", "--eps", "nope"]) == 1
    capsys.readouterr()
    assert main(["regcheck", "--eps", "2.0"]) == 1


def test_cli_sweep_parallel(tmp_path, capsys):
    spec = {"axis": "eps", "values": [0.2, 0.1],
            "base_config": dict(TINY), "parallel_runs": 2}
    spec_path = write_json(tmp_path, "sweep.json", spec)
    rc = main(["--output-dir", str(tmp_path / "sw"), "--threads", "2",
               "sweep", "--spec", spec_path])
    cap = capsys.readouterr()
    assert rc == 0
    assert "eps=0.2: complete" in cap.out
    assert "eps=0.1: complete" in cap.out
    assert os.path.exists(os.path.join(str(tmp_path / "sw"),
                                       "sweep_summary.csv"))


def test_cli_sweep_members_at_once(tmp_path, monkeypatch, capsys):
    """--threads sets the members run at once; without it the spec's
    parallel_runs does."""
    from chemostokes import cli, sweep
    run_members = sweep._run_members
    passed, used = [], []

    def recording_run_sweep(*args, workers=None, **kwargs):
        passed.append(workers)
        return run_sweep(*args, workers=workers, **kwargs)

    def recording_run_members(tasks, nworkers):
        used.append(nworkers)
        return run_members(tasks, nworkers)

    monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
    monkeypatch.setattr(sweep, "_run_members", recording_run_members)
    spec_path = write_json(tmp_path, "sweep.json", {
        "axis": "eps", "values": [0.2, 0.1], "base_config": dict(TINY),
        "parallel_runs": 2})
    for tag, threads in (("spec", []), ("flag", ["--threads", "1"])):
        assert main(["--output-dir", str(tmp_path / tag), *threads,
                     "sweep", "--spec", spec_path]) == 0
    capsys.readouterr()
    assert passed == [None, 1]
    assert used == [2, 1]


def test_console_script_entry_point(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    repo = Path(__file__).resolve().parents[1]
    with open(repo / "pyproject.toml", "rb") as fh:
        [(name, value)] = tomllib.load(fh)["project"]["scripts"].items()
    ep = EntryPoint(name=name, value=value, group="console_scripts")
    assert ep.load() is main

    # The launcher pip writes for a console script, run by name from PATH.
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n")
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(repo / "src"), env.get("PYTHONPATH")] if p)

    def run(argv):
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, env=env)

    args = ["exponents", "--m", "1.25", "--ladder", "linear"]
    proc = run([name] + args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k,p_k,gamma_bound,admissible")
    module = run([sys.executable, "-m", "chemostokes.cli"] + args)
    assert module.returncode == 0, module.stderr
    assert proc.stdout == module.stdout
    # main()'s return code is the script's exit status
    assert run([name, "regcheck", "--eps", "2.0"]).returncode == 1


def test_module_invocation_matches_script():
    proc = subprocess.run(
        [sys.executable, "-m", "chemostokes.cli",
         "exponents", "--m", "1.25", "--ladder", "linear"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k,p_k,gamma_bound,admissible")
