"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json declares, with their units, and passes its checks.
2. A NaN injected through the public API (a NaN initial amplitude, which
   the config parser accepts and the solver runs to "complete") and a NaN
   written into a finished state both count as failed.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads as wl  # noqa: E402


def check_metrics(declared):
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result
            assert result["correct"] and result["failed"] == 0 \
                and result["attempted"] >= 1 + trace, (workload, out.stdout)
            want = {d["name"]: d["unit"] for d in
                    declared["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name, m)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_nan_counts_as_failed():
    cs = child._import_program()
    out = os.path.join(HERE, "_work", "selftest-nan")
    shutil.rmtree(out, ignore_errors=True)
    try:
        config = wl.make_config("plume-256", 3, out, smoke=True)
        config["ic"]["n0"]["amplitude"] = float("nan")
        cfg = cs.parse_config(config)
        failures = child.measure(cs, wl, "plume-256", cfg, out, 3,
                                 cs.run)[0]
        assert "finite_fields" in failures, failures
        print(f"ok  NaN amplitude fails: {', '.join(failures)}")

        config["ic"]["n0"]["amplitude"] = 2.0
        result = cs.run(cs.parse_config(config))
        assert wl.result_failures(result) == []
        result.state.n[1, 1] = float("nan")
        assert wl.result_failures(result) == ["finite_fields"]
        print("ok  NaN written into a finished state fails")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_bare_directory_fails():
    bare = os.path.join(HERE, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith(".py"):
                shutil.copy(os.path.join(HERE, name),
                            os.path.join(bare, "perfbench"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plume-256",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0, out.stdout
        assert '"correct"' not in out.stdout, out.stdout
        print(f"ok  without the program: exit {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    check_metrics(declared)
    check_nan_counts_as_failed()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
