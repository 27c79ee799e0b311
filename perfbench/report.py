"""Every end-to-end metric of every workload, in one table.

    python3 perfbench/report.py [--seed 1]

Runs perfbench/run.py once per workload, one after the other, for the
``run_seconds`` that BENCHMARK.json declares, and prints each metric's
median with its unit, sample count and quartiles, and failed_share
(failed instances over attempted ones).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{workload}: benchmark failed\n{out.stderr}")
            status = 1
            continue
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"== {workload} (correct={result['correct']})")
        for line in lines[:-1]:
            if not line.startswith("provenance"):
                print(f"   {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
