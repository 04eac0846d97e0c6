#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload on several seeds
and prints, per end-to-end metric, the median and the spread (inter-quartile
range over the median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [WORKLOAD ...]

Without WORKLOAD arguments it runs the workloads BENCHMARK.json names, each
for BENCHMARK.json's run_seconds on seeds 1..N.

A spread above a third of its bound is flagged, setup_s's too; the exit
code is 2 if any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="one of: " + ", ".join(sorted(WORKLOADS)))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in workloads:
        values = {m: [] for m in bounds}
        start = time.monotonic()
        for seed in range(1, args.seeds + 1):
            run = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                  "--seed", str(seed), "--seconds", str(seconds),
                                  "--trace", "0"], capture_output=True, text=True)
            if run.returncode != 0:
                print("%s seed %d failed (exit %d):\n%s" % (name, seed, run.returncode,
                                                             run.stderr[-2000:]))
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print("%s (%d seeds, %d s window, %.0f s per run):" % (
            name, args.seeds, seconds, (time.monotonic() - start) / args.seeds))
        for m, bound in bounds.items():
            s = spread(values[m])
            flag = "" if s <= bound / 3 else "  <-- above bound/3"
            steady = steady and s <= bound
            print("  %-16s median %12.6g  spread %6.3f  bound %.2f%s" % (
                m, statistics.median(values[m]), s, bound, flag))
            print("    values: " + ", ".join("%.6g" % v for v in values[m]))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
