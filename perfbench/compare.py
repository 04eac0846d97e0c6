#!/usr/bin/env python3
"""Compares two sets of untraced benchmark results, e.g. a parent commit's
and a change's `.bench_build/results/` directories:

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Per workload and end-to-end metric it prints both medians, the change and
the metric's bound from BENCHMARK.json. Results whose config fingerprints
differ (other than seed and source) are refused, exit code 2.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import results  # noqa: E402


def load_set(directory):
    """{workload: [result, ...]} of the untraced results in a directory."""
    sets = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = results.load(path)
        sets.setdefault(result["fingerprint"]["workload"]["name"], []).append(result)
    return sets


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load_set(argv[1]), load_set(argv[2])
    reference = None
    try:
        for group in list(parent.values()) + list(change.values()):
            for result in group:
                fp = dict(result["fingerprint"], workload=None)
                reference = reference or fp
                results.require_alike(reference, fp)
            for result in group[1:]:
                results.require_alike(group[0]["fingerprint"], result["fingerprint"])
        for name in sorted(set(parent) & set(change)):
            results.require_alike(parent[name][0]["fingerprint"], change[name][0]["fingerprint"])
    except results.FingerprintMismatch as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    for name in sorted(set(parent) & set(change)):
        print("%s (%d parent runs, %d change runs):" % (name, len(parent[name]),
                                                         len(change[name])))
        for m in spec["end_to_end"]:
            a = statistics.median(r["end_to_end"][m["name"]] for r in parent[name])
            b = statistics.median(r["end_to_end"][m["name"]] for r in change[name])
            rel = (b - a) / a if a else 0.0
            worse = rel > m["bound"] if m["better"] == "lower" else -rel > m["bound"]
            print("  %-16s %12.6g -> %12.6g  %+7.1f%%  bound %.0f%%%s" % (
                m["name"], a, b, 100 * rel, 100 * m["bound"], "  WORSE" if worse else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
