"""Unit tests of result fingerprints and the refusal to compare unlike ones.

    python3 -m unittest discover -s perfbench/tests
"""

import dataclasses
import io
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402
import results  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent.parent
BUILD = {"type": "Release", "march": "native"}


def result(fp, value=1.0):
    names = ("setup_s", "throughput_rps", "latency_p50_ms", "latency_tail_ms",
             "success_rate", "slo_attainment", "peak_rss_mb", "cpu_per_request_ms")
    return {"fingerprint": fp, "trace": 0, "end_to_end": dict.fromkeys(names, value)}


class Fingerprint(unittest.TestCase):
    def setUp(self):
        self.fp = results.fingerprint(WORKLOADS["toy_open"], 1, 10, BUILD, ROOT)

    def test_records_config_seed_and_source(self):
        for key in ("workload", "shards", "workers_per_shard", "nproc", "build_type",
                    "march", "window_s", "seed", "commit", "source_digest"):
            self.assertIn(key, self.fp)
        self.assertEqual(self.fp["workload"]["rate_rps"], 800.0)
        self.assertEqual(self.fp["workload"]["latency_limit_ms"], 50.0)

    def test_survives_a_round_trip_through_a_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.json"
            results.save(path, result(self.fp))
            results.require_alike(results.load(path)["fingerprint"], self.fp, ignore=())

    def test_unlike_configs_are_refused(self):
        quick = dict(self.fp, window_s=2)
        with self.assertRaisesRegex(results.FingerprintMismatch, "window_s"):
            results.require_alike(self.fp, quick)
        other_rate = dataclasses.replace(WORKLOADS["toy_open"], rate_rps=400.0)
        with self.assertRaisesRegex(results.FingerprintMismatch, "workload"):
            results.require_alike(self.fp, results.fingerprint(other_rate, 1, 10, BUILD, ROOT))

    def test_seed_and_source_may_differ_between_compared_results(self):
        results.require_alike(self.fp, dict(self.fp, seed=2, commit="x", source_digest="y"))
        with self.assertRaises(results.FingerprintMismatch):
            results.require_alike(self.fp, dict(self.fp, seed=2), ignore=())


class Compare(unittest.TestCase):
    def run_compare(self, parent, change):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for directory, fps in ((a, parent), (b, change)):
                for i, fp in enumerate(fps):
                    results.save(Path(directory) / ("toy_open-seed%d-trace0.json" % i),
                                 result(fp))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = compare.main(["compare.py", a, b])
            return code, out.getvalue(), err.getvalue()

    def test_alike_results_compare(self):
        fp = results.fingerprint(WORKLOADS["toy_open"], 1, 10, BUILD, ROOT)
        code, out, _ = self.run_compare([fp], [dict(fp, seed=2, commit="other")])
        self.assertEqual(code, 0)
        self.assertIn("cpu_per_request_ms", out)

    def test_quick_against_full_is_refused(self):
        fp = results.fingerprint(WORKLOADS["toy_open"], 1, 10, BUILD, ROOT)
        code, _, err = self.run_compare([fp], [dict(fp, window_s=2)])
        self.assertEqual(code, 2)
        self.assertIn("window_s", err)


if __name__ == "__main__":
    unittest.main()
