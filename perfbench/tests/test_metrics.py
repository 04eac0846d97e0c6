"""Unit tests of the benchmark's metric rules.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(status="ok", due=0.0, send=None, done=10.0, queue=1.0, exec_=2.0):
    return {"status": status, "due_ms": due, "send_ms": due if send is None else send,
            "done_ms": done, "queue_ms": queue, "exec_ms": exec_}


def snapshot(forwarded, shards):
    return {"forwarded": forwarded, "failed": 0, "retries": 1, "sessions_rehomed": 0,
            "shards": shards}


def shard(address, completed, busy, jobs, hits=0, misses=0):
    return {"address": address, "alive": True, "completed": completed, "shed": 0,
            "expired": 0, "batches_submitted": completed, "coalesced_requests": completed,
            "cache_hits": hits, "cache_misses": misses,
            "lanes": [{"jobs": jobs, "tiles": 0, "busy_ms": busy},
                      {"jobs": jobs, "tiles": 0, "busy_ms": busy}]}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples: p99 has exactly 10 beyond
        value, q, n, beyond = metrics.tail_latency(values)
        self.assertEqual((q, n, beyond), (99.0, 1000, 10))
        self.assertAlmostEqual(value, metrics.percentile(values, 99.0))

    def test_one_sample_short_falls_to_the_next_rung(self):
        _, q, _, beyond = metrics.tail_latency(list(range(999)))  # p99: 9.99 beyond
        self.assertEqual((q, beyond), (90.0, 99))

    def test_p999_needs_ten_thousand_samples(self):
        self.assertEqual(metrics.tail_latency(list(range(10000)))[1], 99.9)
        self.assertEqual(metrics.tail_latency(list(range(9999)))[1], 99.0)

    def test_small_samples_use_lower_rungs_then_the_maximum(self):
        self.assertEqual(metrics.tail_latency(list(range(57)))[1:], (75.0, 57, 14))
        self.assertEqual(metrics.tail_latency(list(range(39)))[1], 50.0)
        value, q, n, beyond = metrics.tail_latency([5.0, 1.0, 3.0])
        self.assertEqual((value, q, n, beyond), (5.0, 100.0, 3, 0))

    def test_sliced_tail_takes_the_median_slice(self):
        # Three 1 s slices of 100 requests; a stall hits only the middle one.
        records = [record(due=k * 1000.0 + i, done=k * 1000.0 + i + (50.0 if k == 1 else 5.0))
                   for k in range(3) for i in range(100)]
        value, q, n, beyond = metrics.sliced_tail(records, 3000.0, 3)
        self.assertEqual((value, q, n, beyond), (5.0, 90.0, 300, 10))
        self.assertEqual(metrics.sliced_tail(records, 3000.0, 1)[1], 90.0)  # 30 beyond p90
        self.assertEqual(metrics.sliced_tail(records, 3000.0, 1)[0], 50.0)

    def test_slices_choose_the_percentile_of_the_smallest_slice(self):
        records = [record(due=i * 10.0, done=i * 10.0 + 1.0) for i in range(60)]
        records += [record(due=1000.0 + i * 5, done=1001.0 + i * 5) for i in range(150)]
        _, q, n, beyond = metrics.sliced_tail(records, 2000.0, 2)
        self.assertEqual((q, n, beyond), (75.0, 210, 15))

    def test_percentile_interpolates(self):
        self.assertEqual(metrics.percentile([10.0, 20.0], 50.0), 15.0)
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 100.0), 3.0)


class FailureAccounting(unittest.TestCase):
    STATUSES = ("overloaded", "timeout", "unavailable", "expired")

    def test_every_non_ok_status_fails(self):
        records = [record()] + [record(status=s) for s in self.STATUSES]
        self.assertEqual(metrics.failures(records), (5, 4))

    def test_failures_miss_the_latency_limit_whatever_their_latency(self):
        # A shed request answers fast but still misses; so does a refused
        # connection (the client fails it locally as unavailable).
        fast_failures = [record(status=s, done=0.1) for s in self.STATUSES]
        records = [record(done=10.0), record(done=60.0)] + fast_failures
        self.assertAlmostEqual(metrics.slo_attainment(records, 50.0), 1 / 6)

    def test_failures_count_in_end_to_end_metrics(self):
        gen = {"records": [record(done=5.0), record(status="overloaded", done=1.0),
                           record(status="timeout", done=9.0), record(done=7.0)],
               "window_ms": 1000.0, "max_lateness_ms": 0.0}
        e2e, details = metrics.end_to_end(gen, WORKLOADS["toy_open"], [1.0, 2.0, 3.0], 10.0, 0.5)
        self.assertEqual((details["attempted"], details["failed"]), (4, 2))
        self.assertEqual(details["error_rate"], 0.5)
        self.assertEqual(e2e["success_rate"], 0.5)
        self.assertEqual(e2e["slo_attainment"], 0.5)
        self.assertEqual(e2e["throughput_rps"], 2.0)  # kOk only
        self.assertEqual(e2e["latency_p50_ms"], 6.0)  # kOk latencies only
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["cpu_per_request_ms"], 250.0)  # 0.5 s over 2 kOk replies

    def test_throughput_counts_only_the_window_not_its_drain(self):
        # A 2 s window: the replies that arrive while it drains count for
        # latency, not throughput.
        records = [record(due=0.0, send=0.0, done=500.0),
                   record(due=900.0, send=900.0, done=1200.0),
                   record(due=1500.0, send=1500.0, done=2100.0),   # drained
                   record(due=1800.0, send=1800.0, done=2000.0)]
        gen = {"records": records, "window_ms": 2000.0, "max_lateness_ms": 0.0}
        e2e, details = metrics.end_to_end(gen, WORKLOADS["medium_and"], [1.0], 10.0, 1.0)
        self.assertEqual(e2e["throughput_rps"], 1.5)  # 3 replies in 2 s
        self.assertEqual(details["attempted"], 4)
        self.assertEqual(e2e["latency_p50_ms"], 400.0)  # all four: 500, 300, 600, 200


class OpenLoopLatency(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        late = record(due=100.0, send=130.0, done=135.0)
        self.assertEqual(metrics.latency_ms(late), 35.0)

    def test_a_late_send_can_miss_the_limit(self):
        late = record(due=0.0, send=45.0, done=55.0)  # 10 ms after sending
        self.assertEqual(metrics.slo_attainment([late], 50.0), 0.0)

    def test_network_overhead_runs_from_the_send(self):
        gen = {"records": [dict(record(due=0.0, send=30.0, done=40.0, queue=2.0, exec_=3.0),
                                request_bytes=2048, response_bytes=1024,
                                transforms_executed=3, transforms_avoided=0)],
               "layers": dict.fromkeys(("fhe.hom_mult_ms", "backend.product_ms",
                                        "fhe.admit_ms", "fhe.codec_ms", "fhe.wavefront_ms",
                                        "fhe.keygen_ms", "fhe.encrypt_ms", "fhe.decrypt_ms",
                                        "ssa.multiply_ms", "ntt.forward_ms", "ntt.inverse_ms",
                                        "bigint.divmod_ms", "hw.mult_us", "hw.fft_us",
                                        "hw.dotprod_us", "hw.carry_us"), 1.0),
               "stats_begin": snapshot(0, [shard("a", 0, 0.0, 0)]),
               "stats_end": snapshot(1, [shard("a", 1, 5.0, 2)]),
               "drained_ms": 50.0}
        layer = metrics.per_layer(gen)
        self.assertEqual(layer["net.overhead_ms"], 5.0)  # 40 - 30 - 2 - 3
        self.assertEqual(layer["net.request_kb"], 2.0)


class Budget(unittest.TestCase):
    def test_rows_close_on_the_median_latency(self):
        gen = {"records": [dict(record(), and_gates=1)], "layers": {"ntt.size": 1024}}
        layer = {"net.overhead_ms": 1.0, "service.queue_ms": 2.0, "fhe.reduce_ms": 100.0,
                 "service.coalescing": 1.5, "ssa.transforms_per_request": 3.0,
                 "ntt.forward_ms": 1.0, "ntt.inverse_ms": 3.0, "fhe.codec_ms": 0.5}
        rows = metrics.budget({"latency_p50_ms": 200.0}, layer, gen)
        self.assertEqual([ms for _, ms in rows], [1.0, 2.0, 100.0, 50.0, 6.0, 0.5, 40.5])
        self.assertEqual(rows[-1][0], "unattributed")


class StatsDelta(unittest.TestCase):
    def test_deltas_sum_over_shards_and_lanes(self):
        begin = snapshot(10, [shard("a", 5, 100.0, 10, hits=1), shard("b", 3, 50.0, 6)])
        end = snapshot(30, [shard("a", 15, 300.0, 30, hits=4, misses=2),
                            shard("b", 8, 150.0, 16)])
        d = metrics.stats_delta(begin, end)
        self.assertEqual(d["forwarded"], 20)
        self.assertEqual(d["retries"], 0)
        self.assertEqual(d["completed"], 15)
        self.assertEqual(d["lane_busy_ms"], 2 * 200.0 + 2 * 100.0)
        self.assertEqual(d["lane_jobs"], 2 * 20 + 2 * 10)
        self.assertEqual((d["cache_hits"], d["cache_misses"]), (3, 2))
        self.assertEqual(d["lanes"], 4)

    def test_shards_match_by_address_not_position(self):
        begin = snapshot(0, [shard("a", 5, 0.0, 0), shard("b", 1, 0.0, 0)])
        end = snapshot(0, [shard("b", 2, 0.0, 0), shard("a", 6, 0.0, 0)])
        self.assertEqual(metrics.stats_delta(begin, end)["completed"], 2)

    def test_a_restarted_or_new_shard_counts_from_zero(self):
        begin = snapshot(0, [shard("a", 50, 500.0, 50)])
        end = snapshot(0, [shard("a", 4, 40.0, 4), shard("c", 2, 20.0, 2)])
        d = metrics.stats_delta(begin, end)
        self.assertEqual(d["completed"], 6)
        self.assertEqual(d["lane_busy_ms"], 2 * 40.0 + 2 * 20.0)


class Spread(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)
        self.assertEqual(metrics.spread([2.0, 2.0, 2.0, 2.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
