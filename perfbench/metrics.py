"""Turns the generator's raw records and stats snapshots into metrics.

Pure functions only (no processes, no files), so perfbench/tests can pin
the rules: tail-percentile selection, failure accounting, open-loop latency
and stats-delta arithmetic.
"""

import math
import statistics

OK = "ok"

# Tail percentiles, highest first. The tail is the highest one that has at
# least MIN_BEYOND samples beyond it; the median is the last resort and the
# maximum is reported (as percentile 100) only below 2 * MIN_BEYOND samples.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples above percentile q of n samples, by the count rule."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def tail_latency(values):
    """Returns (value, percentile, samples, samples_beyond)."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    for q in TAIL_LADDER:
        beyond = samples_beyond(n, q)
        if beyond >= MIN_BEYOND:
            return percentile(values, q), q, n, beyond
    return max(values), 100.0, n, 0


def sliced_tail(records, window_ms, slices):
    """Tail latency as the median over equal time slices of window_ms.

    Requests are assigned to slices by due time. The percentile is chosen
    by the count rule on the smallest slice, so every slice supports it; a
    stall that lands in one slice then moves one of the slice values rather
    than the whole run's tail. With one slice this is tail_latency.
    Returns (value, percentile, samples, smallest slice's samples beyond).
    """
    groups = [[] for _ in range(slices)]
    for r in records:
        k = min(int(r["due_ms"] * slices / window_ms), slices - 1)
        groups[k].append(latency_ms(r))
    groups = [g for g in groups if g]
    if not groups:
        raise ValueError("tail of no samples")
    _, q, _, beyond = tail_latency(min(groups, key=len))
    values = [percentile(g, q) for g in groups]
    return statistics.median(values), q, sum(len(g) for g in groups), beyond


def latency_ms(record):
    """Client-observed latency, timed from when the request was due.

    In a closed loop a request is due when it is sent; in an open loop the
    schedule fixes the due time, so a late send counts against latency.
    """
    return record["done_ms"] - record["due_ms"]


def failures(records):
    """(attempted, failed): every status but kOk counts as failed --
    shed (overloaded), timed out, expired, refused or lost connections."""
    attempted = len(records)
    failed = sum(1 for r in records if r["status"] != OK)
    return attempted, failed


def slo_attainment(records, limit_ms):
    """Share of attempted requests that completed kOk within limit_ms; a
    failed request is a miss whatever its latency."""
    if not records:
        return 0.0
    met = sum(1 for r in records if r["status"] == OK and latency_ms(r) <= limit_ms)
    return met / len(records)


def _shard_counters(shard):
    counters = {k: v for k, v in shard.items() if isinstance(v, (int, float))
                and not isinstance(v, bool)}
    counters["lane_jobs"] = sum(lane["jobs"] for lane in shard.get("lanes", []))
    counters["lane_busy_ms"] = sum(lane["busy_ms"] for lane in shard.get("lanes", []))
    counters["lanes"] = len(shard.get("lanes", []))
    return counters


def stats_delta(begin, end):
    """Counter deltas between two fleet stats snapshots.

    Router counters subtract directly. Shards are matched by address; a
    shard absent from `begin`, or whose counters went backwards (it
    restarted in between), counts from zero. Returns the router deltas,
    the summed shard deltas, and `lanes`, the lane count at the end.
    """
    delta = {k: end[k] - begin.get(k, 0) for k in ("forwarded", "failed", "retries",
                                                   "sessions_rehomed")}
    before = {s["address"]: _shard_counters(s) for s in begin.get("shards", [])}
    lanes = 0
    for shard in end.get("shards", []):
        now = _shard_counters(shard)
        then = before.get(shard["address"])
        if then is None or any(now[k] < then[k] for k in now if k != "lanes"):
            then = {k: 0 for k in now}
        lanes += now["lanes"]
        for k, v in now.items():
            if k != "lanes":
                delta[k] = delta.get(k, 0) + v - then[k]
    delta["lanes"] = lanes
    return delta


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(gen, workload, setup_times, peak_rss_mb, window_cpu_s):
    """The end-to-end metrics of one run, plus the details printed beside them.
    window_cpu_s is the CPU time the daemons spent from the window's start
    until its last reply."""
    records = gen["records"]
    ok = [r for r in records if r["status"] == OK]
    attempted, failed = failures(records)
    window_ms = gen["window_ms"]
    latencies = [latency_ms(r) for r in ok]
    if not latencies:
        raise ValueError("no request completed; nothing to measure")
    tail, q, n, beyond = sliced_tail(ok, window_ms, workload.tail_slices)
    # Replies that arrive while the window drains count for latency only.
    completed_in_window = sum(1 for r in ok if r["done_ms"] <= window_ms)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": completed_in_window * 1000.0 / window_ms,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "success_rate": (attempted - failed) / attempted,
        "slo_attainment": slo_attainment(records, workload.latency_limit_ms),
        "peak_rss_mb": peak_rss_mb,
        "cpu_per_request_ms": window_cpu_s * 1000.0 / len(ok),
    }
    details = {
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "tail_percentile": q, "tail_samples": n, "tail_beyond": beyond,
        "tail_slices": workload.tail_slices,
        "setup_times_s": list(setup_times),
        "latency_limit_ms": workload.latency_limit_ms,
        "max_lateness_ms": gen["max_lateness_ms"],
        "host_steal_pct": gen.get("host_steal_pct", -1.0),
    }
    return metrics, details


def per_layer(gen):
    """The per-layer metrics of a traced run (records + stats + replay)."""
    records = gen["records"]
    ok = [r for r in records if r["status"] == OK]
    layers = gen["layers"]
    d = stats_delta(gen["stats_begin"], gen["stats_end"])
    interval_ms = gen["drained_ms"]
    out = {
        "net.overhead_ms": _median([r["done_ms"] - r["send_ms"] - r["queue_ms"] - r["exec_ms"]
                                    for r in ok]),
        "net.request_kb": _median([r["request_bytes"] / 1024.0 for r in records]),
        "net.response_kb": _median([r["response_bytes"] / 1024.0 for r in ok]),
        "net.failed": d["failed"],
        "net.retries": d["retries"],
        "service.queue_ms": _median([r["queue_ms"] for r in ok]),
        "service.exec_ms": _median([r["exec_ms"] for r in ok]),
        "service.coalescing": _ratio(d["coalesced_requests"], d["batches_submitted"]),
        "service.shed": d["shed"],
        "service.expired": d["expired"],
        "fhe.hom_mult_ms": layers["fhe.hom_mult_ms"],
        "fhe.reduce_ms": layers["fhe.hom_mult_ms"] - layers["backend.product_ms"],
        "fhe.admit_ms": layers["fhe.admit_ms"],
        "fhe.codec_ms": layers["fhe.codec_ms"],
        "fhe.wavefront_ms": layers["fhe.wavefront_ms"],
        "fhe.keygen_ms": layers["fhe.keygen_ms"],
        "fhe.encrypt_ms": layers["fhe.encrypt_ms"],
        "fhe.decrypt_ms": layers["fhe.decrypt_ms"],
        "core.lane_util": _ratio(d["lane_busy_ms"], interval_ms * d["lanes"]),
        "core.jobs_per_request": _ratio(d["lane_jobs"], d["completed"]),
        "core.cache_hit_rate": _ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "backend.product_ms": layers["backend.product_ms"],
        "ssa.multiply_ms": layers["ssa.multiply_ms"],
        "ssa.transforms_per_request": _mean([r["transforms_executed"] for r in ok]),
        "ssa.transforms_avoided_per_request": _mean([r["transforms_avoided"] for r in ok]),
        "ntt.forward_ms": layers["ntt.forward_ms"],
        "ntt.inverse_ms": layers["ntt.inverse_ms"],
        "bigint.divmod_ms": layers["bigint.divmod_ms"],
        "hw.mult_us": layers["hw.mult_us"],
        "hw.fft_us": layers["hw.fft_us"],
        "hw.dotprod_us": layers["hw.dotprod_us"],
        "hw.carry_us": layers["hw.carry_us"],
        "hw.speedup": _ratio(layers["backend.product_ms"] * 1000.0, layers["hw.mult_us"]),
    }
    return out


def budget(e2e, layer, gen):
    """Per-request time budget: where the median request's latency went.

    Rows are (name, ms); the last row is the unattributed remainder, which
    may be negative when attributed work overlaps (lanes run in parallel).
    """
    ok = [r for r in gen["records"] if r["status"] == OK]
    ands = sum(r["and_gates"] for r in ok) / len(ok)
    transforms = layer["ssa.transforms_per_request"]
    ntt_ms = (layer["ntt.forward_ms"] + layer["ntt.inverse_ms"]) / 2.0
    # The coordinator reduces the products of every request sharing a round
    # one after another, so a request also waits for its co-batched peers.
    peers = max(layer["service.coalescing"] - 1.0, 0.0)
    rows = [
        ("net.overhead", layer["net.overhead_ms"]),
        ("service.queue", layer["service.queue_ms"]),
        ("fhe.reduce x %.3g" % ands, ands * layer["fhe.reduce_ms"]),
        ("fhe.reduce of %.3g co-batched peers" % peers, peers * ands * layer["fhe.reduce_ms"]),
        ("ntt x %.3g transforms of %d points" % (transforms, gen["layers"]["ntt.size"]),
         transforms * ntt_ms),
        ("fhe.codec", layer["fhe.codec_ms"]),
    ]
    attributed = sum(ms for _, ms in rows)
    rows.append(("unattributed", e2e["latency_p50_ms"] - attributed))
    return rows


def spread(values):
    """Inter-quartile range over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
