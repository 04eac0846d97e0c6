#!/usr/bin/env python3
"""The repository benchmark: one workload through the real fleet.

    python3 perfbench/run.py --workload medium_mix|medium_and|paper_and|toy_open
                             --seed N --seconds S --trace 0|1

Builds the daemons and the load generator from source into .bench_build/,
starts two `hemul_shard --workers 2` daemons behind one `hemul_router`,
and drives the workload through them from a single generator process.
Set-up is repeated (fresh daemons each time) and its median reported.
Every answer is decrypted and checked; a wrong one makes the exit code
non-zero. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics, and the traced run also
prints the tracing overhead and the per-request budget. See
perfbench/README.md.
"""

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import results  # noqa: E402
from workloads import SHARDS, WORKERS_PER_SHARD, WORKLOADS  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = BUILD / "results"
LOGS = BUILD / "logs"

# A run must end within 180 s; leave room to tear the fleet down.
RUN_BUDGET_S = 165.0

# Printed and stored by every run, but not gated in BENCHMARK.json: on a
# shared VM they follow host steal (README.md, "Why wall-clock throughput
# and latency are not gated").
WALL_CLOCK_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}


class BenchError(Exception):
    pass


class WrongAnswer(BenchError):
    pass


def log(msg):
    print(msg, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)
        return left


def build():
    """Configures (once) and builds the daemons and the generator."""
    for needed in ("src", "examples/hemul_shard.cpp", "examples/hemul_router.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError("missing %s: run from a full checkout of the repository" % needed)
    LOGS.mkdir(parents=True, exist_ok=True)
    with open(LOGS / "build.log", "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True, timeout=300)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))],
                       stdout=out, stderr=subprocess.STDOUT, check=True, timeout=850)


def read_line(proc, deadline, what):
    """The next stdout line of proc, or BenchError on exit or timeout."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            if not sel.select(timeout=min(1.0, deadline.left())):
                if proc.poll() is not None:
                    raise BenchError("%s exited with code %d" % (what, proc.returncode))
                continue
            line = proc.stdout.readline()
            if not line:
                proc.wait(timeout=10)
                raise BenchError("%s exited with code %d" % (what, proc.returncode))
            return line.strip()
    finally:
        sel.close()


class Fleet:
    """Two shards and a router as child processes; always torn down."""

    def __init__(self, deadline, tag):
        self.deadline = deadline
        self.tag = tag
        self.procs = []

    def _spawn(self, argv, name):
        err = open(LOGS / ("%s-%s.log" % (name, self.tag)), "w")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, text=True)
        err.close()
        self.procs.append(proc)
        return proc

    def __enter__(self):
        try:
            shards = [self._spawn([str(BUILD / "hemul_shard"), "--workers",
                                   str(WORKERS_PER_SHARD)], "shard%d" % i)
                      for i in range(SHARDS)]
            argv = [str(BUILD / "hemul_router")]
            for proc in shards:
                port = read_line(proc, self.deadline, "hemul_shard").split()[-1]
                argv += ["--shard", "127.0.0.1:" + port]
            router = self._spawn(argv, "router")
            port = read_line(router, self.deadline, "hemul_router").split()[-1]
            self.address = "127.0.0.1:" + port
        except BaseException:
            self.__exit__()  # a half-started fleet is stopped too
            raise
        return self

    def peak_rss_mb(self):
        """Sum of the daemons' high-water resident set sizes."""
        total_kb = 0
        for proc in self.procs:
            with open("/proc/%d/status" % proc.pid) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self):
        """The daemons' CPU time so far (user + system, in seconds). The
        kernel charges time the hypervisor stole to no process, so this
        does not grow with host steal as wall time does."""
        ticks = 0
        for proc in self.procs:
            with open("/proc/%d/stat" % proc.pid) as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def __exit__(self, *exc):
        for proc in reversed(self.procs):  # router first, then the shards
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return False


def run_generator(fleet, argv, deadline):
    """Starts the generator against the fleet; returns once it is READY."""
    proc = subprocess.Popen([str(BUILD / "perfbench_gen"), "--router", fleet.address] + argv,
                            stdout=subprocess.PIPE, stderr=None, text=True)
    try:
        expect_line(proc, deadline, "READY")
    except BaseException:
        stop(proc)
        raise
    return proc


def expect_line(proc, deadline, want):
    line = read_line(proc, deadline, "perfbench_gen")
    if line != want:
        raise BenchError("perfbench_gen said %r, expected %s" % (line, want))


def stop(proc):
    proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline, what):
    try:
        proc.wait(timeout=deadline.left())
    except BaseException as e:
        proc.kill()
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError("%s did not finish in time" % what) from e
        raise
    finally:
        proc.stdout.close()
    return proc.returncode


def measure(workload, args, deadline):
    """Set-ups (the last one carries on into the window), then the window."""
    flags = workload.generator_flags() + ["--seed", str(args.seed), "--seconds",
                                          str(args.seconds), "--trace", str(args.trace)]
    out = BUILD / "runs" / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    spans = RESULTS / ("spans-%s-seed%d.json" % (workload.name, args.seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)  # never read a previous run's records
    setup_times = []
    for attempt in range(workload.setup_repeats):
        last = attempt == workload.setup_repeats - 1
        start = time.perf_counter()
        with Fleet(deadline, "%s-%d" % (workload.name, attempt)) as fleet:
            extra = ["--out", str(out), "--spans", str(spans)] if last else ["--setup-only"]
            gen = run_generator(fleet, flags + extra, deadline)
            setup_times.append(time.perf_counter() - start)
            if last:
                try:
                    expect_line(gen, deadline, "WINDOW")
                    cpu_begin = fleet.cpu_s()
                    expect_line(gen, deadline, "DRAINED")
                    window_cpu_s = fleet.cpu_s() - cpu_begin
                except BaseException:
                    stop(gen)
                    raise
            code = finish(gen, deadline, "perfbench_gen")
            peak_rss = fleet.peak_rss_mb() if last else 0.0
        if code == 3 and not last:
            raise WrongAnswer("a warm-up answer decrypted wrong")
        if code not in (0, 3):
            raise BenchError("perfbench_gen exited with code %d" % code)
    return json.loads(out.read_text()), setup_times, peak_rss, window_cpu_s, code, spans


def print_metric(name, value, unit, note=""):
    log("  %-36s %14.6g %-8s %s" % (name, value, unit, note))


def report_e2e(e2e, details, workload):
    log("end-to-end metrics:")
    print_metric("setup_s", e2e["setup_s"], "s", "median of %d set-ups: %s" % (
        len(details["setup_times_s"]), ", ".join("%.3f" % s for s in details["setup_times_s"])))
    print_metric("throughput_rps", e2e["throughput_rps"], "1/s",
                 "kOk completions inside the window")
    print_metric("latency_p50_ms", e2e["latency_p50_ms"], "ms")
    print_metric("latency_tail_ms", e2e["latency_tail_ms"], "ms",
                 "p%g, median over %d time slice(s) of %d samples in all; "
                 "at least %d beyond it in each" % (
                     details["tail_percentile"], details["tail_slices"],
                     details["tail_samples"], details["tail_beyond"]))
    print_metric("error_rate", details["error_rate"], "ratio", "%d failed of %d attempted" % (
        details["failed"], details["attempted"]))
    print_metric("success_rate", e2e["success_rate"], "ratio", "1 - error_rate")
    print_metric("slo_attainment", e2e["slo_attainment"], "ratio",
                 "kOk within %g ms" % workload.latency_limit_ms)
    print_metric("peak_rss_mb", e2e["peak_rss_mb"], "MB", "sum over %d shards + router" % SHARDS)
    print_metric("cpu_per_request_ms", e2e["cpu_per_request_ms"], "ms",
                 "daemons' CPU time over the window and its drain, per kOk reply")
    if workload.loop == "open":
        log("  generator max lateness %.3f ms (limit %g ms)" % (
            details["max_lateness_ms"], workload.latency_limit_ms))
    if details["host_steal_pct"] >= 0:
        log("  host steal during the window: %.2f%% of CPU time (timings of runs "
            "with high steal are host-disturbed)" % details["host_steal_pct"])


def report_layers(layer, units, reps):
    log("per-layer metrics (timed from outside, around public calls):")
    for name, value in layer.items():
        note = "median of %d calls" % reps[name] if reps.get(name) else ""
        print_metric(name, value, units[name], note)


def report_overhead(e2e, units, fp, workload, seed):
    path = results.result_path(RESULTS, workload.name, seed, 0)
    if not path.exists():
        log("tracing overhead: no untraced result for this workload and seed yet "
            "(run with --trace 0 first)")
        return
    untraced = results.load(path)
    try:
        results.require_alike(untraced["fingerprint"], fp, ignore=())
    except results.FingerprintMismatch as e:
        log("tracing overhead: refused, %s" % e)
        return
    log("tracing overhead (traced minus untraced, same fingerprint):")
    for name, value in e2e.items():
        base = untraced["end_to_end"][name]
        share = (value - base) / base if base else 0.0
        print_metric(name, value - base, units[name], "%+.1f%% of %.6g" % (100 * share, base))


def report_budget(e2e, layer, gen):
    log("per-request budget (median request, ms; wall time of the software path):")
    rows = metrics.budget(e2e, layer, gen)
    total = e2e["latency_p50_ms"]
    for name, ms in rows:
        log("  %-36s %12.3f ms  %6.1f%%" % (name, ms, 100.0 * ms / total))
    log("  %-36s %12.3f ms  100.0%%" % ("latency_p50", total))
    log("modelled accelerator (src/hw, SIMULATED time, the paper's 786,432-bit design):")
    log("  3 x fft %.2f us + dotprod %.2f us + carry %.2f us = mult %.2f us" % (
        layer["hw.fft_us"], layer["hw.dotprod_us"], layer["hw.carry_us"], layer["hw.mult_us"]))
    log("  modelled speed-up against backend.product_ms (the product alone): %.3gx"
        % layer["hw.speedup"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A terminated benchmark still stops the fleet and the generator.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    try:
        build()
        deadline = Deadline(RUN_BUDGET_S)
        gen, setup_times, peak_rss, cpu_s, code, spans = measure(workload, args, deadline)
        e2e, details = metrics.end_to_end(gen, workload, setup_times, peak_rss, cpu_s)
    except (BenchError, ValueError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3 if isinstance(e, WrongAnswer) else 1

    fp = results.fingerprint(workload, args.seed, args.seconds, gen["build"], ROOT)
    log("perfbench: workload %s, seed %d, %d s window, trace %d" % (
        workload.name, args.seed, args.seconds, args.trace))
    log("fingerprint: " + json.dumps(fp, sort_keys=True))
    report_e2e(e2e, details, workload)

    # The generator exits 3 on any wrong decryption or bit-exact mismatch.
    correct = code == 0
    verified = gen["verified"]
    log("correctness: %d answers decrypted, %d wrong; %d bit-exact checks against "
        "in-process Dghv::multiply, %d mismatched; replayed evaluations wrong: %d" % (
            verified["checked"], verified["wrong"], verified["bitexact_checked"],
            verified["bitexact_mismatch"], verified["wavefront_wrong"]))
    # An open-loop generator that sent later than the latency limit behind
    # schedule has fallen behind: its lateness alone could miss the limit.
    # A wrong answer outranks that: such a run still reports correct: false.
    if (correct and workload.loop == "open"
            and details["max_lateness_ms"] > workload.latency_limit_ms):
        print("perfbench: the generator fell %.1f ms behind schedule (limit %g ms); "
              "the run is invalid" % (details["max_lateness_ms"], workload.latency_limit_ms),
              file=sys.stderr)
        return 1

    result = {"fingerprint": fp, "trace": args.trace, "end_to_end": e2e, "details": details}
    units = e2e_units
    values = e2e
    if args.trace:
        layer = metrics.per_layer(gen)
        result["per_layer"] = layer
        report_layers(layer, layer_units, gen["layer_reps"])
        report_overhead(e2e, {**e2e_units, **WALL_CLOCK_UNITS}, fp, workload, args.seed)
        report_budget(e2e, layer, gen)
        log("spans: %d written to %s" % (gen["spans"], spans.relative_to(ROOT)))
        units, values = layer_units, layer
    results.save(results.result_path(RESULTS, workload.name, args.seed, args.trace), result)

    print(json.dumps({"correct": correct, "attempted": details["attempted"],
                      "failed": details["failed"],
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
