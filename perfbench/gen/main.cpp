// perfbench_gen: the benchmark's load generator. It opens --connections
// connections to a running fleet (hemul_router in front of hemul_shard
// daemons), sets up the tenants, drives one workload through the fleet for
// a fixed window, checks every answer, and writes the raw per-request
// records, the fleet's stats snapshots and (with --trace 1) the per-layer
// replay timings as JSON. perfbench/run.py starts the fleet, runs this, and
// turns the records into metrics; see perfbench/README.md.
//
// Stdout protocol: "READY" (flushed) once every session is ready -- the end
// of the set-up time run.py measures -- then "WINDOW" as the measured window
// opens and "DRAINED" once its last reply is in, between which run.py reads
// the daemons' CPU time. Exit codes: 0 ok, 1 runtime error, 2 usage error,
// 3 a wrong decryption or bit-exact mismatch.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <thread>

#include "fhe/serialize.hpp"
#include "json.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "service/request.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH "unknown"
#endif

namespace perfbench {
namespace {

using namespace hemul;

/// One request of the window: what was asked, when, and what came back.
struct Record {
  Draw draw;
  double due_ms = 0.0;   ///< when it was due (open loop) -- send time otherwise
  double send_ms = 0.0;  ///< when submit() was called
  double done_ms = 0.0;  ///< when the response arrived
  core::Response response;
};

double ms_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - origin).count();
}

const char* status_name(core::ResponseStatus status) {
  switch (status) {
    case core::ResponseStatus::kOk: return "ok";
    case core::ResponseStatus::kRejectedByNoise: return "rejected_by_noise";
    case core::ResponseStatus::kBadRequest: return "bad_request";
    case core::ResponseStatus::kInternalError: return "internal_error";
    case core::ResponseStatus::kOverloaded: return "overloaded";
    case core::ResponseStatus::kUnavailable: return "unavailable";
    case core::ResponseStatus::kTimeout: return "timeout";
    case core::ResponseStatus::kExpired: return "expired";
  }
  return "unknown";
}

/// Seconds of unmeasured traffic before the window opens, so the fleet's
/// lazily created threads, buffers and caches are warm when it does (the
/// first second of a cold window ran up to 3x slower on a 4-core VM).
constexpr double kRampSeconds = 2.0;

/// Cumulative CPU time of the host as this VM sees it (/proc/stat).
struct CpuTimes {
  u64 steal = 0;  ///< time the hypervisor ran something else on our CPUs
  u64 total = 0;
  bool ok = false;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(stat >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    u64 v = 0;
    if (!(stat >> v)) return t;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  t.ok = true;
  return t;
}

double uniform01(util::Rng& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

void announce(const char* line) {
  std::printf("%s\n", line);
  std::fflush(stdout);
}

/// How often poll_ready looks at replies other than the oldest one.
constexpr auto kPollInterval = std::chrono::microseconds(200);

using Outstanding = std::deque<std::pair<std::size_t, std::future<core::Response>>>;

/// The first outstanding reply that is ready, or end() after waiting up to
/// kPollInterval on the oldest. Replies on different router connections
/// arrive independently, so a later request's reply can overtake an
/// earlier one's; waiting on the oldest alone would note the overtaking
/// reply late (and, in a closed loop, send that tenant's next request
/// late). Called in a loop, it sees every reply within kPollInterval of
/// its arrival.
Outstanding::iterator poll_ready(Outstanding& outstanding) {
  for (auto it = outstanding.begin(); it != outstanding.end(); ++it) {
    if (it->second.wait_for(std::chrono::seconds(0)) == std::future_status::ready) return it;
  }
  outstanding.front().second.wait_for(kPollInterval);
  return outstanding.end();
}

Outstanding::iterator wait_any(Outstanding& outstanding) {
  for (;;) {
    const auto ready = poll_ready(outstanding);
    if (ready != outstanding.end()) return ready;
  }
}

/// Root span of one submit plus its service.queue / service.exec children,
/// taken from the response (the service reports durations, not instants,
/// so the children are laid end to end from the send).
void trace_request(Spans& spans, const Record& r, u64 id) {
  const i64 root = spans.add_us("net.submit", r.send_ms * 1000.0, r.done_ms * 1000.0,
                                Spans::kNoParent, id);
  const double queue_end = r.send_ms + r.response.queue_ms;
  spans.add_us("service.queue", r.send_ms * 1000.0, queue_end * 1000.0, root, id);
  spans.add_us("service.exec", queue_end * 1000.0, (queue_end + r.response.exec_ms) * 1000.0,
               root, id);
}

void write_stats(Json& j, const net::FleetStats& s) {
  j.begin_object()
      .field("forwarded", s.forwarded)
      .field("failed", s.failed)
      .field("retries", s.retries)
      .field("sessions_rehomed", s.sessions_rehomed)
      .key("shards")
      .begin_array();
  for (const net::ShardStats& shard : s.shards) {
    const core::ServiceStats& v = shard.service;
    j.begin_object()
        .field("address", shard.address)
        .field("alive", shard.alive)
        .field("submitted", v.submitted)
        .field("completed", v.completed)
        .field("shed", v.shed)
        .field("expired", v.expired)
        .field("and_gates", v.and_gates)
        .field("batches_submitted", v.batches_submitted)
        .field("coalesced_requests", v.coalesced_requests)
        .field("transforms_executed", v.transforms_executed)
        .field("transforms_avoided", v.transforms_avoided)
        .field("cache_hits", v.cache_hits)
        .field("cache_misses", v.cache_misses)
        .key("lanes")
        .begin_array();
    for (const core::LaneStats& lane : v.lanes) {
      j.begin_object()
          .field("jobs", lane.jobs)
          .field("tiles", lane.tiles)
          .field("busy_ms", lane.busy_ms)
          .end_object();
    }
    j.end_array().end_object();
  }
  j.end_array().end_object();
}

class Generator {
 public:
  explicit Generator(const Options& options)
      : o_(options), params_(params_by_name(options.params_name)) {
    for (const std::string& name : o_.circuits) circuits_.push_back(Circuit::parse(name));
    for (unsigned c = 0; c < o_.connections; ++c) {
      clients_.push_back(std::make_unique<net::ShardClient>(o_.router));
    }
  }

  /// Opens every session, rebuilds each tenant's key context from the
  /// shipped keys, and completes one verified warm-up request per tenant.
  void setup() {
    tenants_.resize(o_.tenants);
    for (unsigned t = 0; t < o_.tenants; ++t) {
      net::ShardClient::SessionKeys keys =
          client(t).create_session(params_, derive_seed(o_.seed, 100 + t));
      Tenant& tenant = tenants_[t];
      tenant.session = keys.session;
      tenant.scheme = std::make_unique<fhe::Dghv>(
          std::move(keys.public_key), std::move(keys.secret_key), derive_seed(o_.seed, 200 + t));
      tenant.circuit = t % static_cast<unsigned>(circuits_.size());
      tenant.fill_pool(1);
    }
    std::vector<std::future<core::Response>> warm;
    std::vector<Draw> draws;
    for (unsigned t = 0; t < o_.tenants; ++t) {
      util::Rng rng(derive_seed(o_.seed, 300 + t));
      const unsigned c = tenants_[t].circuit;
      draws.push_back(draw_request(rng, tenants_[t], t, c, circuits_[c]));
      warm.push_back(client(t).submit(tenants_[t].session,
                                    build_request(tenants_[t], circuits_[c], draws.back()),
                                    o_.deadline_ms));
    }
    for (unsigned t = 0; t < o_.tenants; ++t) {
      const core::Response r = warm[t].get();
      const Draw& d = draws[t];
      if (!r.ok()) {
        throw std::runtime_error("warm-up request failed: " + std::string(status_name(r.status)) +
                                 " " + r.error);
      }
      if (decrypt_outputs(tenants_[t], r) != circuits_[d.circuit].expected(d.x, d.y)) {
        wrong_setup_ = true;
      }
    }
  }

  [[nodiscard]] bool setup_wrong() const noexcept { return wrong_setup_; }

  /// The measured part: pre-encrypt, ramp, then snapshot, drive, drain,
  /// snapshot. The ramp draws from other seed streams than the window, so
  /// the window's inputs depend on the seed alone.
  void run_window() {
    for (Tenant& tenant : tenants_) tenant.fill_pool(o_.pool - 1);
    drive(kRampSeconds, 900, false);
    verify_answers();  // the ramp's answers are checked like the window's
    stats_begin_ = clients_.front()->stats();
    const CpuTimes cpu_begin = read_cpu_times();
    announce("WINDOW");
    drive(o_.seconds, 400, true);
    drained_ms_ = ms_since(t0_, Clock::now());
    announce("DRAINED");
    const CpuTimes cpu_end = read_cpu_times();
    stats_end_ = clients_.front()->stats();
    if (cpu_begin.ok && cpu_end.ok && cpu_end.total > cpu_begin.total) {
      steal_pct_ = 100.0 * static_cast<double>(cpu_end.steal - cpu_begin.steal) /
                   static_cast<double>(cpu_end.total - cpu_begin.total);
    }
  }

  /// Decrypts every answer against the generator's plaintext, re-checks a
  /// seeded sample of AND answers bit for bit against in-process
  /// Dghv::multiply, and (trace mode) replays the layers.
  void check_and_replay() {
    verify_answers();
    util::Rng rng(derive_seed(o_.seed, 600));
    std::vector<std::size_t> ands;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (r.response.ok() && circuits_[r.draw.circuit].spec.kind == core::CircuitKind::kAnd) {
        ands.push_back(i);
      }
    }
    for (std::size_t i : sample(rng, ands, o_.bitexact)) {
      const Record& r = records_[i];
      const Tenant& tenant = tenants_[r.draw.tenant];
      const std::vector<fhe::Ciphertext> in =
          draw_inputs(tenant, circuits_[r.draw.circuit], r.draw);
      const fhe::Ciphertext reference = tenant.scheme->multiply(in[0], in[1]);
      const std::vector<fhe::Ciphertext> out = fhe::decode_ciphertexts(r.response.outputs);
      ++bitexact_checked_;
      if (out.size() != 1 || out[0].value != reference.value) ++bitexact_mismatch_;
    }
    if (!o_.trace) return;

    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].response.ok()) ok.push_back(i);
    }
    std::vector<ReplaySample> samples;
    for (std::size_t i : sample(rng, ok, 8)) {
      samples.push_back({static_cast<u64>(i), records_[i].draw, records_[i].response});
    }
    layers_ = replay_layers(o_, tenants_, circuits_, samples, *spans_);
  }

  /// Decrypts every kOk answer of records_ against its plaintext.
  void verify_answers() {
    for (const Record& r : records_) {
      if (!r.response.ok()) continue;
      ++checked_;
      const Circuit& shape = circuits_[r.draw.circuit];
      const u64 got = decrypt_outputs(tenants_[r.draw.tenant], r.response);
      if (got != shape.expected(r.draw.x, r.draw.y)) ++wrong_;
    }
  }

  [[nodiscard]] bool verified() const noexcept {
    return !wrong_setup_ && wrong_ == 0 && bitexact_mismatch_ == 0 &&
           layers_.wrong_evaluations == 0;
  }

  bool write_result() const {
    Json j;
    j.begin_object();
    j.key("build").begin_object()
        .field("type", PERFBENCH_BUILD_TYPE)
        .field("march", PERFBENCH_MARCH)
        .end_object();
    j.field("hardware_threads", std::thread::hardware_concurrency());
    j.field("window_ms", window_ms_);
    j.field("drained_ms", drained_ms_);
    j.field("max_lateness_ms", max_lateness_ms_);
    j.field("host_steal_pct", steal_pct_);
    j.key("verified").begin_object()
        .field("checked", checked_)
        .field("wrong", wrong_)
        .field("setup_wrong", wrong_setup_)
        .field("bitexact_checked", bitexact_checked_)
        .field("bitexact_mismatch", bitexact_mismatch_)
        .field("wavefront_wrong", layers_.wrong_evaluations)
        .end_object();
    j.key("stats_begin");
    write_stats(j, stats_begin_);
    j.key("stats_end");
    write_stats(j, stats_end_);
    j.key("records").begin_array();
    for (const Record& r : records_) {
      j.begin_object()
          .field("tenant", r.draw.tenant)
          .field("circuit", circuits_[r.draw.circuit].name)
          .field("due_ms", r.due_ms)
          .field("send_ms", r.send_ms)
          .field("done_ms", r.done_ms)
          .field("status", status_name(r.response.status))
          .field("queue_ms", r.response.queue_ms)
          .field("exec_ms", r.response.exec_ms)
          .field("and_gates", r.response.and_gates)
          .field("transforms_executed", r.response.transforms_executed)
          .field("transforms_avoided", r.response.transforms_avoided);
      if (o_.trace) {
        // Encoded frame sizes, recomputed after the window so the untraced
        // run pays nothing for them.
        const Tenant& tenant = tenants_[r.draw.tenant];
        j.field("request_bytes",
                static_cast<u64>(core::encode_request(
                                     build_request(tenant, circuits_[r.draw.circuit], r.draw))
                                     .size()))
            .field("response_bytes", static_cast<u64>(core::encode_response(r.response).size()));
      }
      j.end_object();
    }
    j.end_array();
    j.key("layers").begin_object();
    for (const auto& [name, value] : layers_.values) j.field(name, value);
    j.end_object();
    j.key("layer_reps").begin_object();
    for (const auto& [name, reps] : layers_.reps) j.field(name, reps);
    j.end_object();
    j.field("spans", static_cast<u64>(spans_ ? spans_->size() : 0));
    j.end_object();
    bool ok = j.write(o_.out);
    if (o_.trace && !o_.spans.empty() && spans_) ok = spans_->write(o_.spans) && ok;
    return ok;
  }

 private:
  net::ShardClient& client(unsigned tenant) { return *clients_[tenant % clients_.size()]; }

  static std::vector<std::size_t> sample(util::Rng& rng, std::vector<std::size_t> pool,
                                         std::size_t k) {
    for (std::size_t i = 0; i < pool.size() && i < k; ++i) {
      std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
    }
    pool.resize(std::min(k, pool.size()));
    return pool;
  }

  unsigned circuit_for(unsigned tenant, util::Rng& rng) const {
    return o_.per_tenant_circuits ? tenants_[tenant].circuit
                                  : static_cast<unsigned>(rng.below(circuits_.size()));
  }

  void note_completion(std::size_t index, core::Response response, Clock::time_point now) {
    Record& r = records_[index];
    r.done_ms = ms_since(t0_, now);
    r.response = std::move(response);
    if (spans_) trace_request(*spans_, r, index);
  }

  /// Runs the workload for `seconds` from now, drawing from seed streams
  /// `stream` onwards; only a measured run keeps its spans.
  void drive(double seconds, u64 stream, bool measured) {
    records_.clear();
    planned_.clear();
    max_lateness_ms_ = 0.0;
    if (o_.open_loop) plan_open_loop(seconds, stream);
    t0_ = Clock::now();
    window_ms_ = seconds * 1000.0;
    spans_.reset();
    if (measured && o_.trace) spans_ = std::make_unique<Spans>(t0_);
    if (o_.open_loop) {
      drive_open_loop();
    } else {
      drive_closed_loop(stream);
    }
  }

  /// Closed loop: each tenant keeps exactly one request outstanding until
  /// the window closes, then the window drains.
  void drive_closed_loop(u64 stream) {
    std::vector<util::Rng> rngs;
    for (unsigned t = 0; t < o_.tenants; ++t) {
      rngs.emplace_back(derive_seed(o_.seed, stream + 100 + t));
    }
    const Clock::time_point end =
        t0_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(window_ms_));
    Outstanding outstanding;
    const auto send = [&](unsigned t) {
      const unsigned c = circuit_for(t, rngs[t]);
      Record r;
      r.draw = draw_request(rngs[t], tenants_[t], t, c, circuits_[c]);
      core::Request request = build_request(tenants_[t], circuits_[c], r.draw);
      r.due_ms = r.send_ms = ms_since(t0_, Clock::now());
      records_.push_back(std::move(r));
      outstanding.emplace_back(records_.size() - 1,
                               client(t).submit(tenants_[t].session, request, o_.deadline_ms));
    };
    for (unsigned t = 0; t < o_.tenants; ++t) send(t);
    while (!outstanding.empty()) {
      const auto ready = wait_any(outstanding);
      auto [index, future] = std::move(*ready);
      outstanding.erase(ready);
      core::Response response = future.get();
      const Clock::time_point now = Clock::now();
      note_completion(index, std::move(response), now);
      if (now < end) send(records_[index].draw.tenant);
    }
  }

  /// Open loop: a seeded Poisson schedule over the whole window, fixed
  /// before it opens, with every request already assembled.
  void plan_open_loop(double seconds, u64 stream) {
    util::Rng rng(derive_seed(o_.seed, stream));
    const double window_ms = seconds * 1000.0;
    for (double due = 0.0;;) {
      due += -std::log(1.0 - uniform01(rng)) * 1000.0 / o_.rate;
      if (due >= window_ms) break;
      const auto t = static_cast<unsigned>(rng.below(o_.tenants));
      const unsigned c = circuit_for(t, rng);
      Record r;
      r.draw = draw_request(rng, tenants_[t], t, c, circuits_[c]);
      r.due_ms = due;
      planned_.push_back(build_request(tenants_[t], circuits_[c], r.draw));
      records_.push_back(std::move(r));
    }
  }

  /// Sends each planned request at its due time from this thread while a
  /// collector thread takes the replies as they arrive. Lateness (send -
  /// due) is tracked; latency is later measured from the due time.
  void drive_open_loop() {
    std::mutex mutex;
    std::condition_variable cv;
    Outstanding queue;
    bool closed = false;
    std::thread collector([&] {
      Outstanding outstanding;
      for (;;) {
        {
          std::unique_lock lock(mutex);
          if (outstanding.empty()) cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (outstanding.empty() && queue.empty()) return;
          std::move(queue.begin(), queue.end(), std::back_inserter(outstanding));
          queue.clear();
        }
        const auto ready = poll_ready(outstanding);
        if (ready == outstanding.end()) continue;
        auto [index, future] = std::move(*ready);
        outstanding.erase(ready);
        core::Response response = future.get();
        note_completion(index, std::move(response), Clock::now());
      }
    });
    for (std::size_t i = 0; i < records_.size(); ++i) {
      Record& r = records_[i];
      std::this_thread::sleep_until(
          t0_ + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(r.due_ms)));
      r.send_ms = ms_since(t0_, Clock::now());
      max_lateness_ms_ = std::max(max_lateness_ms_, r.send_ms - r.due_ms);
      std::future<core::Response> future =
          client(r.draw.tenant).submit(tenants_[r.draw.tenant].session, planned_[i],
                                     o_.deadline_ms);
      {
        std::lock_guard lock(mutex);
        queue.emplace_back(i, std::move(future));
      }
      cv.notify_one();
    }
    {
      std::lock_guard lock(mutex);
      closed = true;
    }
    cv.notify_one();
    collector.join();
  }

  const Options& o_;
  fhe::DghvParams params_;
  /// Router connections; tenant t sends on connection t % connections.
  std::vector<std::unique_ptr<net::ShardClient>> clients_;
  std::vector<Circuit> circuits_;
  std::vector<Tenant> tenants_;
  std::vector<Record> records_;
  std::vector<core::Request> planned_;
  Clock::time_point t0_{};
  std::unique_ptr<Spans> spans_;
  net::FleetStats stats_begin_, stats_end_;
  double window_ms_ = 0.0;  ///< length of the measured window, from t0_
  double drained_ms_ = 0.0;
  double max_lateness_ms_ = 0.0;
  double steal_pct_ = -1.0;  ///< host steal over the window; -1 when unknown
  bool wrong_setup_ = false;
  u64 checked_ = 0, wrong_ = 0, bitexact_checked_ = 0, bitexact_mismatch_ = 0;
  LayerTimes layers_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 2;
  }
  try {
    perfbench::Generator generator(options);
    generator.setup();
    perfbench::announce("READY");
    if (generator.setup_wrong()) {
      std::fprintf(stderr, "perfbench_gen: a warm-up answer decrypted wrong\n");
    }
    if (options.setup_only) return generator.setup_wrong() ? 3 : 0;
    generator.run_window();
    generator.check_and_replay();
    if (!generator.write_result()) {
      std::fprintf(stderr, "perfbench_gen: cannot write %s\n", options.out.c_str());
      return 1;
    }
    return generator.verified() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
}
