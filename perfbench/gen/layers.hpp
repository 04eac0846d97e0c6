#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// In-memory span log of the traced run: name, start, end, parent span and
/// request id. Times are microseconds since the window opened. Spans are
/// recorded by the benchmark around calls into each layer; nothing inside
/// the program is instrumented.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  static constexpr i64 kNoParent = -1;

  /// Appends one span; returns its id (the index in the log).
  i64 add(std::string name, Clock::time_point start, Clock::time_point end,
          i64 parent = kNoParent, u64 request = 0);
  /// Same, with times already in microseconds since the origin.
  i64 add_us(std::string name, double start_us, double end_us, i64 parent, u64 request);

  /// Closes a span opened with a placeholder end time.
  void set_end(i64 id, Clock::time_point end);

  [[nodiscard]] double us_since_origin(Clock::time_point t) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes the log as a JSON array; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    i64 parent = kNoParent;
    u64 request = 0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One completed request of the window whose operands the replay reuses.
struct ReplaySample {
  u64 request = 0;  ///< record id in the run
  Draw draw;
  hemul::core::Response response;
};

/// Median wall time of each layer's public call, in the order measured,
/// plus how many timed repetitions each median rests on.
struct LayerTimes {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, unsigned>> reps;
  u64 wrong_evaluations = 0;  ///< replayed circuits that decrypted wrong
};

/// Times each layer from outside by calling its public functions on the
/// sampled requests' own operands: fhe (keygen, encrypt, decrypt, multiply,
/// codec, admission, wavefront), backend product, ssa multiply, ntt
/// transforms, bigint reduction, and the src/hw model's breakdown. Every
/// timed call is logged as a span under one "replay" root.
LayerTimes replay_layers(const Options& options, std::vector<Tenant>& tenants,
                         const std::vector<Circuit>& circuits,
                         const std::vector<ReplaySample>& samples, Spans& spans);

}  // namespace perfbench
