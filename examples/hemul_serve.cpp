// hemul_serve: multi-tenant evaluation service driven by a request stream.
//
//   hemul_serve [--workers N] [--backend NAME] [--window MS]
//               [--lowering ripple|carry-save] [--stats-json FILE]
//               [INPUT-FILE]
//
// Reads a line-oriented request stream from INPUT-FILE (or stdin), plays
// it against one core::Service -- the serving front-end that owns the PE
// lanes -- and reports per-request results plus the service's JSON stats.
// Requests are submitted asynchronously in stream order, so independent
// tenants' wavefronts coalesce into shared scheduler batches exactly as
// they would behind a socket transport.
//
// Stream grammar (one command per line, '#' starts a comment; every
// request line may end with an optional lowering name overriding the
// --lowering default for that request):
//   session <name> <toy|medium|deep> <seed>
//   request <name> and <x> <y>                 x, y in {0, 1}
//   request <name> adder <width> <x> <y> [ripple|carry-save]
//   request <name> equals <width> <x> <y> [...]
//   request <name> mul <width> <x> <y> [...]
//   request <name> mux <width> <sel> <x> <y> [...]
//   request <name> lt <width> <x> <y> [...]
//
// Every request is encrypted under its session's keys, serialized through
// the framed wire format (core::encode_request, so the lowering-strategy
// byte really crosses the wire), evaluated by the service, deserialized,
// decrypted, and checked against the plaintext result. Exit 0 iff every
// completed request verifies (noise-rejected requests report but do not
// fail).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fhe/circuits.hpp"
#include "fhe/serialize.hpp"
#include "service/service.hpp"

namespace {

using namespace hemul;

struct PendingRequest {
  std::string session;
  core::CircuitSpec spec;
  u64 expected = 0;
  std::size_t line = 0;
  std::future<core::Response> future;
};

int usage() {
  std::fprintf(stderr,
               "usage: hemul_serve [--workers N] [--backend NAME] [--window MS]\n"
               "                   [--lowering ripple|carry-save] [--stats-json FILE]\n"
               "                   [INPUT-FILE]\n");
  return 2;
}

fhe::DghvParams params_by_name(const std::string& name) {
  if (name == "toy") return fhe::DghvParams::toy();
  if (name == "medium") return fhe::DghvParams::medium();
  if (name == "deep") return fhe::DghvParams::deep();
  throw std::invalid_argument("unknown parameter set: " + name +
                              " (expected toy|medium|deep)");
}

fhe::Bytes encode_bits(fhe::Dghv& scheme, u64 value, unsigned width) {
  return fhe::encode_ciphertexts(fhe::encrypt_int(scheme, value, width));
}

u64 mask_of(unsigned width) { return width >= 64 ? ~0ULL : (1ULL << width) - 1; }

void print_stats_json(std::FILE* out, const core::Service& service) {
  const core::ServiceStats stats = service.stats();
  std::fprintf(out,
               "{\n"
               "  \"sessions\": %zu,\n"
               "  \"submitted\": %llu,\n"
               "  \"completed\": %llu,\n"
               "  \"rejected_by_noise\": %llu,\n"
               "  \"bad_requests\": %llu,\n"
               "  \"and_gates\": %llu,\n"
               "  \"wavefronts\": %llu,\n"
               "  \"batches_submitted\": %llu,\n"
               "  \"coalescing\": %.3f,\n"
               "  \"lanes\": [\n",
               stats.sessions, static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected_by_noise),
               static_cast<unsigned long long>(stats.bad_requests),
               static_cast<unsigned long long>(stats.and_gates),
               static_cast<unsigned long long>(stats.wavefronts),
               static_cast<unsigned long long>(stats.batches_submitted), stats.coalescing());
  for (std::size_t i = 0; i < stats.lanes.size(); ++i) {
    const core::LaneStats& lane = stats.lanes[i];
    std::fprintf(out, "    {\"lane\": %u, \"jobs\": %llu, \"busy_ms\": %.3f}%s\n", lane.lane,
                 static_cast<unsigned long long>(lane.jobs), lane.busy_ms,
                 i + 1 < stats.lanes.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  unsigned workers = 0;
  std::string backend_name = "ssa";
  double window_ms = 2.0;
  std::string lowering_name = "ripple";
  std::string stats_json;
  std::string input_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--backend" && i + 1 < argc) {
      backend_name = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      window_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--lowering" && i + 1 < argc) {
      lowering_name = argv[++i];
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return usage();
    }
  }

  std::ifstream file;
  if (!input_path.empty()) {
    file.open(input_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", input_path.c_str());
      return 1;
    }
  }
  std::istream& in = input_path.empty() ? std::cin : file;

  core::ServiceOptions options;
  options.config.backend_name = backend_name;
  options.config.num_workers = workers;
  options.admission_window_ms = window_ms;
  core::Service service(options);

  std::map<std::string, core::SessionId> sessions;
  std::vector<PendingRequest> pending;
  std::string line;
  std::size_t line_no = 0;
  try {
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream words(line);
      std::string command;
      if (!(words >> command)) continue;  // blank line

      if (command == "session") {
        std::string name, params;
        u64 seed = 0;
        if (!(words >> name >> params >> seed)) {
          std::fprintf(stderr, "error: line %zu: session <name> <params> <seed>\n", line_no);
          return 2;
        }
        sessions[name] = service.create_session(params_by_name(params), seed);
        std::printf("session %-10s : %s params, id %llu\n", name.c_str(), params.c_str(),
                    static_cast<unsigned long long>(sessions[name]));
        continue;
      }
      if (command != "request") {
        std::fprintf(stderr, "error: line %zu: unknown command '%s'\n", line_no,
                     command.c_str());
        return 2;
      }

      std::string name, circuit;
      if (!(words >> name >> circuit)) {
        std::fprintf(stderr, "error: line %zu: request <session> <circuit> ...\n", line_no);
        return 2;
      }
      const auto session_it = sessions.find(name);
      if (session_it == sessions.end()) {
        std::fprintf(stderr, "error: line %zu: unknown session '%s'\n", line_no, name.c_str());
        return 2;
      }
      fhe::Dghv& scheme = service.scheme(session_it->second);

      PendingRequest record;
      record.session = name;
      const core::CircuitKind kind = core::circuit_kind_from_name(circuit);
      if (kind == core::CircuitKind::kGraph) {
        std::fprintf(stderr,
                     "error: line %zu: 'graph' requests carry a recorded topology and are "
                     "not expressible in stream mode (use the core::Service API)\n",
                     line_no);
        return 2;
      }
      record.line = line_no;
      core::Request request;

      u64 x = 0, y = 0, sel = 0;
      unsigned width = 1;
      if (kind == core::CircuitKind::kAnd) {
        if (!(words >> x >> y) || x > 1 || y > 1) {
          std::fprintf(stderr, "error: line %zu: request <s> and <0|1> <0|1>\n", line_no);
          return 2;
        }
        record.expected = x & y;
        request.inputs = encode_bits(scheme, x, 1);
        const fhe::Bytes rhs = encode_bits(scheme, y, 1);
        request.inputs.insert(request.inputs.end(), rhs.begin(), rhs.end());
      } else {
        if (!(words >> width) || width == 0 || width > core::kMaxCircuitWidth) {
          std::fprintf(stderr, "error: line %zu: width must be in [1, %u]\n", line_no,
                       core::kMaxCircuitWidth);
          return 2;
        }
        if (kind == core::CircuitKind::kMux) {
          if (!(words >> sel >> x >> y) || sel > 1) {
            std::fprintf(stderr, "error: line %zu: request <s> mux <w> <sel> <x> <y>\n",
                         line_no);
            return 2;
          }
        } else if (!(words >> x >> y)) {
          std::fprintf(stderr, "error: line %zu: request <s> %s <w> <x> <y>\n", line_no,
                       circuit.c_str());
          return 2;
        }
        x &= mask_of(width);
        y &= mask_of(width);
        switch (kind) {
          case core::CircuitKind::kAdder:
            record.expected = (x + y) & mask_of(width + 1);
            break;
          case core::CircuitKind::kEquals:
            record.expected = x == y ? 1 : 0;
            break;
          case core::CircuitKind::kMul:
            record.expected = (x * y) & mask_of(2 * width);
            break;
          case core::CircuitKind::kMux:
            record.expected = sel != 0 ? x : y;
            break;
          case core::CircuitKind::kLessThan:
            record.expected = x < y ? 1 : 0;
            break;
          default:
            return usage();
        }
        if (kind == core::CircuitKind::kMux) {
          request.inputs = encode_bits(scheme, sel, 1);
        }
        fhe::Bytes bits = encode_bits(scheme, x, width);
        request.inputs.insert(request.inputs.end(), bits.begin(), bits.end());
        bits = encode_bits(scheme, y, width);
        request.inputs.insert(request.inputs.end(), bits.begin(), bits.end());
      }

      // One parse/validate path for kind + width + lowering: the spec. An
      // optional trailing token on the request line overrides --lowering.
      std::string per_request = lowering_name;
      if (std::string token; words >> token) per_request = token;
      record.spec = core::CircuitSpec::parse(circuit, width, per_request);
      request.spec = record.spec;

      // Round-trip the request through the framed wire encoding, so stream
      // mode exercises exactly what a socket transport would put on the
      // wire -- including the lowering-strategy byte.
      record.future = service.submit(session_it->second,
                                     core::decode_request(core::encode_request(request)));
      pending.push_back(std::move(record));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: line %zu: %s\n", line_no, e.what());
    return 1;
  }

  // Collect every response, decrypt, verify against the plaintext result.
  bool all_verified = true;
  for (PendingRequest& record : pending) {
    const core::Response response = record.future.get();
    const std::string kind = record.spec.describe();
    if (response.status == core::ResponseStatus::kRejectedByNoise) {
      std::printf("line %-4zu %-10s %-20s: rejected by noise (%s)\n", record.line,
                  record.session.c_str(), kind.c_str(), response.error.c_str());
      continue;
    }
    if (!response.ok()) {
      std::printf("line %-4zu %-10s %-20s: BAD REQUEST (%s)\n", record.line,
                  record.session.c_str(), kind.c_str(), response.error.c_str());
      all_verified = false;
      continue;
    }
    const fhe::Dghv& scheme = service.scheme(sessions.at(record.session));
    const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
    const u64 value =
        fhe::decrypt_int(scheme, fhe::EncryptedInt(outputs.begin(), outputs.end()));
    const bool ok = value == record.expected;
    all_verified = all_verified && ok;
    std::printf(
        "line %-4zu %-10s %-20s: %llu (expect %llu) %s  [%llu gates, %u levels, %llu shared "
        "batches, %.1f ms]\n",
        record.line, record.session.c_str(), kind.c_str(), static_cast<unsigned long long>(value),
        static_cast<unsigned long long>(record.expected), ok ? "OK" : "WRONG",
        static_cast<unsigned long long>(response.and_gates), response.levels,
        static_cast<unsigned long long>(response.shared_batches),
        response.queue_ms + response.exec_ms);
  }

  service.wait_idle();
  std::printf("\n-- service stats --\n");
  print_stats_json(stdout, service);
  if (!stats_json.empty()) {
    std::FILE* out = std::fopen(stats_json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", stats_json.c_str());
      return 1;
    }
    print_stats_json(out, service);
    std::fclose(out);
  }
  return all_verified ? 0 : 1;
}
