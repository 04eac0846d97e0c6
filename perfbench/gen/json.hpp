#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/uint128.hpp"

namespace perfbench {

/// Minimal streaming JSON writer for the generator's result and span files.
/// Commas are inserted automatically; keys and string values are escaped.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(std::string_view name) {
    separate();
    quote(name);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(hemul::u64 v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(hemul::i64 v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(unsigned v) { return value(static_cast<hemul::u64>(v)); }
  Json& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  Json& field(std::string_view name, T v) {
    return key(name).value(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

  /// Writes the document to `path`; false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  Json& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
