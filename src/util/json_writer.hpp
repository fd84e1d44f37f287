// The single JSON-emission helper for the repo. Every machine-readable
// JSON the project writes — trace sinks, the metrics exporter, bench
// BENCH_JSON lines, engine JobResult reports, and serve responses — is
// rendered through these functions so escaping and number formatting
// cannot drift between emitters (pinned by tests/util/json_writer_test).
// Emission only — parsing lives in src/serve/protocol and in the tests
// that validate the emitted documents.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/record.hpp"

namespace defender::util {

/// Escapes `s` for inclusion inside a JSON string literal (surrounding
/// quotes not included). Control characters below 0x20 without a short
/// escape become \u00xx, per RFC 8259.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Renders `s` as a complete JSON string literal, quotes included.
inline std::string json_string(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

/// Renders a double as a JSON number through the record codec's writer
/// (bit-exact round trip, util/record.hpp). NaN/Inf are not representable
/// in JSON; they become null (consumers treat null as "not measured").
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

/// Builds one JSON object member-by-member, keys in call order. The same
/// builder backs bench JsonLine, JobResult::to_json, and serve responses.
class JsonWriter {
 public:
  JsonWriter& str(std::string_view key, std::string_view value) {
    return raw(key, json_string(value));
  }
  JsonWriter& num(std::string_view key, double value) {
    return raw(key, json_number(value));
  }
  JsonWriter& num(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonWriter& num(std::string_view key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonWriter& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  /// Appends `rendered` verbatim as the member value; the caller vouches
  /// that it is a complete JSON value (nested object, array, null, ...).
  JsonWriter& raw(std::string_view key, std::string_view rendered) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key);
    body_ += ':';
    body_ += rendered;
    return *this;
  }

  bool empty() const { return body_.empty(); }
  /// The comma-joined members, without the surrounding braces.
  const std::string& body() const { return body_; }
  /// The complete object, braces included.
  std::string object() const { return "{" + body_ + "}"; }

  /// Joins pre-rendered JSON values into one array literal.
  static std::string array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      out += items[i];
    }
    out += ']';
    return out;
  }

 private:
  std::string body_;
};

}  // namespace defender::util
