// The line-record codec behind every text artifact and wire frame:
// solver checkpoints, mixed configurations, cache stores, drain
// manifests, fault plans and the six supervise-* pipe frames
// (docs/FORMATS.md gives the grammar and one field table per format).
//
// A document is a "<magic> v<N>" header line followed by record lines.
// A record line is a key word and whitespace-separated fields; blank
// lines between records are skipped. A counted block, "<key> <line-count>"
// followed by that many lines, embeds another document verbatim.
//
// Numbers have one syntax everywhere:
//   count   ASCII digits only (no sign, no whitespace), at most a
//           per-field cap, so a hostile header cannot wrap "-1" or make
//           the reader pre-allocate without bound;
//   double  what std::to_chars(general, 17) writes, which is byte for byte
//           what printf("%.17g") writes; std::from_chars reads every
//           finite value back bit for bit, subnormals included. NaN, Inf,
//           a leading '+' and hex floats are rejected;
//   flag    a count no greater than 1.
//
// Every reader failure is kInvalidInput "<format> line N: <what>".
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "core/status.hpp"

namespace defender::util {

/// Reads a decimal count no greater than `cap` (see the file comment).
template <std::integral T>
bool parse_count(std::string_view token, std::uint64_t cap, T* out) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end || value > cap)
    return false;
  *out = static_cast<T>(value);
  return true;
}

/// Reads a finite double written by append_double (see the file comment).
bool parse_finite(std::string_view token, double* out);

/// Appends `v` with 17 significant digits: the bytes of printf("%.17g"),
/// which round-trip every double exactly.
inline void append_double(std::string& out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, 17);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

inline std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

/// Builds a record document line by line.
class RecordWriter {
 public:
  /// "<magic> v<version>"
  RecordWriter& header(std::string_view magic, std::uint64_t version);

  /// Starts a line with its key and leading fields; close() ends it.
  template <typename... Fields>
  RecordWriter& open(std::string_view key, const Fields&... fields) {
    out_ += key;
    (put(fields), ...);
    return *this;
  }
  /// Appends fields to the open line, each after one space. Doubles go
  /// through append_double, bools as 0|1, strings verbatim.
  template <typename... Fields>
  RecordWriter& add(const Fields&... fields) {
    (put(fields), ...);
    return *this;
  }
  RecordWriter& close() {
    out_ += '\n';
    return *this;
  }
  /// One complete line: "<key> <field>...".
  template <typename... Fields>
  RecordWriter& line(std::string_view key, const Fields&... fields) {
    return open(key, fields...).close();
  }
  /// "<key> <size> <value>..."
  template <typename Range>
  RecordWriter& list(std::string_view key, const Range& values) {
    open(key, std::size(values));
    for (const auto& v : values) put(v);
    return close();
  }
  /// "<key> <line-count>" and then `text` verbatim, newline-terminated.
  /// An unterminated last line counts as a line.
  RecordWriter& block(std::string_view key, std::string_view text);

  std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void put(const T& field) {
    out_ += ' ';
    if constexpr (std::is_same_v<T, bool>) {
      out_ += field ? '1' : '0';
    } else if constexpr (std::is_floating_point_v<T>) {
      append_double(out_, field);
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      const auto result = std::to_chars(buf, buf + sizeof buf, field);
      out_.append(buf, static_cast<std::size_t>(result.ptr - buf));
    } else {
      out_ += std::string_view(field);
    }
  }

  std::string out_;
};

/// Reads a record document line by line. Each line is opened with line()
/// against a pattern such as "game <n> <m> <k>": the pattern's first word
/// is the key, and the whole pattern is the "expected '...'" message for
/// any failure on that line. Field readers then consume the line's tokens
/// left to right; opening the next line (or end()) first checks that the
/// previous one has no tokens left. A false return records the error that
/// status() reports (next() and at() excepted).
class RecordReader {
 public:
  /// `format` prefixes errors: "<format> line N: ..." ("line N: ..."
  /// when empty). The reader keeps views of `text`, `format` and each
  /// pattern, so all three must outlive it (patterns are literals).
  RecordReader(std::string_view text, std::string_view format)
      : text_(text), format_(format) {}

  /// The "<magic> v<N>" first line; any N but `version` is rejected.
  bool header(std::string_view magic, std::uint64_t version);
  /// Opens the next non-blank line against `pattern`. At end of input
  /// the error is `missing` when given, else the expected-message.
  bool line(std::string_view pattern, std::string_view missing = {});
  /// Reads "<key> <line-count>" and then that many lines verbatim (blank
  /// ones included), each newline-terminated, into *out.
  bool block(std::string_view pattern, std::uint64_t max_lines,
             std::string* out);
  /// The "end" trailer.
  bool end();

  /// Advances to the next non-blank line without checking its key; false
  /// at end of input (no error recorded). For directive-style formats.
  bool next();
  /// Whether the current line's key is `pattern`'s; on a match the key is
  /// consumed and `pattern` becomes the line's expected-message.
  bool at(std::string_view pattern);

  bool token(std::string_view* out);
  bool word(std::string* out);
  template <std::integral T>
  bool count(T* out, std::uint64_t cap) {
    std::string_view t;
    return token(&t) && check(parse_count(t, cap, out));
  }
  bool number(double* out);
  bool flag(bool* out);
  /// An enum by name, through its try_parse(std::string_view, E*).
  template <typename E, typename Parse>
  bool name(E* out, Parse parse) {
    std::string_view t;
    return token(&t) && check(parse(t, out));
  }
  /// "<count> <value>..." with count <= cap (and integer values <= cap).
  template <typename T>
  bool list(std::vector<T>* out, std::uint64_t cap) {
    std::uint64_t n = 0;
    if (!count(&n, cap)) return false;
    out->clear();
    out->reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      T value{};
      bool ok = false;
      if constexpr (std::is_floating_point_v<T>) {
        ok = number(&value);
      } else {
        ok = count(&value, cap);
      }
      if (!ok) return false;
      out->push_back(value);
    }
    return true;
  }
  /// The rest of the line after the key and one separator, verbatim.
  bool rest(std::string* out);
  /// True when no tokens are left on the current line.
  bool done();
  /// Passes `ok` through; false records the line's expected-message.
  bool check(bool ok);

  /// Records `what` against the current line (or `line`); returns false.
  bool fail(std::string_view what);
  bool fail_at(std::size_t line, std::string_view what);

  std::size_t line_no() const { return line_no_; }
  /// kInvalidInput with the recorded error.
  Status status() const;

 private:
  bool take(std::string_view* out);
  bool raw_line();

  std::string_view text_;
  std::string_view format_;
  std::size_t pos_ = 0;  // offset of the next unread line
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::size_t cursor_ = 0;  // offset of the next unread token in line_
  std::string_view pattern_;
  std::size_t error_line_ = 0;
  std::string error_;
};

/// Runs `read(reader, value)` over `text`: the value on success, else a
/// default value and the reader's kInvalidInput.
template <typename T, typename Read>
Solved<T> read_record(std::string_view text, std::string_view format,
                      Read read) {
  RecordReader reader(text, format);
  Solved<T> out;
  if (read(reader, out.result)) return out;
  return Solved<T>{T{}, reader.status()};
}

}  // namespace defender::util
