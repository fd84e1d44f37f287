#include "util/record.hpp"

#include <cmath>
#include <limits>

namespace defender::util {

namespace {

/// The C-locale isspace set, the separators std::istream used to split on.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::string_view key_of(std::string_view pattern) {
  return pattern.substr(0, pattern.find(' '));
}

}  // namespace

bool parse_finite(std::string_view token, double* out) {
  double value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value))
    return false;
  *out = value;
  return true;
}

RecordWriter& RecordWriter::header(std::string_view magic,
                                   std::uint64_t version) {
  out_ += magic;
  out_ += " v";
  out_ += std::to_string(version);
  return close();
}

RecordWriter& RecordWriter::block(std::string_view key,
                                  std::string_view text) {
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  const bool unterminated = !text.empty() && text.back() != '\n';
  line(key, lines + (unterminated ? 1 : 0));
  out_ += text;
  if (unterminated) out_ += '\n';
  return *this;
}

bool RecordReader::raw_line() {
  if (pos_ >= text_.size()) return false;
  std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string_view::npos) nl = text_.size();
  line_ = text_.substr(pos_, nl - pos_);
  pos_ = nl == text_.size() ? nl : nl + 1;
  cursor_ = 0;
  ++line_no_;
  return true;
}

bool RecordReader::next() {
  while (raw_line()) {
    for (const char c : line_)
      if (!is_space(c)) return true;
  }
  return false;
}

bool RecordReader::at(std::string_view pattern) {
  const std::size_t start = cursor_;
  std::string_view key;
  if (take(&key) && key == key_of(pattern)) {
    pattern_ = pattern;
    return true;
  }
  cursor_ = start;
  return false;
}

bool RecordReader::header(std::string_view magic, std::uint64_t version) {
  const auto missing = [&](std::size_t line, std::string_view before) {
    return fail_at(line, std::string(before) + "missing '" +
                             std::string(magic) + " v" +
                             std::to_string(version) + "' header");
  };
  if (!next()) return missing(line_no_ + 1, "empty input; ");
  std::string_view word, tag;
  if (!take(&word) || word != magic || !take(&tag) || tag[0] != 'v')
    return missing(line_no_, "");
  std::uint64_t found = 0;
  if (!parse_count(tag.substr(1), std::numeric_limits<std::uint64_t>::max(),
                   &found))
    return fail("malformed version: " + std::string(tag.substr(1)));
  if (found != version)
    return fail("unsupported " + std::string(format_) +
                (format_.empty() ? "" : " ") + "version " +
                std::to_string(found) + " (this build reads v" +
                std::to_string(version) + ")");
  return !take(&word) || missing(line_no_, "");
}

bool RecordReader::line(std::string_view pattern, std::string_view missing) {
  if (!done()) return false;
  pattern_ = pattern;
  if (!next())
    return fail_at(line_no_ + 1, missing.empty() ? "expected '" +
                                                       std::string(pattern) +
                                                       "'"
                                                 : std::string(missing));
  return at(pattern) || check(false);
}

bool RecordReader::block(std::string_view pattern, std::uint64_t max_lines,
                         std::string* out) {
  std::uint64_t lines = 0;
  if (!line(pattern) || !count(&lines, max_lines) || !done()) return false;
  const std::size_t start = pos_;
  for (std::uint64_t i = 0; i < lines; ++i) {
    if (!raw_line())
      return fail_at(line_no_ + 1,
                     "truncated " + std::string(key_of(pattern)) + " block");
  }
  out->assign(text_.substr(start, pos_ - start));
  if (!out->empty() && out->back() != '\n') out->push_back('\n');
  cursor_ = line_.size();  // block lines are payload, not fields
  return true;
}

bool RecordReader::end() {
  return line("end", "missing 'end' trailer") && done();
}

bool RecordReader::take(std::string_view* out) {
  while (cursor_ < line_.size() && is_space(line_[cursor_])) ++cursor_;
  const std::size_t start = cursor_;
  while (cursor_ < line_.size() && !is_space(line_[cursor_])) ++cursor_;
  *out = line_.substr(start, cursor_ - start);
  return cursor_ > start;
}

bool RecordReader::token(std::string_view* out) {
  return check(take(out));
}

bool RecordReader::word(std::string* out) {
  std::string_view t;
  if (!token(&t)) return false;
  out->assign(t);
  return true;
}

bool RecordReader::number(double* out) {
  std::string_view t;
  return token(&t) && check(parse_finite(t, out));
}

bool RecordReader::flag(bool* out) {
  std::uint64_t v = 0;
  if (!count(&v, 1)) return false;
  *out = v != 0;
  return true;
}

bool RecordReader::rest(std::string* out) {
  if (cursor_ < line_.size()) ++cursor_;
  out->assign(line_.substr(cursor_));
  cursor_ = line_.size();
  return true;
}

bool RecordReader::done() {
  std::string_view extra;
  return !take(&extra) || check(false);
}

bool RecordReader::check(bool ok) {
  return ok || fail("expected '" + std::string(pattern_) + "'");
}

bool RecordReader::fail(std::string_view what) {
  return fail_at(line_no_, what);
}

bool RecordReader::fail_at(std::size_t line, std::string_view what) {
  error_line_ = line;
  error_ = what;
  return false;
}

Status RecordReader::status() const {
  std::string message(format_);
  if (!message.empty()) message += ' ';
  message += "line " + std::to_string(error_line_) + ": " + error_;
  return Status::make(StatusCode::kInvalidInput, std::move(message));
}

}  // namespace defender::util
