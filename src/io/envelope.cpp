#include "io/envelope.hpp"

#include <cstdio>

#include "io/crc32c.hpp"
#include "util/record.hpp"

namespace defender::io {

namespace {

constexpr std::string_view kEnvelopeMagic = "defender-artifact v";
constexpr std::string_view kLogMagic = "defender-artifact-log v";

std::string hex8(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return std::string(buf);
}

Status invalid(std::string message) {
  return Status::make(StatusCode::kInvalidInput, std::move(message));
}

/// Cursor over the envelope text. Lines are consumed up to '\n'; raw byte
/// runs are consumed verbatim. Every failure is reported against the
/// byte offset so a corruption report pins where the file went bad.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool at_end() const { return pos >= text.size(); }

  /// Consumes one '\n'-terminated line (without the newline). False when
  /// the text ends before a newline — i.e. the line itself is torn.
  bool take_line(std::string_view* out) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return false;
    *out = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  }

  /// Consumes exactly `n` raw bytes. False when fewer remain (torn tail).
  bool take_bytes(std::size_t n, std::string_view* out) {
    if (text.size() - pos < n) return false;
    *out = text.substr(pos, n);
    pos += n;
    return true;
  }
};

/// Strips "<key> " from the front of `line`; the remainder is the value.
bool split_key(std::string_view line, std::string_view key,
               std::string_view* value) {
  if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ')
    return false;
  *value = line.substr(key.size() + 1);
  return true;
}

/// Strict 8-lowercase-hex-digit parse.
bool parse_hex32(std::string_view text, std::uint32_t* out) {
  if (text.size() != 8) return false;
  std::uint32_t value = 0;
  for (const char ch : text) {
    std::uint32_t nibble = 0;
    if (ch >= '0' && ch <= '9') {
      nibble = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      nibble = static_cast<std::uint32_t>(ch - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | nibble;
  }
  *out = value;
  return true;
}

/// Parses the "<magic><version>" first line, enforcing version 1. Returns
/// 0 = not this magic at all (legacy candidate), 1 = matched, -1 = matched
/// the magic but an unsupported version (hard error, never passthrough:
/// a future-version artifact must not be fed to a legacy parser).
int match_header(std::string_view line, std::string_view magic,
                 std::string* error) {
  if (line.size() <= magic.size() || line.substr(0, magic.size()) != magic)
    return 0;
  const std::string_view version = line.substr(magic.size());
  std::size_t parsed = 0;
  if (!util::parse_count(version, 1'000'000, &parsed)) return 0;
  if (parsed != kArtifactEnvelopeVersion) {
    *error = "unsupported artifact envelope version " + std::string(version);
    return -1;
  }
  return 1;
}

}  // namespace

std::string wrap_artifact(std::string_view format, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + format.size() + 64);
  out += kEnvelopeMagic;
  out += std::to_string(kArtifactEnvelopeVersion);
  out += "\nformat ";
  out += format;
  out += "\nbytes ";
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += "crc32c ";
  out += hex8(crc32c(payload));
  out += "\nend\n";
  return out;
}

std::string wrap_record_artifact(std::string_view format,
                                 const std::vector<std::string>& records) {
  std::string out;
  std::size_t total = format.size() + 64;
  for (const std::string& record : records) total += record.size() + 32;
  out.reserve(total);
  out += kLogMagic;
  out += std::to_string(kArtifactEnvelopeVersion);
  out += "\nformat ";
  out += format;
  out += "\nrecords ";
  out += std::to_string(records.size());
  out += '\n';
  for (const std::string& record : records) {
    out += "record ";
    out += std::to_string(record.size());
    out += ' ';
    out += hex8(crc32c(record));
    out += '\n';
    out += record;
  }
  out += "end\n";
  return out;
}

Solved<UnwrappedArtifact> unwrap_artifact(std::string_view text,
                                          std::string_view expect_format) {
  Solved<UnwrappedArtifact> out;
  Cursor cur{text};

  std::string_view header;
  std::string version_error;
  if (!cur.take_line(&header)) {
    // No complete first line: cannot be an intact envelope; treat as
    // legacy passthrough and let the payload parser judge it.
    out.result.payload.assign(text);
    return out;
  }
  const int matched = match_header(header, kEnvelopeMagic, &version_error);
  if (matched < 0) {
    out.status = invalid(version_error);
    return out;
  }
  if (matched == 0) {
    out.result.payload.assign(text);
    return out;
  }
  out.result.enveloped = true;

  std::string_view line;
  std::string_view value;
  if (!cur.take_line(&line) || !split_key(line, "format", &value) ||
      value.empty()) {
    out.status = invalid("artifact envelope torn in 'format' line");
    return out;
  }
  out.result.format.assign(value);
  if (!expect_format.empty() && value != expect_format) {
    out.status = invalid("artifact format mismatch: file says '" +
                         std::string(value) + "', expected '" +
                         std::string(expect_format) + "'");
    return out;
  }

  std::size_t bytes = 0;
  if (!cur.take_line(&line) || !split_key(line, "bytes", &value) ||
      !util::parse_count(value, kMaxArtifactBytes, &bytes)) {
    out.status = invalid("artifact envelope torn in 'bytes' line");
    return out;
  }

  std::string_view payload;
  if (!cur.take_bytes(bytes, &payload)) {
    out.status = invalid("artifact payload truncated: header declares " +
                         std::to_string(bytes) + " bytes, " +
                         std::to_string(text.size() - cur.pos) + " present");
    return out;
  }

  std::uint32_t declared_crc = 0;
  if (!cur.take_line(&line) || !split_key(line, "crc32c", &value) ||
      !parse_hex32(value, &declared_crc)) {
    out.status = invalid("artifact envelope torn in 'crc32c' line");
    return out;
  }
  const std::uint32_t actual_crc = crc32c(payload);
  if (actual_crc != declared_crc) {
    out.status = invalid("artifact checksum mismatch: file says " +
                         hex8(declared_crc) + ", payload hashes to " +
                         hex8(actual_crc));
    return out;
  }

  if (!cur.take_line(&line) || line != "end") {
    out.status = invalid("artifact envelope missing 'end' trailer");
    return out;
  }
  if (!cur.at_end()) {
    out.status = invalid("trailing garbage after artifact 'end' trailer (" +
                         std::to_string(text.size() - cur.pos) + " bytes)");
    return out;
  }

  out.result.payload.assign(payload);
  return out;
}

Solved<UnwrappedRecords> unwrap_record_artifact(std::string_view text,
                                                std::string_view
                                                    expect_format) {
  Solved<UnwrappedRecords> out;
  Cursor cur{text};

  std::string_view header;
  std::string version_error;
  if (!cur.take_line(&header)) {
    out.result.records.emplace_back(text);
    out.result.declared = 1;
    return out;
  }
  const int matched = match_header(header, kLogMagic, &version_error);
  if (matched < 0) {
    out.status = invalid(version_error);
    return out;
  }
  if (matched == 0) {
    out.result.records.emplace_back(text);
    out.result.declared = 1;
    return out;
  }
  out.result.enveloped = true;

  std::string_view line;
  std::string_view value;
  if (!cur.take_line(&line) || !split_key(line, "format", &value) ||
      value.empty()) {
    out.status = invalid("record artifact torn in 'format' line");
    return out;
  }
  out.result.format.assign(value);
  if (!expect_format.empty() && value != expect_format) {
    out.status = invalid("record artifact format mismatch: file says '" +
                         std::string(value) + "', expected '" +
                         std::string(expect_format) + "'");
    return out;
  }

  std::size_t declared = 0;
  if (!cur.take_line(&line) || !split_key(line, "records", &value) ||
      !util::parse_count(value, kMaxArtifactRecords, &declared)) {
    out.status = invalid("record artifact torn in 'records' line");
    return out;
  }
  out.result.declared = declared;

  // From here on, any malformation is a torn tail: keep every record whose
  // frame and checksum verify, mark the store torn, and let the caller's
  // generation policy decide. A bit flip inside record i also poisons
  // records > i (we cannot trust the framing after a bad checksum), which
  // is the conservative choice.
  out.result.records.reserve(declared < 4096 ? declared : 4096);
  for (std::size_t i = 0; i < declared; ++i) {
    std::string_view frame;
    std::string_view rest;
    std::size_t bytes = 0;
    std::uint32_t declared_crc = 0;
    std::string_view record;
    if (!cur.take_line(&frame) || !split_key(frame, "record", &rest)) {
      out.result.torn = true;
      break;
    }
    const std::size_t space = rest.find(' ');
    if (space == std::string_view::npos ||
        !util::parse_count(rest.substr(0, space), kMaxArtifactBytes, &bytes) ||
        !parse_hex32(rest.substr(space + 1), &declared_crc)) {
      out.result.torn = true;
      break;
    }
    if (!cur.take_bytes(bytes, &record) || crc32c(record) != declared_crc) {
      out.result.torn = true;
      break;
    }
    out.result.records.emplace_back(record);
  }
  if (!out.result.torn) {
    if (!cur.take_line(&line) || line != "end" || !cur.at_end())
      out.result.torn = true;
  }
  out.result.dropped = declared - out.result.records.size();
  return out;
}

}  // namespace defender::io
