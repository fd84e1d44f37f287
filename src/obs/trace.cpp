#include "obs/trace.hpp"

#include <sstream>

#include "util/json_writer.hpp"

namespace defender::obs {

namespace {

const char* phase_letter(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kSpanBegin: return "B";
    case TraceEvent::Phase::kSpanEnd: return "E";
    case TraceEvent::Phase::kInstant: return "i";
  }
  return "i";
}

void append_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out << ',';
    const TraceArg& a = args[i];
    out << '"' << util::json_escape(a.key) << "\":";
    switch (a.kind) {
      case TraceArg::Kind::kDouble: out << util::json_number(a.number); break;
      case TraceArg::Kind::kUint: out << a.uint; break;
      case TraceArg::Kind::kString:
        out << '"' << util::json_escape(a.text) << '"';
        break;
    }
  }
  out << '}';
}

/// Per-thread span nesting depth. Keyed per thread, not per tracer: a
/// thread driving two tracers at once would interleave their depths, but no
/// solver does that and the depth is diagnostic, not semantic.
thread_local std::uint32_t t_depth = 0;
thread_local std::uint32_t t_ordinal = 0;

}  // namespace

JsonlSink::JsonlSink(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc) {
  if (owned_.is_open()) out_ = &owned_;
}

void JsonlSink::write(const TraceEvent& event) {
  if (out_ == nullptr) return;
  std::ostringstream line;
  line << "{\"ph\":\"" << phase_letter(event.phase) << "\",\"name\":\""
       << util::json_escape(event.name) << "\",\"ts_us\":" << event.ts_us
       << ",\"seq\":" << event.seq << ",\"span\":" << event.span_id
       << ",\"thread\":" << event.thread << ",\"depth\":" << event.depth
       << ",\"args\":";
  append_args(line, event.args);
  line << "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  *out_ << line.str();
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) out_->flush();
}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc) {
  if (owned_.is_open()) out_ = &owned_;
  begin();
}

ChromeTraceSink::~ChromeTraceSink() { flush(); }

void ChromeTraceSink::begin() {
  if (out_ != nullptr) *out_ << "[\n";
}

void ChromeTraceSink::write(const TraceEvent& event) {
  if (out_ == nullptr) return;
  std::ostringstream record;
  record << "{\"name\":\"" << util::json_escape(event.name) << "\",\"ph\":\""
         << phase_letter(event.phase) << "\",\"ts\":" << event.ts_us
         << ",\"pid\":1,\"tid\":" << event.thread;
  if (event.phase == TraceEvent::Phase::kInstant) record << ",\"s\":\"t\"";
  record << ",\"args\":";
  append_args(record, event.args);
  record << '}';
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  if (any_) *out_ << ",\n";
  any_ = true;
  *out_ << record.str();
}

void ChromeTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr || closed_) return;
  *out_ << "\n]\n";
  out_->flush();
  closed_ = true;  // the array is finalized; later writes are dropped
}

void Tracer::add_sink(TraceSink* sink) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

std::uint32_t Tracer::thread_ordinal() {
  if (t_ordinal == 0)
    t_ordinal = next_thread_.fetch_add(1, std::memory_order_relaxed);
  return t_ordinal;
}

void Tracer::emit(TraceEvent event) {
  event.ts_us = Clock::now_micros();
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  event.thread = thread_ordinal();
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSink* sink : sinks_) sink->write(event);
}

Span Tracer::span(std::string name, std::vector<TraceArg> args) {
  const std::uint64_t id = next_span_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpanBegin;
  event.name = name;
  event.span_id = id;
  event.depth = t_depth++;
  event.args = std::move(args);
  emit(std::move(event));
  return Span(this, std::move(name), id);
}

void Tracer::end_span(const std::string& name, std::uint64_t span_id,
                      std::vector<TraceArg> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpanEnd;
  event.name = name;
  event.span_id = span_id;
  event.depth = t_depth > 0 ? --t_depth : 0;
  event.args = std::move(args);
  emit(std::move(event));
}

void Tracer::instant(std::string name, std::vector<TraceArg> args) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.depth = t_depth;
  event.args = std::move(args);
  emit(std::move(event));
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSink* sink : sinks_) sink->flush();
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    span_id_ = other.span_id_;
    args_ = std::move(other.args_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* t = tracer_;
  tracer_ = nullptr;
  t->end_span(name_, span_id_, std::move(args_));
}

}  // namespace defender::obs
