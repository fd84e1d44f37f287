#include "supervise/wire.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "io/envelope.hpp"
#include "util/record.hpp"

namespace defender::supervise {

namespace {

constexpr std::uint64_t kMaxIndex =
    std::numeric_limits<std::uint64_t>::max() / 4;

constexpr engine::AttemptAction kAllAttemptActions[] = {
    engine::AttemptAction::kInitial, engine::AttemptAction::kResume,
    engine::AttemptAction::kEnlarge, engine::AttemptAction::kRescale,
    engine::AttemptAction::kFallback,
};

bool try_parse_attempt_action(std::string_view name,
                              engine::AttemptAction* out) {
  for (engine::AttemptAction a : kAllAttemptActions) {
    if (name == engine::to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

/// "job <index> <dispatch>", the second line of every job-scoped frame.
bool read_job_line(util::RecordReader& r, std::size_t* index,
                   std::uint64_t* dispatch) {
  return r.line("job <index> <dispatch>") && r.count(index, kMaxIndex) &&
         r.count(dispatch, kMaxIndex);
}

}  // namespace

// ---------------------------------------------------------------------------
// JobFrame

std::string to_text(const JobFrame& frame) {
  util::RecordWriter w;
  w.header("supervise-job", 1)
      .line("job", frame.job_index, frame.dispatch)
      .line("solver", engine::to_string(frame.solver))
      .line("tolerance", frame.tolerance)
      .line("budget", frame.max_iterations, frame.wall_clock_seconds,
            frame.oracle_node_budget)
      .line("watchdog", frame.watchdog_seconds)
      .line("options", frame.collect_convergence, frame.canonicalize)
      .line("retry", frame.retry.to_string())
      .line("stream", frame.stream_interval_seconds)
      .line("board", frame.n, frame.k, frame.attackers)
      .open("edges", frame.edges.size());
  for (const auto& [u, v] : frame.edges) w.add(u, v);
  w.close()
      .list("weights", frame.weights)
      .block("fault-plan", frame.fault_plan_text)
      .block("checkpoint", frame.checkpoint_text)
      .line("end");
  return w.take();
}

Solved<JobFrame> try_parse_job_frame(const std::string& text) {
  return util::read_record<JobFrame>(
      text, "supervise-job", [](util::RecordReader& r, JobFrame& frame) {
        std::string retry;
        std::size_t edges = 0;
        if (!(r.header("supervise-job", 1) &&
              read_job_line(r, &frame.job_index, &frame.dispatch) &&
              r.line("solver <name>") &&
              r.name(&frame.solver, engine::try_parse_job_solver) &&
              r.line("tolerance <non-negative>") &&
              r.number(&frame.tolerance) && r.check(frame.tolerance >= 0) &&
              r.line("budget <iters> <wall> <oracle>") &&
              r.count(&frame.max_iterations, kMaxIndex) &&
              r.number(&frame.wall_clock_seconds) &&
              r.check(frame.wall_clock_seconds >= 0) &&
              r.count(&frame.oracle_node_budget, kMaxIndex) &&
              r.line("watchdog <seconds>") &&
              r.number(&frame.watchdog_seconds) &&
              r.check(frame.watchdog_seconds >= 0) &&
              r.line("options <0|1> <0|1>") &&
              r.flag(&frame.collect_convergence) &&
              r.flag(&frame.canonicalize) && r.line("retry <spec>") &&
              r.word(&retry)))
          return false;
        Solved<engine::RetryPolicy> policy =
            engine::RetryPolicy::try_parse(retry);
        if (!policy.ok())
          return r.fail("bad retry spec: " + policy.status.message);
        frame.retry = policy.result;
        if (!(r.line("stream <seconds>") &&
              r.number(&frame.stream_interval_seconds) &&
              r.check(frame.stream_interval_seconds >= 0) &&
              r.line("board <n> <k> <attackers>") &&
              r.count(&frame.n, kMaxWireVertices) && r.check(frame.n > 0) &&
              r.count(&frame.k, kMaxWireEdges) && r.check(frame.k > 0) &&
              r.count(&frame.attackers, kMaxWireVertices) &&
              r.check(frame.attackers > 0) &&
              r.line("edges <count> [u v ...]") &&
              r.count(&edges, kMaxWireEdges)))
          return false;
        frame.edges.reserve(edges);
        for (std::size_t i = 0; i < edges; ++i) {
          std::uint32_t u = 0, v = 0;
          if (!r.count(&u, kMaxWireVertices) ||
              !r.count(&v, kMaxWireVertices))
            return false;
          frame.edges.emplace_back(u, v);
        }
        return r.line("weights <count> [w ...]") &&
               r.list(&frame.weights, kMaxWireVertices) &&
               r.block("fault-plan <line-count>", kMaxWireBlockLines,
                       &frame.fault_plan_text) &&
               r.block("checkpoint <line-count>", kMaxWireBlockLines,
                       &frame.checkpoint_text) &&
               r.end();
      });
}

JobFrame frame_from_job(const engine::SolveJob& job, std::size_t job_index,
                        const engine::EngineConfig& config) {
  JobFrame frame;
  frame.job_index = job_index;
  frame.solver = job.solver;
  frame.tolerance = job.tolerance;
  frame.max_iterations = job.budget.max_iterations;
  frame.wall_clock_seconds = job.budget.wall_clock_seconds;
  frame.oracle_node_budget = job.budget.oracle_node_budget;
  frame.watchdog_seconds = job.watchdog_seconds;
  frame.collect_convergence = config.collect_convergence;
  frame.canonicalize = config.canonicalize;
  frame.retry = config.retry;
  const graph::Graph& g = job.game.graph();
  frame.n = g.num_vertices();
  frame.k = job.game.k();
  frame.attackers = job.game.num_attackers();
  frame.edges.reserve(g.num_edges());
  for (const graph::Edge& e : g.edges()) frame.edges.emplace_back(e.u, e.v);
  frame.weights = job.weights;
  if (job.fault_plan.armed()) frame.fault_plan_text = job.fault_plan.to_text();
  return frame;
}

Status job_from_frame(const JobFrame& frame,
                      std::optional<engine::SolveJob>* out) {
  out->reset();
  try {
    graph::GraphBuilder builder(frame.n);
    for (const auto& [u, v] : frame.edges) builder.add_edge(u, v);
    graph::Graph g = builder.build();
    if (g.has_isolated_vertex())
      return Status::make(StatusCode::kInvalidInput,
                          "job frame board has an isolated vertex");
    if (frame.k > g.num_edges())
      return Status::make(StatusCode::kInvalidInput,
                          "job frame k exceeds edge count");
    core::TupleGame game(std::move(g), frame.k, frame.attackers);
    engine::SolveJob job(std::move(game));
    job.solver = frame.solver;
    job.tolerance = frame.tolerance;
    job.budget.max_iterations = frame.max_iterations;
    job.budget.wall_clock_seconds = frame.wall_clock_seconds;
    job.budget.oracle_node_budget = frame.oracle_node_budget;
    job.watchdog_seconds = frame.watchdog_seconds;
    job.weights = frame.weights;
    if (!frame.fault_plan_text.empty()) {
      Solved<fault::FaultPlan> plan =
          fault::FaultPlan::try_parse(frame.fault_plan_text);
      if (!plan.ok())
        return Status::make(StatusCode::kInvalidInput,
                            "job frame fault plan: " + plan.status.message);
      job.fault_plan = plan.result;
    }
    out->emplace(std::move(job));
    return Status::make_ok();
  } catch (const std::exception& e) {
    return Status::make(StatusCode::kInvalidInput,
                        std::string("job frame rejected: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// ResultFrame

std::string to_text(const ResultFrame& frame) {
  const engine::JobResult& r = frame.result;
  util::RecordWriter w;
  w.header("supervise-result", 1)
      .line("job", frame.job_index, frame.dispatch)
      .line("solver", engine::to_string(r.solver))
      .line("status", defender::to_string(r.status.code),
            r.status.iterations, r.status.residual,
            r.status.elapsed_seconds);
  if (r.status.message.empty()) {
    w.line("message");
  } else {
    w.line("message", r.status.message);
  }
  w.line("value", r.value, r.lower_bound, r.upper_bound)
      .line("iterations", r.iterations)
      .line("flags", r.fallback_used, r.watchdog_killed, r.faults_injected,
            r.convergence_samples)
      .line("attempts", r.attempts.size());
  for (const engine::AttemptRecord& a : r.attempts)
    w.line("attempt", a.attempt, engine::to_string(a.action),
           engine::to_string(a.solver), defender::to_string(a.outcome),
           a.value, a.lower, a.upper, a.iterations, a.elapsed_seconds);
  w.block("checkpoint", frame.checkpoint_text).line("end");
  return w.take();
}

Solved<ResultFrame> try_parse_result_frame(const std::string& text) {
  return util::read_record<ResultFrame>(
      text, "supervise-result", [](util::RecordReader& r, ResultFrame& frame) {
        engine::JobResult& res = frame.result;
        std::size_t attempts = 0;
        if (!(r.header("supervise-result", 1) &&
              read_job_line(r, &frame.job_index, &frame.dispatch) &&
              r.line("solver <name>") &&
              r.name(&res.solver, engine::try_parse_job_solver) &&
              r.line("status <code> <iters> <residual> <elapsed>") &&
              r.name(&res.status.code, try_parse_status_code) &&
              r.count(&res.status.iterations, kMaxIndex) &&
              r.number(&res.status.residual) &&
              r.number(&res.status.elapsed_seconds) &&
              r.line("message [text]") && r.rest(&res.status.message) &&
              r.line("value <v> <lower> <upper>") && r.number(&res.value) &&
              r.number(&res.lower_bound) && r.number(&res.upper_bound) &&
              r.line("iterations <n>") && r.count(&res.iterations, kMaxIndex) &&
              r.line("flags <fallback> <watchdog> <faults> <conv>") &&
              r.flag(&res.fallback_used) && r.flag(&res.watchdog_killed) &&
              r.count(&res.faults_injected, kMaxIndex) &&
              r.count(&res.convergence_samples, kMaxIndex) &&
              r.line("attempts <count>") &&
              r.count(&attempts, kMaxWireAttempts)))
          return false;
        res.job_index = frame.job_index;
        res.attempts.resize(attempts);
        for (engine::AttemptRecord& a : res.attempts) {
          if (!(r.line("attempt <n> <action> <solver> <outcome> <value> "
                       "<lower> <upper> <iterations> <elapsed>",
                       "truncated attempt list") &&
                r.count(&a.attempt, kMaxIndex) &&
                r.name(&a.action, try_parse_attempt_action) &&
                r.name(&a.solver, engine::try_parse_job_solver) &&
                r.name(&a.outcome, try_parse_status_code) &&
                r.number(&a.value) && r.number(&a.lower) &&
                r.number(&a.upper) && r.count(&a.iterations, kMaxIndex) &&
                r.number(&a.elapsed_seconds)))
            return false;
        }
        return r.block("checkpoint <line-count>", kMaxWireBlockLines,
                       &frame.checkpoint_text) &&
               r.end();
      });
}

// ---------------------------------------------------------------------------
// HeartbeatFrame / CheckpointFrame / CancelFrame / HelloFrame

std::string to_text(const HeartbeatFrame& frame) {
  return util::RecordWriter()
      .header("supervise-heartbeat", 1)
      .line("seq", frame.sequence)
      .line("end")
      .take();
}

Solved<HeartbeatFrame> try_parse_heartbeat_frame(const std::string& text) {
  return util::read_record<HeartbeatFrame>(
      text, "supervise-heartbeat",
      [](util::RecordReader& r, HeartbeatFrame& frame) {
        return r.header("supervise-heartbeat", 1) && r.line("seq <n>") &&
               r.count(&frame.sequence, kMaxIndex) && r.end();
      });
}

std::string to_text(const CheckpointFrame& frame) {
  return util::RecordWriter()
      .header("supervise-checkpoint", 1)
      .line("job", frame.job_index, frame.dispatch)
      .block("checkpoint", frame.checkpoint_text)
      .line("end")
      .take();
}

Solved<CheckpointFrame> try_parse_checkpoint_frame(const std::string& text) {
  return util::read_record<CheckpointFrame>(
      text, "supervise-checkpoint",
      [](util::RecordReader& r, CheckpointFrame& frame) {
        return r.header("supervise-checkpoint", 1) &&
               read_job_line(r, &frame.job_index, &frame.dispatch) &&
               r.block("checkpoint <line-count>", kMaxWireBlockLines,
                       &frame.checkpoint_text) &&
               r.end();
      });
}

bool try_parse_cancel_reason(std::string_view name, CancelReason* out) {
  for (CancelReason r : {CancelReason::kWatchdog, CancelReason::kExternal,
                         CancelReason::kShutdown}) {
    if (name == to_string(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

std::string to_text(const CancelFrame& frame) {
  return util::RecordWriter()
      .header("supervise-cancel", 1)
      .line("job", frame.job_index, frame.dispatch)
      .line("reason", to_string(frame.reason))
      .line("end")
      .take();
}

Solved<CancelFrame> try_parse_cancel_frame(const std::string& text) {
  return util::read_record<CancelFrame>(
      text, "supervise-cancel", [](util::RecordReader& r, CancelFrame& frame) {
        return r.header("supervise-cancel", 1) &&
               read_job_line(r, &frame.job_index, &frame.dispatch) &&
               r.line("reason <watchdog|external|shutdown>") &&
               r.name(&frame.reason, try_parse_cancel_reason) && r.end();
      });
}

std::string to_text(const HelloFrame& frame) {
  return util::RecordWriter()
      .header("supervise-hello", 1)
      .line("pid", frame.pid)
      .line("end")
      .take();
}

Solved<HelloFrame> try_parse_hello_frame(const std::string& text) {
  return util::read_record<HelloFrame>(
      text, "supervise-hello", [](util::RecordReader& r, HelloFrame& frame) {
        std::uint64_t pid = 0;
        if (!(r.header("supervise-hello", 1) && r.line("pid <n>") &&
              r.count(&pid, kMaxIndex) && r.end()))
          return false;
        frame.pid = static_cast<std::int64_t>(pid);
        return true;
      });
}

// ---------------------------------------------------------------------------
// Pipe framing

std::string make_frame(std::string_view format, const std::string& payload) {
  return io::wrap_artifact(format, payload);
}

bool write_frame(int fd, std::string_view format, const std::string& payload) {
  const std::string frame = make_frame(format, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void FrameReader::feed(const char* data, std::size_t len) {
  if (corrupt_) return;
  buf_.append(data, len);
}

FrameReader::Next FrameReader::next(Frame* out, std::string* error) {
  const auto fail = [&](const std::string& what) {
    corrupt_ = true;
    corrupt_what_ = what;
    if (error != nullptr) *error = what;
    return Next::kCorrupt;
  };
  if (corrupt_) {
    if (error != nullptr) *error = corrupt_what_;
    return Next::kCorrupt;
  }
  if (buf_.empty()) return Next::kNeedMore;

  // A pipe carries only envelopes: the buffer must be a prefix of
  // "defender-artifact v1\nformat <name>\nbytes <N>\n...". Reject early
  // the moment the buffered bytes cannot extend to a valid header.
  static constexpr std::string_view kHeader = "defender-artifact v1\n";
  const std::size_t probe = std::min(buf_.size(), kHeader.size());
  if (std::string_view(buf_).substr(0, probe) != kHeader.substr(0, probe))
    return fail("stream does not begin with a defender-artifact header");
  if (buf_.size() < kHeader.size()) return Next::kNeedMore;

  // Locate the three header lines. An unreasonably long prefix without
  // them is corruption, not patience.
  constexpr std::size_t kMaxHeaderBytes = 256;
  const std::size_t nl1 = kHeader.size() - 1;
  const std::size_t nl2 = buf_.find('\n', nl1 + 1);
  if (nl2 == std::string::npos) {
    if (buf_.size() > kMaxHeaderBytes) return fail("oversized frame header");
    return Next::kNeedMore;
  }
  const std::size_t nl3 = buf_.find('\n', nl2 + 1);
  if (nl3 == std::string::npos) {
    if (buf_.size() > kMaxHeaderBytes) return fail("oversized frame header");
    return Next::kNeedMore;
  }

  const std::string format_line = buf_.substr(nl1 + 1, nl2 - nl1 - 1);
  const std::string bytes_line = buf_.substr(nl2 + 1, nl3 - nl2 - 1);
  if (format_line.rfind("format ", 0) != 0)
    return fail("malformed frame 'format' line");
  const std::string format = format_line.substr(7);
  if (format.empty() || format.find(' ') != std::string::npos)
    return fail("malformed frame format name");
  if (bytes_line.rfind("bytes ", 0) != 0)
    return fail("malformed frame 'bytes' line");
  std::uint64_t declared = 0;
  if (!util::parse_count(std::string_view(bytes_line).substr(6),
                         io::kMaxArtifactBytes, &declared))
    return fail("frame declares an invalid payload size");

  // crc32c <8 hex>\n end\n
  constexpr std::size_t kTrailerBytes = 7 + 8 + 1 + 4;
  const std::size_t total =
      nl3 + 1 + static_cast<std::size_t>(declared) + kTrailerBytes;
  if (buf_.size() < total) return Next::kNeedMore;

  const std::string frame_text = buf_.substr(0, total);
  Solved<io::UnwrappedArtifact> unwrapped =
      io::unwrap_artifact(frame_text, format);
  if (!unwrapped.ok() || !unwrapped.result.enveloped)
    return fail("frame failed envelope verification: " +
                unwrapped.status.message);
  buf_.erase(0, total);
  out->format = format;
  out->payload = std::move(unwrapped.result.payload);
  return Next::kFrame;
}

}  // namespace defender::supervise
