// Wire formats for the supervised subprocess worker pool.
//
// Jobs, results, heartbeats, streamed checkpoints, and cancel requests
// travel between the supervisor and its worker processes over pipes. Each
// message is a line-record payload (util/record.hpp, docs/FORMATS.md)
// sealed in a PR-8 "defender-artifact v1" envelope, so a torn or garbled
// frame — a worker killed mid-write, a stray byte on the pipe — is
// *detected* by byte-exact framing plus CRC32C, never trusted
// (docs/SUPERVISION.md). Pipes carry no legacy data, so unlike
// the on-disk loaders the FrameReader here rejects anything that does not
// begin with an envelope header.
//
// Determinism: JobFrame serializes every field of a SolveJob that affects
// its JobResult (solver, tolerance, budget, weights, board, fault plan,
// retry spec, convergence/canonicalize flags) with bit-exact doubles, so
// the worker reconstructs a bit-identical job and the process-mode result for
// a non-faulted job equals the in-process one bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/retry.hpp"

namespace defender::supervise {

// Envelope `format` tags, one per message kind.
inline constexpr char kJobFormat[] = "supervise-job";
inline constexpr char kResultFormat[] = "supervise-result";
inline constexpr char kHeartbeatFormat[] = "supervise-heartbeat";
inline constexpr char kCheckpointFormat[] = "supervise-checkpoint";
inline constexpr char kCancelFormat[] = "supervise-cancel";
inline constexpr char kHelloFormat[] = "supervise-hello";

/// Allocation caps for hardened parsing of pipe frames. Garbled frames
/// are caught by the CRC long before these fire; the caps bound what a
/// syntactically valid but hostile payload can make the parser allocate.
inline constexpr std::size_t kMaxWireVertices = 1u << 20;
inline constexpr std::size_t kMaxWireEdges = 1u << 24;
inline constexpr std::size_t kMaxWireAttempts = 10'000;
inline constexpr std::size_t kMaxWireBlockLines = 2'100'000;

/// One job dispatch: everything a worker needs to run the job and
/// reproduce the exact in-process result.
struct JobFrame {
  std::size_t job_index = 0;
  /// Per-job dispatch counter (0-based): how many times this job has been
  /// handed to a worker, counting this dispatch. Doubles as the fault
  /// evaluation index for the worker-crash / worker-hang sites, so crash
  /// schedules are pure functions of (plan, dispatch).
  std::uint64_t dispatch = 0;
  engine::JobSolver solver = engine::JobSolver::kDoubleOracle;
  double tolerance = 1e-9;
  std::size_t max_iterations = 0;
  double wall_clock_seconds = 0;
  std::uint64_t oracle_node_budget = 0;
  double watchdog_seconds = 0;
  bool collect_convergence = false;
  bool canonicalize = false;
  engine::RetryPolicy retry;
  /// Seconds between checkpoint-stream ticks inside the worker; 0
  /// disables streaming for this dispatch.
  double stream_interval_seconds = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t attackers = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<double> weights;
  /// Verbatim "fault-plan v1" text; empty for an unarmed plan.
  std::string fault_plan_text;
  /// Verbatim "defender-checkpoint v1" text to resume the first attempt
  /// from (recovery after a mid-solve worker death, or a serve-layer
  /// drain resume); empty for a cold start.
  std::string checkpoint_text;
};

std::string to_text(const JobFrame& frame);
Solved<JobFrame> try_parse_job_frame(const std::string& text);

/// Builds a JobFrame from a SolveJob (board flattened to an edge list).
JobFrame frame_from_job(const engine::SolveJob& job, std::size_t job_index,
                        const engine::EngineConfig& config);

/// Reconstructs the SolveJob a frame describes. kInvalidInput when the
/// board is malformed (isolated vertex, k out of range, bad weights
/// arity) or the embedded fault plan / checkpoint text does not parse.
/// (SolveJob is not default-constructible, hence the optional out-param —
/// same shape as serve::to_job.)
Status job_from_frame(const JobFrame& frame,
                      std::optional<engine::SolveJob>* out);

/// One finished dispatch: the full JobResult plus the optionally captured
/// terminal checkpoint (serve-layer drain capture round-trips through
/// this field).
struct ResultFrame {
  std::size_t job_index = 0;
  std::uint64_t dispatch = 0;
  engine::JobResult result;
  /// Verbatim checkpoint text captured on a clean cancelled exit; empty
  /// when nothing was captured.
  std::string checkpoint_text;
};

std::string to_text(const ResultFrame& frame);
Solved<ResultFrame> try_parse_result_frame(const std::string& text);

/// Periodic liveness signal from a worker's aux thread.
struct HeartbeatFrame {
  std::uint64_t sequence = 0;
};

std::string to_text(const HeartbeatFrame& frame);
Solved<HeartbeatFrame> try_parse_heartbeat_frame(const std::string& text);

/// A mid-solve checkpoint streamed by the worker so the supervisor can
/// resume the job after a crash instead of restarting it from scratch.
struct CheckpointFrame {
  std::size_t job_index = 0;
  std::uint64_t dispatch = 0;
  std::string checkpoint_text;
};

std::string to_text(const CheckpointFrame& frame);
Solved<CheckpointFrame> try_parse_checkpoint_frame(const std::string& text);

/// Why the supervisor asked a worker to stop its current job.
enum class CancelReason {
  kWatchdog,
  kExternal,
  kShutdown,
};

constexpr const char* to_string(CancelReason reason) {
  switch (reason) {
    case CancelReason::kWatchdog: return "watchdog";
    case CancelReason::kExternal: return "external";
    case CancelReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool try_parse_cancel_reason(std::string_view name, CancelReason* out);

/// Cooperative cancel request for the named dispatch; the worker fires
/// the active segment's CancelToken when (job_index, dispatch) matches.
struct CancelFrame {
  std::size_t job_index = 0;
  std::uint64_t dispatch = 0;
  CancelReason reason = CancelReason::kExternal;
};

std::string to_text(const CancelFrame& frame);
Solved<CancelFrame> try_parse_cancel_frame(const std::string& text);

/// First frame a worker writes after exec: proof the pipe plumbing works.
struct HelloFrame {
  std::int64_t pid = 0;
};

std::string to_text(const HelloFrame& frame);
Solved<HelloFrame> try_parse_hello_frame(const std::string& text);

/// Seals `payload` for the pipe: wrap_artifact(format, payload).
std::string make_frame(std::string_view format, const std::string& payload);

/// Writes one complete frame to `fd`, retrying EINTR and short writes.
/// False on any other error (EPIPE after a peer death, EBADF, ...).
bool write_frame(int fd, std::string_view format, const std::string& payload);

/// Incremental frame extractor over a byte stream. Feed raw pipe reads
/// in; next() yields complete, checksum-verified frames. Any framing
/// violation — data not starting with an envelope header, an oversized
/// declared payload, a failed CRC — poisons the reader permanently
/// (kCorrupt): the stream cannot be resynchronized, so the peer must be
/// treated as dead.
class FrameReader {
 public:
  enum class Next {
    kFrame,
    kNeedMore,
    kCorrupt,
  };

  struct Frame {
    std::string format;
    std::string payload;
  };

  void feed(const char* data, std::size_t len);

  /// Extracts the next complete frame, if any. On kCorrupt, `error` (when
  /// non-null) receives a description of the violation.
  Next next(Frame* out, std::string* error);

  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool corrupt_ = false;
  std::string corrupt_what_;
};

}  // namespace defender::supervise
