// Structured solver outcomes.
//
// Every equilibrium path of the library historically had one failure mode:
// throw ContractViolation and die, even for recoverable conditions like
// exhausting an iteration budget. Production callers need solvers that fail
// *informatively and partially*: a typed status describing what happened
// (and how far the solve got) next to the best result computed so far —
// which for the iterative solvers is still a pair of certified bounds on
// the game value.
//
// `Status` lives at the top level of the `defender` namespace (like
// ContractViolation) because every layer reports through it: graph parsing
// returns kInvalidInput, the simplex kNumericallyUnstable, the
// double-oracle/learning loops kIterationLimit / kDeadlineExceeded.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "util/assert.hpp"

namespace defender {

/// Typed outcome of a solve or parse.
enum class StatusCode {
  /// Completed exactly (within the requested tolerance).
  kOk,
  /// An iteration/round/node budget ran out; the result carries the best
  /// bounds certified so far.
  kIterationLimit,
  /// The wall-clock deadline expired mid-solve; best-so-far result.
  kDeadlineExceeded,
  /// A numerical guard tripped (residual or duality-gap check failed even
  /// after a tightened re-solve, or an oracle loop stalled below its
  /// tolerance floor). The result is the best numerically-trusted one.
  kNumericallyUnstable,
  /// The problem has no feasible solution.
  kInfeasible,
  /// Malformed or hostile input was rejected before solving.
  kInvalidInput,
  /// A CancelToken was triggered mid-solve (engine watchdog, caller
  /// cancellation). Best-so-far bounds, and — via SolveOptions::capture —
  /// a checkpoint the solve can later resume from.
  kCancelled,
  /// The serving layer refused to admit the request: the queue is at its
  /// high watermark or a per-client quota tripped. The rejection carries
  /// a retry-after hint; the job was never enqueued, so retrying is safe.
  kOverloaded,
  /// A filesystem operation failed (open/write/fsync/rename), or a durable
  /// artifact on disk was torn/bit-rotted beyond what recovery could
  /// repair. The message names the path. Solver state is unaffected —
  /// this code only ever comes out of the io layer and its callers.
  kIoError,
  /// A process-isolated worker died (or was force-killed after a hang)
  /// while running this job, repeatedly enough that the supervisor
  /// quarantined the job instead of crash-looping the pool. The result
  /// carries only the a-priori bracket; the message names the kill count.
  /// Emitted by src/supervise only.
  kWorkerCrashed,
};

/// Every StatusCode, in enum order. The compile-time audit below keeps
/// this table, the enum, and to_string in lockstep.
inline constexpr StatusCode kAllStatusCodes[] = {
    StatusCode::kOk,
    StatusCode::kIterationLimit,
    StatusCode::kDeadlineExceeded,
    StatusCode::kNumericallyUnstable,
    StatusCode::kInfeasible,
    StatusCode::kInvalidInput,
    StatusCode::kCancelled,
    StatusCode::kOverloaded,
    StatusCode::kIoError,
    StatusCode::kWorkerCrashed,
};
inline constexpr std::size_t kStatusCodeCount =
    sizeof(kAllStatusCodes) / sizeof(kAllStatusCodes[0]);

/// Human-readable name of a StatusCode.
constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kIterationLimit: return "iteration-limit";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kNumericallyUnstable: return "numerically-unstable";
    case StatusCode::kInfeasible: return "infeasible";
    case StatusCode::kInvalidInput: return "invalid-input";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kWorkerCrashed: return "worker-crashed";
  }
  return "unknown";
}

/// Parses a name produced by to_string back into its StatusCode; returns
/// false (leaving `out` untouched) on an unknown name.
constexpr bool try_parse_status_code(std::string_view name,
                                     StatusCode* out) {
  for (StatusCode c : kAllStatusCodes) {
    if (name == to_string(c)) {
      if (out != nullptr) *out = c;
      return true;
    }
  }
  return false;
}

namespace status_detail {
/// Compile-time exhaustiveness audit: kAllStatusCodes is dense and in enum
/// order, every code has a name other than "unknown", and every name
/// round-trips through try_parse_status_code. Adding an enum value without
/// extending the table (or to_string) fails the static_asserts below
/// instead of silently printing "unknown" at runtime.
constexpr bool status_codes_round_trip() {
  std::size_t i = 0;
  for (StatusCode c : kAllStatusCodes) {
    if (static_cast<std::size_t>(c) != i++) return false;
    if (std::string_view(to_string(c)) == "unknown") return false;
    StatusCode parsed{};
    if (!try_parse_status_code(to_string(c), &parsed) || parsed != c)
      return false;
  }
  return true;
}
}  // namespace status_detail
static_assert(kStatusCodeCount ==
                  static_cast<std::size_t>(StatusCode::kWorkerCrashed) + 1,
              "kAllStatusCodes must list every StatusCode");
static_assert(status_detail::status_codes_round_trip(),
              "every StatusCode must round-trip through to_string / "
              "try_parse_status_code");

/// A status with context: what happened, how much work was done, and how
/// tight the result is.
struct Status {
  StatusCode code = StatusCode::kOk;
  /// Human-readable detail ("deadline expired after 17 iterations", parse
  /// error with line number, ...). Empty for kOk.
  std::string message;
  /// Iterations / rounds / pivots consumed before returning.
  std::size_t iterations = 0;
  /// Residual certified at return: duality gap for game solvers, constraint
  /// residual for the LP, 0 when not applicable.
  double residual = 0;
  /// Wall-clock seconds spent in the solve.
  double elapsed_seconds = 0;

  bool ok() const { return code == StatusCode::kOk; }

  /// "code: message (iterations=…, residual=…)" for logs and CLIs.
  std::string to_string() const;

  /// Legacy alias of to_string().
  std::string describe() const { return to_string(); }

  static Status make_ok(std::size_t iterations = 0, double residual = 0,
                        double elapsed_seconds = 0) {
    return Status{StatusCode::kOk, {}, iterations, residual, elapsed_seconds};
  }
  static Status make(StatusCode code, std::string message,
                     std::size_t iterations = 0, double residual = 0,
                     double elapsed_seconds = 0) {
    return Status{code, std::move(message), iterations, residual,
                  elapsed_seconds};
  }
};

inline std::string Status::to_string() const {
  // Qualified: the unqualified name would resolve to this member itself.
  std::string out = defender::to_string(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  out += " (iterations=" + std::to_string(iterations) +
         ", residual=" + std::to_string(residual) +
         ", elapsed=" + std::to_string(elapsed_seconds) + "s)";
  return out;
}

/// A solve outcome: the best result computed plus the status describing how
/// it was obtained. Non-kOk results are still meaningful for the iterative
/// solvers — they carry certified best-so-far bounds — so `result` is always
/// populated unless the status is kInvalidInput/kInfeasible.
template <typename T>
struct Solved {
  T result{};
  Status status;

  bool ok() const { return status.ok(); }
  explicit operator bool() const { return ok(); }

  /// The result when kOk; throws ContractViolation otherwise (callers that
  /// want an exception instead of a status use this).
  T& value_or_throw() & {
    if (!ok()) throw ContractViolation(status.describe());
    return result;
  }
  const T& value_or_throw() const& {
    if (!ok()) throw ContractViolation(status.describe());
    return result;
  }
  T&& value_or_throw() && {
    if (!ok()) throw ContractViolation(status.describe());
    return std::move(result);
  }
};

}  // namespace defender
