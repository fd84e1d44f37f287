// Resilient batch solve engine: a thread pool with per-job isolation.
//
// SolveEngine runs a batch of independent SolveJobs across a worker pool
// and guarantees (docs/ENGINE.md):
//
//   Isolation    each job gets its own CancelToken, FaultContext, and
//                per-job ObsContext; a job that fails, stalls, or is
//                fault-garbled degrades only its own JobResult (truthful
//                Status, best-so-far bracket, attempt history) while the
//                rest of the batch completes.
//   Watchdog     jobs with watchdog_seconds > 0 are killed cooperatively
//                when overdue. The watchdog reads the raw
//                std::chrono::steady_clock — NOT obs::Clock — so injected
//                clock skew (kClockSkew / kDeadlineStarve faults) can
//                never starve another job's deadline.
//   Retry        non-kOk attempts walk the RetryPolicy escalation ladder
//                (retry.hpp): checkpoint-resume with enlarged budgets,
//                tolerance rescale, cross-solver fallback, capped
//                exponential backoff.
//   Determinism  every JobResult field except elapsed timings is a pure
//                function of the job: workers claim job indices from an
//                atomic counter but write results into the job's own
//                preallocated slot, jobs share no mutable solver state,
//                and per-job fault/RNG decisions derive from the job's
//                plan alone. A fixed batch yields bit-identical results
//                at any worker count.
//
// The pool is exception-proof: a job that throws (hostile input tripping
// DEF_REQUIRE, bad_alloc, ...) is caught on its worker and reported as
// that job's Status — never a crashed batch.
//
// Canonical-form routing (PR 5, docs/CACHE.md): with `canonicalize` set —
// or a SolveCache attached — every job is solved on its canonically
// relabeled board. The reported scalars (value, bracket, status) are
// label-invariant, so isomorphic jobs produce bit-identical results
// whether they were solved fresh or served from the cache, preserving the
// determinism contract with the cache on, off, or pre-warmed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "engine/job.hpp"
#include "engine/retry.hpp"
#include "obs/context.hpp"

namespace defender::engine {

/// Engine-wide configuration; plain data.
struct EngineConfig {
  /// Worker threads. 0 = one per hardware thread; the pool never spawns
  /// more workers than jobs.
  std::size_t workers = 1;
  RetryPolicy retry;
  /// Shared, thread-safe observability sinks (optional). Each job still
  /// gets its OWN ObsContext pointing at them, plus a per-job
  /// ConvergenceRecorder when collect_convergence is set — never a shared
  /// recorder.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Record per-job convergence samples (sample COUNT lands in
  /// JobResult::convergence_samples; the samples themselves stay
  /// job-local). Off by default: the null-obs solve path stays zero-cost.
  bool collect_convergence = false;
  /// Optional canonical-form solve cache, shared across workers (it is
  /// thread-safe). Attaching one implies canonical-form routing. Jobs
  /// with an ARMED fault plan never read or populate the cache, and the
  /// cache is bypassed entirely when collect_convergence is set (a hit
  /// has no samples to replay).
  cache::SolveCache* cache = nullptr;
  /// Solve every job on its canonically relabeled board even without a
  /// cache — the reference mode cache-on/off comparisons run both sides
  /// in. Implied by `cache != nullptr`.
  bool canonicalize = false;
  /// On a cache miss whose STRUCTURAL key matches a stored entry (same
  /// canonical board/weights/solver, different tolerance or budget),
  /// resume from the stored checkpoint instead of starting cold. Warm
  /// starts alter solve trajectories, so they are opt-in and resume only
  /// from a snapshot of the warm index taken when run() starts — never
  /// from entries stored mid-batch — keeping results worker-count
  /// invariant (though NOT identical to a cold cache-off run).
  bool cache_warm_start = false;
};

/// Outcome of one run(): per-job results in submission order plus batch
/// aggregates.
struct BatchReport {
  /// results[i] is jobs[i]'s outcome — submission order, regardless of
  /// completion order.
  std::vector<JobResult> results;
  /// Jobs whose final status is kOk.
  std::size_t completed = 0;
  /// Jobs that finished degraded (any non-kOk final status).
  std::size_t degraded = 0;
  /// Ladder rungs beyond first attempts, summed over jobs.
  std::size_t retries = 0;
  /// Jobs the watchdog cancelled.
  std::size_t deadline_kills = 0;
  /// Jobs whose FaultContext injected at least one fault.
  std::size_t faulted_jobs = 0;
  /// Wall-clock seconds for the whole batch (non-deterministic).
  double elapsed_seconds = 0;

  /// One JobResult::to_json() line per job, newline-terminated — the
  /// JobReport JSONL format the chaos harness uploads on an isolation
  /// failure.
  std::string to_jsonl() const;
};

/// Hooks for running one job outside a batch — the serve layer's per-job
/// entry point (src/serve/service.cpp). All pointers are optional.
struct JobRunHooks {
  /// External cancellation: the serve layer cancels through this token on
  /// a client `cancel` request or when the drain deadline expires.
  CancelToken* cancel = nullptr;
  /// Resume the FIRST attempt from this checkpoint (a drained job being
  /// restored from a "defender-drain v1" manifest). The iterations the
  /// checkpoint already consumed are charged against the first segment's
  /// budget, and ladder growth anchors on the job's ORIGINAL budget, so a
  /// resumed job walks exactly the rung trajectory — and reports the
  /// bit-identical JobResult — of an uninterrupted run. The cache is
  /// bypassed entirely while resuming.
  const core::SolverCheckpoint* resume = nullptr;
  /// When the job ends kCancelled on a clean first attempt (no fallback,
  /// no armed fault plan), its checkpoint lands here and *captured is set
  /// true — the drain path's raw material. Jobs that cannot be captured
  /// truthfully (faulted, mid-ladder, LP route) leave *captured false and
  /// must be re-run fresh instead.
  core::SolverCheckpoint* capture = nullptr;
  bool* captured = nullptr;
};

/// The pool. Construct once, run() any number of batches sequentially;
/// run() itself is synchronous and must not be called concurrently.
class SolveEngine {
 public:
  explicit SolveEngine(EngineConfig config);

  /// Runs the batch to completion and returns per-job results in
  /// submission order. Never throws on job failure.
  BatchReport run(const std::vector<SolveJob>& jobs);

  /// Runs one job on the calling thread with the engine's ladder but no
  /// watchdog — the serial reference the chaos harness compares pool
  /// results against bit-for-bit.
  JobResult run_serial(const SolveJob& job, std::size_t job_index) const;

  /// Runs one job on the calling thread with external cancel/resume/
  /// capture hooks — the serve layer's entry point. Thread-safe: may be
  /// called concurrently from any number of service workers (each job is
  /// fully isolated; the attached cache and metrics are thread-safe).
  /// Warm starts are never used on this path, so resume trajectories can
  /// never depend on what the cache held at dispatch time.
  JobResult run_one(const SolveJob& job, std::size_t job_index,
                    const JobRunHooks& hooks) const;

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
};

/// Deterministic per-job seed derivation for batch builders: mixes a batch
/// seed with the job index the same way the stress harness derives
/// per-instance fault plans, so job i's schedule never depends on worker
/// count or scheduling order.
constexpr std::uint64_t derive_job_seed(std::uint64_t batch_seed,
                                        std::size_t job_index) {
  return batch_seed ^ (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(job_index) + 1));
}

/// A job's canonical form and derived cache key — exactly what the engine
/// computes before lookup. Exposed for the CLI and the chaos/stress
/// harnesses (e.g. asserting that a faulted job's key never lands in the
/// cache).
struct CanonicalJobKey {
  cache::CanonicalForm form;
  cache::CacheKey key;
};

CanonicalJobKey canonical_key_for_job(const SolveJob& job);

}  // namespace defender::engine
