// Supervised subprocess worker pool: process-level job isolation.
//
// PR-4 isolation is thread-level — exceptions are caught per worker, but
// a segfault, std::terminate, or OOM kill inside any solver takes down
// the whole SolveEngine batch. WorkerPool closes that hole: a supervisor
// thread forks N long-lived worker processes (re-exec'ing the host
// binary through worker_trampoline, worker.hpp) and drives the batch
// over pipes framed with the PR-8 checksummed envelope (wire.hpp), so a
// torn or garbled frame is detected, never trusted.
//
// The supervisor distinguishes three worker fates (docs/SUPERVISION.md):
//   crash     EOF on the result pipe + waitpid status — the in-flight
//             job is attributed one kill and re-dispatched (resuming
//             from the worker's last streamed checkpoint when one
//             arrived), and the worker restarts under capped
//             exponential backoff;
//   hang      heartbeat deadline missed — SIGTERM, then SIGKILL after a
//             grace period; treated as a crash once dead;
//   clean     a checksummed "supervise-result" frame.
//
// A job whose worker dies `max_job_crashes` times is quarantined with a
// truthful terminal StatusCode::kWorkerCrashed result (a-priori bracket,
// empty attempt history) instead of crash-looping the pool.
//
// Determinism contract: for jobs whose workers are never killed, run()
// results are bit-identical to SolveEngine::run / run_serial at any
// worker count — workers reconstruct each job from its frame with
// bit-exact doubles and solve with the same ladder, and recovery resumes lean on
// the PR-6 "resumed result == uninterrupted result" contract. Crash/kill
// counters live in SupervisedReport, never inside a JobResult.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace defender::supervise {

/// Pool configuration; plain data.
struct PoolConfig {
  /// Worker processes to keep alive (>= 1).
  std::size_t workers = 1;
  /// Engine configuration forwarded to the workers: retry ladder,
  /// collect_convergence, and canonicalize shape results and travel in
  /// every job frame. The cache, tracer, and metrics fields are NOT
  /// forwarded — workers are observability-null and cache-less; shared
  /// sinks live in this process only.
  engine::EngineConfig engine;
  /// Interval between worker heartbeats.
  double heartbeat_interval_seconds = 0.05;
  /// Silence longer than this marks the worker hung and starts the
  /// SIGTERM escalation. Generous by default: sanitizer builds and
  /// loaded single-core CI machines schedule aux threads late.
  double heartbeat_timeout_seconds = 5.0;
  /// Grace between SIGTERM and SIGKILL for a hung worker.
  double term_grace_seconds = 1.0;
  /// Seconds between checkpoint-stream ticks inside a worker; a killed
  /// worker's job resumes from its last streamed checkpoint. 0 disables
  /// streaming (every re-dispatch restarts from scratch).
  double stream_interval_seconds = 0.25;
  /// Worker deaths attributed to one job before it is quarantined with
  /// kWorkerCrashed ("a job that kills its worker twice is poison").
  std::size_t max_job_crashes = 2;
  /// Capped exponential backoff before restarting a dead worker.
  double restart_backoff_ms = 10;
  double restart_backoff_cap_ms = 2000;
  /// Optional metrics sink: gauge supervise.workers_alive, counters
  /// supervise.restarts / supervise.quarantined_jobs /
  /// supervise.heartbeat_misses.
  obs::MetricsRegistry* metrics = nullptr;
};

/// run() outcome: the engine-shaped batch report plus supervision
/// counters. Counters live HERE and not in JobResult so process-mode
/// results stay bit-comparable with in-process ones.
struct SupervisedReport {
  engine::BatchReport batch;
  /// Worker processes restarted after a death (crash or hang kill).
  std::size_t worker_restarts = 0;
  /// Jobs terminated with kWorkerCrashed.
  std::size_t quarantined_jobs = 0;
  /// Heartbeat deadlines missed (SIGTERM escalations started).
  std::size_t heartbeat_misses = 0;
  /// Mid-solve checkpoints streamed by workers.
  std::size_t checkpoints_streamed = 0;
  /// Re-dispatches that resumed from a streamed checkpoint.
  std::size_t resumed_dispatches = 0;
};

/// The pool. Construction spawns the workers and the supervisor thread;
/// destruction drains them (EOF on the job pipes, SIGKILL stragglers).
/// run() must not be called concurrently with itself; run_one() is
/// thread-safe and may be called from any number of threads (the serve
/// layer's per-request entry point).
class WorkerPool {
 public:
  explicit WorkerPool(PoolConfig config);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs the batch to completion. Never throws on job failure, worker
  /// death, or quarantine — every job gets a truthful JobResult.
  SupervisedReport run(const std::vector<engine::SolveJob>& jobs);

  /// Runs one job through the pool with external cancel/resume/capture
  /// hooks — the process-mode twin of SolveEngine::run_one. hooks.cancel
  /// is polled by the supervisor and forwarded as a cancel frame;
  /// hooks.resume rides in the job frame; a checkpoint captured on a
  /// clean cancelled exit lands in hooks.capture/captured.
  engine::JobResult run_one(const engine::SolveJob& job,
                            std::size_t job_index,
                            const engine::JobRunHooks& hooks);

  /// PIDs of the currently-alive workers — the chaos harness's SIGKILL
  /// targets.
  std::vector<pid_t> worker_pids() const;

  /// Lifetime counters (same meanings as SupervisedReport).
  std::size_t worker_restarts() const;
  std::size_t quarantined_jobs() const;
  std::size_t heartbeat_misses() const;
  std::size_t checkpoints_streamed() const;

  const PoolConfig& config() const { return config_; }

 private:
  struct Impl;
  PoolConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace defender::supervise
