// WorkerPool functional coverage: the determinism contract (process-mode
// results bit-identical to the in-process engine at any worker count),
// the run_one hook surface the serve layer consumes, and the pool's
// steady-state liveness counters (docs/SUPERVISION.md).
#include "supervise/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/cancel.hpp"
#include "core/game.hpp"
#include "core/matching_bracket.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "supervise/worker.hpp"

namespace defender::supervise {
namespace {

engine::SolveJob make_job(engine::JobSolver solver,
                          std::size_t iterations = 400,
                          double tolerance = 1e-9) {
  engine::SolveJob job{core::TupleGame(graph::petersen_graph(), 3, 1)};
  job.solver = solver;
  job.tolerance = tolerance;
  job.budget = SolveBudget::iterations(iterations);
  if (engine::is_weighted(solver))
    job.weights.assign(job.game.graph().num_vertices(), 1.0);
  return job;
}

std::vector<engine::SolveJob> mixed_batch() {
  std::vector<engine::SolveJob> jobs;
  for (engine::JobSolver solver : engine::kAllJobSolvers) {
    engine::SolveJob job = make_job(solver, 4000);
    if (solver == engine::JobSolver::kFictitiousPlay ||
        solver == engine::JobSolver::kWeightedFictitiousPlay ||
        solver == engine::JobSolver::kHedge)
      job.tolerance = 5e-2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Every deterministic JobResult field (job.hpp's contract: everything
/// except elapsed timings).
void expect_identical(const engine::JobResult& a, const engine::JobResult& b) {
  EXPECT_EQ(a.job_index, b.job_index);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.status.code, b.status.code) << a.status.to_string() << " vs "
                                          << b.status.to_string();
  EXPECT_EQ(a.status.message, b.status.message);
  EXPECT_EQ(a.status.iterations, b.status.iterations);
  EXPECT_EQ(a.status.residual, b.status.residual);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.fallback_used, b.fallback_used);
  EXPECT_EQ(a.watchdog_killed, b.watchdog_killed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    EXPECT_EQ(a.attempts[i].attempt, b.attempts[i].attempt);
    EXPECT_EQ(a.attempts[i].action, b.attempts[i].action);
    EXPECT_EQ(a.attempts[i].solver, b.attempts[i].solver);
    EXPECT_EQ(a.attempts[i].outcome, b.attempts[i].outcome);
    EXPECT_EQ(a.attempts[i].value, b.attempts[i].value);
    EXPECT_EQ(a.attempts[i].lower, b.attempts[i].lower);
    EXPECT_EQ(a.attempts[i].upper, b.attempts[i].upper);
    EXPECT_EQ(a.attempts[i].iterations, b.attempts[i].iterations);
  }
}

TEST(WorkerPool, BatchBitIdenticalToInProcessEngineAtAnyWorkerCount) {
  const std::vector<engine::SolveJob> jobs = mixed_batch();

  engine::EngineConfig serial_config;
  serial_config.workers = 1;
  engine::SolveEngine serial(serial_config);
  const engine::BatchReport truth = serial.run(jobs);

  for (const std::size_t workers : {1u, 3u}) {
    PoolConfig config;
    config.workers = workers;
    WorkerPool pool(config);
    const SupervisedReport report = pool.run(jobs);
    ASSERT_EQ(report.batch.results.size(), truth.results.size())
        << workers << " workers";
    for (std::size_t i = 0; i < truth.results.size(); ++i)
      expect_identical(report.batch.results[i], truth.results[i]);
    EXPECT_EQ(report.batch.completed, truth.completed);
    EXPECT_EQ(report.batch.degraded, truth.degraded);
    EXPECT_EQ(report.batch.retries, truth.retries);
    EXPECT_EQ(report.worker_restarts, 0u);
    EXPECT_EQ(report.quarantined_jobs, 0u);
    EXPECT_EQ(pool.worker_pids().size(), workers);
  }
}

TEST(WorkerPool, RunOneMatchesEngineRunOne) {
  const engine::SolveJob job = make_job(engine::JobSolver::kDoubleOracle);

  engine::EngineConfig engine_config;
  engine::SolveEngine eng(engine_config);
  const engine::JobResult truth =
      eng.run_one(job, 17, engine::JobRunHooks{});

  PoolConfig config;
  config.workers = 2;
  WorkerPool pool(config);
  const engine::JobResult got =
      pool.run_one(job, 17, engine::JobRunHooks{});
  expect_identical(got, truth);
}

TEST(WorkerPool, ClosedBoardAnswersInClosedFormInTheWorker) {
  // Petersen k3 closes on its perfect matching and C7 k2 on the
  // half-integral windows; the worker's private engine takes the same
  // route as the in-process one.
  PoolConfig config;
  config.workers = 1;
  WorkerPool pool(config);
  for (const core::TupleGame& game :
       {core::TupleGame(graph::petersen_graph(), 3, 1),
        core::TupleGame(graph::cycle_graph(7), 2, 1)}) {
    engine::SolveJob job = make_job(engine::JobSolver::kDoubleOracle);
    job.game = game;
    ASSERT_TRUE(core::matching_bracket(job.game).closed);

    engine::SolveEngine eng(engine::EngineConfig{});
    const engine::JobResult truth =
        eng.run_one(job, 3, engine::JobRunHooks{});

    const engine::JobResult got =
        pool.run_one(job, 3, engine::JobRunHooks{});
    EXPECT_EQ(got.status.code, StatusCode::kOk) << got.status.to_string();
    ASSERT_EQ(got.attempts.size(), 1u);
    EXPECT_EQ(got.iterations, 0u);
    EXPECT_EQ(got.lower_bound, got.value);
    EXPECT_EQ(got.upper_bound, got.value);
    expect_identical(got, truth);
  }
}

TEST(WorkerPool, RunOnePropagatesExternalCancel) {
  // A token cancelled before dispatch: the supervisor forwards the cancel
  // frame and the worker's first segment yields kCancelled truthfully.
  engine::SolveJob job = make_job(engine::JobSolver::kFictitiousPlay,
                                  2'000'000, 0.0);

  PoolConfig config;
  config.workers = 1;
  WorkerPool pool(config);

  CancelToken cancel;
  cancel.request_cancel();
  engine::JobRunHooks hooks;
  hooks.cancel = &cancel;
  const engine::JobResult result = pool.run_one(job, 0, hooks);
  EXPECT_EQ(result.status.code, StatusCode::kCancelled)
      << result.status.to_string();
}

TEST(WorkerPool, WatchdogKillsThroughTheCancelFrame) {
  engine::SolveJob job = make_job(engine::JobSolver::kFictitiousPlay,
                                  200'000'000, 0.0);
  job.watchdog_seconds = 0.2;

  PoolConfig config;
  config.workers = 1;
  WorkerPool pool(config);
  const SupervisedReport report = pool.run({job});
  ASSERT_EQ(report.batch.results.size(), 1u);
  const engine::JobResult& r = report.batch.results[0];
  EXPECT_EQ(r.status.code, StatusCode::kCancelled) << r.status.to_string();
  EXPECT_TRUE(r.watchdog_killed);
  EXPECT_EQ(report.batch.deadline_kills, 1u);
  // The worker survived the cancel — no restart was needed.
  EXPECT_EQ(report.worker_restarts, 0u);
}

TEST(WorkerPool, PublishesMetrics) {
  obs::MetricsRegistry metrics;
  PoolConfig config;
  config.workers = 2;
  config.metrics = &metrics;
  WorkerPool pool(config);
  pool.run({make_job(engine::JobSolver::kDoubleOracle)});
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("supervise.workers_alive"), std::string::npos) << json;
}

TEST(WorkerPool, SanitizesZeroWorkerConfig) {
  PoolConfig config;
  config.workers = 0;
  WorkerPool pool(config);
  EXPECT_GE(pool.config().workers, 1u);
  const SupervisedReport report =
      pool.run({make_job(engine::JobSolver::kZeroSumLp)});
  ASSERT_EQ(report.batch.results.size(), 1u);
  EXPECT_TRUE(report.batch.results[0].ok());
}

}  // namespace
}  // namespace defender::supervise
