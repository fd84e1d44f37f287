// SolveEngine functional coverage: batch correctness against the direct
// solvers, the retry ladder's resume/enlarge/fallback rungs, watchdog
// kills, job validation, and the RetryPolicy / JobSolver round-trips.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/zero_sum.hpp"
#include "engine/job.hpp"
#include "engine/retry.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"

namespace defender::engine {
namespace {

core::TupleGame petersen_game() {
  return core::TupleGame(graph::petersen_graph(), 3, 1);
}

SolveJob make_job(JobSolver solver, std::size_t iterations = 400) {
  SolveJob job{petersen_game()};
  job.solver = solver;
  job.tolerance = 1e-9;
  job.budget = SolveBudget::iterations(iterations);
  if (is_weighted(solver))
    job.weights.assign(job.game.graph().num_vertices(), 1.0);
  return job;
}

TEST(SolveEngine, BatchMatchesDirectSolvers) {
  const core::TupleGame game = petersen_game();
  const double lp_value =
      core::solve_zero_sum(game, {.budget = SolveBudget::iterations(20'000)})
          .result.value;

  std::vector<SolveJob> jobs;
  for (JobSolver solver : kAllJobSolvers) {
    // The learning dynamics need a looser gap to finish in-budget.
    SolveJob job = make_job(solver, 4000);
    if (solver == JobSolver::kFictitiousPlay ||
        solver == JobSolver::kWeightedFictitiousPlay ||
        solver == JobSolver::kHedge)
      job.tolerance = 5e-2;
    jobs.push_back(std::move(job));
  }

  EngineConfig config;
  config.workers = 3;
  SolveEngine engine(config);
  const BatchReport report = engine.run(jobs);

  ASSERT_EQ(report.results.size(), kJobSolverCount);
  EXPECT_EQ(report.completed, kJobSolverCount);
  EXPECT_EQ(report.degraded, 0u);
  for (const JobResult& r : report.results) {
    EXPECT_EQ(r.status.code, StatusCode::kOk) << r.status.to_string();
    EXPECT_EQ(r.job_index, static_cast<std::size_t>(&r - &report.results[0]));
    // Unweighted solvers bracket the hit probability; the weighted ones
    // bracket the damage value, which for unit weights is its complement.
    const double truth = is_weighted(r.solver) ? 1.0 - lp_value : lp_value;
    EXPECT_LE(r.lower_bound, truth + 1e-9) << to_string(r.solver);
    EXPECT_GE(r.upper_bound, truth - 1e-9) << to_string(r.solver);
    EXPECT_GE(r.value, r.lower_bound);
    EXPECT_LE(r.value, r.upper_bound);
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.attempts[0].action, AttemptAction::kInitial);
    EXPECT_FALSE(r.fallback_used);
    EXPECT_FALSE(r.watchdog_killed);
  }
}

TEST(SolveEngine, RetryResumeReachesTheUninterruptedAnswer) {
  // One iteration per attempt exhausts immediately; the ladder resumes
  // from the checkpoint with a grown budget until the gap closes. The
  // resumed trajectory must match the unconstrained solve bit-for-bit.
  const core::TupleGame game = petersen_game();
  const auto direct = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(400)});
  ASSERT_EQ(direct.status.code, StatusCode::kOk);

  SolveJob job = make_job(JobSolver::kDoubleOracle, 1);
  EngineConfig config;
  config.retry.max_attempts = 6;
  config.retry.budget_growth = 4.0;
  SolveEngine engine(config);
  const JobResult r = engine.run_serial(job, 0);

  EXPECT_EQ(r.status.code, StatusCode::kOk) << r.status.to_string();
  ASSERT_GE(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].outcome, StatusCode::kIterationLimit);
  for (std::size_t i = 1; i < r.attempts.size(); ++i)
    EXPECT_EQ(r.attempts[i].action, AttemptAction::kResume);
  EXPECT_FALSE(r.fallback_used);
  EXPECT_EQ(r.value, direct.result.value);
  EXPECT_EQ(r.lower_bound, direct.result.lower_bound);
  EXPECT_EQ(r.upper_bound, direct.result.upper_bound);
}

TEST(SolveEngine, UnstableLpFallsBackToDoubleOracle) {
  // lp-force-unstable at rate 1 makes the direct simplex route report
  // kNumericallyUnstable; the ladder's fallback rung hands the job to the
  // double oracle, which tolerates flagged restricted LPs and closes the
  // gap anyway.
  const double lp_value =
      core::solve_zero_sum(petersen_game(),
                           {.budget = SolveBudget::iterations(20'000)})
          .result.value;

  SolveJob job = make_job(JobSolver::kZeroSumLp, 400);
  job.fault_plan.seed = 7;
  job.fault_plan.rate_of(fault::FaultSite::kLpForceUnstable) = 1.0;

  EngineConfig config;
  config.retry.max_attempts = 3;
  SolveEngine engine(config);
  const JobResult r = engine.run_serial(job, 0);

  ASSERT_GE(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].solver, JobSolver::kZeroSumLp);
  EXPECT_EQ(r.attempts[0].outcome, StatusCode::kNumericallyUnstable);
  EXPECT_EQ(r.attempts[1].action, AttemptAction::kFallback);
  EXPECT_EQ(r.attempts[1].solver, JobSolver::kDoubleOracle);
  EXPECT_TRUE(r.fallback_used);
  EXPECT_GT(r.faults_injected, 0u);
  // The envelope stays sound across the faulted attempt.
  EXPECT_LE(r.lower_bound, lp_value + 1e-9);
  EXPECT_GE(r.upper_bound, lp_value - 1e-9);
}

TEST(SolveEngine, WatchdogKillsAStalledJobAndSparesTheRest) {
  // Job 1 stalls (worker-stall at rate 1) for 3x its watchdog deadline;
  // the watchdog cancels it. Jobs 0 and 2 run fault-free next to it and
  // must come out bit-identical to serial solves.
  std::vector<SolveJob> jobs;
  jobs.push_back(make_job(JobSolver::kDoubleOracle));
  SolveJob stalled = make_job(JobSolver::kFictitiousPlay, 100'000);
  stalled.tolerance = 0;  // never converges: only the watchdog ends it
  stalled.fault_plan.seed = 11;
  stalled.fault_plan.rate_of(fault::FaultSite::kWorkerStall) = 1.0;
  stalled.watchdog_seconds = 0.15;
  jobs.push_back(std::move(stalled));
  jobs.push_back(make_job(JobSolver::kHedge, 300));
  jobs[2].tolerance = 1e-3;

  EngineConfig config;
  config.workers = 3;
  config.retry = RetryPolicy::none();
  SolveEngine engine(config);
  const BatchReport report = engine.run(jobs);

  ASSERT_EQ(report.results.size(), 3u);
  const JobResult& killed = report.results[1];
  EXPECT_TRUE(killed.watchdog_killed);
  EXPECT_EQ(killed.status.code, StatusCode::kCancelled)
      << killed.status.to_string();
  EXPECT_GE(report.deadline_kills, 1u);

  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const JobResult serial = engine.run_serial(jobs[i], i);
    EXPECT_EQ(report.results[i].status.code, serial.status.code);
    EXPECT_EQ(report.results[i].value, serial.value);
    EXPECT_EQ(report.results[i].lower_bound, serial.lower_bound);
    EXPECT_EQ(report.results[i].upper_bound, serial.upper_bound);
    EXPECT_EQ(report.results[i].iterations, serial.iterations);
  }
}

TEST(SolveEngine, MalformedJobsDegradeWithoutPoisoningTheBatch) {
  std::vector<SolveJob> jobs;
  jobs.push_back(make_job(JobSolver::kDoubleOracle));
  SolveJob bad_weights = make_job(JobSolver::kWeightedDoubleOracle);
  bad_weights.weights.resize(3);  // wrong vertex count
  jobs.push_back(std::move(bad_weights));
  SolveJob bad_hedge = make_job(JobSolver::kHedge);
  bad_hedge.budget.max_iterations = 0;  // no horizon
  jobs.push_back(std::move(bad_hedge));

  SolveEngine engine(EngineConfig{});
  const BatchReport report = engine.run(jobs);

  EXPECT_EQ(report.results[0].status.code, StatusCode::kOk);
  EXPECT_EQ(report.results[1].status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(report.results[2].status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.degraded, 2u);
  // Rejected jobs keep the a-priori bracket, never an invented one.
  EXPECT_EQ(report.results[1].lower_bound, 0.0);
  EXPECT_EQ(report.results[1].upper_bound, 1.0);
}

TEST(SolveEngine, JsonReportIsWellFormedPerLine) {
  std::vector<SolveJob> jobs;
  jobs.push_back(make_job(JobSolver::kDoubleOracle));
  jobs.push_back(make_job(JobSolver::kZeroSumLp));
  SolveEngine engine(EngineConfig{});
  const BatchReport report = engine.run(jobs);
  const std::string jsonl = report.to_jsonl();

  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"solver\":\"double-oracle\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"attempts\":["), std::string::npos);
}

TEST(RetryPolicy, SpecRoundTripsAndRejectsGarbage) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.budget_growth = 2.5;
  policy.tolerance_scale = 100.0;
  policy.allow_fallback = false;
  policy.backoff_ms = 10.0;
  policy.backoff_cap_ms = 250.0;

  const auto parsed = RetryPolicy::try_parse(policy.to_string());
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(parsed.result.max_attempts, 5u);
  EXPECT_EQ(parsed.result.budget_growth, 2.5);
  EXPECT_EQ(parsed.result.tolerance_scale, 100.0);
  EXPECT_FALSE(parsed.result.allow_fallback);
  EXPECT_EQ(parsed.result.backoff_ms, 10.0);
  EXPECT_EQ(parsed.result.backoff_cap_ms, 250.0);

  // Partial specs keep defaults for the rest.
  const auto partial = RetryPolicy::try_parse("attempts=7");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.result.max_attempts, 7u);
  EXPECT_EQ(partial.result.budget_growth, RetryPolicy{}.budget_growth);

  for (const char* bad :
       {"attempts=0", "attempts=x", "grow=0.5", "grow=nope", "scale=-1",
        "fallback=maybe", "backoff-ms=-3", "mystery=1", "attempts"}) {
    const auto r = RetryPolicy::try_parse(bad);
    EXPECT_EQ(r.status.code, StatusCode::kInvalidInput) << bad;
    EXPECT_FALSE(r.status.message.empty()) << bad;
  }
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.backoff_ms = 10;
  policy.backoff_cap_ms = 65;
  EXPECT_EQ(policy.backoff_before_attempt_ms(1), 0.0);
  EXPECT_EQ(policy.backoff_before_attempt_ms(2), 10.0);
  EXPECT_EQ(policy.backoff_before_attempt_ms(3), 20.0);
  EXPECT_EQ(policy.backoff_before_attempt_ms(4), 40.0);
  EXPECT_EQ(policy.backoff_before_attempt_ms(5), 65.0);
  EXPECT_EQ(policy.backoff_before_attempt_ms(50), 65.0);
}

TEST(JobSolver, NamesRoundTrip) {
  for (JobSolver solver : kAllJobSolvers) {
    JobSolver parsed{};
    ASSERT_TRUE(try_parse_job_solver(to_string(solver), &parsed));
    EXPECT_EQ(parsed, solver);
  }
  EXPECT_FALSE(try_parse_job_solver("quantum-annealer", nullptr));
}

TEST(DeriveJobSeed, IsIndexSensitive) {
  EXPECT_NE(derive_job_seed(42, 0), derive_job_seed(42, 1));
  EXPECT_NE(derive_job_seed(42, 0), derive_job_seed(43, 0));
  EXPECT_EQ(derive_job_seed(42, 7), derive_job_seed(42, 7));
}

}  // namespace
}  // namespace defender::engine
