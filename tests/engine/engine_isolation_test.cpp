// Per-job fault isolation: with one job deadline-starved under the
// watchdog and one job fault-garbled at rate 1, every other job in the
// batch must come out bit-equal to a serial solve of the same job, report
// a truthful status, and keep a bracket containing its fault-free LP
// value. A fault or kill degrades exactly one JobResult — never the batch.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/budget.hpp"
#include "core/game.hpp"
#include "core/zero_sum.hpp"
#include "engine/job.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"

namespace defender::engine {
namespace {

constexpr std::size_t kStalledJob = 3;
constexpr std::size_t kGarbledJob = 6;

std::vector<SolveJob> build_batch() {
  std::vector<SolveJob> jobs;
  for (std::size_t i = 0; i < 10; ++i) {
    SolveJob job{i % 2 == 0
                     ? core::TupleGame(graph::petersen_graph(), 2, 1)
                     : core::TupleGame(graph::grid_graph(3, 3), 2, 1)};
    job.solver = kAllJobSolvers[i % kJobSolverCount];
    job.budget = SolveBudget::iterations(80);
    job.tolerance =
        (job.solver == JobSolver::kFictitiousPlay ||
         job.solver == JobSolver::kWeightedFictitiousPlay ||
         job.solver == JobSolver::kHedge)
            ? 1e-2
            : 1e-9;
    if (is_weighted(job.solver))
      job.weights.assign(job.game.graph().num_vertices(), 1.0);
    jobs.push_back(std::move(job));
  }

  // Job 3: deadline-starved. The worker stalls for 3x the watchdog
  // deadline before ever reaching the solver; only the watchdog ends it.
  jobs[kStalledJob].fault_plan.seed = 101;
  jobs[kStalledJob].fault_plan.rate_of(fault::FaultSite::kWorkerStall) = 1.0;
  jobs[kStalledJob].watchdog_seconds = 0.12;
  jobs[kStalledJob].budget = SolveBudget::iterations(1'000'000);
  jobs[kStalledJob].tolerance = 0;

  // Job 6: fault-garbled. Every oracle result perturbed, every LP pivot
  // nudged, every mass vector dented — the solvers' guards must still keep
  // its bracket sound.
  jobs[kGarbledJob].fault_plan.seed = 202;
  jobs[kGarbledJob].fault_plan.rate_of(fault::FaultSite::kOracleGarble) = 1.0;
  jobs[kGarbledJob].fault_plan.rate_of(fault::FaultSite::kMassPerturb) = 1.0;
  jobs[kGarbledJob].fault_plan.rate_of(fault::FaultSite::kLpPivotPerturb) =
      1.0;
  return jobs;
}

TEST(EngineIsolation, OneStarvedAndOneGarbledJobDegradeAlone) {
  const std::vector<SolveJob> jobs = build_batch();
  EngineConfig config;
  config.workers = 4;
  SolveEngine engine(config);
  const BatchReport report = engine.run(jobs);
  ASSERT_EQ(report.results.size(), jobs.size());

  // The starved job: killed by the watchdog, truthfully reported.
  const JobResult& starved = report.results[kStalledJob];
  EXPECT_TRUE(starved.watchdog_killed);
  EXPECT_EQ(starved.status.code, StatusCode::kCancelled)
      << starved.status.to_string();
  EXPECT_GE(report.deadline_kills, 1u);

  // The garbled job: whatever its status, its bracket must still contain
  // the fault-free LP value — the guards never let a fault fabricate a
  // certificate.
  const JobResult& garbled = report.results[kGarbledJob];
  EXPECT_GT(garbled.faults_injected, 0u);
  const double garbled_truth =
      core::solve_zero_sum(jobs[kGarbledJob].game,
                           {.budget = SolveBudget::iterations(20'000)})
          .result.value;
  EXPECT_LE(garbled.lower_bound, garbled_truth + 1e-9)
      << garbled.status.to_string();
  EXPECT_GE(garbled.upper_bound, garbled_truth - 1e-9)
      << garbled.status.to_string();

  // Everyone else: bit-equal to a serial solve, truthful status, bracket
  // containing the fault-free LP value.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == kStalledJob || i == kGarbledJob) continue;
    const JobResult& r = report.results[i];
    const JobResult serial = engine.run_serial(jobs[i], i);
    EXPECT_EQ(r.status.code, serial.status.code) << "job " << i;
    EXPECT_EQ(r.status.message, serial.status.message) << "job " << i;
    EXPECT_EQ(r.value, serial.value) << "job " << i;
    EXPECT_EQ(r.lower_bound, serial.lower_bound) << "job " << i;
    EXPECT_EQ(r.upper_bound, serial.upper_bound) << "job " << i;
    EXPECT_EQ(r.iterations, serial.iterations) << "job " << i;
    EXPECT_EQ(r.faults_injected, 0u) << "job " << i;
    EXPECT_FALSE(r.watchdog_killed) << "job " << i;

    const double lp =
        core::solve_zero_sum(jobs[i].game,
                             {.budget = SolveBudget::iterations(20'000)})
            .result.value;
    // Weighted solvers bracket the damage value — for unit weights, the
    // complement of the hit probability the LP computes.
    const double truth = is_weighted(jobs[i].solver) ? 1.0 - lp : lp;
    EXPECT_LE(r.lower_bound, truth + 1e-9) << "job " << i;
    EXPECT_GE(r.upper_bound, truth - 1e-9) << "job " << i;
  }
}

TEST(EngineIsolation, RepeatedBatchesAreStableAcrossRuns) {
  // Running the same batch twice through the same engine must agree on
  // every non-elapsed field — pool state never leaks between runs.
  const std::vector<SolveJob> jobs = build_batch();
  EngineConfig config;
  config.workers = 4;
  SolveEngine engine(config);
  const BatchReport first = engine.run(jobs);
  const BatchReport second = engine.run(jobs);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == kStalledJob) continue;  // watchdog kill timing is wall-clock
    EXPECT_EQ(first.results[i].status.code, second.results[i].status.code);
    EXPECT_EQ(first.results[i].value, second.results[i].value);
    EXPECT_EQ(first.results[i].lower_bound, second.results[i].lower_bound);
    EXPECT_EQ(first.results[i].upper_bound, second.results[i].upper_bound);
  }
}

}  // namespace
}  // namespace defender::engine
