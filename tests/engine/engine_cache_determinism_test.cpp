// The cache must be INVISIBLE in results: a fixed-seed 200-job batch —
// mixed solvers, mixed boards, a third of the jobs under armed fault
// plans — produces bit-identical JobResults with the cache disabled
// (canonical-form routing only), enabled cold, and pre-warmed, at 1, 4,
// and 16 workers (docs/CACHE.md).
//
// Also pinned here: armed-fault jobs never populate the cache, and
// opt-in warm starts resume from a structural twin's checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "core/budget.hpp"
#include "core/game.hpp"
#include "core/matching_bracket.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace defender::engine {
namespace {

constexpr std::uint64_t kBatchSeed = 0xCAC4Eu;
constexpr std::size_t kJobs = 200;

graph::Graph board_for(std::size_t i) {
  switch (i % 5) {
    case 0: return graph::cycle_graph(6 + i % 5);
    case 1: return graph::path_graph(6 + i % 4);
    case 2: return graph::grid_graph(3, 3);
    case 3: return graph::wheel_graph(5 + i % 4);
    default: return graph::complete_bipartite(3, 3 + i % 3);
  }
}

// Same shape as the engine determinism batch: every solver in rotation,
// weighted jobs with seed-derived weights, a third of the jobs faulted.
// The i % 5 board rotation repeats isomorphic boards, so a cold cache
// gets real intra-batch hits.
std::vector<SolveJob> build_batch() {
  std::vector<SolveJob> jobs;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const std::uint64_t seed = derive_job_seed(kBatchSeed, i);
    SolveJob job{core::TupleGame(board_for(i), 2, 1)};
    job.solver = kAllJobSolvers[i % kJobSolverCount];
    job.budget = SolveBudget::iterations(60);
    job.tolerance =
        (job.solver == JobSolver::kDoubleOracle ||
         job.solver == JobSolver::kWeightedDoubleOracle ||
         job.solver == JobSolver::kZeroSumLp)
            ? 1e-9
            : 1e-2;
    if (is_weighted(job.solver)) {
      const std::size_t n = job.game.graph().num_vertices();
      for (std::size_t v = 0; v < n; ++v)
        job.weights.push_back(1.0 +
                              static_cast<double>((seed >> (v % 48)) & 7) / 8.0);
    }
    if (i % 3 == 0) {
      job.fault_plan.seed = seed;
      job.fault_plan.set_all(0.05);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_identical(const JobResult& a, const JobResult& b,
                      const char* mode, std::size_t workers) {
  EXPECT_EQ(a.status.code, b.status.code)
      << "job " << a.job_index << " [" << mode << " @" << workers << "]";
  EXPECT_EQ(a.status.message, b.status.message) << "job " << a.job_index;
  EXPECT_EQ(a.status.iterations, b.status.iterations) << "job " << a.job_index;
  EXPECT_EQ(a.status.residual, b.status.residual) << "job " << a.job_index;
  EXPECT_EQ(a.value, b.value)
      << "job " << a.job_index << " [" << mode << " @" << workers << "]";
  EXPECT_EQ(a.lower_bound, b.lower_bound) << "job " << a.job_index;
  EXPECT_EQ(a.upper_bound, b.upper_bound) << "job " << a.job_index;
  EXPECT_EQ(a.iterations, b.iterations) << "job " << a.job_index;
  EXPECT_EQ(a.fallback_used, b.fallback_used) << "job " << a.job_index;
  EXPECT_EQ(a.watchdog_killed, b.watchdog_killed) << "job " << a.job_index;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << "job " << a.job_index;
  EXPECT_EQ(a.convergence_samples, b.convergence_samples)
      << "job " << a.job_index;
}

TEST(EngineCacheDeterminism, CacheOnOffAndPrewarmedAreBitIdentical) {
  const std::vector<SolveJob> jobs = build_batch();

  // Reference: canonical-form routing with NO cache, one worker.
  EngineConfig reference_config;
  reference_config.workers = 1;
  reference_config.canonicalize = true;
  const BatchReport reference = SolveEngine(reference_config).run(jobs);
  ASSERT_EQ(reference.results.size(), kJobs);
  EXPECT_GT(reference.faulted_jobs, 0u);
  EXPECT_GT(reference.completed, kJobs / 2);

  // A warmed cache, populated by one full pass.
  cache::SolveCache warmed;
  {
    EngineConfig warm_config;
    warm_config.workers = 4;
    warm_config.cache = &warmed;
    SolveEngine(warm_config).run(jobs);
    ASSERT_GT(warmed.size(), 0u);
  }

  for (std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    // Cold cache: the batch populates and hits it mid-flight.
    cache::SolveCache cold;
    EngineConfig cold_config;
    cold_config.workers = workers;
    cold_config.cache = &cold;
    const BatchReport with_cold = SolveEngine(cold_config).run(jobs);
    ASSERT_EQ(with_cold.results.size(), kJobs);
    EXPECT_GT(cold.stats().hits, 0u) << "board rotation should dedup";

    // Pre-warmed cache: most eligible jobs are pure hits.
    EngineConfig warm_config;
    warm_config.workers = workers;
    warm_config.cache = &warmed;
    const BatchReport with_warm = SolveEngine(warm_config).run(jobs);
    ASSERT_EQ(with_warm.results.size(), kJobs);

    for (std::size_t i = 0; i < kJobs; ++i) {
      expect_identical(reference.results[i], with_cold.results[i], "cold",
                       workers);
      expect_identical(reference.results[i], with_warm.results[i], "warm",
                       workers);
    }
    EXPECT_EQ(with_cold.completed, reference.completed);
    EXPECT_EQ(with_cold.degraded, reference.degraded);
    EXPECT_EQ(with_warm.completed, reference.completed);
    EXPECT_EQ(with_warm.degraded, reference.degraded);
  }
}

TEST(EngineCacheDeterminism, ArmedFaultJobsNeverPopulateTheCache) {
  cache::SolveCache cache;
  EngineConfig config;
  config.workers = 4;
  config.cache = &cache;
  SolveEngine engine(config);

  std::vector<SolveJob> jobs;
  for (std::size_t i = 0; i < 24; ++i) {
    SolveJob job{core::TupleGame(board_for(i), 2, 1)};
    job.solver = JobSolver::kDoubleOracle;
    job.budget = SolveBudget::iterations(60);
    job.fault_plan.seed = derive_job_seed(kBatchSeed, i);
    job.fault_plan.set_all(0.1);  // armed, whether or not anything fires
    jobs.push_back(std::move(job));
  }
  engine.run(jobs);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stores, 0u);
  // And the keys these jobs would use all miss.
  for (const SolveJob& job : jobs) {
    const CanonicalJobKey key = canonical_key_for_job(job);
    EXPECT_FALSE(cache.lookup(key.key).has_value());
  }
}

TEST(EngineCacheDeterminism, WarmStartResumesFromStructuralTwin) {
  const graph::Graph g = graph::cycle_graph(9);
  // C9 k4 is open under the matching bracket, so both passes run DO.
  ASSERT_FALSE(core::matching_bracket(core::TupleGame(g, 4, 1)).closed);

  // Pass 1: a loose-tolerance solve populates the cache (with checkpoint).
  cache::SolveCache cache;
  {
    EngineConfig config;
    config.cache = &cache;
    SolveJob loose{core::TupleGame(g, 4, 1)};
    loose.solver = JobSolver::kDoubleOracle;
    loose.tolerance = 1e-2;
    loose.budget = SolveBudget::iterations(200);
    const BatchReport report = SolveEngine(config).run({loose});
    ASSERT_TRUE(report.results.at(0).ok());
    ASSERT_EQ(cache.stats().stores, 1u);
  }

  // Pass 2: a tight-tolerance solve of the same structure misses the
  // exact key but resumes from the loose solve's checkpoint.
  obs::MetricsRegistry metrics;
  EngineConfig config;
  config.cache = &cache;
  config.cache_warm_start = true;
  config.metrics = &metrics;
  SolveJob tight{core::TupleGame(g, 4, 1)};
  tight.solver = JobSolver::kDoubleOracle;
  tight.tolerance = 1e-9;
  tight.budget = SolveBudget::iterations(200);
  const BatchReport report = SolveEngine(config).run({tight});
  ASSERT_TRUE(report.results.at(0).ok());
  // (cache.stats().warm_hits stays 0 here: the engine resumes from its
  // batch-start warm SNAPSHOT, not from warm_checkpoint() probes.)
  EXPECT_EQ(metrics.counter("cache.warm_starts").value(), 1u);

  // The warm-started answer matches a cold canonical solve to tolerance.
  EngineConfig cold_config;
  cold_config.canonicalize = true;
  const BatchReport cold = SolveEngine(cold_config).run({tight});
  ASSERT_TRUE(cold.results.at(0).ok());
  EXPECT_NEAR(report.results.at(0).value, cold.results.at(0).value, 1e-9);

  // Warm-resumed results are never stored back (they are not
  // cold-trajectory reproducible), so the cache still has one entry.
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(EngineCacheDeterminism, ClosedBoardHitsWithoutCheckpoint) {
  // Grid 3×3 is bipartite and C7 k2 fits the half-integral windows, so the
  // matching bracket closes and the solve never searches. Its entry
  // carries both mixes but no checkpoint, so a warm start never resumes
  // from it, and the hit replays the closed-form answer: one kOk attempt
  // with 0 iterations.
  for (const core::TupleGame& game :
       {core::TupleGame(graph::grid_graph(3, 3), 2, 1),
        core::TupleGame(graph::cycle_graph(7), 2, 1)}) {
    SolveJob job{game};
    ASSERT_TRUE(core::matching_bracket(job.game).closed);
    job.solver = JobSolver::kDoubleOracle;
    job.budget = SolveBudget::iterations(200);
    cache::SolveCache cache;
    EngineConfig config;
    config.cache = &cache;
    const BatchReport cold = SolveEngine(config).run({job});
    const BatchReport hit = SolveEngine(config).run({job});
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    for (const BatchReport* report : {&cold, &hit}) {
      const JobResult& r = report->results.at(0);
      EXPECT_EQ(r.status.code, StatusCode::kOk) << r.status.to_string();
      ASSERT_EQ(r.attempts.size(), 1u);
      EXPECT_EQ(r.iterations, 0u);
      EXPECT_EQ(r.lower_bound, r.value);
      EXPECT_EQ(r.upper_bound, r.value);
    }
    EXPECT_EQ(hit.results.at(0).to_json(), cold.results.at(0).to_json());

    const CanonicalJobKey key = canonical_key_for_job(job);
    const std::optional<cache::CachedSolve> entry = cache.lookup(key.key);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(entry->has_profiles);
    EXPECT_TRUE(entry->checkpoint_text.empty());
    EXPECT_FALSE(cache.warm_checkpoint(key.key).has_value());
  }
}

TEST(EngineCacheDeterminism, ConvergenceCollectionBypassesTheCache) {
  cache::SolveCache cache;
  EngineConfig config;
  config.cache = &cache;
  config.collect_convergence = true;
  SolveJob job{core::TupleGame(graph::cycle_graph(7), 3, 1)};
  // C7 k3 is open under the matching bracket, so the job runs DO.
  ASSERT_FALSE(core::matching_bracket(job.game).closed);
  job.solver = JobSolver::kDoubleOracle;
  job.budget = SolveBudget::iterations(60);
  const BatchReport report = SolveEngine(config).run({job});
  ASSERT_TRUE(report.results.at(0).ok());
  EXPECT_GT(report.results.at(0).convergence_samples, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace defender::engine
