// Experiment E21 (extension) — resilient batch engine: determinism,
// throughput, isolation.
//
// Claim: a fixed-seed batch of independent solve jobs run through the
// SolveEngine pool (docs/ENGINE.md) yields bit-identical JobResults at
// every worker count (1, 4, 8) while the pool's wall-clock time drops
// with added workers; and a batch containing one deadline-starved job and
// one fault-garbled job degrades ONLY those jobs — every other job's
// result is bit-equal to its serial solve, and every certified bracket
// (including the garbled job's) contains the fault-free LP value.
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/budget.hpp"
#include "core/zero_sum.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/retry.hpp"
#include "fault/fault.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/worker.hpp"
#include "util/table.hpp"

namespace {

using namespace defender;

constexpr std::uint64_t kBatchSeed = 0xE21u;
constexpr std::size_t kThroughputJobs = 64;

/// Deterministic mixed batch: boards, solvers, and fault plans cycle with
/// the job index only, never with scheduling order.
std::vector<engine::SolveJob> build_throughput_batch() {
  std::vector<engine::SolveJob> jobs;
  jobs.reserve(kThroughputJobs);
  for (std::size_t i = 0; i < kThroughputJobs; ++i) {
    graph::Graph g;
    switch (i % 5) {
      case 0: g = graph::petersen_graph(); break;
      case 1: g = graph::grid_graph(3, 3); break;
      case 2: g = graph::cycle_graph(10); break;
      case 3: g = graph::wheel_graph(6); break;
      default: g = graph::complete_bipartite(3, 4); break;
    }
    engine::SolveJob job(core::TupleGame(g, 3, 1));
    job.solver = engine::kAllJobSolvers[i % engine::kJobSolverCount];
    job.tolerance = (job.solver == engine::JobSolver::kFictitiousPlay ||
                     job.solver == engine::JobSolver::kWeightedFictitiousPlay ||
                     job.solver == engine::JobSolver::kHedge)
                        ? 1e-2
                        : 1e-9;
    job.budget = SolveBudget::iterations(400);
    if (engine::is_weighted(job.solver))
      job.weights.assign(job.game.graph().num_vertices(), 1.0);
    if (i % 3 == 0) {
      // A third of the batch solves under an armed fault schedule, so the
      // throughput rows also measure the guarded (repairing) path. The
      // clock-skew sites stay unarmed: they poison the shared obs::Clock
      // this bench reads for its wall-time rows.
      job.fault_plan.seed = engine::derive_job_seed(kBatchSeed, i);
      job.fault_plan.set_all(0.05);
      job.fault_plan.rate_of(fault::FaultSite::kClockSkew) = 0;
      job.fault_plan.rate_of(fault::FaultSite::kDeadlineStarve) = 0;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Bit-equality on the deterministic JobResult fields (everything except
/// wall-clock timings).
bool results_identical(const engine::JobResult& a,
                       const engine::JobResult& b) {
  if (a.status.code != b.status.code || a.status.message != b.status.message)
    return false;
  if (a.value != b.value || a.lower_bound != b.lower_bound ||
      a.upper_bound != b.upper_bound)
    return false;
  if (a.iterations != b.iterations || a.fallback_used != b.fallback_used ||
      a.faults_injected != b.faults_injected)
    return false;
  if (a.attempts.size() != b.attempts.size()) return false;
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    const engine::AttemptRecord& x = a.attempts[i];
    const engine::AttemptRecord& y = b.attempts[i];
    if (x.action != y.action || x.solver != y.solver ||
        x.outcome != y.outcome || x.value != y.value || x.lower != y.lower ||
        x.upper != y.upper || x.iterations != y.iterations)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // This binary hosts subprocess pool workers for the isolation-overhead
  // rows (the supervisor re-execs it); no-op unless exec'd as a worker.
  defender::supervise::worker_trampoline(argc, argv);
  bench::banner("E21 — batch engine: worker-count-invariant results, "
                "throughput, per-job isolation",
                "a fixed-seed batch is bit-identical at 1/4/8 workers; a "
                "deadline-starved job and a fault-garbled job degrade only "
                "themselves while every bracket stays sound");

  bool all_ok = true;

  // --- Determinism + throughput: the same batch at 1, 4, and 8 workers.
  const std::vector<engine::SolveJob> jobs = build_throughput_batch();
  util::Table table({"workers", "wall ms", "jobs/s", "ok", "degraded",
                     "retries", "identical to w=1"});
  std::vector<engine::JobResult> reference;
  const graph::Graph ref_board = graph::petersen_graph();
  for (const std::size_t workers : {1u, 4u, 8u}) {
    const auto t0 = bench::case_clock();
    engine::EngineConfig config;
    config.workers = workers;
    config.retry.max_attempts = 3;
    engine::SolveEngine pool(config);
    const engine::BatchReport report = pool.run(jobs);
    const double wall_s = obs::Clock::seconds_since(t0);

    bool identical = true;
    if (workers == 1) {
      reference = report.results;
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i)
        identical =
            identical && results_identical(reference[i], report.results[i]);
    }
    all_ok = all_ok && identical &&
             report.results.size() == jobs.size() &&
             report.completed + report.degraded == jobs.size();

    table.add(std::to_string(workers), util::fixed(wall_s * 1e3, 1),
              util::fixed(jobs.size() / wall_s, 1),
              std::to_string(report.completed),
              std::to_string(report.degraded),
              std::to_string(report.retries), identical ? "yes" : "NO");
    bench::case_line("E21", "throughput w=" + std::to_string(workers),
                     ref_board, 2, t0)
        .num("workers", static_cast<std::uint64_t>(workers))
        .num("jobs", static_cast<std::uint64_t>(jobs.size()))
        .num("jobs_per_s", jobs.size() / wall_s)
        .num("completed", static_cast<std::uint64_t>(report.completed))
        .num("degraded", static_cast<std::uint64_t>(report.degraded))
        .num("retries", static_cast<std::uint64_t>(report.retries))
        .num("faulted_jobs", static_cast<std::uint64_t>(report.faulted_jobs))
        .boolean("identical", identical)
        .emit();
  }
  table.print(std::cout);

  // --- Isolation: one starved job, one garbled job, eight bystanders.
  const auto t0 = bench::case_clock();
  std::vector<engine::SolveJob> iso;
  for (std::size_t i = 0; i < 10; ++i) {
    graph::Graph g =
        (i % 2 == 0) ? graph::petersen_graph() : graph::grid_graph(3, 3);
    engine::SolveJob job(core::TupleGame(g, 2, 1));
    job.solver = engine::kAllJobSolvers[i % engine::kJobSolverCount];
    job.tolerance = 1e-2;
    job.budget = SolveBudget::iterations(80);
    if (engine::is_weighted(job.solver))
      job.weights.assign(job.game.graph().num_vertices(), 1.0);
    iso.push_back(std::move(job));
  }
  constexpr std::size_t kStalled = 3, kGarbled = 6;
  iso[kStalled].fault_plan.seed = 101;
  iso[kStalled].fault_plan.rate_of(fault::FaultSite::kWorkerStall) = 1.0;
  iso[kStalled].watchdog_seconds = 0.12;
  iso[kStalled].budget = SolveBudget::iterations(1'000'000);
  iso[kStalled].tolerance = 0;
  iso[kGarbled].fault_plan.seed = 202;
  iso[kGarbled].fault_plan.rate_of(fault::FaultSite::kOracleGarble) = 1.0;
  iso[kGarbled].fault_plan.rate_of(fault::FaultSite::kMassPerturb) = 1.0;
  iso[kGarbled].fault_plan.rate_of(fault::FaultSite::kLpPivotPerturb) = 1.0;

  engine::EngineConfig iso_config;
  iso_config.workers = 4;
  engine::SolveEngine iso_pool(iso_config);
  const engine::BatchReport iso_report = iso_pool.run(iso);

  const bool starved_truthful =
      iso_report.results[kStalled].watchdog_killed &&
      iso_report.results[kStalled].status.code == StatusCode::kCancelled;
  bool bystanders_clean = true;
  bool brackets_sound = true;
  for (std::size_t i = 0; i < iso.size(); ++i) {
    const engine::JobResult& r = iso_report.results[i];
    if (i != kStalled) {
      const double lp =
          core::solve_zero_sum(iso[i].game,
                               {.budget = SolveBudget::iterations(20'000)})
              .result.value;
      const double truth =
          engine::is_weighted(iso[i].solver) ? 1.0 - lp : lp;
      brackets_sound = brackets_sound && r.lower_bound <= truth + 1e-9 &&
                       r.upper_bound >= truth - 1e-9;
    }
    if (i == kStalled || i == kGarbled) continue;
    bystanders_clean =
        bystanders_clean &&
        results_identical(r, iso_pool.run_serial(iso[i], i));
  }
  all_ok = all_ok && starved_truthful && bystanders_clean && brackets_sound;
  std::cout << "\nisolation: starved job truthful="
            << (starved_truthful ? "yes" : "NO") << ", bystanders bit-equal "
            << "serial=" << (bystanders_clean ? "yes" : "NO")
            << ", brackets sound=" << (brackets_sound ? "yes" : "NO") << '\n';
  bench::case_line("E21", "isolation", ref_board, 2, t0)
      .boolean("starved_truthful", starved_truthful)
      .boolean("bystanders_bit_equal", bystanders_clean)
      .boolean("brackets_sound", brackets_sound)
      .num("deadline_kills",
           static_cast<std::uint64_t>(iso_report.deadline_kills))
      .num("faulted_jobs",
           static_cast<std::uint64_t>(iso_report.faulted_jobs))
      .emit();

  // --- Process isolation overhead (docs/SUPERVISION.md): the same
  // 64-job batch through the in-process pool and the supervised
  // subprocess pool at the same worker count. Fault plans are stripped so
  // the pair measures pure isolation cost (fork/exec amortized over the
  // pool's lifetime, job/result framing, heartbeat traffic) rather than
  // injected chaos, and the determinism contract is asserted on the side:
  // process-mode results must be bit-identical to in-process ones.
  std::vector<engine::SolveJob> clean_jobs = build_throughput_batch();
  for (engine::SolveJob& job : clean_jobs) job.fault_plan = fault::FaultPlan{};
  constexpr std::size_t kIsoWorkers = 4;

  engine::EngineConfig inproc_config;
  inproc_config.workers = kIsoWorkers;
  engine::SolveEngine inproc(inproc_config);
  inproc.run(clean_jobs);  // warm-up
  const auto t_inproc = bench::case_clock();
  const engine::BatchReport inproc_report = inproc.run(clean_jobs);
  const double inproc_s = obs::Clock::seconds_since(t_inproc);

  supervise::PoolConfig pool_config;
  pool_config.workers = kIsoWorkers;
  supervise::WorkerPool pool(pool_config);
  pool.run(clean_jobs);  // warm-up (workers forked, pages faulted)
  const auto t_pool = bench::case_clock();
  const supervise::SupervisedReport pool_report = pool.run(clean_jobs);
  const double pool_s = obs::Clock::seconds_since(t_pool);

  bool process_identical = true;
  for (std::size_t i = 0; i < clean_jobs.size(); ++i)
    process_identical =
        process_identical && results_identical(inproc_report.results[i],
                                               pool_report.batch.results[i]);
  all_ok = all_ok && process_identical &&
           pool_report.worker_restarts == 0 &&
           pool_report.quarantined_jobs == 0;
  std::cout << "process isolation: in-process "
            << util::fixed(inproc_s * 1e3, 1) << " ms vs subprocess "
            << util::fixed(pool_s * 1e3, 1) << " ms ("
            << util::fixed(100.0 * (pool_s - inproc_s) / inproc_s, 1)
            << "% overhead), bit-identical="
            << (process_identical ? "yes" : "NO") << '\n';
  bench::case_line("E21", "process isolation overhead", ref_board, 2, t_pool)
      .num("workers", static_cast<std::uint64_t>(kIsoWorkers))
      .num("jobs", static_cast<std::uint64_t>(clean_jobs.size()))
      .num("inprocess_ms", inproc_s * 1e3)
      .num("subprocess_ms", pool_s * 1e3)
      .num("overhead_pct", 100.0 * (pool_s - inproc_s) / inproc_s)
      .boolean("identical", process_identical)
      .emit();

  bench::verdict(all_ok,
                 "the 64-job batch is bit-identical at 1/4/8 workers, the "
                 "starved and garbled jobs degrade only themselves, and "
                 "every certified bracket contains the fault-free value");
  return all_ok ? 0 : 1;
}
