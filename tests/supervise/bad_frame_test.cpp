// A worker whose result frame passes its checksum but does not parse
// must not strand its job. The supervisor treats the stream as garbage,
// as it does an unknown frame kind, and kills the worker; the crash path
// re-dispatches the job and, once it has killed max_job_crashes workers,
// quarantines it with a truthful kWorkerCrashed result. Without that, the
// job waits on a worker that keeps heartbeating, and this test runs into
// its ctest TIMEOUT.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/game.hpp"
#include "engine/job.hpp"
#include "fake_worker.hpp"
#include "graph/generators.hpp"
#include "supervise/supervisor.hpp"

namespace defender::supervise {
namespace {

TEST(SupervisedPool, UnparseableResultFrameQuarantinesTheJob) {
  engine::SolveJob job{core::TupleGame(graph::cycle_graph(6), 2, 2)};
  job.budget = SolveBudget::iterations(400);

  ASSERT_EQ(::setenv(test::kFakeWorkerEnv, test::kBadResultWorker, 1), 0);
  PoolConfig config;
  config.workers = 1;
  SupervisedReport report;
  {
    WorkerPool pool(config);
    report = pool.run(std::vector<engine::SolveJob>{job});
  }
  ::unsetenv(test::kFakeWorkerEnv);

  ASSERT_EQ(report.batch.results.size(), 1u);
  const engine::JobResult& r = report.batch.results[0];
  EXPECT_EQ(r.status.code, StatusCode::kWorkerCrashed) << r.status.to_string();
  EXPECT_EQ(report.quarantined_jobs, 1u);
  // The first kill's restart precedes the re-dispatch; the last one may
  // land after run() returns.
  EXPECT_GE(report.worker_restarts, 1u);
}

}  // namespace
}  // namespace defender::supervise
