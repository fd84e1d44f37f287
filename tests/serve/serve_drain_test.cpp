// The "defender-drain v1" manifest and the resume determinism contract:
// round-trips are byte-stable, hostile manifests are rejected with
// 1-based line numbers, and a drained job — whether it re-runs fresh or
// resumes an embedded checkpoint — reports a JobResult bit-identical
// (JobResult::to_json comparison; timings excluded by construction) to
// the uninterrupted run's. See docs/SERVE.md.
#include "serve/drain.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/matching_bracket.hpp"
#include "engine/engine.hpp"
#include "engine/retry.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve_test_util.hpp"

namespace defender::serve {
namespace {

using serve_test::cycle_request;
using serve_test::quick_request;

engine::SolveJob build_job(const Request& request) {
  std::optional<engine::SolveJob> job;
  const Status status = to_job(request, &job);
  EXPECT_TRUE(status.ok()) << status.to_string();
  return std::move(*job);
}

/// Runs fictitious play on C_12 to completion and, separately, cancels it
/// at `cancel_poll` with capture armed — the raw material every resume
/// test builds on.
struct CapturedRun {
  engine::JobResult uninterrupted;
  engine::JobResult cancelled;
  core::SolverCheckpoint checkpoint;
  bool captured = false;
};

CapturedRun capture_run(const engine::SolveEngine& engine,
                        const Request& request, std::size_t job_index,
                        std::uint64_t cancel_poll) {
  CapturedRun out;
  out.uninterrupted =
      engine.run_one(build_job(request), job_index, engine::JobRunHooks{});

  CancelToken cancel;
  cancel.cancel_after_polls(cancel_poll);
  engine::JobRunHooks hooks;
  hooks.cancel = &cancel;
  hooks.capture = &out.checkpoint;
  hooks.captured = &out.captured;
  out.cancelled = engine.run_one(build_job(request), job_index, hooks);
  return out;
}

// ---- manifest round-trip ----

TEST(DrainManifest, RoundTripsJobsWithAndWithoutCheckpoints) {
  engine::EngineConfig config;
  config.retry = engine::RetryPolicy::none();
  const engine::SolveEngine engine(config);
  const Request slow = cycle_request(
      "alice", "fp-1", 12, engine::JobSolver::kFictitiousPlay, 4000, 1e-15);
  const CapturedRun run = capture_run(engine, slow, 7, 100);
  ASSERT_TRUE(run.captured);
  ASSERT_EQ(run.cancelled.status.code, StatusCode::kCancelled);

  DrainManifest manifest;
  DrainedJob with_cp;
  with_cp.client = "alice";
  with_cp.request_id = "fp-1";
  with_cp.job_index = 7;
  with_cp.spec = slow;
  with_cp.checkpoint_text = core::to_text(run.checkpoint);
  manifest.jobs.push_back(with_cp);

  DrainedJob fresh;
  fresh.client = "bob";
  fresh.request_id = "do-2";
  fresh.job_index = 9;
  fresh.spec = cycle_request("bob", "do-2", 8,
                             engine::JobSolver::kWeightedDoubleOracle, 300);
  fresh.spec.wall_clock_seconds = 1.5;
  manifest.jobs.push_back(fresh);

  const std::string text = to_text(manifest);
  const Solved<DrainManifest> parsed = try_parse_drain_manifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  ASSERT_EQ(parsed.result.jobs.size(), 2u);

  const DrainedJob& a = parsed.result.jobs[0];
  EXPECT_EQ(a.client, "alice");
  EXPECT_EQ(a.request_id, "fp-1");
  EXPECT_EQ(a.job_index, 7u);
  EXPECT_EQ(a.spec.solver, engine::JobSolver::kFictitiousPlay);
  EXPECT_EQ(a.spec.n, 12u);
  EXPECT_EQ(a.spec.edges, slow.edges);
  EXPECT_EQ(a.spec.tolerance, slow.tolerance);
  EXPECT_EQ(a.checkpoint_text, with_cp.checkpoint_text);

  const DrainedJob& b = parsed.result.jobs[1];
  EXPECT_EQ(b.spec.solver, engine::JobSolver::kWeightedDoubleOracle);
  EXPECT_EQ(b.spec.weights.size(), 8u);
  EXPECT_EQ(b.spec.wall_clock_seconds, 1.5);
  EXPECT_TRUE(b.checkpoint_text.empty());

  // Serialization is a fixed point: parse(to_text(m)) re-serializes to
  // the same bytes.
  EXPECT_EQ(to_text(parsed.result), text);
}

TEST(DrainManifest, SubnormalWeightsRoundTrip) {
  DrainManifest manifest;
  DrainedJob job;
  job.client = "c";
  job.request_id = "r";
  job.spec = cycle_request("c", "r", 4,
                           engine::JobSolver::kWeightedFictitiousPlay, 60);
  job.spec.weights = {1.0, 4.9406564584124654e-324, 1e-310, 0.5};
  manifest.jobs.push_back(job);

  const std::string text = to_text(manifest);
  const Solved<DrainManifest> parsed = try_parse_drain_manifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  ASSERT_EQ(parsed.result.jobs.size(), 1u);
  EXPECT_EQ(parsed.result.jobs[0].spec.weights, job.spec.weights);
  EXPECT_EQ(to_text(parsed.result), text);
}

TEST(DrainManifest, EmptyManifestRoundTrips) {
  const DrainManifest empty;
  const Solved<DrainManifest> parsed =
      try_parse_drain_manifest(to_text(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.result.jobs.empty());
}

// ---- hostile manifests ----

std::string valid_manifest_text() {
  DrainManifest manifest;
  DrainedJob job;
  job.client = "c";
  job.request_id = "r";
  job.job_index = 0;
  job.spec = quick_request("c", "r");
  manifest.jobs.push_back(job);
  return to_text(manifest);
}

TEST(DrainManifest, RejectsHostileManifestsWithLineNumbers) {
  const struct {
    const char* why;
    std::string text;
  } cases[] = {
      {"empty input", ""},
      {"wrong magic", "defender-cache v1\nend\n"},
      {"future version", "defender-drain v2\njobs 0\nend\n"},
      {"malformed version", "defender-drain vX\njobs 0\nend\n"},
      {"missing jobs line", "defender-drain v1\nend\n"},
      {"negative job count", "defender-drain v1\njobs -1\nend\n"},
      {"job count over cap", "defender-drain v1\njobs 999999999\nend\n"},
      {"truncated job list", "defender-drain v1\njobs 1\nend\n"},
      {"missing end trailer", "defender-drain v1\njobs 0\n"},
      {"bad job ids",
       "defender-drain v1\njobs 1\njob 0 bad/client r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"trailing tokens on job line",
       "defender-drain v1\njobs 1\njob 0 c r extra\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"unknown solver",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec simplex 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"zero n",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 0 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"non-finite tolerance",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 inf 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"edge endpoint out of range",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 2\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"edge list shorter than declared",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 2 0 1\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"no edges",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 0\nweights 0\n"
       "checkpoint 0\nend\n"},
      {"unweighted job carries weights",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 1 1\n"
       "checkpoint 0\nend\n"},
      {"weighted job with wrong weight count",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec weighted-fictitious-play 2 1 1 0 10 0 0\nedges 1 0 1\n"
       "weights 1 1\ncheckpoint 0\nend\n"},
      {"negative weight",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec weighted-fictitious-play 2 1 1 0 10 0 0\nedges 1 0 1\n"
       "weights 2 1 -1\ncheckpoint 0\nend\n"},
      {"checkpoint line count over cap",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 99999999\nend\n"},
      {"truncated checkpoint block",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 3\ndefender-checkpoint v1\nend\n"},
      {"garbage embedded checkpoint",
       "defender-drain v1\njobs 1\njob 0 c r\n"
       "spec double-oracle 2 1 1 0 10 0 0\nedges 1 0 1\nweights 0\n"
       "checkpoint 1\nnot-a-checkpoint\nend\n"},
  };
  for (const auto& c : cases) {
    const Solved<DrainManifest> parsed = try_parse_drain_manifest(c.text);
    EXPECT_FALSE(parsed.ok()) << c.why;
    EXPECT_EQ(parsed.status.code, StatusCode::kInvalidInput) << c.why;
    EXPECT_NE(parsed.status.message.find("line "), std::string::npos)
        << c.why << ": " << parsed.status.message;
  }
  // Sanity: the template the hostile cases were derived from parses.
  EXPECT_TRUE(try_parse_drain_manifest(valid_manifest_text()).ok());
}

TEST(DrainManifest, RejectsLpJobWithEmbeddedCheckpoint) {
  // A checkpoint block that parses, attached to the solver that cannot
  // resume one. Grab real checkpoint text from a cancelled FP solve.
  engine::EngineConfig config;
  config.retry = engine::RetryPolicy::none();
  const engine::SolveEngine engine(config);
  const Request slow = cycle_request(
      "c", "r", 12, engine::JobSolver::kFictitiousPlay, 4000, 1e-15);
  const CapturedRun run = capture_run(engine, slow, 0, 50);
  ASSERT_TRUE(run.captured);

  DrainManifest manifest;
  DrainedJob job;
  job.client = "c";
  job.request_id = "r";
  job.spec = quick_request("c", "r");
  job.spec.solver = engine::JobSolver::kZeroSumLp;
  job.checkpoint_text = core::to_text(run.checkpoint);
  manifest.jobs.push_back(job);

  const Solved<DrainManifest> parsed =
      try_parse_drain_manifest(to_text(manifest));
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status.message.find("zero-sum-lp"), std::string::npos);
}

// ---- engine-level resume determinism (run_one + JobRunHooks) ----

TEST(DrainResume, CheckpointResumeIsBitIdenticalSingleAttempt) {
  engine::EngineConfig config;
  config.retry = engine::RetryPolicy::none();
  const engine::SolveEngine engine(config);

  const Request slow = cycle_request(
      "c", "r", 12, engine::JobSolver::kFictitiousPlay, 3000, 1e-15);
  // Cancel at several depths; each captured checkpoint must resume to the
  // uninterrupted answer bit for bit.
  for (const std::uint64_t cancel_poll : {10u, 100u, 1000u}) {
    const CapturedRun run = capture_run(engine, slow, 3, cancel_poll);
    ASSERT_TRUE(run.captured) << "poll " << cancel_poll;
    ASSERT_EQ(run.cancelled.status.code, StatusCode::kCancelled);

    engine::JobRunHooks resume_hooks;
    resume_hooks.resume = &run.checkpoint;
    const engine::JobResult resumed =
        engine.run_one(build_job(slow), 3, resume_hooks);
    EXPECT_EQ(resumed.to_json(), run.uninterrupted.to_json())
        << "poll " << cancel_poll;
  }
}

TEST(DrainResume, CheckpointResumeWalksTheFullRetryLadder) {
  // Multi-rung trajectory: the resumed first attempt must anchor ladder
  // growth on the ORIGINAL budget so later rungs match the uninterrupted
  // run exactly.
  engine::EngineConfig config;
  config.retry.max_attempts = 3;
  config.retry.budget_growth = 4.0;
  const engine::SolveEngine engine(config);

  const Request slow = cycle_request(
      "c", "r", 12, engine::JobSolver::kFictitiousPlay, 200, 1e-15);
  const CapturedRun run = capture_run(engine, slow, 11, 60);
  ASSERT_TRUE(run.captured);
  // The uninterrupted run should have walked more than one rung.
  ASSERT_GT(run.uninterrupted.attempts.size(), 1u);

  engine::JobRunHooks resume_hooks;
  resume_hooks.resume = &run.checkpoint;
  const engine::JobResult resumed =
      engine.run_one(build_job(slow), 11, resume_hooks);
  EXPECT_EQ(resumed.to_json(), run.uninterrupted.to_json());
}

TEST(DrainResume, ManifestCheckpointTextResumesAfterRoundTrip) {
  // End to end through the serialization: capture -> manifest text ->
  // parse -> resume from the parsed checkpoint.
  engine::EngineConfig config;
  config.retry = engine::RetryPolicy::none();
  const engine::SolveEngine engine(config);
  const Request slow = cycle_request(
      "c", "r", 12, engine::JobSolver::kFictitiousPlay, 3000, 1e-15);
  const CapturedRun run = capture_run(engine, slow, 5, 500);
  ASSERT_TRUE(run.captured);

  DrainManifest manifest;
  DrainedJob job;
  job.client = "c";
  job.request_id = "r";
  job.job_index = 5;
  job.spec = slow;
  job.checkpoint_text = core::to_text(run.checkpoint);
  manifest.jobs.push_back(job);

  const Solved<DrainManifest> parsed =
      try_parse_drain_manifest(to_text(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  const Solved<core::SolverCheckpoint> checkpoint =
      core::try_parse_checkpoint(parsed.result.jobs[0].checkpoint_text);
  ASSERT_TRUE(checkpoint.status.ok());

  engine::JobRunHooks resume_hooks;
  resume_hooks.resume = &checkpoint.result;
  const engine::JobResult resumed =
      engine.run_one(build_job(parsed.result.jobs[0].spec), 5, resume_hooks);
  EXPECT_EQ(resumed.to_json(), run.uninterrupted.to_json());
}

TEST(DrainResume, LpJobsRejectResumeAndNeverCapture) {
  engine::EngineConfig config;
  config.retry = engine::RetryPolicy::none();
  const engine::SolveEngine engine(config);
  Request lp = cycle_request("c", "r", 7, engine::JobSolver::kZeroSumLp, 2000);
  lp.k = 3;
  // C7 k3 is open under the matching bracket, so the job reaches the LP.
  ASSERT_FALSE(core::matching_bracket(build_job(lp).game).closed);

  // A cancelled LP job must not claim a capturable checkpoint.
  CancelToken cancel;
  cancel.request_cancel();
  core::SolverCheckpoint checkpoint;
  bool captured = false;
  engine::JobRunHooks hooks;
  hooks.cancel = &cancel;
  hooks.capture = &checkpoint;
  hooks.captured = &captured;
  (void)engine.run_one(build_job(lp), 0, hooks);
  EXPECT_FALSE(captured);

  // And resuming an LP job is kInvalidInput, not a silent fresh run.
  const Request fp = cycle_request(
      "c", "r2", 12, engine::JobSolver::kFictitiousPlay, 3000, 1e-15);
  const CapturedRun run = capture_run(engine, fp, 0, 50);
  ASSERT_TRUE(run.captured);
  engine::JobRunHooks resume_hooks;
  resume_hooks.resume = &run.checkpoint;
  const engine::JobResult result =
      engine.run_one(build_job(lp), 0, resume_hooks);
  EXPECT_EQ(result.status.code, StatusCode::kInvalidInput);
}

// ---- service-level drain determinism, two worker counts ----

TEST(DrainService, DrainPlusResumeMatchesUninterruptedAtTwoWorkerCounts) {
  // 8 jobs; drain mid-flight; a fresh service resumes the manifest. The
  // union of (delivered before drain) and (delivered after resume) must
  // equal the uninterrupted run's results byte for byte — at 1 and at 3
  // workers, pinning worker-count invariance of the whole path.
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "job-" + std::to_string(i);
    requests.push_back(
        i % 2 == 0
            ? cycle_request("alice", id, 10,
                            engine::JobSolver::kFictitiousPlay, 2500, 1e-15)
            : cycle_request("bob", id, 9, engine::JobSolver::kDoubleOracle,
                            300));
    if (i % 2 == 1) requests.back().k = 4;
  }
  // C9 k4 is open under the matching bracket, so the DO jobs reach DO.
  ASSERT_FALSE(core::matching_bracket(build_job(requests[1]).game).closed);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ServiceConfig config;
    config.workers = workers;
    config.engine.retry = engine::RetryPolicy::none();

    // Uninterrupted reference.
    serve_test::Collector reference;
    {
      SolveService service(config);
      for (const Request& r : requests) {
        const Admission a =
            service.submit(r, reference.sink(r.client, r.id));
        ASSERT_TRUE(a.admitted()) << a.message;
      }
      ASSERT_TRUE(reference.wait_for(requests.size()));
    }

    // Interrupted: admit everything, drain immediately (deadline 0 so
    // running jobs are cancelled at once), resume in a fresh service.
    serve_test::Collector before;
    DrainManifest manifest;
    {
      SolveService service(config);
      for (const Request& r : requests) {
        const Admission a = service.submit(r, before.sink(r.client, r.id));
        ASSERT_TRUE(a.admitted()) << a.message;
      }
      manifest = service.drain(0.0);
      EXPECT_EQ(service.queue_depth(), 0u);
      EXPECT_EQ(service.running_count(), 0u);
    }

    serve_test::Collector after;
    {
      SolveService resumed(config);
      serve_test::Collector* sink = &after;
      const std::size_t n = resumed.resume(
          manifest, [sink](const engine::JobResult& result) {
            std::lock_guard<std::mutex> lock(sink->mu);
            sink->results.emplace("resumed-" + std::to_string(result.job_index),
                                  result);
            sink->order.push_back(std::to_string(result.job_index));
            sink->cv.notify_all();
          });
      EXPECT_EQ(n, manifest.jobs.size());
      ASSERT_TRUE(after.wait_for(manifest.jobs.size()));
    }

    // Reassemble by job index: submission order == job_index on both
    // sides, and the manifest preserves indices across the restart.
    ASSERT_EQ(before.count() + after.count(), requests.size())
        << "workers=" << workers;
    std::map<std::size_t, std::string> merged;
    for (const auto& [key, result] : before.results) {
      // Jobs cancelled by the drain deadline are manifested, not
      // delivered, so everything delivered pre-drain is terminal.
      (void)key;
      merged[result.job_index] = result.to_json();
    }
    for (const auto& [key, result] : after.results) {
      (void)key;
      ASSERT_EQ(merged.count(result.job_index), 0u)
          << "job " << result.job_index << " both delivered and resumed";
      merged[result.job_index] = result.to_json();
    }
    std::map<std::size_t, std::string> expected;
    for (const auto& [key, result] : reference.results) {
      (void)key;
      expected[result.job_index] = result.to_json();
    }
    EXPECT_EQ(merged, expected) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace defender::serve
