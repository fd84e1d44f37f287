// Wire-format coverage for the supervised pool: every frame kind
// round-trips through to_text / try_parse, a SolveJob survives
// frame_from_job -> job_from_frame with %.17g fidelity, and the
// FrameReader detects torn, garbled, and truncated envelopes instead of
// trusting them (docs/SUPERVISION.md).
#include "supervise/wire.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/game.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"

namespace defender::supervise {
namespace {

JobFrame sample_job_frame() {
  JobFrame frame;
  frame.job_index = 7;
  frame.dispatch = 2;
  frame.solver = engine::JobSolver::kWeightedFictitiousPlay;
  frame.tolerance = 0.1 + 0.2;  // not exactly representable: pins %.17g
  frame.max_iterations = 4000;
  frame.wall_clock_seconds = 1.5;
  frame.oracle_node_budget = 123456789;
  frame.watchdog_seconds = 2.25;
  frame.collect_convergence = true;
  frame.canonicalize = true;
  frame.retry.max_attempts = 3;
  frame.stream_interval_seconds = 0.125;
  frame.n = 4;
  frame.k = 2;
  frame.attackers = 3;
  frame.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  frame.weights = {1.0, 0.5, 1.0 / 3.0, 2.0};
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.rate_of(fault::FaultSite::kWorkerCrash) = 0.5;
  frame.fault_plan_text = plan.to_text();
  return frame;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(DEFENDER_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Pins a frame's bytes: the writer reproduces the committed golden, and
/// the golden parses back into a frame that writes the same bytes again.
template <typename Frame, typename Parse>
void expect_golden(const Frame& frame, const std::string& name,
                   Parse parse) {
  const std::string golden = read_golden(name);
  ASSERT_FALSE(golden.empty()) << name;
  EXPECT_EQ(to_text(frame), golden) << name;
  const auto parsed = parse(golden);
  ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status.to_string();
  EXPECT_EQ(to_text(parsed.result), golden) << name;
}

TEST(Wire, JobFrameRoundTrips) {
  const JobFrame frame = sample_job_frame();
  const Solved<JobFrame> parsed = try_parse_job_frame(to_text(frame));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  const JobFrame& got = parsed.result;
  EXPECT_EQ(got.job_index, frame.job_index);
  EXPECT_EQ(got.dispatch, frame.dispatch);
  EXPECT_EQ(got.solver, frame.solver);
  EXPECT_EQ(got.tolerance, frame.tolerance);
  EXPECT_EQ(got.max_iterations, frame.max_iterations);
  EXPECT_EQ(got.wall_clock_seconds, frame.wall_clock_seconds);
  EXPECT_EQ(got.oracle_node_budget, frame.oracle_node_budget);
  EXPECT_EQ(got.watchdog_seconds, frame.watchdog_seconds);
  EXPECT_EQ(got.collect_convergence, frame.collect_convergence);
  EXPECT_EQ(got.canonicalize, frame.canonicalize);
  EXPECT_EQ(got.retry.to_string(), frame.retry.to_string());
  EXPECT_EQ(got.stream_interval_seconds, frame.stream_interval_seconds);
  EXPECT_EQ(got.n, frame.n);
  EXPECT_EQ(got.k, frame.k);
  EXPECT_EQ(got.attackers, frame.attackers);
  EXPECT_EQ(got.edges, frame.edges);
  EXPECT_EQ(got.weights, frame.weights);  // bit-exact via %.17g
  EXPECT_EQ(got.fault_plan_text, frame.fault_plan_text);
  EXPECT_EQ(got.checkpoint_text, frame.checkpoint_text);
}

TEST(Wire, SolveJobSurvivesTheFrameRoundTrip) {
  engine::SolveJob job{core::TupleGame(graph::petersen_graph(), 3, 2)};
  job.solver = engine::JobSolver::kWeightedDoubleOracle;
  job.tolerance = 1e-7;
  job.budget = SolveBudget::iterations(500);
  job.weights.assign(job.game.graph().num_vertices(), 1.0);
  job.weights[3] = 0.25;
  job.fault_plan.seed = 99;
  job.fault_plan.rate_of(fault::FaultSite::kOracleGarble) = 0.75;
  job.watchdog_seconds = 3.5;

  engine::EngineConfig config;
  config.retry.max_attempts = 2;
  const JobFrame frame = frame_from_job(job, 11, config);
  EXPECT_EQ(frame.job_index, 11u);
  EXPECT_EQ(frame.n, job.game.graph().num_vertices());
  EXPECT_EQ(frame.edges.size(), job.game.graph().num_edges());

  const Solved<JobFrame> reparsed = try_parse_job_frame(to_text(frame));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status.to_string();
  std::optional<engine::SolveJob> rebuilt;
  const Status status = job_from_frame(reparsed.result, &rebuilt);
  ASSERT_TRUE(status.ok()) << status.to_string();
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->solver, job.solver);
  EXPECT_EQ(rebuilt->tolerance, job.tolerance);
  EXPECT_EQ(rebuilt->budget.max_iterations, job.budget.max_iterations);
  EXPECT_EQ(rebuilt->weights, job.weights);
  EXPECT_EQ(rebuilt->watchdog_seconds, job.watchdog_seconds);
  EXPECT_EQ(rebuilt->fault_plan.to_text(), job.fault_plan.to_text());
  EXPECT_EQ(rebuilt->game.graph().num_vertices(),
            job.game.graph().num_vertices());
  EXPECT_EQ(rebuilt->game.graph().num_edges(), job.game.graph().num_edges());
  EXPECT_EQ(rebuilt->game.k(), job.game.k());
}

TEST(Wire, JobFromFrameRejectsMalformedBoards) {
  JobFrame isolated = sample_job_frame();
  isolated.n = 5;  // vertex 4 touches no edge
  std::optional<engine::SolveJob> out;
  EXPECT_EQ(job_from_frame(isolated, &out).code, StatusCode::kInvalidInput);
  EXPECT_FALSE(out.has_value());

  JobFrame big_k = sample_job_frame();
  big_k.k = 100;
  EXPECT_EQ(job_from_frame(big_k, &out).code, StatusCode::kInvalidInput);

  JobFrame bad_plan = sample_job_frame();
  bad_plan.fault_plan_text = "not a fault plan\n";
  EXPECT_EQ(job_from_frame(bad_plan, &out).code, StatusCode::kInvalidInput);
}

ResultFrame sample_result_frame() {
  ResultFrame frame;
  frame.job_index = 3;
  frame.dispatch = 1;
  frame.result.job_index = 3;
  frame.result.solver = engine::JobSolver::kHedge;
  frame.result.status = Status::make(StatusCode::kIterationLimit,
                                     "ran out after 40 iterations");
  frame.result.status.iterations = 40;
  frame.result.status.residual = 0.03125;
  frame.result.value = 2.0 / 3.0;
  frame.result.lower_bound = 0.5;
  frame.result.upper_bound = 0.75;
  frame.result.iterations = 40;
  frame.result.fallback_used = true;
  frame.result.watchdog_killed = true;
  frame.result.faults_injected = 5;
  frame.result.convergence_samples = 12;
  engine::AttemptRecord a;
  a.attempt = 1;
  a.action = engine::AttemptAction::kInitial;
  a.solver = engine::JobSolver::kHedge;
  a.outcome = StatusCode::kIterationLimit;
  a.value = 0.6;
  a.lower = 0.5;
  a.upper = 0.75;
  a.iterations = 40;
  frame.result.attempts.push_back(a);
  a.attempt = 2;
  a.action = engine::AttemptAction::kFallback;
  a.solver = engine::JobSolver::kZeroSumLp;
  a.outcome = StatusCode::kOk;
  frame.result.attempts.push_back(a);
  frame.checkpoint_text = "line one\nline two\n";
  return frame;
}

TEST(Wire, ResultFrameRoundTripsWithAttemptsAndMessage) {
  const ResultFrame frame = sample_result_frame();
  const Solved<ResultFrame> parsed = try_parse_result_frame(to_text(frame));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  const engine::JobResult& got = parsed.result.result;
  EXPECT_EQ(parsed.result.job_index, frame.job_index);
  EXPECT_EQ(parsed.result.dispatch, frame.dispatch);
  EXPECT_EQ(got.solver, frame.result.solver);
  EXPECT_EQ(got.status.code, frame.result.status.code);
  EXPECT_EQ(got.status.message, frame.result.status.message);
  EXPECT_EQ(got.status.iterations, frame.result.status.iterations);
  EXPECT_EQ(got.value, frame.result.value);
  EXPECT_EQ(got.lower_bound, frame.result.lower_bound);
  EXPECT_EQ(got.upper_bound, frame.result.upper_bound);
  EXPECT_EQ(got.fallback_used, frame.result.fallback_used);
  EXPECT_EQ(got.watchdog_killed, frame.result.watchdog_killed);
  EXPECT_EQ(got.faults_injected, frame.result.faults_injected);
  EXPECT_EQ(got.convergence_samples, frame.result.convergence_samples);
  ASSERT_EQ(got.attempts.size(), 2u);
  EXPECT_EQ(got.attempts[0].action, engine::AttemptAction::kInitial);
  EXPECT_EQ(got.attempts[1].action, engine::AttemptAction::kFallback);
  EXPECT_EQ(got.attempts[1].solver, engine::JobSolver::kZeroSumLp);
  EXPECT_EQ(parsed.result.checkpoint_text, frame.checkpoint_text);
}

TEST(Wire, ResultFrameWithSubnormalResidualRoundTrips) {
  // A result the supervisor cannot parse is dropped while the worker keeps
  // heartbeating, so a subnormal residual must read back.
  ResultFrame frame = sample_result_frame();
  frame.result.status.residual = 1e-310;
  frame.result.attempts[0].value = 4.9406564584124654e-324;
  const Solved<ResultFrame> parsed = try_parse_result_frame(to_text(frame));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(parsed.result.result.status.residual, 1e-310);
  EXPECT_EQ(parsed.result.result.attempts[0].value,
            frame.result.attempts[0].value);
  EXPECT_EQ(to_text(parsed.result), to_text(frame));
}

TEST(Wire, SmallFramesRoundTrip) {
  HeartbeatFrame hb;
  hb.sequence = 41;
  const Solved<HeartbeatFrame> hb2 = try_parse_heartbeat_frame(to_text(hb));
  ASSERT_TRUE(hb2.ok());
  EXPECT_EQ(hb2.result.sequence, 41u);

  CheckpointFrame cp;
  cp.job_index = 9;
  cp.dispatch = 4;
  cp.checkpoint_text = "payload\nwith lines\n";
  const Solved<CheckpointFrame> cp2 = try_parse_checkpoint_frame(to_text(cp));
  ASSERT_TRUE(cp2.ok());
  EXPECT_EQ(cp2.result.job_index, 9u);
  EXPECT_EQ(cp2.result.dispatch, 4u);
  EXPECT_EQ(cp2.result.checkpoint_text, cp.checkpoint_text);

  for (CancelReason reason :
       {CancelReason::kWatchdog, CancelReason::kExternal,
        CancelReason::kShutdown}) {
    CancelFrame cancel;
    cancel.job_index = 1;
    cancel.dispatch = 2;
    cancel.reason = reason;
    const Solved<CancelFrame> cancel2 =
        try_parse_cancel_frame(to_text(cancel));
    ASSERT_TRUE(cancel2.ok()) << to_string(reason);
    EXPECT_EQ(cancel2.result.reason, reason);
  }

  HelloFrame hello;
  hello.pid = 31337;
  const Solved<HelloFrame> hello2 = try_parse_hello_frame(to_text(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2.result.pid, 31337);
}

TEST(WireGolden, JobFrameWithWeightsFaultPlanAndCheckpoint) {
  JobFrame frame = sample_job_frame();
  frame.checkpoint_text = read_golden("checkpoint_v1.golden.txt");
  expect_golden(frame, "supervise_job_v1.golden.txt", try_parse_job_frame);
}

TEST(WireGolden, ResultFrameWithTwoAttemptsAndMessage) {
  expect_golden(sample_result_frame(), "supervise_result_v1.golden.txt",
                try_parse_result_frame);
}

TEST(WireGolden, SmallFrames) {
  expect_golden(HeartbeatFrame{41}, "supervise_heartbeat_v1.golden.txt",
                try_parse_heartbeat_frame);
  CheckpointFrame cp;
  cp.job_index = 9;
  cp.dispatch = 4;
  cp.checkpoint_text = read_golden("checkpoint_v1.golden.txt");
  expect_golden(cp, "supervise_checkpoint_v1.golden.txt",
                try_parse_checkpoint_frame);
  CancelFrame cancel;
  cancel.job_index = 1;
  cancel.dispatch = 2;
  cancel.reason = CancelReason::kWatchdog;
  expect_golden(cancel, "supervise_cancel_v1.golden.txt",
                try_parse_cancel_frame);
  expect_golden(HelloFrame{31337}, "supervise_hello_v1.golden.txt",
                try_parse_hello_frame);
}

TEST(Wire, FrameReaderReassemblesByteDribbles) {
  const std::string a = make_frame(kHeartbeatFormat, to_text(HeartbeatFrame{1}));
  const std::string b = make_frame(kHeartbeatFormat, to_text(HeartbeatFrame{2}));
  const std::string stream = a + b;

  FrameReader reader;
  std::vector<FrameReader::Frame> frames;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(stream.data() + i, 1);
    FrameReader::Frame frame;
    std::string error;
    FrameReader::Next next;
    while ((next = reader.next(&frame, &error)) == FrameReader::Next::kFrame)
      frames.push_back(frame);
    ASSERT_EQ(next, FrameReader::Next::kNeedMore) << error;
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].format, kHeartbeatFormat);
  const Solved<HeartbeatFrame> h0 = try_parse_heartbeat_frame(frames[0].payload);
  const Solved<HeartbeatFrame> h1 = try_parse_heartbeat_frame(frames[1].payload);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(h0.result.sequence, 1u);
  EXPECT_EQ(h1.result.sequence, 2u);
}

TEST(Wire, FrameReaderPoisonsOnGarbledBytes) {
  std::string frame = make_frame(kHeartbeatFormat, to_text(HeartbeatFrame{7}));
  frame[frame.size() / 2] ^= 0x40;  // flip one payload/trailer bit

  FrameReader reader;
  reader.feed(frame.data(), frame.size());
  FrameReader::Frame out;
  std::string error;
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kCorrupt);
  EXPECT_FALSE(error.empty());
  // Poisoned permanently: clean bytes after the fact do not resurrect it.
  const std::string clean =
      make_frame(kHeartbeatFormat, to_text(HeartbeatFrame{8}));
  reader.feed(clean.data(), clean.size());
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kCorrupt);
}

TEST(Wire, FrameReaderRejectsNonEnvelopeBytes) {
  FrameReader reader;
  const std::string garbage = "this is not an artifact envelope\n";
  reader.feed(garbage.data(), garbage.size());
  FrameReader::Frame out;
  std::string error;
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kCorrupt);
}

TEST(Wire, FrameReaderStopsEarlyOnWrongPrefix) {
  // Even a PARTIAL read that already disagrees with the envelope magic is
  // rejected without waiting for more bytes (a worker killed mid-exec can
  // leave any prefix behind).
  FrameReader reader;
  const std::string junk = "XYZ";
  reader.feed(junk.data(), junk.size());
  FrameReader::Frame out;
  std::string error;
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kCorrupt);
}

TEST(Wire, TruncatedFrameStaysPending) {
  const std::string frame =
      make_frame(kHeartbeatFormat, to_text(HeartbeatFrame{5}));
  FrameReader reader;
  reader.feed(frame.data(), frame.size() - 4);  // torn mid-trailer
  FrameReader::Frame out;
  std::string error;
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kNeedMore);
  EXPECT_GT(reader.buffered(), 0u);
  reader.feed(frame.data() + frame.size() - 4, 4);
  EXPECT_EQ(reader.next(&out, &error), FrameReader::Next::kFrame);
}

}  // namespace
}  // namespace defender::supervise
