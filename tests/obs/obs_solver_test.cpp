// Solver-level observability contract:
//
//  * a null ObsContext leaves every budgeted solver's output bit-for-bit
//    identical to the instrumented run (the zero-cost promise);
//  * with full observability, a 50-vertex double-oracle solve produces a
//    well-formed JSONL trace whose per-iteration value brackets narrow
//    monotonically and whose final `do.finish` event matches the returned
//    Status (the PR's acceptance criterion);
//  * the do.* / fp.* / hedge.* / lp.* / oracle.* metrics add up.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/double_oracle.hpp"
#include "graph/generators.hpp"
#include "json_check.hpp"
#include "obs/context.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"

namespace defender {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Owns one fully wired ObsContext (JSONL tracer + metrics + recorder).
struct FullObs {
  std::ostringstream jsonl;
  obs::JsonlSink sink{jsonl};
  obs::Tracer tracer{&sink};
  obs::MetricsRegistry metrics;
  obs::ConvergenceRecorder recorder;
  obs::ObsContext ctx{&tracer, &metrics, &recorder};

  std::vector<std::string> lines() {
    tracer.flush();
    return lines_of(jsonl.str());
  }
};

template <typename T>
void expect_same_status(const Solved<T>& a, const Solved<T>& b) {
  EXPECT_EQ(a.status.code, b.status.code);
  EXPECT_EQ(a.status.iterations, b.status.iterations);
  EXPECT_EQ(a.status.residual, b.status.residual);
  // status.elapsed_seconds is wall time and differs even between two
  // uninstrumented runs, so it is exempt from the bit-identity contract.
}

TEST(NullObsIdentity, DoubleOracleIsBitIdentical) {
  const graph::Graph g = graph::petersen_graph();
  const core::TupleGame game(g, 3, 1);
  const auto plain = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200)});
  FullObs obs;
  const auto traced = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200), .obs = &obs.ctx});

  expect_same_status(plain, traced);
  EXPECT_EQ(plain.result.value, traced.result.value);
  EXPECT_EQ(plain.result.gap, traced.result.gap);
  EXPECT_EQ(plain.result.lower_bound, traced.result.lower_bound);
  EXPECT_EQ(plain.result.upper_bound, traced.result.upper_bound);
  EXPECT_EQ(plain.result.iterations, traced.result.iterations);
  EXPECT_EQ(plain.result.defender_set_size, traced.result.defender_set_size);
  EXPECT_EQ(plain.result.attacker_set_size, traced.result.attacker_set_size);
  EXPECT_EQ(plain.result.approximate, traced.result.approximate);
  ASSERT_EQ(plain.result.defender.support().size(),
            traced.result.defender.support().size());
  for (std::size_t i = 0; i < plain.result.defender.support().size(); ++i) {
    EXPECT_EQ(plain.result.defender.support()[i],
              traced.result.defender.support()[i]);
    EXPECT_EQ(plain.result.defender.probs()[i],
              traced.result.defender.probs()[i]);
  }
  ASSERT_EQ(plain.result.attacker.support().size(),
            traced.result.attacker.support().size());
  for (std::size_t i = 0; i < plain.result.attacker.support().size(); ++i) {
    EXPECT_EQ(plain.result.attacker.support()[i],
              traced.result.attacker.support()[i]);
    EXPECT_EQ(plain.result.attacker.probs()[i],
              traced.result.attacker.probs()[i]);
  }
}

TEST(NullObsIdentity, LearningDynamicsAreBitIdentical) {
  const graph::Graph g = graph::grid_graph(3, 4);
  const core::TupleGame game(g, 2, 1);

  const auto fp_plain = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(300), .tolerance = 1e-4});
  FullObs fp_obs;
  const auto fp_traced = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(300),
             .tolerance = 1e-4,
             .obs = &fp_obs.ctx});
  expect_same_status(fp_plain, fp_traced);
  EXPECT_EQ(fp_plain.result.value_estimate, fp_traced.result.value_estimate);
  EXPECT_EQ(fp_plain.result.gap, fp_traced.result.gap);
  EXPECT_EQ(fp_plain.result.rounds, fp_traced.result.rounds);
  ASSERT_EQ(fp_plain.result.trace.size(), fp_traced.result.trace.size());
  for (std::size_t i = 0; i < fp_plain.result.trace.size(); ++i) {
    EXPECT_EQ(fp_plain.result.trace[i].round, fp_traced.result.trace[i].round);
    EXPECT_EQ(fp_plain.result.trace[i].lower, fp_traced.result.trace[i].lower);
    EXPECT_EQ(fp_plain.result.trace[i].upper, fp_traced.result.trace[i].upper);
  }
  EXPECT_EQ(fp_plain.result.attacker_frequency,
            fp_traced.result.attacker_frequency);
  EXPECT_EQ(fp_plain.result.defender_hit_frequency,
            fp_traced.result.defender_hit_frequency);

  const auto hg_plain = sim::hedge_dynamics(
      game, 200, {.budget = SolveBudget::iterations(200), .tolerance = 1e-4});
  FullObs hg_obs;
  const auto hg_traced = sim::hedge_dynamics(
      game, 200,
      {.budget = SolveBudget::iterations(200),
       .tolerance = 1e-4,
       .obs = &hg_obs.ctx});
  expect_same_status(hg_plain, hg_traced);
  EXPECT_EQ(hg_plain.result.value_estimate, hg_traced.result.value_estimate);
  EXPECT_EQ(hg_plain.result.gap, hg_traced.result.gap);
  EXPECT_EQ(hg_plain.result.rounds, hg_traced.result.rounds);
  EXPECT_EQ(hg_plain.result.attacker_average,
            hg_traced.result.attacker_average);
}

// The PR's acceptance test: a 50-vertex board, solved by the double oracle
// with full observability, yields a well-formed JSONL narrative with
// monotonically narrowing running brackets and a final event matching the
// returned Status.
TEST(Acceptance, FiftyVertexDoubleOracleTrace) {
  const graph::Graph g = graph::grid_graph(5, 10);
  ASSERT_EQ(g.num_vertices(), 50u);
  const core::TupleGame game(g, 4, 1);

  FullObs obs;
  const auto solved = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(500), .obs = &obs.ctx});
  ASSERT_TRUE(solved.ok()) << solved.status.to_string();

  // Convergence recorder: one sample per outer iteration, running bounds
  // never widening, and a strictly tighter final bracket.
  const auto& samples = obs.recorder.samples();
  ASSERT_EQ(samples.size(), solved.result.iterations);
  EXPECT_TRUE(obs.recorder.monotonically_narrowing());
  EXPECT_LT(samples.back().upper - samples.back().lower,
            samples.front().upper - samples.front().lower);
  EXPECT_NEAR(samples.back().lower, solved.result.lower_bound, 1e-12);
  EXPECT_NEAR(samples.back().upper, solved.result.upper_bound, 1e-12);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].iteration, samples[i].iteration);

  // Trace: every line parses; the solve span brackets the file; the final
  // do.finish instant reports the same status the call returned.
  const auto lines = obs.lines();
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines)
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
  EXPECT_EQ(test_json::find_string_field(lines.front(), "name").value(),
            "do.solve");
  EXPECT_EQ(test_json::find_string_field(lines.front(), "ph").value(), "B");

  std::string finish_line;
  std::size_t iteration_events = 0;
  for (const std::string& line : lines) {
    const auto name = test_json::find_string_field(line, "name");
    if (name == "do.finish") finish_line = line;
    if (name == "do.iteration") ++iteration_events;
  }
  ASSERT_FALSE(finish_line.empty());
  EXPECT_EQ(iteration_events, solved.result.iterations);
  EXPECT_EQ(test_json::find_string_field(finish_line, "status").value(),
            to_string(solved.status.code));

  // Metrics: the registry agrees with the result.
  EXPECT_EQ(obs.metrics.counter("do.solves").value(), 1u);
  EXPECT_EQ(obs.metrics.counter("do.iterations").value(),
            solved.result.iterations);
  EXPECT_GE(obs.metrics.counter("lp.solves").value(),
            solved.result.iterations);
  EXPECT_GE(obs.metrics.counter("oracle.calls").value(),
            solved.result.iterations);
  EXPECT_EQ(obs.metrics.counter("do.degraded").value(), 0u);
  EXPECT_EQ(obs.metrics.histogram("do.solve_ms").count(), 1u);
}

TEST(Degradation, StarvedSolveFinishesWithNonOkStatusEvent) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  FullObs obs;
  const auto solved = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(1), .obs = &obs.ctx});
  ASSERT_FALSE(solved.ok());
  std::string finish_line;
  for (const std::string& line : obs.lines())
    if (test_json::find_string_field(line, "name") == "do.finish")
      finish_line = line;
  ASSERT_FALSE(finish_line.empty());
  EXPECT_EQ(test_json::find_string_field(finish_line, "status").value(),
            to_string(solved.status.code));
  EXPECT_EQ(obs.metrics.counter("do.degraded").value(), 1u);
}

TEST(LearningDynamics, CheckpointAndFinishEventsMatchResults) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);

  FullObs fp_obs;
  const auto fp = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(300),
             .tolerance = 1e-4,
             .obs = &fp_obs.ctx});
  EXPECT_TRUE(fp_obs.recorder.monotonically_narrowing());
  EXPECT_EQ(fp_obs.recorder.samples().size(), fp.result.trace.size());
  std::string fp_finish;
  for (const std::string& line : fp_obs.lines()) {
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::find_string_field(line, "name") == "fp.finish")
      fp_finish = line;
  }
  ASSERT_FALSE(fp_finish.empty());
  EXPECT_EQ(test_json::find_string_field(fp_finish, "status").value(),
            to_string(fp.status.code));
  EXPECT_EQ(fp_obs.metrics.counter("fp.solves").value(), 1u);
  EXPECT_EQ(fp_obs.metrics.counter("fp.rounds").value(), fp.result.rounds);

  FullObs hg_obs;
  const auto hedge = sim::hedge_dynamics(
      game, 200,
      {.budget = SolveBudget::iterations(200),
       .tolerance = 1e-4,
       .obs = &hg_obs.ctx});
  EXPECT_TRUE(hg_obs.recorder.monotonically_narrowing());
  std::string hg_finish;
  for (const std::string& line : hg_obs.lines()) {
    ASSERT_TRUE(test_json::is_valid_json(line)) << line;
    if (test_json::find_string_field(line, "name") == "hedge.finish")
      hg_finish = line;
  }
  ASSERT_FALSE(hg_finish.empty());
  EXPECT_EQ(test_json::find_string_field(hg_finish, "status").value(),
            to_string(hedge.status.code));
  EXPECT_EQ(hg_obs.metrics.counter("hedge.solves").value(), 1u);
  EXPECT_EQ(hg_obs.metrics.counter("hedge.rounds").value(),
            hedge.result.rounds);
}

TEST(WeightedVariants, EmitWeightedEventNames) {
  const graph::Graph g = graph::grid_graph(3, 3);
  const core::TupleGame game(g, 2, 1);
  std::vector<double> weights(g.num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.25 * static_cast<double>(v % 4);

  FullObs obs;
  const auto solved = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200),
             .weights = weights,
             .obs = &obs.ctx});
  ASSERT_TRUE(solved.ok()) << solved.status.to_string();
  bool saw_span = false, saw_finish = false;
  for (const std::string& line : obs.lines()) {
    const auto name = test_json::find_string_field(line, "name");
    if (name == "do.weighted.solve") saw_span = true;
    if (name == "do.weighted.finish") saw_finish = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_finish);
  EXPECT_EQ(obs.metrics.counter("do.weighted.solves").value(), 1u);
  EXPECT_TRUE(obs.recorder.monotonically_narrowing());
}

}  // namespace
}  // namespace defender
