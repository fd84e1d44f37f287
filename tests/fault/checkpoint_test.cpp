// Checkpoint/resume contract tests:
//
//  * the checkpoint text format round-trips bit-exactly (%.17g doubles)
//    and matches a golden snapshot committed in tests/data/ — any format
//    drift fails here and forces a version bump;
//  * unknown versions and hostile input are rejected as kInvalidInput with
//    a line number, never a crash;
//  * THE tentpole guarantee: killing any of the five budgeted iterative
//    solvers at iteration i, serializing the checkpoint through its text
//    form, and resuming reproduces the uninterrupted run's trajectory —
//    same final status, same iteration count, an equal-or-tighter
//    certified bracket, bit-identical state vectors;
//  * resuming with the wrong solver kind, game shape, version, or Hedge
//    horizon is rejected as kInvalidInput instead of corrupting a solve.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/budget.hpp"
#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "core/zero_sum.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "lp/matrix_game.hpp"
#include "lp/simplex_reference.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"

namespace defender {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

core::SolverCheckpoint golden_checkpoint() {
  core::SolverCheckpoint cp;
  cp.solver = core::SolverKind::kHedge;
  cp.n = 5;
  cp.m = 6;
  cp.k = 2;
  cp.iterations = 7;
  cp.horizon = 100;
  cp.next_checkpoint = 16;
  cp.best_lower = 0.25;
  cp.best_upper = 0.5;
  cp.any_truncated = true;
  cp.tuples = {{0, 1}, {2, 3}};
  cp.vertices = {0, 4};
  cp.attacker_history = {0.125, -1.5, 2};
  cp.defender_history = {0.5, 0.75};
  cp.average_history = {1, 0};
  return cp;
}

void expect_checkpoints_equal(const core::SolverCheckpoint& a,
                              const core::SolverCheckpoint& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.next_checkpoint, b.next_checkpoint);
  EXPECT_EQ(a.best_lower, b.best_lower);
  EXPECT_EQ(a.best_upper, b.best_upper);
  EXPECT_EQ(a.any_truncated, b.any_truncated);
  EXPECT_EQ(a.tuples, b.tuples);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.attacker_history, b.attacker_history);
  EXPECT_EQ(a.defender_history, b.defender_history);
  EXPECT_EQ(a.average_history, b.average_history);
}

// ---------------------------------------------------------------------------
// Format round trip + golden stability (satellite: format stability).

TEST(CheckpointText, RoundTripsBitExactly) {
  core::SolverCheckpoint cp = golden_checkpoint();
  cp.best_lower = 1.0 / 3.0;  // not exactly representable in decimal
  cp.best_upper = 0.1;
  cp.attacker_history = {1.0 / 7.0, -2.0 / 3.0, 1e-300, 1e300};
  const auto parsed = core::try_parse_checkpoint(core::to_text(cp));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  expect_checkpoints_equal(parsed.result, cp);
}

TEST(CheckpointText, SubnormalStateRoundTrips) {
  // The smallest subnormal and the largest one: strtod flags both with
  // ERANGE, which once made a valid checkpoint unreadable.
  core::SolverCheckpoint cp = golden_checkpoint();
  cp.attacker_history = {4.9406564584124654e-324, 2.2250738585072009e-308};
  cp.best_lower = 1e-310;
  const auto parsed = core::try_parse_checkpoint(core::to_text(cp));
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  expect_checkpoints_equal(parsed.result, cp);
}

TEST(CheckpointText, GoldenSnapshotIsStable) {
  const std::string golden_path =
      std::string(DEFENDER_TEST_DATA_DIR) + "/checkpoint_v1.golden.txt";
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty());

  // Serializer must reproduce the committed snapshot byte for byte — any
  // drift in the format is a breaking change and requires a version bump.
  EXPECT_EQ(core::to_text(golden_checkpoint()), golden);

  // And the parser must accept it and recover the exact struct.
  const auto parsed = core::try_parse_checkpoint(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  expect_checkpoints_equal(parsed.result, golden_checkpoint());
}

TEST(CheckpointText, UnknownVersionsAreRejected) {
  core::SolverCheckpoint cp = golden_checkpoint();
  cp.version = core::kSolverCheckpointVersion + 1;  // a future format
  const auto parsed = core::try_parse_checkpoint(core::to_text(cp));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status.code, StatusCode::kInvalidInput);
  EXPECT_NE(parsed.status.message.find("unsupported checkpoint version"),
            std::string::npos)
      << parsed.status.message;
}

TEST(CheckpointText, RejectsHostileInputWithLineNumbers) {
  const auto expect_invalid = [](const std::string& text) {
    const auto parsed = core::try_parse_checkpoint(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status.code, StatusCode::kInvalidInput);
    EXPECT_NE(parsed.status.message.find("checkpoint line"),
              std::string::npos)
        << parsed.status.message;
  };
  expect_invalid("");
  expect_invalid("not-a-checkpoint\n");
  expect_invalid("defender-checkpoint v1\n");  // truncated after header
  expect_invalid(
      "defender-checkpoint v1\nsolver nonsense-solver\n");
  expect_invalid(
      "defender-checkpoint v1\nsolver hedge\ngame 5 6\n");  // short line
  expect_invalid(
      "defender-checkpoint v1\nsolver hedge\ngame 5 6 2\n"
      "progress 7 100 16 1\nbracket nan 0.5\n");  // non-finite bound
  expect_invalid(
      "defender-checkpoint v1\nsolver hedge\ngame 5 6 2\n"
      "progress 7 100 16 1\nbracket 0.25 0.5\n"
      "tuples 99999999999999\n");  // allocation-bomb count
  expect_invalid(
      "defender-checkpoint v1\nsolver hedge\ngame 5 6 2\n"
      "progress 7 100 16 1\nbracket 0.25 0.5\n"
      "tuples 2\ntuple 2 0 1\n");  // truncated tuple list
  // Golden text with the trailer removed.
  std::string no_end = core::to_text(golden_checkpoint());
  no_end.erase(no_end.rfind("end"));
  expect_invalid(no_end);
}

// ---------------------------------------------------------------------------
// Kill-at-iteration-i + resume == uninterrupted run, for all five solver
// families. Every resume passes through the TEXT form, proving the file
// format carries the complete loop state.

core::SolverCheckpoint through_text(const core::SolverCheckpoint& cp) {
  const auto parsed = core::try_parse_checkpoint(core::to_text(cp));
  EXPECT_TRUE(parsed.ok()) << parsed.status.to_string();
  return parsed.result;
}

TEST(KillResume, DoubleOracleReproducesTheUninterruptedRun) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);

  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100)});
  ASSERT_TRUE(full.ok()) << full.status.to_string();
  ASSERT_GT(full.result.iterations, 2u)
      << "instance too easy to exercise a mid-run kill";

  core::SolverCheckpoint cp;
  const auto killed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(2), .capture = &cp});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(cp.solver, core::SolverKind::kDoubleOracle);
  EXPECT_EQ(cp.iterations, 2u);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(98), .resume = &restored});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.iterations, full.result.iterations);
  EXPECT_EQ(resumed.result.value, full.result.value);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  // Equal-or-tighter certified bracket (equal, by determinism).
  EXPECT_GE(resumed.result.lower_bound, full.result.lower_bound);
  EXPECT_LE(resumed.result.upper_bound, full.result.upper_bound);
  EXPECT_EQ(resumed.result.defender_set_size, full.result.defender_set_size);
  EXPECT_EQ(resumed.result.attacker_set_size, full.result.attacker_set_size);
}

TEST(KillResume, WeightedDoubleOracleReproducesTheUninterruptedRun) {
  const core::TupleGame game(graph::grid_graph(3, 3), 2, 1);
  std::vector<double> weights(game.graph().num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.25 * static_cast<double>(v % 4);

  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100), .weights = weights});
  ASSERT_TRUE(full.ok()) << full.status.to_string();
  ASSERT_GT(full.result.iterations, 2u);

  core::SolverCheckpoint cp;
  const auto killed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(2),
             .weights = weights,
             .capture = &cp});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(cp.solver, core::SolverKind::kWeightedDoubleOracle);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(98),
             .weights = weights,
             .resume = &restored});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.iterations, full.result.iterations);
  EXPECT_EQ(resumed.result.value, full.result.value);
  EXPECT_GE(resumed.result.lower_bound, full.result.lower_bound);
  EXPECT_LE(resumed.result.upper_bound, full.result.upper_bound);
}

TEST(KillResume, FictitiousPlayReproducesTheUninterruptedRun) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  // An unreachably tight gap makes the 120-round budget the binding stop,
  // so the uninterrupted final status (kIterationLimit) must be reproduced.
  const double target = 1e-9;

  const auto full = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(120), .tolerance = target});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);
  ASSERT_EQ(full.result.rounds, 120u);

  core::SolverCheckpoint cp;
  const auto killed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(35),
             .tolerance = target,
             .capture = &cp});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(cp.solver, core::SolverKind::kFictitiousPlay);
  EXPECT_EQ(cp.iterations, 35u);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(85),
             .tolerance = target,
             .resume = &restored});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  EXPECT_EQ(resumed.result.attacker_frequency,
            full.result.attacker_frequency);
  EXPECT_EQ(resumed.result.defender_hit_frequency,
            full.result.defender_hit_frequency);
}

TEST(KillResume, WeightedFictitiousPlayReproducesTheUninterruptedRun) {
  const core::TupleGame game(graph::grid_graph(3, 3), 2, 1);
  std::vector<double> weights(game.graph().num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.5 * static_cast<double>(v % 3);
  const double target = 1e-9;

  const auto full = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(90),
             .tolerance = target,
             .weights = weights});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);

  core::SolverCheckpoint cp;
  const auto killed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(27),
             .tolerance = target,
             .weights = weights,
             .capture = &cp});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(cp.solver, core::SolverKind::kWeightedFictitiousPlay);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(63),
             .tolerance = target,
             .weights = weights,
             .resume = &restored});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  EXPECT_EQ(resumed.result.attacker_frequency,
            full.result.attacker_frequency);
}

TEST(KillResume, HedgeReproducesTheUninterruptedRun) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  const std::size_t horizon = 100;
  const double target = 1e-9;

  // Uninterrupted: one segment covering the whole horizon.
  const auto full = sim::hedge_dynamics(
      game, horizon,
      {.budget = SolveBudget::unlimited_budget(), .tolerance = target});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);
  ASSERT_EQ(full.result.rounds, horizon);

  core::SolverCheckpoint cp;
  const auto killed = sim::hedge_dynamics(
      game, horizon,
      {.budget = SolveBudget::iterations(30),
       .tolerance = target,
       .capture = &cp});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(cp.solver, core::SolverKind::kHedge);
  EXPECT_EQ(cp.iterations, 30u);
  EXPECT_EQ(cp.horizon, horizon);

  const core::SolverCheckpoint restored = through_text(cp);
  // Same horizon => same eta => the trajectory continues bit-exactly.
  const auto resumed = sim::hedge_dynamics(
      game, horizon,
      {.budget = SolveBudget::unlimited_budget(),
       .tolerance = target,
       .resume = &restored});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  EXPECT_EQ(resumed.result.attacker_average, full.result.attacker_average);
}

// A second kill mid-way through the RESUMED segment: two kills, two
// resumes, still the same final answer.
TEST(KillResume, DoubleKillStillConverges) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  const auto full = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(90), .tolerance = 1e-9});

  core::SolverCheckpoint cp1, cp2;
  (void)sim::fictitious_play(game, {.budget = SolveBudget::iterations(20),
                                    .tolerance = 1e-9,
                                    .capture = &cp1});
  const core::SolverCheckpoint r1 = through_text(cp1);
  (void)sim::fictitious_play(game, {.budget = SolveBudget::iterations(40),
                                    .tolerance = 1e-9,
                                    .resume = &r1,
                                    .capture = &cp2});
  EXPECT_EQ(cp2.iterations, 60u);
  const core::SolverCheckpoint r2 = through_text(cp2);
  const auto resumed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(30),
             .tolerance = 1e-9,
             .resume = &r2});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.attacker_frequency,
            full.result.attacker_frequency);
}

// ---------------------------------------------------------------------------
// Resume validation: every mismatch is kInvalidInput, never a corrupted
// solve or a crash.

TEST(ResumeValidation, MismatchesAreRejectedAsInvalidInput) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  core::SolverCheckpoint cp;
  (void)core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(2), .capture = &cp});

  // Wrong solver family.
  const auto fp = sim::fictitious_play(
      game,
      {.budget = SolveBudget::iterations(10), .tolerance = 0, .resume = &cp});
  EXPECT_EQ(fp.status.code, StatusCode::kInvalidInput);

  // Wrong game shape.
  const core::TupleGame other(graph::grid_graph(3, 3), 2, 1);
  const auto shape = core::solve_double_oracle(
      other, {.budget = SolveBudget::iterations(10), .resume = &cp});
  EXPECT_EQ(shape.status.code, StatusCode::kInvalidInput);

  // Future version (a build older than the checkpoint's writer).
  core::SolverCheckpoint future = cp;
  future.version = core::kSolverCheckpointVersion + 1;
  const auto ver = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(10), .resume = &future});
  EXPECT_EQ(ver.status.code, StatusCode::kInvalidInput);

  // Hedge horizon mismatch (eta would silently change).
  const core::TupleGame hg(graph::grid_graph(3, 4), 2, 1);
  core::SolverCheckpoint hcp;
  (void)sim::hedge_dynamics(hg, 100,
                            {.budget = SolveBudget::iterations(10),
                             .tolerance = 1e-9,
                             .capture = &hcp});
  const auto mismatch = sim::hedge_dynamics(
      hg, 50,
      {.budget = SolveBudget::iterations(10),
       .tolerance = 1e-9,
       .resume = &hcp});
  EXPECT_EQ(mismatch.status.code, StatusCode::kInvalidInput);
}

// ---------------------------------------------------------------------------
// Cancellation + resume: cancelling any of the five solvers mid-run via a
// CancelToken (the engine watchdog's kill path) yields kCancelled with a
// resumable checkpoint; resuming without the token reproduces the
// uninterrupted run's status and value bit for bit. Outer solver loops
// POLL the token once per iteration, so cancel_after_polls maps
// deterministically onto outer iterations. Inner loops (simplex pivot
// batches, oracle node batches) only READ the latch; cancel_after_reads
// lands a cancel on any one of those reads, and double oracle then
// returns the state it held at the top of the interrupted iteration, so
// those cancels resume exactly too (InnerCancelResume below).

/// One budget with a cancel token attached.
SolveBudget cancellable(SolveBudget budget, CancelToken* token) {
  budget.cancel = token;
  return budget;
}

TEST(CancelResume, DoubleOracleResumesAfterCancellation) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100)});
  ASSERT_TRUE(full.ok()) << full.status.to_string();
  ASSERT_GT(full.result.iterations, 3u);

  for (std::uint64_t kill_at : {std::uint64_t{1}, std::uint64_t{3}}) {
    CancelToken token;
    token.cancel_after_polls(kill_at);
    core::SolverCheckpoint cp;
    const auto cancelled = core::solve_double_oracle(
        game,
        {.budget = cancellable(SolveBudget::iterations(100), &token),
         .capture = &cp});
    ASSERT_EQ(cancelled.status.code, StatusCode::kCancelled)
        << cancelled.status.to_string();
    EXPECT_TRUE(token.cancelled());
    // A cancelled solve still certifies a sound (possibly loose) bracket.
    EXPECT_LE(cancelled.result.lower_bound, full.result.value + 1e-12);
    EXPECT_GE(cancelled.result.upper_bound, full.result.value - 1e-12);

    const core::SolverCheckpoint restored = through_text(cp);
    const auto resumed = core::solve_double_oracle(
        game, {.budget = SolveBudget::iterations(100), .resume = &restored});
    EXPECT_EQ(resumed.status.code, full.status.code);
    EXPECT_EQ(resumed.result.iterations, full.result.iterations);
    EXPECT_EQ(resumed.result.value, full.result.value);
    EXPECT_EQ(resumed.result.lower_bound, full.result.lower_bound);
    EXPECT_EQ(resumed.result.upper_bound, full.result.upper_bound);
  }
}

TEST(CancelResume, WeightedDoubleOracleResumesAfterCancellation) {
  const core::TupleGame game(graph::grid_graph(3, 3), 2, 1);
  std::vector<double> weights(game.graph().num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.25 * static_cast<double>(v % 4);

  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100), .weights = weights});
  ASSERT_TRUE(full.ok()) << full.status.to_string();

  CancelToken token;
  token.cancel_after_polls(2);
  core::SolverCheckpoint cp;
  const auto cancelled = core::solve_double_oracle(
      game, {.budget = cancellable(SolveBudget::iterations(100), &token),
             .weights = weights,
             .capture = &cp});
  ASSERT_EQ(cancelled.status.code, StatusCode::kCancelled);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100),
             .weights = weights,
             .resume = &restored});
  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.iterations, full.result.iterations);
  EXPECT_EQ(resumed.result.value, full.result.value);
  EXPECT_EQ(resumed.result.lower_bound, full.result.lower_bound);
  EXPECT_EQ(resumed.result.upper_bound, full.result.upper_bound);
}

TEST(CancelResume, FictitiousPlayResumesAfterCancellation) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  const double target = 1e-9;
  const auto full = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(120), .tolerance = target});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);

  CancelToken token;
  token.cancel_after_polls(40);
  core::SolverCheckpoint cp;
  const auto cancelled = sim::fictitious_play(
      game, {.budget = cancellable(SolveBudget::iterations(120), &token),
             .tolerance = target,
             .capture = &cp});
  ASSERT_EQ(cancelled.status.code, StatusCode::kCancelled)
      << cancelled.status.to_string();
  ASSERT_LT(cp.iterations, 120u);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(120 - restored.iterations),
             .tolerance = target,
             .resume = &restored});
  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  EXPECT_EQ(resumed.result.attacker_frequency,
            full.result.attacker_frequency);
}

TEST(CancelResume, WeightedFictitiousPlayResumesAfterCancellation) {
  const core::TupleGame game(graph::grid_graph(3, 3), 2, 1);
  std::vector<double> weights(game.graph().num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.5 * static_cast<double>(v % 3);
  const double target = 1e-9;

  const auto full = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(90),
             .tolerance = target,
             .weights = weights});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);

  CancelToken token;
  token.cancel_after_polls(25);
  core::SolverCheckpoint cp;
  const auto cancelled = sim::fictitious_play(
      game, {.budget = cancellable(SolveBudget::iterations(90), &token),
             .tolerance = target,
             .weights = weights,
             .capture = &cp});
  ASSERT_EQ(cancelled.status.code, StatusCode::kCancelled);

  const core::SolverCheckpoint restored = through_text(cp);
  const auto resumed = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(90 - restored.iterations),
             .tolerance = target,
             .weights = weights,
             .resume = &restored});
  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
}

TEST(CancelResume, HedgeResumesAfterCancellation) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  const std::size_t horizon = 100;
  const double target = 1e-9;

  const auto full = sim::hedge_dynamics(
      game, horizon,
      {.budget = SolveBudget::unlimited_budget(), .tolerance = target});
  ASSERT_EQ(full.status.code, StatusCode::kIterationLimit);
  ASSERT_EQ(full.result.rounds, horizon);

  CancelToken token;
  token.cancel_after_polls(33);
  core::SolverCheckpoint cp;
  const auto cancelled = sim::hedge_dynamics(
      game, horizon,
      {.budget = cancellable(SolveBudget::unlimited_budget(), &token),
       .tolerance = target,
       .capture = &cp});
  ASSERT_EQ(cancelled.status.code, StatusCode::kCancelled)
      << cancelled.status.to_string();
  EXPECT_EQ(cp.horizon, horizon);
  ASSERT_LT(cp.iterations, horizon);

  const core::SolverCheckpoint restored = through_text(cp);
  // Same horizon => same eta => the cancelled trajectory continues
  // bit-exactly to the same final answer.
  const auto resumed = sim::hedge_dynamics(
      game, horizon,
      {.budget = SolveBudget::unlimited_budget(),
       .tolerance = target,
       .resume = &restored});
  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.rounds, full.result.rounds);
  EXPECT_EQ(resumed.result.value_estimate, full.result.value_estimate);
  EXPECT_EQ(resumed.result.gap, full.result.gap);
  EXPECT_EQ(resumed.result.attacker_average, full.result.attacker_average);
}

TEST(CancelResume, AlreadyCancelledTokenStopsAtTheFirstPoll) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  CancelToken token;
  token.request_cancel();
  core::SolverCheckpoint cp;
  const auto cancelled = core::solve_double_oracle(
      game, {.budget = cancellable(SolveBudget::iterations(100), &token),
             .capture = &cp});
  EXPECT_EQ(cancelled.status.code, StatusCode::kCancelled);
  // Even the immediate kill leaves a valid, resumable checkpoint.
  const auto resumed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100), .resume = &cp});
  EXPECT_TRUE(resumed.ok()) << resumed.status.to_string();
}

/// Fires the token on the j-th inner read, for every j an uninterrupted
/// double-oracle solve of `game` performs, and requires each
/// capture-then-resume to reproduce the uninterrupted run's status,
/// iterations, value and bracket. Requires cancels to have landed both in
/// the restricted LP and in the oracle.
void sweep_inner_cancels(const core::TupleGame& game,
                         std::span<const double> weights,
                         const std::string& tag) {
  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200), .weights = weights});
  ASSERT_TRUE(full.ok()) << tag << ": " << full.status.to_string();
  std::size_t lp_exits = 0;
  std::size_t oracle_exits = 0;
  for (std::uint64_t j = 1;; ++j) {
    const std::string at = tag + ", read " + std::to_string(j);
    CancelToken token;
    token.cancel_after_reads(j);
    core::SolverCheckpoint cp;
    const auto cancelled = core::solve_double_oracle(
        game, {.budget = cancellable(SolveBudget::iterations(200), &token),
               .weights = weights,
               .capture = &cp});
    if (cancelled.status.code != StatusCode::kCancelled) {
      // j is past the last inner read: the run finished untouched.
      EXPECT_EQ(cancelled.status.code, full.status.code) << at;
      EXPECT_EQ(cancelled.result.iterations, full.result.iterations) << at;
      EXPECT_EQ(cancelled.result.value, full.result.value) << at;
      break;
    }
    const std::string& message = cancelled.status.message;
    if (message.find("restricted LP") != std::string::npos) ++lp_exits;
    if (message.find("best-response oracle") != std::string::npos)
      ++oracle_exits;

    const core::SolverCheckpoint restored = through_text(cp);
    const auto resumed = core::solve_double_oracle(
        game, {.budget = SolveBudget::iterations(200),
               .weights = weights,
               .resume = &restored});
    EXPECT_EQ(resumed.status.code, full.status.code) << at;
    EXPECT_EQ(resumed.result.iterations, full.result.iterations) << at;
    EXPECT_EQ(resumed.result.value, full.result.value) << at;
    EXPECT_EQ(resumed.result.lower_bound, full.result.lower_bound) << at;
    EXPECT_EQ(resumed.result.upper_bound, full.result.upper_bound) << at;
  }
  EXPECT_GT(lp_exits, 0u) << tag;
  EXPECT_GT(oracle_exits, 0u) << tag;
}

TEST(InnerCancelResume, DoubleOracleResumesExactlyFromEveryInnerCheck) {
  sweep_inner_cancels(core::TupleGame(graph::petersen_graph(), 3, 1), {},
                      "petersen k3");
  sweep_inner_cancels(core::TupleGame(graph::cycle_graph(8), 2, 1), {},
                      "C8 k2");
}

TEST(InnerCancelResume, WeightedDoubleOracleResumesExactlyFromEveryInnerCheck) {
  for (const auto& [name, game] :
       {std::pair{"petersen k3",
                  core::TupleGame(graph::petersen_graph(), 3, 1)},
        std::pair{"C8 k2", core::TupleGame(graph::cycle_graph(8), 2, 1)}}) {
    std::vector<double> weights(game.graph().num_vertices());
    for (std::size_t v = 0; v < weights.size(); ++v)
      weights[v] = 1.0 + 0.25 * static_cast<double>(v % 4);
    sweep_inner_cancels(game, weights, name);
  }
}

// ---------------------------------------------------------------------------
// Flat-tableau regression (docs/SIMPLEX.md): interrupted and fault-armed LP
// solves on the new core must reproduce the reference path's matrix-game
// brackets bit-for-bit, so every checkpoint captured above an LP truncation
// carries exactly the bounds the old implementation would have written.
// The `defender-checkpoint v1` golden stays pinned byte-for-byte by
// CheckpointText.GoldenSnapshotIsStable regardless of the LP substrate.

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_brackets_bit_equal(const Solved<lp::MatrixGameSolution>& flat,
                               const Solved<lp::MatrixGameSolution>& ref,
                               const std::string& tag) {
  EXPECT_EQ(flat.status.code, ref.status.code) << tag;
  EXPECT_EQ(flat.status.iterations, ref.status.iterations) << tag;
  EXPECT_EQ(double_bits(flat.result.lower_bound),
            double_bits(ref.result.lower_bound))
      << tag << ": lower bound " << flat.result.lower_bound << " vs "
      << ref.result.lower_bound;
  EXPECT_EQ(double_bits(flat.result.upper_bound),
            double_bits(ref.result.upper_bound))
      << tag << ": upper bound " << flat.result.upper_bound << " vs "
      << ref.result.upper_bound;
  EXPECT_EQ(double_bits(flat.result.value), double_bits(ref.result.value))
      << tag << ": value";
}

TEST(LpKillResume, KillAtPivotIMatchesReferenceBrackets) {
  // Kill the matrix-game LP at every pivot budget from 1 to one past the
  // full solve; the truncated brackets the checkpoint layer would persist
  // must match the reference substrate exactly at every stop.
  const core::TupleGame game(graph::petersen_graph(), 2, 1);
  const lp::Matrix payoff = core::coverage_matrix(game);
  const auto full = lp::solve_matrix_game(payoff);
  ASSERT_TRUE(full.ok()) << full.status.to_string();
  ASSERT_GT(full.status.iterations, 2u)
      << "instance too easy to exercise a mid-pivot kill";
  for (std::size_t i = 1; i <= full.status.iterations + 1; ++i) {
    const auto flat =
        lp::solve_matrix_game(payoff, SolveBudget::iterations(i));
    const auto ref =
        lp::solve_matrix_game(payoff, SolveBudget::iterations(i), nullptr,
                              nullptr, &lp::reference::solve_max);
    expect_brackets_bit_equal(flat, ref,
                              "kill at pivot " + std::to_string(i));
  }
  // An LP re-solve with the budget restored IS the resume (the tableau is
  // rebuilt deterministically); it must land exactly on the full solve.
  const auto resumed = lp::solve_matrix_game(
      payoff, SolveBudget::iterations(full.status.iterations + 1));
  expect_brackets_bit_equal(resumed, full, "budget-restored re-solve");
}

TEST(LpKillResume, FaultSitesMatchReferenceBrackets) {
  // Both lp-* sites, armed at rate 1.0. Fault decisions are pure functions
  // of (seed, site, per-site counter), so a fresh context per substrate
  // replays the identical schedule.
  const core::TupleGame game(graph::grid_graph(2, 3), 2, 1);
  const lp::Matrix payoff = core::coverage_matrix(game);
  for (const fault::FaultSite site : {fault::FaultSite::kLpPivotPerturb,
                                      fault::FaultSite::kLpForceUnstable}) {
    fault::FaultPlan plan;
    plan.seed = 0xc0ffee ^ static_cast<std::uint64_t>(site);
    plan.rate_of(site) = 1.0;
    fault::FaultContext flat_ctx(plan);
    const auto flat = lp::solve_matrix_game(
        payoff, SolveBudget::unlimited_budget(), nullptr, &flat_ctx);
    fault::FaultContext ref_ctx(plan);
    const auto ref = lp::solve_matrix_game(
        payoff, SolveBudget::unlimited_budget(), nullptr, &ref_ctx,
        &lp::reference::solve_max);
    expect_brackets_bit_equal(
        flat, ref,
        std::string("armed site ") + fault::to_string(site));
    // The forced-unstable site must actually demote — proving the fault
    // path is live on the new core, not silently skipped.
    if (site == fault::FaultSite::kLpForceUnstable)
      EXPECT_EQ(flat.status.code, StatusCode::kNumericallyUnstable);
  }
}

TEST(LpKillResume, FaultArmedDoubleOracleKillResumeIsDeterministic) {
  // Chaos + checkpoint on the new core: a double oracle whose every
  // subgame LP is forced unstable, killed at iteration 2 and resumed
  // through the text format, must reproduce the uninterrupted faulted run.
  // kLpForceUnstable fires on every evaluation at rate 1.0 regardless of
  // the per-site counter, so the interrupted and uninterrupted runs see
  // the same fault schedule.
  const core::TupleGame game(graph::petersen_graph(), 2, 1);
  fault::FaultPlan plan;
  plan.seed = 20260808;
  plan.rate_of(fault::FaultSite::kLpForceUnstable) = 1.0;

  fault::FaultContext full_ctx(plan);
  const auto full = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(30), .fault = &full_ctx});
  ASSERT_TRUE(std::isfinite(full.result.lower_bound));
  ASSERT_TRUE(std::isfinite(full.result.upper_bound));

  fault::FaultContext killed_ctx(plan);
  core::SolverCheckpoint cp;
  const auto killed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(2),
             .capture = &cp,
             .fault = &killed_ctx});
  ASSERT_EQ(killed.status.code, StatusCode::kIterationLimit)
      << killed.status.to_string();

  const core::SolverCheckpoint restored = through_text(cp);
  fault::FaultContext resumed_ctx(plan);
  const auto resumed = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(28),
             .resume = &restored,
             .fault = &resumed_ctx});

  EXPECT_EQ(resumed.status.code, full.status.code);
  EXPECT_EQ(resumed.result.iterations, full.result.iterations);
  EXPECT_EQ(double_bits(resumed.result.value),
            double_bits(full.result.value));
  EXPECT_EQ(double_bits(resumed.result.lower_bound),
            double_bits(full.result.lower_bound));
  EXPECT_EQ(double_bits(resumed.result.upper_bound),
            double_bits(full.result.upper_bound));
}

}  // namespace
}  // namespace defender
