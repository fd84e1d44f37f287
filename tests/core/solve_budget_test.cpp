// Every non-kOk status path of the budgeted solvers: iteration limits,
// deadlines, oracle-node truncation, and input rejection. The common
// contract under test: budget exhaustion NEVER throws, and the returned
// bounds always bracket the true game value.
#include <gtest/gtest.h>

#include <vector>

#include "core/best_response.hpp"
#include "core/budget.hpp"
#include "core/double_oracle.hpp"
#include "core/status.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"
#include "util/assert.hpp"

namespace defender::core {
namespace {

TupleGame petersen_game() { return TupleGame(graph::petersen_graph(), 2, 2); }

double petersen_value() {
  static const double value =
      solve_zero_sum(petersen_game()).value_or_throw().value;
  return value;
}

TEST(DoubleOracleBudget, IterationLimitReturnsCertifiedBracket) {
  const TupleGame game = petersen_game();
  Solved<DoubleOracleResult> solved;
  EXPECT_NO_THROW(solved = solve_double_oracle(
                      game, {.budget = SolveBudget::iterations(1)}));
  EXPECT_EQ(solved.status.code, StatusCode::kIterationLimit);
  EXPECT_FALSE(solved.status.message.empty());
  EXPECT_TRUE(solved.result.approximate);
  EXPECT_LE(solved.result.lower_bound, petersen_value() + 1e-9);
  EXPECT_GE(solved.result.upper_bound, petersen_value() - 1e-9);
  EXPECT_GE(solved.result.value, solved.result.lower_bound);
  EXPECT_LE(solved.result.value, solved.result.upper_bound);
  // The partial mixes must still be valid distributions.
  EXPECT_FALSE(solved.result.defender.support().empty());
  EXPECT_FALSE(solved.result.attacker.support().empty());
}

TEST(DoubleOracleBudget, DeadlineExpiryMidSolve) {
  const TupleGame game = petersen_game();
  Solved<DoubleOracleResult> solved;
  EXPECT_NO_THROW(solved = solve_double_oracle(
                      game, {.budget = SolveBudget::deadline(1e-9)}));
  EXPECT_EQ(solved.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_LE(solved.result.lower_bound, petersen_value() + 1e-9);
  EXPECT_GE(solved.result.upper_bound, petersen_value() - 1e-9);
}

TEST(DoubleOracleBudget, UnlimitedBudgetStillSolvesExactly) {
  const TupleGame game = petersen_game();
  const Solved<DoubleOracleResult> solved =
      solve_double_oracle(game, {.budget = SolveBudget::unlimited_budget()});
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.result.value, petersen_value(), 1e-6);
  EXPECT_NEAR(solved.result.lower_bound, solved.result.upper_bound, 1e-4);
  EXPECT_FALSE(solved.result.approximate);
}

TEST(DoubleOracleBudget, OracleNodeBudgetTruncationKeepsBoundsSound) {
  // A star makes every edge share the center, so the top-k edge-mass bound
  // overcounts and the branch-and-bound cannot finish at the root: a node
  // budget of 1 genuinely truncates the oracle (on vertex-transitive boards
  // like Petersen the greedy incumbent meets the bound and the search
  // completes within one node, budget or not).
  const TupleGame game(graph::star_graph(5), 2, 2);
  const double exact = solve_zero_sum(game).value_or_throw().value;
  SolveBudget budget;
  budget.max_iterations = 50;
  budget.oracle_node_budget = 1;  // truncate every branch-and-bound call
  Solved<DoubleOracleResult> solved;
  EXPECT_NO_THROW(solved = solve_double_oracle(game, {.budget = budget}));
  EXPECT_TRUE(solved.result.approximate);
  EXPECT_LE(solved.result.lower_bound, exact + 1e-9);
  EXPECT_GE(solved.result.upper_bound, exact - 1e-9);
}

TEST(WeightedDoubleOracleBudget, IterationLimitBracketsWeightedValue) {
  const TupleGame game = petersen_game();
  const std::vector<double> weights(game.graph().num_vertices(), 2.0);
  const double exact =
      solve_double_oracle(game, {.weights = weights}).value_or_throw().value;
  Solved<DoubleOracleResult> solved;
  EXPECT_NO_THROW(solved = solve_double_oracle(
                      game, {.budget = SolveBudget::iterations(1),
                             .weights = weights}));
  EXPECT_EQ(solved.status.code, StatusCode::kIterationLimit);
  EXPECT_LE(solved.result.lower_bound, exact + 1e-9);
  EXPECT_GE(solved.result.upper_bound, exact - 1e-9);
  EXPECT_GE(solved.result.value, solved.result.lower_bound);
  EXPECT_LE(solved.result.value, solved.result.upper_bound);
}

TEST(BestResponseBudget, NodeBudgetTruncationReportsCompletionBound) {
  // Heavy center + diffuse leaves: the two heaviest edges overlap on the
  // center, so greedy (0.7) sits strictly below the completion bound
  // (min(1.2, total) = 1.0) and the search must branch — guaranteeing a
  // node budget of 1 truncates instead of finishing at the root.
  const TupleGame game(graph::star_graph(5), 2, 2);
  const std::vector<double> masses{0.5, 0.1, 0.1, 0.1, 0.1, 0.1};
  const BestTupleSearch full =
      best_tuple_branch_and_bound_budgeted(game, masses, 0);
  EXPECT_FALSE(full.truncated);
  EXPECT_DOUBLE_EQ(full.upper_bound, full.best.mass);

  const BestTupleSearch truncated =
      best_tuple_branch_and_bound_budgeted(game, masses, 1);
  EXPECT_TRUE(truncated.truncated);
  // The incumbent is feasible (a lower bound) and the completion bound
  // must dominate the true optimum.
  EXPECT_LE(truncated.best.mass, full.best.mass + 1e-12);
  EXPECT_GE(truncated.upper_bound, full.best.mass - 1e-12);
}

TEST(FictitiousPlayBudget, IterationLimitWithOpenGap) {
  const TupleGame game = petersen_game();
  Solved<sim::FictitiousPlayResult> solved;
  EXPECT_NO_THROW(solved = sim::fictitious_play(
                      game, {.budget = SolveBudget::iterations(3),
                             .tolerance = 1e-12}));
  EXPECT_EQ(solved.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(solved.result.rounds, 3u);
  ASSERT_FALSE(solved.result.trace.empty());
  const auto& last = solved.result.trace.back();
  EXPECT_LE(last.lower, petersen_value() + 1e-9);
  EXPECT_GE(last.upper, petersen_value() - 1e-9);
}

TEST(FictitiousPlayBudget, DeadlineExpiryStillPlaysOneRound) {
  const TupleGame game = petersen_game();
  SolveBudget budget;
  budget.wall_clock_seconds = 1e-9;
  Solved<sim::FictitiousPlayResult> solved;
  EXPECT_NO_THROW(solved = sim::fictitious_play(
                      game, {.budget = budget, .tolerance = 1e-12}));
  EXPECT_EQ(solved.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_GE(solved.result.rounds, 1u);
  EXPECT_FALSE(solved.result.trace.empty());
}

TEST(FictitiousPlayBudget, LooseGapTargetConvergesOk) {
  const TupleGame game = petersen_game();
  const Solved<sim::FictitiousPlayResult> solved =
      sim::fictitious_play(
          game, {.budget = SolveBudget::iterations(5000), .tolerance = 0.5});
  EXPECT_TRUE(solved.ok());
  EXPECT_LE(solved.result.gap, 0.5 + 1e-12);
}

TEST(FictitiousPlayBudget, RequiresSomeBound) {
  const TupleGame game = petersen_game();
  EXPECT_THROW(
      sim::fictitious_play(
          game, {.budget = SolveBudget::unlimited_budget(), .tolerance = 0}),
      ContractViolation);
}

TEST(WeightedFictitiousPlayBudget, IterationLimitBracketsWeightedValue) {
  const TupleGame game = petersen_game();
  const std::vector<double> weights(game.graph().num_vertices(), 1.5);
  const double exact =
      solve_double_oracle(game, {.weights = weights}).value_or_throw().value;
  Solved<sim::FictitiousPlayResult> solved;
  EXPECT_NO_THROW(solved = sim::fictitious_play(
                      game, {.budget = SolveBudget::iterations(3),
                             .tolerance = 1e-12,
                             .weights = weights}));
  EXPECT_EQ(solved.status.code, StatusCode::kIterationLimit);
  const auto& last = solved.result.trace.back();
  EXPECT_LE(last.lower, exact + 1e-9);
  EXPECT_GE(last.upper, exact - 1e-9);
}

TEST(HedgeBudget, IterationLimitWithOpenGap) {
  const TupleGame game = petersen_game();
  Solved<sim::HedgeResult> solved;
  EXPECT_NO_THROW(solved = sim::hedge_dynamics(
                      game, 2, {.budget = SolveBudget::iterations(2),
                                .tolerance = 1e-12}));
  EXPECT_EQ(solved.status.code, StatusCode::kIterationLimit);
  EXPECT_EQ(solved.result.rounds, 2u);
  const auto& last = solved.result.trace.back();
  EXPECT_LE(last.lower, petersen_value() + 1e-9);
  EXPECT_GE(last.upper, petersen_value() - 1e-9);
}

TEST(HedgeBudget, DeadlineExpiryStillPlaysOneRound) {
  const TupleGame game = petersen_game();
  SolveBudget budget;
  budget.max_iterations = 100000;
  budget.wall_clock_seconds = 1e-9;
  Solved<sim::HedgeResult> solved;
  EXPECT_NO_THROW(solved = sim::hedge_dynamics(
                      game, budget.max_iterations,
                      {.budget = budget, .tolerance = 1e-12}));
  EXPECT_EQ(solved.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_GE(solved.result.rounds, 1u);
}

TEST(HedgeBudget, RequiresRoundHorizon) {
  const TupleGame game = petersen_game();
  EXPECT_THROW(sim::hedge_dynamics(game, 0,
                                   {.budget = SolveBudget::deadline(1.0),
                                    .tolerance = 1e-6}),
               ContractViolation);
}

TEST(ZeroSumBudget, PivotLimitReturnsSecurityLevelBracket) {
  const TupleGame game = petersen_game();
  Solved<lp::MatrixGameSolution> solved;
  EXPECT_NO_THROW(
      solved = solve_zero_sum(game, {.budget = SolveBudget::iterations(1)}));
  EXPECT_FALSE(solved.ok());
  EXPECT_LE(solved.result.lower_bound, petersen_value() + 1e-9);
  EXPECT_GE(solved.result.upper_bound, petersen_value() - 1e-9);
  EXPECT_GE(solved.result.value, solved.result.lower_bound - 1e-12);
  EXPECT_LE(solved.result.value, solved.result.upper_bound + 1e-12);
}

TEST(ZeroSumBudget, OversizedInstanceIsInvalidInputNotACrash) {
  // C(40,5) = 658008 tuples, above kMaxLpTuples.
  const TupleGame game(graph::grid_graph(5, 5), 5, 1);
  ASSERT_GT(game.num_tuples(), kMaxLpTuples);
  Solved<lp::MatrixGameSolution> solved;
  EXPECT_NO_THROW(solved = solve_zero_sum(game));
  EXPECT_EQ(solved.status.code, StatusCode::kInvalidInput);
  EXPECT_NE(solved.status.message.find("double-oracle"), std::string::npos);
}

TEST(ZeroSumBudget, UnlimitedBudgetMatchesLegacySolver) {
  const TupleGame game = petersen_game();
  const Solved<lp::MatrixGameSolution> solved =
      solve_zero_sum(game, {.budget = SolveBudget::unlimited_budget()});
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.result.value, petersen_value(), 1e-9);
  EXPECT_NEAR(solved.result.lower_bound, solved.result.upper_bound, 1e-7);
}

TEST(StatusDescribe, CarriesCodeAndContext) {
  const Status s = Status::make(StatusCode::kIterationLimit, "budget gone",
                                7, 0.25, 0.5);
  const std::string text = s.describe();
  EXPECT_NE(text.find("iteration-limit"), std::string::npos);
  EXPECT_NE(text.find("budget gone"), std::string::npos);
  EXPECT_NE(text.find("iterations=7"), std::string::npos);
}

TEST(SolvedValueOrThrow, ThrowsTheDescribedStatus) {
  Solved<int> solved;
  solved.result = 42;
  solved.status = Status::make(StatusCode::kDeadlineExceeded, "too slow");
  EXPECT_THROW(solved.value_or_throw(), ContractViolation);
  solved.status = Status::make_ok();
  EXPECT_EQ(solved.value_or_throw(), 42);
}

}  // namespace
}  // namespace defender::core
