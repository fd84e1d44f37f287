#include "core/weighted.hpp"

#include <gtest/gtest.h>

#include "core/atuple.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "sim/fictitious_play.hpp"
#include "util/assert.hpp"

namespace defender::core {
namespace {

TEST(ValidateWeights, RejectsBadShapes) {
  const TupleGame game(graph::path_graph(4), 1, 1);
  EXPECT_THROW(validate_weights(game, std::vector<double>{1, 1}),
               ContractViolation);
  EXPECT_THROW(validate_weights(game, std::vector<double>{1, 1, 0, 1}),
               ContractViolation);
  EXPECT_NO_THROW(validate_weights(game, std::vector<double>{1, 2, 3, 4}));
}

TEST(DamageMatrix, TransposedComplementOfCoverage) {
  const TupleGame game(graph::path_graph(3), 1, 1);
  const std::vector<double> w{1.0, 5.0, 2.0};
  const lp::Matrix d = damage_matrix(game, w);
  ASSERT_EQ(d.rows(), 3u);  // vertices
  ASSERT_EQ(d.cols(), 2u);  // tuples (edges)
  // Edge (0,1): vertex 2 escapes with damage 2; edge (1,2): vertex 0 / 1.
  EXPECT_DOUBLE_EQ(d.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.at(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d.at(1, 1), 0.0);
}

TEST(SolveWeightedZeroSum, UnitWeightsMatchUnweightedValue) {
  // With w = 1 the damage value equals 1 - hit value.
  for (std::size_t k = 1; k <= 2; ++k) {
    const TupleGame game(graph::cycle_graph(6), k, 1);
    const std::vector<double> w(6, 1.0);
    const double damage =
        solve_zero_sum(game, {.weights = w}).value_or_throw().value;
    const double hit = solve_zero_sum(game).value_or_throw().value;
    EXPECT_NEAR(damage, 1.0 - hit, 1e-7) << "k=" << k;
  }
}

TEST(SolveWeightedZeroSum, ScalingWeightsScalesTheValue) {
  const TupleGame game(graph::path_graph(5), 1, 1);
  const std::vector<double> w1(5, 1.0);
  const std::vector<double> w3(5, 3.0);
  EXPECT_NEAR(
      solve_zero_sum(game, {.weights = w3}).value_or_throw().value,
      3.0 * solve_zero_sum(game, {.weights = w1}).value_or_throw().value,
      1e-6);
}

TEST(SolveWeightedZeroSum, DefenderShieldsTheValuableAsset) {
  // P3 with a precious middle vertex: both edges cover it, so the damage
  // game reduces to protecting the endpoints; the attacker never profits
  // from the middle.
  const TupleGame game(graph::path_graph(3), 1, 1);
  const std::vector<double> w{1.0, 100.0, 1.0};
  // The damage game's rows are the attacker's vertices.
  const lp::MatrixGameSolution s =
      solve_zero_sum(game, {.weights = w}).value_or_throw();
  EXPECT_NEAR(s.row_strategy[1], 0.0, 1e-7);
  // Value: endpoints weight 1 each, defender covers one of them; the
  // attacker mixes over endpoints for damage 1/2.
  EXPECT_NEAR(s.value, 0.5, 1e-7);
}

TEST(SolveWeightedZeroSum, SkewedStarConcentratesDefence) {
  // Star K_{1,4} with one golden leaf: the defender's mix must overweight
  // the golden spoke, dropping its escape damage to the common level.
  const TupleGame game(graph::star_graph(4), 1, 1);
  std::vector<double> w(5, 1.0);
  w[1] = 9.0;  // golden leaf
  const lp::MatrixGameSolution s =
      solve_zero_sum(game, {.weights = w}).value_or_throw();
  // Equalized damage: value v satisfies sum over leaves of (1 - v/w_l) = 1
  // (defender probabilities sum to one): 1 - v/9 + 3(1 - v) = 1 ->
  // v * (1/9 + 3) = 3 -> v = 27/28.
  EXPECT_NEAR(s.value, 27.0 / 28.0, 1e-6);
}

TEST(ExpectedDamage, MatchesHandComputation) {
  const TupleGame game(graph::path_graph(3), 1, 2);
  const MixedConfiguration config = symmetric_configuration(
      game, VertexDistribution::uniform({0, 2}),
      TupleDistribution::uniform({{0}}));  // always defend (0,1)
  const std::vector<double> w{4.0, 1.0, 8.0};
  // Mass 1 on vertex 0 (covered) and 1 on vertex 2 (escapes, damage 8).
  EXPECT_DOUBLE_EQ(expected_damage(game, config, w), 8.0);
}

TEST(WeightedFictitiousPlay, ConvergesToTheLpDamageValue) {
  const TupleGame game(graph::star_graph(4), 1, 1);
  std::vector<double> w(5, 1.0);
  w[1] = 9.0;
  const auto fp = sim::fictitious_play(
                      game, {.budget = SolveBudget::iterations(4000),
                             .tolerance = 0,
                             .weights = w})
                      .result;
  const double lp =
      solve_zero_sum(game, {.weights = w}).value_or_throw().value;
  EXPECT_NEAR(fp.value_estimate, lp, 0.05);
  EXPECT_GE(fp.trace.back().upper, lp - 1e-9);
  EXPECT_LE(fp.trace.back().lower, lp + 1e-9);
}

TEST(WeightedFictitiousPlay, UnitWeightsAgreeWithUnweightedDynamics) {
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const std::vector<double> w(6, 1.0);
  const SolveBudget rounds = SolveBudget::iterations(2000);
  const auto weighted =
      sim::fictitious_play(game,
                           {.budget = rounds, .tolerance = 0, .weights = w})
          .result;
  const auto plain =
      sim::fictitious_play(game, {.budget = rounds, .tolerance = 0}).result;
  // Damage value = 1 - hit value.
  EXPECT_NEAR(weighted.value_estimate, 1.0 - plain.value_estimate, 0.05);
}

}  // namespace
}  // namespace defender::core
