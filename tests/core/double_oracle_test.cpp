#include "core/double_oracle.hpp"

#include <gtest/gtest.h>

#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/k_matching.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/weighted.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace defender::core {
namespace {

TEST(DoubleOracle, MatchesFullLpOnSmallBoards) {
  util::Rng rng(1717);
  for (int trial = 0; trial < 15; ++trial) {
    const graph::Graph g = graph::gnp_graph(7, 0.4, rng);
    for (std::size_t k = 1; k <= 2; ++k) {
      if (g.num_edges() < k) continue;
      const TupleGame game(g, k, 1);
      if (game.num_tuples() > 1500) continue;
      const double full = solve_zero_sum(game).value_or_throw().value;
      const DoubleOracleResult dor = solve_double_oracle(game).value_or_throw();
      EXPECT_NEAR(dor.value, full, 1e-7) << "trial " << trial << " k=" << k;
    }
  }
}

TEST(DoubleOracle, MatchesAnalyticValuesOnStructuredBoards) {
  // C6, k: value k/3. Star S6, k: value k/6. C8 PM: 2k/8.
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_NEAR(
        solve_double_oracle(TupleGame(graph::cycle_graph(6), k, 1))
            .value_or_throw()
            .value,
        static_cast<double>(k) / 3.0, 1e-7);
  }
  EXPECT_NEAR(
      solve_double_oracle(TupleGame(graph::star_graph(6), 2, 1))
          .value_or_throw()
          .value,
      2.0 / 6, 1e-7);
  EXPECT_NEAR(
      solve_double_oracle(TupleGame(graph::cycle_graph(8), 3, 1))
          .value_or_throw()
          .value,
      6.0 / 8, 1e-7);
}

TEST(DoubleOracle, SolvesBeyondEnumerationLimits) {
  // Grid 5x5: m = 40, k = 5 -> C(40,5) = 658008 tuples; the direct LP
  // refuses, the double oracle closes in a handful of iterations.
  const graph::Graph g = graph::grid_graph(5, 5);
  const TupleGame game(g, 5, 1);
  EXPECT_THROW(solve_zero_sum(game).value_or_throw(), ContractViolation);
  const DoubleOracleResult dor =
      solve_double_oracle(game, {.budget = SolveBudget::iterations(500)})
          .value_or_throw();
  // Analytic: grid 5x5 admits a k-matching NE with |IS| = 13 (the colour
  // class majority), so the unique value is 5/13.
  const auto result = a_tuple_bipartite(game);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(dor.value,
              analytic_hit_probability(game, result->k_matching_ne), 1e-7);
  EXPECT_NEAR(dor.value, 5.0 / 13.0, 1e-7);
  EXPECT_LT(dor.defender_set_size, 60u);
}

TEST(DoubleOracle, ResultStrategiesAreAMutualBestResponse) {
  const TupleGame game(graph::grid_graph(3, 4), 3, 2);
  const DoubleOracleResult dor = solve_double_oracle(game).value_or_throw();
  const MixedConfiguration config =
      symmetric_configuration(game, dor.attacker, dor.defender);
  EXPECT_TRUE(is_mixed_ne_by_best_response(game, config,
                                           Oracle::kBranchAndBound, 1e-6));
}

TEST(DoubleOracle, SupportsStayCompact) {
  const TupleGame game(graph::hypercube_graph(4), 4, 1);
  const DoubleOracleResult dor = solve_double_oracle(game).value_or_throw();
  EXPECT_NEAR(dor.value, 0.5, 1e-7);  // 2k/n = 8/16 (Q4 has a PM)
  EXPECT_LE(dor.defender.support().size(), dor.defender_set_size);
  EXPECT_GT(dor.iterations, 0u);
}

TEST(DoubleOracle, NonBipartiteBoards) {
  // Petersen, k = 2: perfect matching gives value 2k/n = 0.4.
  const TupleGame game(graph::petersen_graph(), 2, 1);
  EXPECT_NEAR(solve_double_oracle(game).value_or_throw().value, 0.4, 1e-7);
  // C7 (odd, no PM, no partition), k = 1: value is the fractional one 2/7
  // (edge-uniform regular-graph NE).
  const TupleGame c7(graph::cycle_graph(7), 1, 1);
  EXPECT_NEAR(solve_double_oracle(c7).value_or_throw().value, 2.0 / 7, 1e-7);
}


TEST(WeightedDoubleOracle, MatchesFullDamageLpOnSmallBoards) {
  util::Rng rng(9090);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Graph g = graph::gnp_graph(6, 0.4, rng);
    const TupleGame game(g, 1, 1);
    std::vector<double> w(g.num_vertices());
    for (double& x : w) x = rng.uniform(0.5, 5.0);
    const double lp =
        solve_zero_sum(game, {.weights = w}).value_or_throw().value;
    const DoubleOracleResult dor =
        solve_double_oracle(game, {.weights = w}).value_or_throw();
    EXPECT_NEAR(dor.value, lp, 1e-6 + dor.gap) << "trial " << trial;
  }
}

TEST(WeightedDoubleOracle, GoldenStarClosedForm) {
  const TupleGame game(graph::star_graph(4), 1, 1);
  std::vector<double> w(5, 1.0);
  w[1] = 9.0;
  const DoubleOracleResult dor =
      solve_double_oracle(game, {.weights = w}).value_or_throw();
  EXPECT_NEAR(dor.value, 27.0 / 28.0, 1e-6);
}

TEST(WeightedDoubleOracle, UnitWeightsComplementTheCoverageValue) {
  for (std::size_t k = 1; k <= 2; ++k) {
    const TupleGame game(graph::cycle_graph(8), k, 1);
    const std::vector<double> w(8, 1.0);
    const double damage =
        solve_double_oracle(game, {.weights = w}).value_or_throw().value;
    const double hit = solve_double_oracle(game).value_or_throw().value;
    EXPECT_NEAR(damage, 1.0 - hit, 1e-6) << "k=" << k;
  }
}

TEST(WeightedDoubleOracle, ScalesBeyondTheDamageMatrixCap) {
  // Grid 6x6 with a golden centre, k = 4: C(60,4) = 487635 columns would
  // blow the dense damage matrix, but the oracle loop closes quickly.
  const graph::Graph g = graph::grid_graph(6, 6);
  const TupleGame game(g, 4, 1);
  std::vector<double> w(36, 1.0);
  w[14] = 20.0;  // an interior high-value host
  EXPECT_THROW(solve_zero_sum(game, {.weights = w}).value_or_throw(),
               ContractViolation);
  const DoubleOracleResult dor =
      solve_double_oracle(game, {.weights = w}).value_or_throw();
  EXPECT_GT(dor.value, 0.0);
  EXPECT_LT(dor.value, 1.0);  // the golden host itself must end covered
  EXPECT_LE(dor.gap, 1e-4);
}

}  // namespace
}  // namespace defender::core
