#include "core/zero_sum.hpp"

#include <gtest/gtest.h>

#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/k_matching.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {
namespace {

TEST(CoverageMatrix, RowsAreTuplesColumnsAreVertices) {
  const TupleGame game(graph::path_graph(3), 1, 1);  // edges (0,1), (1,2)
  const lp::Matrix a = coverage_matrix(game);
  ASSERT_EQ(a.rows(), 2u);
  ASSERT_EQ(a.cols(), 3u);
  // Row 0 = edge (0,1): covers vertices 0 and 1.
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
  // Row 1 = edge (1,2).
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 1.0);
}

TEST(CoverageMatrix, PairsShareCoveredVertices) {
  const TupleGame game(graph::path_graph(3), 2, 1);  // single tuple {0,1}
  const lp::Matrix a = coverage_matrix(game);
  ASSERT_EQ(a.rows(), 1u);
  for (std::size_t v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(a.at(0, v), 1.0);
}

TEST(CoverageMatrix, EnforcesTupleLimit) {
  const TupleGame game(graph::complete_graph(12), 6, 1);
  EXPECT_THROW(coverage_matrix(game), ContractViolation);
}

TEST(TupleAtRank, MatchesLexicographicEnumeration) {
  const TupleGame game(graph::cycle_graph(5), 2, 1);
  std::uint64_t rank = 0;
  util::for_each_combination(5, 2, [&](const std::vector<std::size_t>& c) {
    const Tuple t = tuple_at_rank(game, rank++);
    EXPECT_EQ(t, Tuple(c.begin(), c.end()));
    return true;
  });
}

TEST(SolveZeroSum, ValueOnC6MatchesKMatchingPrediction) {
  // C6, k = 1: the k-matching NE defends 3 edges, so the zero-sum value
  // (unique across equilibria) must be 1/3.
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const lp::MatrixGameSolution s = solve_zero_sum(game).value_or_throw();
  EXPECT_NEAR(s.value, 1.0 / 3, 1e-7);
}

TEST(SolveZeroSum, ValueScalesWithKOnC6) {
  for (std::size_t k = 1; k <= 3; ++k) {
    const TupleGame game(graph::cycle_graph(6), k, 1);
    const lp::MatrixGameSolution s = solve_zero_sum(game).value_or_throw();
    EXPECT_NEAR(s.value, static_cast<double>(k) / 3.0, 1e-7) << "k=" << k;
  }
}

TEST(SolveZeroSum, StarValueIsKOverLeafCount) {
  // Star with L leaves: defender mixes over spokes; value = k / L.
  const TupleGame game(graph::star_graph(5), 2, 1);
  EXPECT_NEAR(solve_zero_sum(game).value_or_throw().value, 2.0 / 5, 1e-7);
}

TEST(SolveZeroSum, AgreesWithATupleHitProbability) {
  for (const auto& g : {graph::path_graph(6), graph::complete_bipartite(2, 4)}) {
    for (std::size_t k = 1; k <= 2; ++k) {
      const TupleGame game(g, k, 1);
      const auto result = a_tuple_bipartite(game);
      ASSERT_TRUE(result.has_value());
      const double predicted =
          analytic_hit_probability(game, result->k_matching_ne);
      EXPECT_NEAR(solve_zero_sum(game).value_or_throw().value, predicted, 1e-7)
          << "k=" << k;
    }
  }
}

TEST(SolveZeroSum, NumericallyHardGridInstance) {
  // Regression: grid 4x5 with k = 2 builds a 465 x 20 coverage LP whose
  // degenerate tableau blew up under Dantzig pricing with naive
  // minimum-ratio tie-breaking (tiny pivots amplified round-off until the
  // "optimal" solution was infeasible by 1e16). The stabilized leaving
  // rule must land exactly on the k-matching value 2/|IS| = 0.2.
  const TupleGame game(graph::grid_graph(4, 5), 2, 1);
  EXPECT_NEAR(solve_zero_sum(game).value_or_throw().value, 0.2, 1e-7);
}

TEST(SolveZeroSum, MediumCoverageMatricesAcrossFamilies) {
  // Sweep the LP over every instance size the benches exercise so a
  // simplex regression can never again hide from ctest.
  const struct {
    graph::Graph g;
    std::size_t k;
    double expected;
  } cases[] = {
      {graph::grid_graph(4, 4), 2, 0.25},        // C(24,2)=276 rows
      {graph::grid_graph(3, 5), 2, 2.0 / 8},     // |IS| = 8
      {graph::hypercube_graph(3), 3, 0.75},      // C(12,3)=220 rows
      {graph::ladder_graph(6), 3, 0.5},          // |IS| = 6
      {graph::complete_bipartite(4, 8), 2, 0.25},
  };
  for (const auto& c : cases) {
    const TupleGame game(c.g, c.k, 1);
    EXPECT_NEAR(solve_zero_sum(game).value_or_throw().value, c.expected, 1e-7)
        << "n=" << c.g.num_vertices() << " k=" << c.k;
  }
}

TEST(ToConfiguration, LpSolutionIsAMixedNashEquilibrium) {
  const TupleGame game(graph::cycle_graph(6), 2, 3);
  const lp::MatrixGameSolution s = solve_zero_sum(game).value_or_throw();
  const MixedConfiguration config = to_configuration(game, s);
  EXPECT_TRUE(is_mixed_ne_by_best_response(game, config, Oracle::kExhaustive,
                                           1e-6));
}

}  // namespace
}  // namespace defender::core
