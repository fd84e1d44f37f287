// Integration suite E8: the combinatorial equilibrium hit probability
// k/|E(D(tp))| (Claim 4.3) must equal the value of the associated zero-sum
// matrix game, computed independently by the simplex substrate. The value
// of a zero-sum game is unique across all equilibria, so any mismatch
// means one of the two pipelines is wrong.
#include <gtest/gtest.h>

#include "core/atuple.hpp"
#include "core/k_matching.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "lp/matrix_game.hpp"
#include "util/random.hpp"

namespace defender::core {
namespace {

void expect_value_agreement(const graph::Graph& g, std::size_t k) {
  const TupleGame game(g, k, 1);
  const auto result = a_tuple_bipartite(game);
  ASSERT_TRUE(result.has_value()) << "k=" << k;
  const double combinatorial =
      analytic_hit_probability(game, result->k_matching_ne);
  const lp::MatrixGameSolution lp_solution =
      solve_zero_sum(game).value_or_throw();
  EXPECT_NEAR(lp_solution.value, combinatorial, 1e-7)
      << "board n=" << g.num_vertices() << " k=" << k;
}

TEST(LpCrosscheck, StructuredFamiliesSmallK) {
  expect_value_agreement(graph::path_graph(6), 1);
  expect_value_agreement(graph::path_graph(6), 2);
  expect_value_agreement(graph::cycle_graph(6), 1);
  expect_value_agreement(graph::cycle_graph(6), 2);
  expect_value_agreement(graph::cycle_graph(6), 3);
  expect_value_agreement(graph::star_graph(6), 1);
  expect_value_agreement(graph::star_graph(6), 3);
  expect_value_agreement(graph::complete_bipartite(2, 5), 2);
  expect_value_agreement(graph::ladder_graph(3), 2);
}

TEST(LpCrosscheck, RandomBipartiteBoards) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed);
    const graph::Graph g = graph::random_bipartite(3, 4, 0.4, rng);
    if (g.num_edges() > 9) continue;  // keep C(m, k) enumerable
    const auto partition = find_partition_bipartite(g);
    ASSERT_TRUE(partition.has_value());
    for (std::size_t k = 1; k <= std::min<std::size_t>(2, partition->independent_set.size()); ++k)
      expect_value_agreement(g, k);
  }
}

TEST(LpCrosscheck, LpDefenderStrategyIsOptimalAgainstTheFormula) {
  // The LP's defender strategy must guarantee at least k/|E(D(tp))| against
  // every vertex (row security level = value).
  const TupleGame game(graph::cycle_graph(6), 2, 1);
  const lp::Matrix payoff = coverage_matrix(game);
  const lp::MatrixGameSolution s =
      lp::solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(lp::row_security_level(payoff, s.row_strategy), s.value, 1e-7);
  EXPECT_NEAR(s.value, 2.0 / 3, 1e-7);
}

}  // namespace
}  // namespace defender::core
