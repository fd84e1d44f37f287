// The two-matching bracket against exact truth. Over every connected graph
// with n <= 6 and every k the LP route enumerates, the LP value lies in
// [lower, upper] and equals lower when the bracket is closed, and both
// certificates hold on their own: the defender mix hits every vertex at
// least `lower` often, and no k-tuple catches more than `upper` of the
// attacker mix.
#include "core/matching_bracket.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/best_response.hpp"
#include "core/game.hpp"
#include "core/zero_sum.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace defender::core {
namespace {

/// P(Hit(v)) of every vertex under the defender mix.
std::vector<double> hit_probabilities(const graph::Graph& g,
                                      const TupleDistribution& defender) {
  std::vector<double> hit(g.num_vertices(), 0.0);
  for (std::size_t i = 0; i < defender.support().size(); ++i)
    for (graph::Vertex v : tuple_vertices(g, defender.support()[i]))
      hit[v] += defender.probs()[i];
  return hit;
}

/// The attacker mix as a mass vector over all vertices.
std::vector<double> attacker_masses(const graph::Graph& g,
                                    const VertexDistribution& attacker) {
  std::vector<double> mass(g.num_vertices(), 0.0);
  for (std::size_t i = 0; i < attacker.support().size(); ++i)
    mass[attacker.support()[i]] = attacker.probs()[i];
  return mass;
}

TEST(MatchingBracket, ContainsTheLpValueOnEveryConnectedGraphUpToSixVertices) {
  std::size_t pairs = 0;
  std::size_t closed = 0;
  for (std::size_t n = 2; n <= 6; ++n) {
    for (const graph::Graph& g : graph::all_connected_graphs(n)) {
      for (std::size_t k = 1; k <= g.num_edges(); ++k) {
        const TupleGame game(g, k, 1);
        if (game.num_tuples() > kMaxLpTuples) continue;
        ++pairs;
        const MatchingBracket b = matching_bracket(game);
        const auto lp = solve_zero_sum(game);
        ASSERT_TRUE(lp.ok()) << lp.status.to_string();
        const double value = lp.result.value;
        EXPECT_LE(b.lower, value + 1e-9) << "n=" << n << " k=" << k;
        EXPECT_GE(b.upper, value - 1e-9) << "n=" << n << " k=" << k;
        if (b.closed) {
          ++closed;
          EXPECT_EQ(b.lower, b.upper);
          EXPECT_NEAR(value, b.lower, 1e-9) << "n=" << n << " k=" << k;
        }

        const std::vector<double> hit = hit_probabilities(g, b.defender);
        EXPECT_GE(*std::min_element(hit.begin(), hit.end()), b.lower - 1e-12)
            << "n=" << n << " k=" << k;
        const BestTuple best =
            best_tuple_exhaustive(game, attacker_masses(g, b.attacker));
        EXPECT_LE(best.mass, b.upper + 1e-12) << "n=" << n << " k=" << k;
      }
    }
  }
  // 142 graphs; C(m, k) <= 6435 for m <= 15, so every k is in scope.
  EXPECT_EQ(pairs, 1112u);
  EXPECT_EQ(closed, 1078u);
}

TEST(MatchingBracket, ClosesOnTheBoardsThePaperSolvesExactly) {
  // Theorem 5.1: bipartite boards, value k/ρ.
  const MatchingBracket grid = matching_bracket(
      TupleGame(graph::grid_graph(5, 7), 4, 1));
  EXPECT_TRUE(grid.closed);
  EXPECT_EQ(grid.lower, 4.0 / 18.0);  // ρ = 35 − 17
  // A perfect matching: value 2k/n.
  const MatchingBracket petersen =
      matching_bracket(TupleGame(graph::petersen_graph(), 3, 1));
  EXPECT_TRUE(petersen.closed);
  EXPECT_EQ(petersen.lower, 3.0 / 5.0);
  EXPECT_EQ(petersen.defender.support().size(), 5u);  // 5 / gcd(5, 3)
  // Theorem 3.1: k >= ρ gives the pure edge cover and value 1.
  const MatchingBracket cover =
      matching_bracket(TupleGame(graph::cycle_graph(9), 5, 1));
  EXPECT_TRUE(cover.closed);
  EXPECT_EQ(cover.lower, 1.0);
  EXPECT_EQ(cover.upper, 1.0);
  ASSERT_EQ(cover.defender.support().size(), 1u);
  EXPECT_TRUE(graph::is_edge_cover(graph::cycle_graph(9),
                                   cover.defender.support()[0]));
}

TEST(MatchingBracket, OddCycleStaysOpenWithTheFractionalBound) {
  // C7: ν = 3, so ρ = 4; the double cover C14 has a perfect matching, so
  // ν_f = 3.5 and the packing is uniform.
  const MatchingBracket b =
      matching_bracket(TupleGame(graph::cycle_graph(7), 2, 1));
  EXPECT_FALSE(b.closed);
  EXPECT_EQ(b.lower, 2.0 / 4.0);
  EXPECT_EQ(b.upper, 4.0 / 7.0);
  ASSERT_EQ(b.attacker.support().size(), 7u);
  for (double p : b.attacker.probs()) EXPECT_EQ(p, 1.0 / 7.0);
}

}  // namespace
}  // namespace defender::core
