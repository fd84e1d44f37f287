// The two-matching bracket against exact truth. Over every connected graph
// with n <= 6 and every k the LP route enumerates, the LP value lies in
// [lower, upper] and equals lower when the bracket is closed, and both
// certificates hold on their own: the defender mix hits every vertex at
// least `lower` often, and no k-tuple catches more than `upper` of the
// attacker mix. A sweep over odd cycles and seeded random boards checks the
// three closure rules against matching sizes computed apart from the
// bracket, and every pair that only the half-integral windows close against
// an exact solve.
#include "core/matching_bracket.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/best_response.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/zero_sum.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "matching/blossom.hpp"
#include "util/random.hpp"

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
  // 142 graphs; C(m, k) <= 6435 for m <= 15, so every k is in scope. 1078
  // pairs close on integral matchings and 19 more on half-integral windows.
  EXPECT_EQ(pairs, 1112u);
  EXPECT_EQ(closed, 1097u);
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
  // ν_f = 3.5 and the packing is uniform. At k = 3 the windows need
  // 3k = 9 > N = 7 slots, so the bracket stays open.
  const MatchingBracket b =
      matching_bracket(TupleGame(graph::cycle_graph(7), 3, 1));
  EXPECT_FALSE(b.closed);
  EXPECT_EQ(b.lower, 3.0 / 4.0);
  EXPECT_EQ(b.upper, 6.0 / 7.0);
  ASSERT_EQ(b.attacker.support().size(), 7u);
  for (double p : b.attacker.probs()) EXPECT_EQ(p, 1.0 / 7.0);
}

TEST(MatchingBracket, HalfIntegralWindowsCloseTheOddCycleAtTheFractionalBound) {
  // C7 k2: the seven edges are half edges of one odd cycle, N = 7 and
  // 3k = 6 <= 7, so the value is 2k/N = 4/7. The seven rotations of two
  // slots 3 apart are seven pairs of disjoint edges, each vertex in four.
  const graph::Graph c7 = graph::cycle_graph(7);
  const MatchingBracket b = matching_bracket(TupleGame(c7, 2, 1));
  EXPECT_TRUE(b.closed);
  EXPECT_EQ(b.lower, 4.0 / 7.0);
  EXPECT_EQ(b.upper, 4.0 / 7.0);
  ASSERT_EQ(b.defender.support().size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(b.defender.probs()[i], 1.0 / 7.0);
    EXPECT_EQ(tuple_vertices(c7, b.defender.support()[i]).size(), 4u);
  }
  for (double hit : hit_probabilities(c7, b.defender))
    EXPECT_NEAR(hit, 4.0 / 7.0, 1e-15);
}

/// ν and |M(G × K2)|, both from the blossom algorithm: apart from the
/// bracket, which matches the double cover with Hopcroft–Karp.
struct MatchingSizes {
  std::size_t nu = 0;
  std::size_t double_cover = 0;
};

MatchingSizes matching_sizes(const graph::Graph& g) {
  const std::size_t n = g.num_vertices();
  graph::GraphBuilder cover(2 * n);
  for (const graph::Edge& e : g.edges()) {
    cover.add_edge(e.u, static_cast<graph::Vertex>(e.v + n));
    cover.add_edge(e.v, static_cast<graph::Vertex>(e.u + n));
  }
  return {matching::max_matching(g).size(),
          matching::max_matching(cover.build()).size()};
}

/// The tuple LP is the value's truth up to this many tuples and double
/// oracle above it: the LP's cost grows fast with its columns (a
/// 17 550-tuple C27 k4 solve takes about 20 s in Release).
constexpr std::uint64_t kLpTruthTuples = 2000;

/// Checks the closure rules on every k of `g`; on each pair only the
/// half-integral windows close, also both mixes and the value. Returns the
/// number of such pairs.
std::size_t check_every_k(const graph::Graph& g, const std::string& label) {
  const std::size_t n = g.num_vertices();
  const MatchingSizes sizes = matching_sizes(g);
  const std::size_t rho = n - sizes.nu;
  const std::size_t slots = 2 * n - sizes.double_cover;
  std::size_t windows_only = 0;
  for (std::size_t k = 1; k <= g.num_edges(); ++k) {
    const TupleGame game(g, k, 1);
    const MatchingBracket b = matching_bracket(game);
    const bool integral = k >= rho || sizes.double_cover == 2 * sizes.nu;
    const bool windows = 3 * k <= slots;
    EXPECT_EQ(b.closed, integral || windows) << label << " k=" << k;
    if (integral || !windows) continue;
    ++windows_only;

    const double value =
        static_cast<double>(2 * k) / static_cast<double>(slots);
    EXPECT_EQ(b.lower, value) << label << " k=" << k;
    EXPECT_EQ(b.upper, value) << label << " k=" << k;
    const std::vector<double> hit = hit_probabilities(g, b.defender);
    EXPECT_GE(*std::min_element(hit.begin(), hit.end()), b.lower - 1e-12)
        << label << " k=" << k;
    const std::vector<double> mass = attacker_masses(g, b.attacker);
    const BestTuple best = game.num_tuples() <= kMaxLpTuples
                               ? best_tuple_exhaustive(game, mass)
                               : best_tuple_branch_and_bound(game, mass);
    EXPECT_LE(best.mass, b.upper + 1e-12) << label << " k=" << k;
    const double exact =
        game.num_tuples() <= kLpTruthTuples
            ? solve_zero_sum(game).value_or_throw().value
            : solve_double_oracle(game,
                                  {.budget = SolveBudget::iterations(2000),
                                   .tolerance = 1e-12})
                  .value_or_throw()
                  .value;
    EXPECT_NEAR(exact, value, 1e-9) << label << " k=" << k;
  }
  return windows_only;
}

TEST(MatchingBracket, HalfIntegralWindowsCloseExactlyWhenThreeKFitsTheSlots) {
  // Odd cycles: ρ = (n + 1)/2 and N = n, so the windows close every k <= n/3
  // (80 pairs over C3–C31) and the pairs n/3 < k < ρ stay open. The sparse
  // random and BA(n, 2) boards add 175 pairs only the windows close.
  std::size_t windows_only = 0;
  for (std::size_t n = 3; n <= 31; n += 2) {
    std::string label = "C";
    label += std::to_string(n);
    windows_only += check_every_k(graph::cycle_graph(n), label);
  }
  EXPECT_EQ(windows_only, 80u);

  std::size_t random_windows_only = 0;
  for (std::size_t n = 7; n <= 30; ++n) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::string suffix = " n=";
      suffix += std::to_string(n);
      suffix += " seed=";
      suffix += std::to_string(seed);
      util::Rng rc_rng(seed * 1000 + n);
      random_windows_only += check_every_k(
          graph::random_connected(n, 2.0 / static_cast<double>(n), rc_rng),
          "random_connected" + suffix);
      util::Rng ba_rng(seed * 1000 + n);
      random_windows_only += check_every_k(
          graph::barabasi_albert(n, 2, ba_rng), "barabasi_albert" + suffix);
    }
  }
  EXPECT_EQ(random_windows_only, 175u);
}

}  // namespace
}  // namespace defender::core
