// Cross-module structural property sweeps: invariants that tie the graph
// operations, the equilibrium families, and the analytics together on
// composed boards (products, line graphs, complements, realistic random
// topologies).
#include <gtest/gtest.h>

#include "core/analytics.hpp"
#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/double_oracle.hpp"
#include "core/k_matching.hpp"
#include "core/perfect_matching_ne.hpp"
#include "graph/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/edge_cover.hpp"
#include "graph/operations.hpp"
#include "graph/properties.hpp"
#include "graph/traversal.hpp"
#include "util/random.hpp"

namespace defender::core {
namespace {

TEST(Structural, ProductsOfBipartiteBoardsStayBipartiteAndSolvable) {
  const graph::Graph g =
      graph::cartesian_product(graph::path_graph(3), graph::cycle_graph(4));
  EXPECT_TRUE(graph::is_bipartite(g));
  const TupleGame game(g, 3, 2);
  const auto ne = a_tuple_bipartite(game);
  ASSERT_TRUE(ne.has_value());
  EXPECT_TRUE(verify_mixed_ne(game, ne->configuration,
                              Oracle::kBranchAndBound)
                  .is_ne());
}

TEST(Structural, ProductWithK2InheritsAPerfectMatching) {
  // G x K2 always has a perfect matching (the K2 fibres), so every prism
  // over any board is defense-optimal.
  util::Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::Graph base = graph::gnp_graph(7, 0.4, rng);
    const graph::Graph prism =
        graph::cartesian_product(base, graph::complete_graph(2));
    EXPECT_TRUE(has_perfect_matching(prism)) << "trial " << trial;
    const TupleGame game(prism, 2, 1);
    const auto pm = find_perfect_matching_ne(game);
    ASSERT_TRUE(pm.has_value());
    EXPECT_NEAR(defense_optimality(
                    game, analytic_hit_probability(game, *pm)),
                1.0, 1e-12);
  }
}

TEST(Structural, LineGraphOfAStarYieldsACompleteBoard) {
  // L(K_{1,n}) = K_n: the edge-scanning game on a star becomes a
  // vertex-style game on a clique, which has no expander partition but,
  // for even n, a perfect matching.
  const graph::Graph l = graph::line_graph(graph::star_graph(6));
  EXPECT_EQ(l, graph::complete_graph(6));
  EXPECT_FALSE(find_partition_exhaustive(l).has_value());
  EXPECT_TRUE(has_perfect_matching(l));
}

TEST(Structural, DoubleOracleOnRealisticTopologies) {
  // Internet-like (hubby) and small-world boards: the exact value exists
  // and respects the coverage ceiling.
  util::Rng rng(42);
  const graph::Graph ba = graph::barabasi_albert(40, 2, rng);
  const TupleGame ba_game(ba, 4, 1);
  const auto ba_result = solve_double_oracle(ba_game).value_or_throw();
  EXPECT_GT(ba_result.value, 0.0);
  EXPECT_LE(ba_result.value, coverage_ceiling(ba_game) + 1e-9);

  const graph::Graph ws = graph::watts_strogatz(36, 4, 0.2, rng);
  const TupleGame ws_game(ws, 4, 1);
  const auto ws_result = solve_double_oracle(ws_game).value_or_throw();
  EXPECT_GT(ws_result.value, 0.0);
  EXPECT_LE(ws_result.value, coverage_ceiling(ws_game) + 1e-9);
}

TEST(Structural, HubsMakeMixedDefenseHarderOnScaleFreeBoards) {
  // Hubs concentrate edges on few vertices, which SHRINKS the maximum
  // matching (leaves compete for the same hub partners) and therefore
  // ENLARGES the pure-NE threshold n − |max matching| relative to the
  // degree-balanced small-world board of comparable density.
  util::Rng rng(43);
  const graph::Graph ba = graph::barabasi_albert(60, 2, rng);
  const graph::Graph ws =
      graph::watts_strogatz(60, 4, 0.1, rng);  // ~same m = 2n-ish
  const std::size_t ba_threshold = matching::min_edge_cover_size(ba);
  const std::size_t ws_threshold = matching::min_edge_cover_size(ws);
  // Gallai identity holds on both.
  EXPECT_EQ(ba_threshold,
            ba.num_vertices() - matching::max_matching(ba).size());
  EXPECT_EQ(ws_threshold,
            ws.num_vertices() - matching::max_matching(ws).size());
  // Both are bounded below by n/2, and the hubby board is no easier.
  EXPECT_GE(ba_threshold, ba.num_vertices() / 2);
  EXPECT_GE(ba_threshold, ws_threshold);
  // The constructed covers are genuine edge covers.
  EXPECT_TRUE(graph::is_edge_cover(ba, matching::min_edge_cover(ba)));
  EXPECT_TRUE(graph::is_edge_cover(ws, matching::min_edge_cover(ws)));
}

TEST(Structural, ComplementSwapsCliquesAndIndependentSets) {
  util::Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Graph g = graph::gnp_graph(8, 0.5, rng);
    const graph::Graph c = graph::complement(g);
    // An independent set of g induces a clique in c, hence a connected
    // subgraph; spot check via the max IS of the exhaustive partition.
    const auto p = find_partition_exhaustive(g);
    if (!p || p->independent_set.size() < 2) continue;
    for (std::size_t i = 0; i + 1 < p->independent_set.size(); ++i)
      EXPECT_TRUE(c.has_edge(p->independent_set[i],
                             p->independent_set[i + 1]));
  }
}

}  // namespace
}  // namespace defender::core
