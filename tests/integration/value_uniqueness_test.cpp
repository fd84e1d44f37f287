// Integration suite: the zero-sum value of Π_k(G) is unique, so every
// equilibrium family the library can construct on the same instance —
// k-matching NE, perfect-matching NE, edge-uniform NE, LP solution — must
// report exactly the same hit probability, and that probability can never
// exceed the coverage ceiling min(1, 2k/n).
#include <gtest/gtest.h>

#include <optional>

#include "core/analytics.hpp"
#include "core/atuple.hpp"
#include "core/k_matching.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/regular_ne.hpp"
#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace defender::core {
namespace {

struct InstanceValues {
  std::optional<double> k_matching;
  std::optional<double> perfect_matching;
  std::optional<double> edge_uniform;
  std::optional<double> lp;
};

InstanceValues collect(const graph::Graph& g, std::size_t k) {
  InstanceValues v;
  const TupleGame game(g, k, 1);
  if (const auto km = find_k_matching_ne(game))
    v.k_matching = analytic_hit_probability(game, km->k_matching_ne);
  if (has_perfect_matching(g) && k <= g.num_vertices() / 2)
    if (const auto pm = find_perfect_matching_ne(game))
      v.perfect_matching = analytic_hit_probability(game, *pm);
  if (k == 1 && regularity(g))
    v.edge_uniform = edge_uniform_hit_probability(game);
  if (game.num_tuples() <= 2000)
    v.lp = solve_zero_sum(game).value_or_throw().value;
  return v;
}

void expect_consistent(const graph::Graph& g, std::size_t k,
                       const char* label) {
  const InstanceValues v = collect(g, k);
  const TupleGame game(g, k, 1);
  const double ceiling = coverage_ceiling(game);
  std::optional<double> reference;
  for (const auto& value :
       {v.k_matching, v.perfect_matching, v.edge_uniform, v.lp}) {
    if (!value) continue;
    EXPECT_LE(*value, ceiling + 1e-7) << label << " k=" << k;
    if (!reference) reference = value;
    EXPECT_NEAR(*value, *reference, 1e-7) << label << " k=" << k;
  }
}

TEST(ValueUniqueness, StructuredFamilies) {
  expect_consistent(graph::path_graph(6), 1, "P6");
  expect_consistent(graph::path_graph(6), 2, "P6");
  expect_consistent(graph::cycle_graph(6), 1, "C6");
  expect_consistent(graph::cycle_graph(6), 2, "C6");
  expect_consistent(graph::cycle_graph(6), 3, "C6");
  expect_consistent(graph::cycle_graph(7), 1, "C7");
  expect_consistent(graph::star_graph(5), 1, "S5");
  expect_consistent(graph::star_graph(5), 2, "S5");
  expect_consistent(graph::complete_graph(4), 1, "K4");
  expect_consistent(graph::complete_bipartite(2, 4), 2, "K24");
  expect_consistent(graph::petersen_graph(), 1, "Petersen");
}

TEST(ValueUniqueness, RandomSmallBoards) {
  util::Rng rng(515);
  for (int trial = 0; trial < 30; ++trial) {
    const graph::Graph g = graph::gnp_graph(7, 0.45, rng);
    if (g.num_edges() < 2) continue;
    expect_consistent(g, 1, "gnp7");
    expect_consistent(g, 2, "gnp7");
  }
}

TEST(ValueUniqueness, FamiliesCoexistOnlyAtEqualValues) {
  // When both a k-matching NE (value k/|IS|) and a perfect-matching NE
  // (value 2k/n) exist, |IS| must equal n/2 — independent sets cannot beat
  // a perfect matching.
  util::Rng rng(616);
  std::size_t coexist = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const graph::Graph g = graph::random_bipartite(4, 4, 0.5, rng);
    const TupleGame game(g, 2, 1);
    const auto km = find_k_matching_ne(game);
    if (!km || !has_perfect_matching(g)) continue;
    ++coexist;
    EXPECT_EQ(km->k_matching_ne.vp_support.size(), g.num_vertices() / 2)
        << "trial " << trial;
  }
  EXPECT_GE(coexist, 5u);
}

}  // namespace
}  // namespace defender::core
