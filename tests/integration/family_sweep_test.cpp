// Whole-pipeline invariant sweep: for a grid of (board family, k, ν)
// instances, run the full equilibrium pipeline and assert every invariant
// the library promises at once — structural (Definition 4.1), analytic
// (Claims 4.3/4.9, Corollary 4.10), verification (Theorem 3.4), value
// consistency (double oracle), serialization round trips, and simulation
// agreement. One parameterized body, many instances.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/double_oracle.hpp"
#include "core/k_matching.hpp"
#include "core/payoff.hpp"
#include "core/reduction.hpp"
#include "core/serialization.hpp"
#include "graph/generators.hpp"
#include "sim/playout.hpp"
#include "util/random.hpp"

namespace defender::core {
namespace {

struct SweepCase {
  std::string label;
  graph::Graph g;
  std::size_t k;
  std::size_t nu;
};

std::vector<SweepCase> sweep_cases() {
  util::Rng rng(321);
  std::vector<SweepCase> cases;
  const std::vector<std::pair<std::string, graph::Graph>> boards = {
      {"P9", graph::path_graph(9)},
      {"C10", graph::cycle_graph(10)},
      {"S7", graph::star_graph(7)},
      {"G3x4", graph::grid_graph(3, 4)},
      {"Q3", graph::hypercube_graph(3)},
      {"L5", graph::ladder_graph(5)},
      {"T12", graph::random_tree(12, rng)},
      {"B4x6", graph::random_bipartite(4, 6, 0.4, rng)},
  };
  for (const auto& [name, g] : boards)
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}})
      for (std::size_t nu : {std::size_t{1}, std::size_t{5}})
        cases.push_back({name + "/k" + std::to_string(k) + "/nu" +
                             std::to_string(nu),
                         g, k, nu});
  return cases;
}

// Test names print the parameter; the default printer dumps the object's
// bytes, heap pointers included, so no two runs would list the same names.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.label; }

class FamilySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FamilySweep, FullPipelineInvariants) {
  const SweepCase& c = GetParam();
  const auto partition = find_partition_bipartite(c.g);
  ASSERT_TRUE(partition.has_value());
  if (c.k > partition->independent_set.size() || c.k > c.g.num_edges())
    GTEST_SKIP() << "k exceeds the admissible range for this board";
  const TupleGame game(c.g, c.k, c.nu);
  const auto result = a_tuple(game, *partition);
  ASSERT_TRUE(result.has_value());

  // Structural: Definition 4.1 + cover conditions.
  EXPECT_TRUE(is_k_matching_configuration(game,
                                          result->k_matching_ne.vp_support,
                                          result->k_matching_ne.tp_support));
  EXPECT_TRUE(satisfies_cover_conditions(game, result->k_matching_ne));

  // Analytic: Claims 4.3/4.9 and Corollary 4.10.
  const std::size_t e_num = result->edge_model_ne.tp_support.size();
  EXPECT_EQ(result->support_size, lifted_support_size(e_num, c.k));
  EXPECT_EQ(result->tuples_per_edge, lifted_tuples_per_edge(e_num, c.k));
  const double hit_pred =
      analytic_hit_probability(game, result->k_matching_ne);
  const auto hit = hit_probabilities(game, result->configuration);
  for (graph::Vertex v : result->k_matching_ne.vp_support)
    EXPECT_NEAR(hit[v], hit_pred, 1e-12);
  EXPECT_NEAR(defender_profit(game, result->configuration),
              analytic_defender_profit(game, result->k_matching_ne), 1e-9);

  // Verification: Theorem 3.4 accepts.
  EXPECT_TRUE(verify_mixed_ne(game, result->configuration,
                              Oracle::kBranchAndBound)
                  .is_ne());

  // Value consistency: the double oracle independently lands on the same
  // unique value (run with single-attacker normalization).
  const TupleGame unit_game(c.g, c.k, 1);
  EXPECT_NEAR(solve_double_oracle(unit_game).value_or_throw().value, hit_pred,
              1e-6);

  // Serialization round trip preserves the payoff-relevant state.
  const MixedConfiguration restored =
      from_text(game, to_text(game, result->configuration));
  EXPECT_EQ(hit_probabilities(game, restored), hit);

  // Simulation: a short playout lands near the analytic profit.
  util::Rng rng(c.k * 1000 + c.nu);
  const auto stats =
      sim::run_playouts(game, result->configuration, 40000, rng);
  EXPECT_NEAR(stats.defender_profit_mean,
              defender_profit(game, result->configuration),
              0.05 * static_cast<double>(c.nu) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Boards, FamilySweep, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return name;
    });

}  // namespace
}  // namespace defender::core
