// Verifies the umbrella header compiles standalone and exposes the whole
// public surface: one end-to-end flow touching every layer through it.
#include "defender.hpp"

#include <gtest/gtest.h>

namespace {

using namespace defender;

TEST(Umbrella, EndToEndThroughTheSingleInclude) {
  // Graph substrate.
  const graph::Graph g = graph::cycle_graph(6);
  EXPECT_TRUE(graph::is_bipartite(g));

  // Matching substrate.
  EXPECT_EQ(matching::max_matching(g).size(), 3u);
  EXPECT_EQ(matching::min_edge_cover_size(g), 3u);

  // Core: game, equilibrium, verification.
  const core::TupleGame game(g, 2, 3);
  const auto ne = core::a_tuple_bipartite(game);
  ASSERT_TRUE(ne.has_value());
  EXPECT_TRUE(core::verify_mixed_ne(game, ne->configuration).is_ne());

  // LP baseline.
  EXPECT_NEAR(core::solve_zero_sum(game).value_or_throw().value, 2.0 / 3, 1e-7);

  // Double oracle.
  EXPECT_NEAR(core::solve_double_oracle(game).value_or_throw().value, 2.0 / 3,
              1e-6);

  // Serialization round trip.
  const std::string text = core::to_text(game, ne->configuration);
  EXPECT_EQ(core::defender_profit(game, core::from_text(game, text)),
            core::defender_profit(game, ne->configuration));

  // Simulation.
  util::Rng rng(1);
  const sim::PlayoutStats stats =
      sim::run_playouts(game, ne->configuration, 2000, rng);
  EXPECT_GT(stats.defender_profit_mean, 0.0);
}

}  // namespace
