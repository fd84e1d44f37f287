#include "sim/tournament.hpp"

#include <gtest/gtest.h>

#include "core/atuple.hpp"
#include "core/double_oracle.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"

namespace defender::sim {
namespace {

using core::TupleDistribution;
using core::TupleGame;
using core::VertexDistribution;

TupleGame c6(std::size_t nu = 4) {
  return TupleGame(graph::cycle_graph(6), 1, nu);
}

// The alternating equilibrium of C6: defender uniform on the perfect
// matching {0, 3, 5}, attacker uniform on {0, 2, 4}.
DefenderPolicy equilibrium_defender() {
  return {"equilibrium", TupleDistribution::uniform({{0}, {3}, {5}})};
}
AttackerPolicy equilibrium_attacker() {
  return {"equilibrium", VertexDistribution::uniform({0, 2, 4})};
}
DefenderPolicy static_defender() {
  return {"static", TupleDistribution::uniform({{0}})};
}
AttackerPolicy exploiting_attacker() {
  // Against the static defender (edge (0,1)), vertex 3 always escapes.
  return {"exploit-static", VertexDistribution::uniform({3})};
}

TEST(Tournament, CrossTableShapeAndFloors) {
  const TupleGame game = c6();
  util::Rng rng(5);
  const TournamentResult r = run_tournament(
      game, {equilibrium_defender(), static_defender()},
      {equilibrium_attacker(), exploiting_attacker()}, 20000, rng);
  ASSERT_EQ(r.arrests.size(), 2u);
  ASSERT_EQ(r.arrests[0].size(), 2u);
  // Equilibrium defender: ~value * nu = (1/3)*4 against anything.
  EXPECT_NEAR(r.arrests[0][0], 4.0 / 3, 0.05);
  EXPECT_NEAR(r.arrests[0][1], 4.0 / 3, 0.05);
  // Static defender vs the exploiting attacker: zero arrests.
  EXPECT_NEAR(r.arrests[1][1], 0.0, 1e-12);
  // Floors: equilibrium floor ~ 4/3, static floor 0.
  EXPECT_GT(r.defender_floor[0], 1.2);
  EXPECT_NEAR(r.defender_floor[1], 0.0, 1e-12);
  // The exploiting attacker still concedes ~4/3 to the equilibrium mix.
  EXPECT_GT(r.attacker_ceiling[1], 1.2);
}

TEST(Tournament, RejectsEmptyPolicySets) {
  const TupleGame game = c6();
  util::Rng rng(1);
  EXPECT_THROW(
      run_tournament(game, {}, {equilibrium_attacker()}, 10, rng),
      ContractViolation);
}

TEST(Exploitability, EquilibriumPoliciesHaveZero) {
  const TupleGame game = c6(1);
  const double value = core::solve_double_oracle(game).value_or_throw().value;
  EXPECT_NEAR(value, 1.0 / 3, 1e-7);
  EXPECT_NEAR(defender_exploitability(game, equilibrium_defender().mix, value),
              0.0, 1e-9);
  EXPECT_NEAR(attacker_exploitability(game, equilibrium_attacker().mix, value),
              0.0, 1e-9);
}

TEST(Exploitability, NaivePoliciesArePositive) {
  const TupleGame game = c6(1);
  const double value = 1.0 / 3;
  // Static defender: guarantee 0 (vertex 3 never hit) -> exploitability 1/3.
  EXPECT_NEAR(defender_exploitability(game, static_defender().mix, value),
              1.0 / 3, 1e-12);
  // Pinned attacker: concedes 1 (the defender camps its edge).
  EXPECT_NEAR(
      attacker_exploitability(game, exploiting_attacker().mix, value),
      1.0 - 1.0 / 3, 1e-9);
}

TEST(Exploitability, GuaranteeAndConcessionBracketTheValue) {
  // For ANY pair of mixes: guarantee <= value <= concession.
  const graph::Graph g = graph::grid_graph(3, 4);
  const TupleGame game(g, 2, 1);
  const double value = core::solve_double_oracle(game).value_or_throw().value;
  const auto ne = core::a_tuple_bipartite(game);
  ASSERT_TRUE(ne.has_value());
  EXPECT_LE(defender_guarantee(game, ne->configuration.defender),
            value + 1e-9);
  EXPECT_GE(attacker_concession(game, ne->configuration.attackers.front()),
            value - 1e-9);
  // And the constructed equilibrium is (near) unexploitable on both sides.
  EXPECT_NEAR(
      defender_exploitability(game, ne->configuration.defender, value), 0.0,
      1e-7);
  EXPECT_NEAR(attacker_exploitability(
                  game, ne->configuration.attackers.front(), value),
              0.0, 1e-7);
}

}  // namespace
}  // namespace defender::sim
