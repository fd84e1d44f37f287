#include "sim/multiplicative_weights.hpp"

#include <gtest/gtest.h>

#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "sim/fictitious_play.hpp"
#include "util/assert.hpp"

namespace defender::sim {
namespace {

using core::TupleGame;

/// Options for a fixed-length run: tolerance 0 plays every round.
SolveOptions rounds(std::size_t n) {
  return {.budget = SolveBudget::iterations(n), .tolerance = 0};
}

TEST(Hedge, BoundsBracketTheValue) {
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const HedgeResult r = hedge_dynamics(game, 2000, rounds(2000)).result;
  EXPECT_GE(r.trace.back().upper, 1.0 / 3 - 1e-9);
  EXPECT_LE(r.trace.back().lower, 1.0 / 3 + 1e-9);
  EXPECT_NEAR(r.value_estimate, 1.0 / 3, 0.05);
}

TEST(Hedge, MatchesLpValueOnSmallInstances) {
  for (std::size_t k = 1; k <= 2; ++k) {
    const TupleGame game(graph::path_graph(5), k, 1);
    const double lp = core::solve_zero_sum(game).value_or_throw().value;
    const HedgeResult r = hedge_dynamics(game, 3000, rounds(3000)).result;
    EXPECT_NEAR(r.value_estimate, lp, 0.05) << "k=" << k;
  }
}

TEST(Hedge, AverageStrategyIsADistribution) {
  const TupleGame game(graph::star_graph(5), 2, 1);
  const HedgeResult r = hedge_dynamics(game, 500, rounds(500)).result;
  double mass = 0;
  for (double p : r.attacker_average) {
    EXPECT_GE(p, 0.0);
    mass += p;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(Hedge, ConvergesAtLeastAsTightAsFictitiousPlay) {
  // Same budget of rounds: Hedge's averaged-strategy bounds are typically
  // tighter than FP's. Assert it is at least not dramatically worse.
  const TupleGame game(graph::cycle_graph(8), 2, 1);
  constexpr std::size_t kRounds = 2000;
  const HedgeResult hedge =
      hedge_dynamics(game, kRounds, rounds(kRounds)).result;
  const FictitiousPlayResult fp = fictitious_play(game, rounds(kRounds)).result;
  EXPECT_LT(hedge.gap, fp.gap * 2 + 0.01);
  EXPECT_LT(hedge.gap, 0.15);
}

TEST(Hedge, RejectsZeroRounds) {
  const TupleGame game(graph::path_graph(3), 1, 1);
  EXPECT_THROW(hedge_dynamics(game, 0, rounds(0)), ContractViolation);
}

TEST(Hedge, StarValueLearned) {
  const TupleGame game(graph::star_graph(6), 2, 1);
  const HedgeResult r = hedge_dynamics(game, 3000, rounds(3000)).result;
  EXPECT_NEAR(r.value_estimate, 2.0 / 6, 0.04);
}

}  // namespace
}  // namespace defender::sim
