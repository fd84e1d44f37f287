#include "sim/fictitious_play.hpp"

#include <gtest/gtest.h>

#include "core/zero_sum.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"

namespace defender::sim {
namespace {

using core::TupleGame;

/// Options for a fixed-length run: tolerance 0 plays every round.
SolveOptions rounds(std::size_t n) {
  return {.budget = SolveBudget::iterations(n), .tolerance = 0};
}

TEST(FictitiousPlay, BoundsBracketTheValue) {
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const FictitiousPlayResult r = fictitious_play(game, rounds(2000)).result;
  // True value is 1/3 (three defendable disjoint edges).
  EXPECT_GE(r.trace.back().upper, 1.0 / 3 - 1e-9);
  EXPECT_LE(r.trace.back().lower, 1.0 / 3 + 1e-9);
  EXPECT_NEAR(r.value_estimate, 1.0 / 3, 0.05);
}

TEST(FictitiousPlay, GapShrinksWithRounds) {
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const FictitiousPlayResult short_run =
      fictitious_play(game, rounds(50)).result;
  const FictitiousPlayResult long_run =
      fictitious_play(game, rounds(5000)).result;
  EXPECT_LT(long_run.gap, short_run.gap + 1e-12);
  EXPECT_LT(long_run.gap, 0.1);
}

TEST(FictitiousPlay, MatchesLpValueOnSmallInstances) {
  for (std::size_t k = 1; k <= 2; ++k) {
    const TupleGame game(graph::path_graph(5), k, 1);
    const double lp_value =
        core::solve_zero_sum(game).value_or_throw().value;
    const FictitiousPlayResult r = fictitious_play(game, rounds(4000)).result;
    EXPECT_NEAR(r.value_estimate, lp_value, 0.05) << "k=" << k;
    EXPECT_GE(r.trace.back().upper, lp_value - 1e-9) << "k=" << k;
    EXPECT_LE(r.trace.back().lower, lp_value + 1e-9) << "k=" << k;
  }
}

TEST(FictitiousPlay, StarConvergesToKOverLeaves) {
  const TupleGame game(graph::star_graph(5), 2, 1);
  const FictitiousPlayResult r = fictitious_play(game, rounds(3000)).result;
  EXPECT_NEAR(r.value_estimate, 2.0 / 5, 0.05);
}

TEST(FictitiousPlay, TraceIsMonotoneInRounds) {
  const TupleGame game(graph::cycle_graph(8), 2, 1);
  const FictitiousPlayResult r = fictitious_play(game, rounds(1000)).result;
  ASSERT_GE(r.trace.size(), 3u);
  for (std::size_t i = 1; i < r.trace.size(); ++i)
    EXPECT_GT(r.trace[i].round, r.trace[i - 1].round);
}

TEST(FictitiousPlay, FrequenciesAreDistributions) {
  const TupleGame game(graph::cycle_graph(6), 1, 1);
  const FictitiousPlayResult r = fictitious_play(game, rounds(500)).result;
  double mass = 0;
  for (double f : r.attacker_frequency) {
    EXPECT_GE(f, 0.0);
    mass += f;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(FictitiousPlay, RejectsZeroRounds) {
  const TupleGame game(graph::path_graph(3), 1, 1);
  EXPECT_THROW(fictitious_play(game, rounds(0)), ContractViolation);
}

}  // namespace
}  // namespace defender::sim
