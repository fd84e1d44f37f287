// Differential bit-compatibility suite: the flat-tableau simplex
// (lp/tableau.hpp + lp/simplex.cpp) against the preserved original
// implementation (lp::reference::solve_max, src/lp/simplex_reference.cpp).
//
// "Bit-equal" here is literal: objective, solution vector, duals, residual
// fields, pivot counts, and statuses are compared through
// std::bit_cast<uint64_t>, not within a tolerance. The flat core performs
// the same floating-point operations in the same order as the original —
// only the storage layout changed — so any divergence, on any platform or
// sanitizer CI runs, is a real behavioural change and fails the build.
//
// Corpus: the stress-harness board zoo (tests/common/board_corpus.hpp)
// pushed through core::coverage_matrix and the matrix-game shift — exactly
// the LPs the production solvers generate — plus handcrafted degenerate,
// unbounded, and infeasible programs, budget/cancel truncations
// (kill-at-pivot-i), and armed lp-* fault plans.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/board_corpus.hpp"
#include "core/budget.hpp"
#include "core/zero_sum.hpp"
#include "fault/fault.hpp"
#include "lp/dense_matrix.hpp"
#include "lp/matrix_game.hpp"
#include "lp/simplex.hpp"
#include "lp/simplex_reference.hpp"
#include "lp/tableau.hpp"
#include "util/random.hpp"

namespace {

using namespace defender;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality that treats every NaN payload as distinct too — the two
/// paths must produce the SAME bytes, not just the same value class.
void expect_bit_equal(double got, double want, const std::string& what) {
  EXPECT_EQ(bits(got), bits(want))
      << what << ": flat " << got << " vs reference " << want;
}

void expect_solutions_bit_equal(const lp::LpSolution& flat,
                                const lp::LpSolution& ref,
                                const std::string& tag) {
  EXPECT_EQ(flat.status, ref.status) << tag << ": status diverged ("
                                     << to_string(flat.status) << " vs "
                                     << to_string(ref.status) << ")";
  EXPECT_EQ(flat.pivots, ref.pivots) << tag << ": pivot count diverged";
  EXPECT_EQ(flat.resolved_after_instability, ref.resolved_after_instability)
      << tag << ": guard-retry flag diverged";
  expect_bit_equal(flat.objective, ref.objective, tag + ": objective");
  expect_bit_equal(flat.max_primal_residual, ref.max_primal_residual,
                   tag + ": max_primal_residual");
  expect_bit_equal(flat.duality_gap, ref.duality_gap, tag + ": duality_gap");
  ASSERT_EQ(flat.x.size(), ref.x.size()) << tag << ": x length diverged";
  for (std::size_t j = 0; j < flat.x.size(); ++j)
    expect_bit_equal(flat.x[j], ref.x[j],
                     tag + ": x[" + std::to_string(j) + "]");
  ASSERT_EQ(flat.duals.size(), ref.duals.size())
      << tag << ": duals length diverged";
  for (std::size_t i = 0; i < flat.duals.size(); ++i)
    expect_bit_equal(flat.duals[i], ref.duals[i],
                     tag + ": duals[" + std::to_string(i) + "]");
}

void expect_games_bit_equal(const Solved<lp::MatrixGameSolution>& flat,
                            const Solved<lp::MatrixGameSolution>& ref,
                            const std::string& tag) {
  EXPECT_EQ(flat.status.code, ref.status.code) << tag << ": status code";
  EXPECT_EQ(flat.status.iterations, ref.status.iterations)
      << tag << ": status iterations";
  expect_bit_equal(flat.result.value, ref.result.value, tag + ": value");
  expect_bit_equal(flat.result.lower_bound, ref.result.lower_bound,
                   tag + ": lower bound");
  expect_bit_equal(flat.result.upper_bound, ref.result.upper_bound,
                   tag + ": upper bound");
  ASSERT_EQ(flat.result.row_strategy.size(), ref.result.row_strategy.size());
  for (std::size_t i = 0; i < flat.result.row_strategy.size(); ++i)
    expect_bit_equal(flat.result.row_strategy[i], ref.result.row_strategy[i],
                     tag + ": row_strategy[" + std::to_string(i) + "]");
  ASSERT_EQ(flat.result.col_strategy.size(), ref.result.col_strategy.size());
  for (std::size_t j = 0; j < flat.result.col_strategy.size(); ++j)
    expect_bit_equal(flat.result.col_strategy[j], ref.result.col_strategy[j],
                     tag + ": col_strategy[" + std::to_string(j) + "]");
}

/// The matrix-game LP exactly as solve_matrix_game builds it:
/// shifted payoff, unit rhs and objective.
struct GameLp {
  lp::Matrix a;
  std::vector<double> b;
  std::vector<double> c;
};

GameLp game_lp(const lp::Matrix& payoff) {
  const double shift = 1.0 - payoff.min_entry();
  GameLp out{lp::Matrix(payoff.rows(), payoff.cols()),
             std::vector<double>(payoff.rows(), 1.0),
             std::vector<double>(payoff.cols(), 1.0)};
  for (std::size_t i = 0; i < payoff.rows(); ++i)
    for (std::size_t j = 0; j < payoff.cols(); ++j)
      out.a.at(i, j) = payoff.at(i, j) + shift;
  return out;
}

void compare_backends(const lp::Matrix& a, std::span<const double> b,
                      std::span<const double> c,
                      const lp::SimplexOptions& options,
                      const std::string& tag) {
  const lp::LpSolution flat = lp::solve_max(a, b, c, options);
  const lp::LpSolution ref = lp::reference::solve_max(a, b, c, options);
  expect_solutions_bit_equal(flat, ref, tag);
}

/// Sanity pin for the acceptance criterion "release-mode bounds checks
/// verified compiled out": the constexpr flag must track NDEBUG exactly.
TEST(SimplexDifferentialTest, BoundsCheckFlagMatchesBuildMode) {
#ifdef NDEBUG
  EXPECT_FALSE(lp::kTableauBoundsChecked);
#else
  EXPECT_TRUE(lp::kTableauBoundsChecked);
#endif
}

/// The tentpole pin: the full stress-harness board corpus, solved through
/// both substrates, bit-for-bit.
TEST(SimplexDifferentialTest, StressCorpusBitEqual) {
  util::Rng rng(20260808);
  for (std::size_t i = 0; i < 48; ++i) {
    const core::TupleGame game = test_corpus::random_game(rng);
    const GameLp lp_in = game_lp(core::coverage_matrix(game));
    compare_backends(lp_in.a, lp_in.b, lp_in.c, lp::SimplexOptions{},
                     "corpus instance " + std::to_string(i) + " (n=" +
                         std::to_string(game.graph().num_vertices()) + ", k=" +
                         std::to_string(game.k()) + ")");
  }
}

/// Complete matrix-game brackets — shift, LP, strategy cleaning, security
/// levels, status mapping — through solve_matrix_game on both backends.
TEST(SimplexDifferentialTest, MatrixGameBracketsBitEqual) {
  util::Rng rng(777001);
  for (std::size_t i = 0; i < 24; ++i) {
    const core::TupleGame game = test_corpus::random_game(rng);
    const lp::Matrix payoff = core::coverage_matrix(game);
    const auto flat = lp::solve_matrix_game(payoff);
    const auto ref = lp::solve_matrix_game(payoff, {}, nullptr, nullptr,
                                           &lp::reference::solve_max);
    expect_games_bit_equal(flat, ref, "game " + std::to_string(i));
  }
}

TEST(SimplexDifferentialTest, DegenerateLpBitEqual) {
  // Heavily degenerate: duplicated rows and a zero rhs put many basic
  // variables at level zero, driving the Bland fallback path.
  const lp::Matrix a{{1, 1, 0}, {1, 1, 0}, {1, 0, 1}, {1, 0, 1}, {0, 1, 1}};
  const std::vector<double> b{1, 1, 1, 1, 0};
  const std::vector<double> c{1, 1, 1};
  compare_backends(a, b, c, lp::SimplexOptions{}, "degenerate");
}

TEST(SimplexDifferentialTest, NegativeRhsPhase1BitEqual) {
  // Negative rhs rows force artificials, exercising phase 1 and the
  // pivot-out-artificials sweep on both substrates.
  const lp::Matrix a{{-1, -1}, {1, -1}, {1, 3}};
  const std::vector<double> b{-1, 1, 7};
  const std::vector<double> c{1, 1};
  compare_backends(a, b, c, lp::SimplexOptions{}, "phase1");
}

TEST(SimplexDifferentialTest, RedundantRowDropBitEqual) {
  // Row 2 = row 0 + row 1 with b matching: phase 1 discovers a redundant
  // row and must drop it identically on both substrates.
  const lp::Matrix a{{-1, 0}, {0, -1}, {-1, -1}};
  const std::vector<double> b{-1, -1, -2};
  const std::vector<double> c{-1, -1};
  compare_backends(a, b, c, lp::SimplexOptions{}, "redundant-row");
}

TEST(SimplexDifferentialTest, InfeasibleLpBitEqual) {
  const lp::Matrix a{{1, 1}, {-1, -1}};
  const std::vector<double> b{1, -3};  // x+y <= 1 and x+y >= 3
  const std::vector<double> c{1, 1};
  compare_backends(a, b, c, lp::SimplexOptions{}, "infeasible");
}

TEST(SimplexDifferentialTest, UnboundedLpBitEqual) {
  const lp::Matrix a{{-1, 0}, {0, -1}};
  const std::vector<double> b{0, 0};
  const std::vector<double> c{1, 1};
  compare_backends(a, b, c, lp::SimplexOptions{}, "unbounded");
}

/// Kill-at-pivot-i: truncate both backends at every pivot budget from 1 up
/// to one past the full solve. Partial extracts must match bit-for-bit at
/// every step — the checkpoint/resume story depends on interrupted solves
/// being deterministic.
TEST(SimplexDifferentialTest, KillAtPivotIBitEqual) {
  util::Rng rng(424242);
  const core::TupleGame game = test_corpus::random_game(rng);
  const GameLp lp_in = game_lp(core::coverage_matrix(game));
  const lp::LpSolution full =
      lp::solve_max(lp_in.a, lp_in.b, lp_in.c, lp::SimplexOptions{});
  ASSERT_GT(full.pivots, 0u);
  for (std::size_t i = 1; i <= full.pivots + 1; ++i) {
    lp::SimplexOptions options;
    options.max_pivots = i;
    compare_backends(lp_in.a, lp_in.b, lp_in.c, options,
                     "kill at pivot " + std::to_string(i));
  }
}

/// A pre-cancelled token stops both backends at the same pivot stride.
TEST(SimplexDifferentialTest, CancelledSolveBitEqual) {
  util::Rng rng(99999);
  const core::TupleGame game = test_corpus::random_game(rng);
  const GameLp lp_in = game_lp(core::coverage_matrix(game));
  CancelToken flat_token;
  flat_token.request_cancel();
  lp::SimplexOptions flat_options;
  flat_options.cancel = &flat_token;
  const lp::LpSolution flat =
      lp::solve_max(lp_in.a, lp_in.b, lp_in.c, flat_options);
  CancelToken ref_token;
  ref_token.request_cancel();
  lp::SimplexOptions ref_options;
  ref_options.cancel = &ref_token;
  const lp::LpSolution ref =
      lp::reference::solve_max(lp_in.a, lp_in.b, lp_in.c, ref_options);
  expect_solutions_bit_equal(flat, ref, "pre-cancelled");
  EXPECT_EQ(flat.status, lp::LpStatus::kIterationLimit);
}

/// Both lp-* fault sites, armed at rate 1.0. Fault decisions are pure
/// functions of (plan seed, site, per-site counter), so a fresh context per
/// backend replays the identical schedule and the corrupted/demoted
/// solutions must still agree bit-for-bit.
TEST(SimplexDifferentialTest, FaultSitesBitEqual) {
  for (const fault::FaultSite site : {fault::FaultSite::kLpPivotPerturb,
                                      fault::FaultSite::kLpForceUnstable}) {
    util::Rng rng(31337);
    for (std::size_t i = 0; i < 6; ++i) {
      const core::TupleGame game = test_corpus::random_game(rng);
      const GameLp lp_in = game_lp(core::coverage_matrix(game));
      fault::FaultPlan plan;
      plan.seed = 0xfeed0000 + i;
      plan.rate[static_cast<std::size_t>(site)] = 1.0;

      fault::FaultContext flat_ctx(plan);
      lp::SimplexOptions flat_options;
      flat_options.fault = &flat_ctx;
      const lp::LpSolution flat =
          lp::solve_max(lp_in.a, lp_in.b, lp_in.c, flat_options);

      fault::FaultContext ref_ctx(plan);
      lp::SimplexOptions ref_options;
      ref_options.fault = &ref_ctx;
      const lp::LpSolution ref =
          lp::reference::solve_max(lp_in.a, lp_in.b, lp_in.c, ref_options);

      expect_solutions_bit_equal(
          flat, ref,
          "fault site " + std::to_string(static_cast<int>(site)) +
              " instance " + std::to_string(i));
    }
  }
}

/// Tightened-retry route: a near-singular program whose first solve can
/// trip the residual guard. Whatever route each run takes (accept, retry,
/// demote), the two backends must take the same one.
TEST(SimplexDifferentialTest, GuardRetryRouteBitEqual) {
  const double tiny = 1e-12;
  const lp::Matrix a{{1.0, 1.0}, {1.0, 1.0 + tiny}};
  const std::vector<double> b{1.0, 1.0};
  const std::vector<double> c{1.0, 1.0};
  lp::SimplexOptions options;
  options.residual_tolerance = 1e-16;  // force the guard to be picky
  compare_backends(a, b, c, options, "guard-retry");
}

}  // namespace
