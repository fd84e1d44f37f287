#include "lp/matrix_game.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace defender::lp {
namespace {

void expect_equilibrium(const Matrix& payoff, const MatrixGameSolution& s,
                        double tol = 1e-7) {
  // Security levels certify optimality: the row strategy guarantees at
  // least the value, the column strategy concedes at most the value.
  EXPECT_GE(row_security_level(payoff, s.row_strategy), s.value - tol);
  EXPECT_LE(col_security_level(payoff, s.col_strategy), s.value + tol);
  double rs = 0, cs = 0;
  for (double p : s.row_strategy) rs += p;
  for (double p : s.col_strategy) cs += p;
  EXPECT_NEAR(rs, 1.0, 1e-9);
  EXPECT_NEAR(cs, 1.0, 1e-9);
}

TEST(MatrixGame, MatchingPennies) {
  const Matrix payoff{{1, -1}, {-1, 1}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 0.0, 1e-9);
  EXPECT_NEAR(s.row_strategy[0], 0.5, 1e-7);
  EXPECT_NEAR(s.col_strategy[0], 0.5, 1e-7);
  expect_equilibrium(payoff, s);
}

TEST(MatrixGame, RockPaperScissors) {
  const Matrix payoff{{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 0.0, 1e-9);
  for (double p : s.row_strategy) EXPECT_NEAR(p, 1.0 / 3, 1e-7);
  for (double p : s.col_strategy) EXPECT_NEAR(p, 1.0 / 3, 1e-7);
  expect_equilibrium(payoff, s);
}

TEST(MatrixGame, SaddlePointGame) {
  // Row 1 dominates; the saddle value is 2 at (row 1, col 0).
  const Matrix payoff{{1, 0}, {2, 3}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 2.0, 1e-9);
  EXPECT_NEAR(s.row_strategy[1], 1.0, 1e-7);
  EXPECT_NEAR(s.col_strategy[0], 1.0, 1e-7);
  expect_equilibrium(payoff, s);
}

TEST(MatrixGame, NonSquareGame) {
  const Matrix payoff{{2, 1, 0}, {0, 1, 2}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 1.0, 1e-7);
  expect_equilibrium(payoff, s);
}

TEST(MatrixGame, AllNegativeEntriesHandledByShift) {
  const Matrix payoff{{-3, -5}, {-4, -2}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_LT(s.value, 0);
  expect_equilibrium(payoff, s);
}

TEST(MatrixGame, ConstantGameHasConstantValue) {
  const Matrix payoff{{4, 4}, {4, 4}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 4.0, 1e-9);
}

TEST(MatrixGame, SingleRowIsPureMinimization) {
  const Matrix payoff{{3, 1, 2}};
  const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
  EXPECT_NEAR(s.value, 1.0, 1e-9);
  EXPECT_NEAR(s.col_strategy[1], 1.0, 1e-7);
}

TEST(MatrixGame, RandomGamesSatisfyMinimaxWithinTolerance) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t rows = 2 + rng.below(5);
    const std::size_t cols = 2 + rng.below(5);
    Matrix payoff(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        payoff.at(r, c) = rng.uniform(-5.0, 5.0);
    const MatrixGameSolution s = solve_matrix_game(payoff).value_or_throw();
    expect_equilibrium(payoff, s, 1e-6);
  }
}

TEST(SecurityLevels, RejectMismatchedStrategySizes) {
  const Matrix payoff{{1, 2}, {3, 4}};
  EXPECT_THROW(row_security_level(payoff, {1.0}),
               defender::ContractViolation);
  EXPECT_THROW(col_security_level(payoff, {1.0}),
               defender::ContractViolation);
}

}  // namespace
}  // namespace defender::lp
