// Exact solver for two-player zero-sum matrix games.
//
// The Tuple model restricted to one attacker is strategically zero-sum: the
// defender (rows = tuples) wins payoff[i][j] = 1 when tuple i covers vertex
// j. Its unique game value is the equilibrium hit probability, so the
// combinatorial constructions of Section 4 can be validated against this
// solver on instances where E^k is enumerable (experiment E8).
//
// Method: shift the payoff matrix positive and solve the classic LP pair
//   max 1^T w  s.t.  A w <= 1, w >= 0        (column player's program)
// whose value V satisfies game value = 1/V - shift; the row player's
// optimal mixed strategy falls out of the dual prices.
//
// Budgets degrade gracefully: solve_matrix_game never throws on budget
// exhaustion or numerical trouble. Whatever (possibly partial) strategies
// the LP produced are cleaned into valid mixed strategies and certified by
// their security levels — any mixed strategy yields a sound bound on the
// game value — so even a truncated solve returns a bracketed value with a
// non-kOk status instead of an exception.
#pragma once

#include <vector>

#include "core/budget.hpp"
#include "core/status.hpp"
#include "lp/dense_matrix.hpp"
#include "lp/simplex.hpp"
#include "obs/context.hpp"

namespace defender::lp {

/// Solution of a zero-sum matrix game where the row player maximizes the
/// expected entry of `payoff` and the column player minimizes it.
struct MatrixGameSolution {
  /// The (unique) value of the game on an exact solve; on a budgeted solve
  /// that ran out, the midpoint of [lower_bound, upper_bound].
  double value = 0;
  /// Optimal mixed strategy of the row player (maximizer), sums to 1.
  std::vector<double> row_strategy;
  /// Optimal mixed strategy of the column player (minimizer), sums to 1.
  std::vector<double> col_strategy;
  /// Certified bracket on the game value: `lower_bound` is the row
  /// strategy's security level, `upper_bound` the column strategy's. Equal
  /// to `value` (within tolerance) on an exact solve.
  double lower_bound = 0;
  double upper_bound = 0;
};

/// LP backend signature of the matrix-game solver: exactly lp::solve_max's
/// options overload.
using LpSolveFn = LpSolution (*)(const Matrix&, std::span<const double>,
                                 std::span<const double>,
                                 const SimplexOptions&);

/// Solves the game with the simplex substrate under `budget` (default
/// unlimited). Status codes:
///   kOk                   exact equilibrium, lower == upper == value;
///   kIterationLimit /     the pivot or wall-clock budget ran out; the
///   kDeadlineExceeded     returned strategies are valid mixes whose
///                         security levels bracket the true value;
///   kCancelled            budget.cancel fired mid-pivot;
///   kNumericallyUnstable  verification failed after the tightened
///                         re-solve; the security-level bracket is still
///                         certified.
/// Never throws for any of the above; callers that want an exception use
/// value_or_throw(). A non-null `obs` is forwarded to the simplex
/// substrate (lp.* metrics, per-solve trace events); the default null
/// context records nothing and costs one branch.
///
/// A non-null `fault` is forwarded to the simplex substrate (pivot
/// perturbation, forced-unstable verification). Whatever the LP produces,
/// the returned strategies are scrubbed of non-finite entries and
/// re-certified by their security levels against the *real* payoff matrix,
/// so the bracket stays sound under any injected fault; an "optimal" LP
/// whose bracket nonetheless came out wide is demoted to
/// kNumericallyUnstable rather than reported as kOk.
///
/// `backend` is the LP seam: production code keeps the default &solve_max;
/// the test layer passes lp::reference::solve_max so checkpoint/chaos and
/// differential suites can compare complete game brackets — shift, LP,
/// strategy cleaning, security levels, status mapping — across the two
/// simplex substrates bit-for-bit.
Solved<MatrixGameSolution> solve_matrix_game(
    const Matrix& payoff, const SolveBudget& budget = {},
    obs::ObsContext* obs = nullptr, fault::FaultContext* fault = nullptr,
    LpSolveFn backend = &solve_max);

/// Best-response value check: the payoff the row player earns by playing
/// `row_strategy` against the column player's best pure counter-strategy.
double row_security_level(const Matrix& payoff,
                          const std::vector<double>& row_strategy);

/// The payoff conceded by `col_strategy` against the row player's best pure
/// counter-strategy.
double col_security_level(const Matrix& payoff,
                          const std::vector<double>& col_strategy);

}  // namespace defender::lp
