#include "lp/matrix_game.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/fault.hpp"
#include "util/assert.hpp"

namespace defender::lp {

namespace {

/// Clamps negatives to zero and normalizes; falls back to uniform when the
/// mass is degenerate (an interrupted LP can leave an all-zero vector).
/// Always yields a valid mixed strategy, so its security level is a sound
/// bound on the game value.
std::vector<double> clean_strategy(std::vector<double> v) {
  double sum = 0;
  for (double& p : v) {
    // !(p > 0) scrubs NaNs and negatives; the isfinite check also catches
    // +inf, which would otherwise turn the normalizing sum into inf and
    // every entry into NaN.
    if (!(p > 0) || !std::isfinite(p)) p = 0;
    sum += p;
  }
  if (sum <= 0) {
    const double u = 1.0 / static_cast<double>(v.size());
    for (double& p : v) p = u;
    return v;
  }
  for (double& p : v) p /= sum;
  return v;
}

/// Extracts strategies from an LP solution (exact or partial) and certifies
/// them by security levels.
MatrixGameSolution assemble(const Matrix& payoff, const LpSolution& lp,
                            double shift) {
  const std::size_t rows = payoff.rows();
  const std::size_t cols = payoff.cols();
  MatrixGameSolution s;
  const double objective = lp.objective;
  const double shifted_value = objective > 0 ? 1.0 / objective : 0.0;
  s.col_strategy.assign(cols, 0.0);
  for (std::size_t j = 0; j < cols && j < lp.x.size(); ++j)
    s.col_strategy[j] = lp.x[j] * shifted_value;
  s.row_strategy.assign(rows, 0.0);
  for (std::size_t i = 0; i < rows && i < lp.duals.size(); ++i)
    s.row_strategy[i] = lp.duals[i] * shifted_value;
  s.row_strategy = clean_strategy(std::move(s.row_strategy));
  s.col_strategy = clean_strategy(std::move(s.col_strategy));
  s.lower_bound = row_security_level(payoff, s.row_strategy);
  s.upper_bound = col_security_level(payoff, s.col_strategy);
  s.value = shifted_value - shift;
  // An interrupted tableau can put the nominal value outside its own
  // certified bracket; clamp so callers can always trust value ∈ [lo, hi].
  if (s.value < s.lower_bound || s.value > s.upper_bound || objective <= 0)
    s.value = 0.5 * (s.lower_bound + s.upper_bound);
  return s;
}

}  // namespace

Solved<MatrixGameSolution> solve_matrix_game(const Matrix& payoff,
                                             const SolveBudget& budget,
                                             obs::ObsContext* obs,
                                             fault::FaultContext* fault,
                                             LpSolveFn backend) {
  DEF_REQUIRE(backend != nullptr, "matrix-game solve needs an LP backend");
  const std::size_t rows = payoff.rows();
  const std::size_t cols = payoff.cols();
  BudgetMeter meter(budget);

  // Shift so that every entry is >= 1 (keeps the game value positive and
  // the LP bounded with a clean reciprocal relation).
  const double shift = 1.0 - payoff.min_entry();
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      a.at(i, j) = payoff.at(i, j) + shift;

  // Column player's LP: max 1^T w s.t. A w <= 1, w >= 0.
  std::vector<double> b(rows, 1.0);
  std::vector<double> c(cols, 1.0);
  SimplexOptions options;
  options.max_pivots = budget.max_iterations;
  options.deadline_seconds = budget.wall_clock_seconds;
  options.obs = obs;
  options.fault = fault;
  options.cancel = budget.cancel;
  LpSolution lp = backend(a, b, c, options);

  Solved<MatrixGameSolution> out;
  out.result = assemble(payoff, lp, shift);
  const double gap = out.result.upper_bound - out.result.lower_bound;
  // Truthfulness guard: "optimal" with a wide security-level bracket means
  // the LP solution does not actually certify an equilibrium (a corrupted
  // solve that slipped past verification). Demote it rather than report
  // kOk on a result the bracket itself contradicts.
  const double bracket_tolerance =
      1e-6 * std::max(1.0, std::max(std::abs(payoff.min_entry()),
                                    std::abs(payoff.max_entry())));
  switch (lp.status) {
    case LpStatus::kOptimal:
      if (gap > bracket_tolerance) {
        out.status = Status::make(
            StatusCode::kNumericallyUnstable,
            "LP reported optimal but the security-level bracket stayed "
            "open; demoting to numerically-unstable",
            lp.pivots, gap, meter.elapsed_seconds());
      } else {
        out.status =
            Status::make_ok(lp.pivots, gap, meter.elapsed_seconds());
      }
      break;
    case LpStatus::kIterationLimit:
      // The pivot loop stops for three distinct reasons; keep the status
      // truthful: cancellation first (the latch is explicit), then the
      // deadline, then the pivot cap.
      if (budget.cancel != nullptr && budget.cancel->cancelled()) {
        out.status = Status::make(
            StatusCode::kCancelled,
            "simplex cancelled mid-pivot; returning security-level bounds",
            lp.pivots, gap, meter.elapsed_seconds());
      } else {
        out.status = Status::make(
            meter.deadline_exceeded() ? StatusCode::kDeadlineExceeded
                                      : StatusCode::kIterationLimit,
            "simplex pivot budget exhausted; returning security-level "
            "bounds",
            lp.pivots, gap, meter.elapsed_seconds());
      }
      break;
    case LpStatus::kNumericallyUnstable:
      out.status = Status::make(
          StatusCode::kNumericallyUnstable,
          "simplex verification failed after tightened re-solve "
          "(primal residual " +
              std::to_string(lp.max_primal_residual) + ", duality gap " +
              std::to_string(lp.duality_gap) + ")",
          lp.pivots, gap, meter.elapsed_seconds());
      break;
    case LpStatus::kInfeasible:
    case LpStatus::kUnbounded:
      // A shifted matrix game LP is always feasible and bounded; reaching
      // here means the tableau degenerated beyond repair.
      out.status = Status::make(
          StatusCode::kNumericallyUnstable,
          std::string("shifted matrix-game LP reported ") +
              to_string(lp.status) +
              "; returning uniform-strategy security bounds",
          lp.pivots, gap, meter.elapsed_seconds());
      break;
  }
  return out;
}

double row_security_level(const Matrix& payoff,
                          const std::vector<double>& row_strategy) {
  DEF_REQUIRE(row_strategy.size() == payoff.rows(),
              "strategy length must match the row count");
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < payoff.cols(); ++j) {
    double v = 0;
    for (std::size_t i = 0; i < payoff.rows(); ++i)
      v += row_strategy[i] * payoff.at(i, j);
    worst = std::min(worst, v);
  }
  return worst;
}

double col_security_level(const Matrix& payoff,
                          const std::vector<double>& col_strategy) {
  DEF_REQUIRE(col_strategy.size() == payoff.cols(),
              "strategy length must match the column count");
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < payoff.rows(); ++i) {
    double v = 0;
    for (std::size_t j = 0; j < payoff.cols(); ++j)
      v += col_strategy[j] * payoff.at(i, j);
    worst = std::max(worst, v);
  }
  return worst;
}

}  // namespace defender::lp
