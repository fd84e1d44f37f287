// Solve budgets: bounded effort with graceful degradation.
//
// A SolveBudget caps how much work a solver may spend — outer iterations,
// wall-clock time, and branch-and-bound node expansions inside the tuple
// oracle. Exhausting a budget is NOT an error: every solver entry point
// (core::solve_double_oracle, sim::fictitious_play, ...) returns its
// best-so-far result with certified upper/lower bounds and a
// kIterationLimit / kDeadlineExceeded status instead of throwing.
//
// SolveOptions bundles the budget with everything else a solve call takes
// beside the game: tolerance, damage weights, checkpoint resume/capture
// slots, and the observability and fault contexts.
//
// BudgetMeter is the runtime companion: it reads the shared obs::Clock and
// owns the iteration counter so every solver enforces the budget the same
// way. Deadline checks read the steady clock, so meters are cheap to poll
// once per outer iteration but should not be polled in innermost loops; the
// branch-and-bound oracle polls every few thousand node expansions instead.
//
// Timing goes through obs::Clock — the same handle the tracer's spans
// read — so Status::elapsed_seconds and trace span durations are points on
// one axis and can never disagree about what "elapsed" means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "core/cancel.hpp"
#include "obs/clock.hpp"

namespace defender::core {
struct SolverCheckpoint;
}  // namespace defender::core
namespace defender::fault {
class FaultContext;
}  // namespace defender::fault
namespace defender::obs {
struct ObsContext;
}  // namespace defender::obs

namespace defender {

/// Effort cap for one solve. Zero in any field means "unlimited" for that
/// dimension; the default budget is fully unlimited.
struct SolveBudget {
  /// Outer iterations (double-oracle loop turns, learning rounds, simplex
  /// pivots). 0 = unlimited.
  std::size_t max_iterations = 0;
  /// Wall-clock deadline in seconds from the start of the solve.
  /// 0 = no deadline.
  double wall_clock_seconds = 0;
  /// Node-expansion cap for the branch-and-bound tuple oracle, per oracle
  /// call. 0 = unlimited. When the oracle is truncated its answer is a
  /// feasible incumbent (still a valid lower bound on the best response),
  /// and the solver flags the final bounds as approximate.
  std::uint64_t oracle_node_budget = 0;
  /// Optional cooperative cancellation latch, not owned; must outlive the
  /// solve. Solvers poll it once per outer iteration (and read the latch
  /// from pivot/node batches) and return kCancelled with best-so-far
  /// bounds — and, with SolveOptions::capture set, a checkpoint — when it
  /// fires. nullptr (the default) means "not cancellable" and costs one
  /// pointer compare per iteration.
  CancelToken* cancel = nullptr;

  /// True when no dimension is bounded.
  bool unlimited() const {
    return max_iterations == 0 && wall_clock_seconds <= 0 &&
           oracle_node_budget == 0;
  }

  /// The iteration cap as a usable loop bound (SIZE_MAX when unlimited).
  std::size_t iteration_cap() const {
    return max_iterations == 0 ? std::numeric_limits<std::size_t>::max()
                               : max_iterations;
  }

  static SolveBudget unlimited_budget() { return SolveBudget{}; }
  static SolveBudget iterations(std::size_t n) { return SolveBudget{n, 0, 0}; }
  static SolveBudget deadline(double seconds) {
    return SolveBudget{0, seconds, 0};
  }
};

/// Everything one solver call takes beside the game. Aggregate, so call
/// sites name only what they set:
///   core::solve_double_oracle(game, {.budget = SolveBudget::iterations(50)})
/// Each solver documents which fields it reads; the rest are ignored.
struct SolveOptions {
  SolveBudget budget = {};
  /// Double oracle's closure tolerance; the certified gap at which
  /// fictitious play and Hedge stop early (0 = play the full budget or
  /// horizon and report kOk).
  double tolerance = 1e-9;
  /// Damage weights, one strictly positive entry per vertex. Non-empty
  /// selects the damage-weighted game (core/weighted.hpp) in double
  /// oracle, fictitious play and the zero-sum LP. Not owned.
  std::span<const double> weights = {};
  /// Resume from this checkpoint instead of a fresh start. The solver
  /// validates it (kind, version, game shape, state sizes) and returns
  /// kInvalidInput on mismatch instead of crashing or silently restarting.
  const core::SolverCheckpoint* resume = nullptr;
  /// When non-null, overwritten with the final loop state on every exit
  /// path — including kOk — so a stopped solve can always continue.
  core::SolverCheckpoint* capture = nullptr;
  /// Trace, metrics and convergence sinks; null records nothing and leaves
  /// results bit-for-bit identical.
  obs::ObsContext* obs = nullptr;
  /// Deterministic fault injection (fault/fault.hpp); null is inert and
  /// leaves results bit-for-bit identical.
  fault::FaultContext* fault = nullptr;
};

/// Tracks consumption against a SolveBudget; one per solve.
class BudgetMeter {
 public:
  explicit BudgetMeter(const SolveBudget& budget)
      : budget_(budget), start_us_(obs::Clock::now_micros()) {}

  /// Records one completed outer iteration.
  void charge_iteration() { ++iterations_; }

  /// Iterations consumed so far.
  std::size_t iterations() const { return iterations_; }

  /// True when the next iteration would exceed the cap.
  bool out_of_iterations() const {
    return budget_.max_iterations != 0 &&
           iterations_ >= budget_.max_iterations;
  }

  /// Polls the budget's CancelToken (if any): the outer-loop cancellation
  /// site. Each call consumes exactly one countdown poll, so call it once
  /// per outer iteration, beside the iteration/deadline checks.
  bool cancel_requested() {
    return budget_.cancel != nullptr && budget_.cancel->poll();
  }

  /// True when the wall-clock deadline has passed. Reads the shared clock.
  bool deadline_exceeded() const {
    return budget_.wall_clock_seconds > 0 &&
           elapsed_seconds() >= budget_.wall_clock_seconds;
  }

  /// Seconds elapsed since the meter was constructed (obs::Clock axis).
  double elapsed_seconds() const {
    return obs::Clock::seconds_since(start_us_);
  }

  /// The meter's start tick on the shared obs::Clock axis, so trace spans
  /// opened for this solve can share the exact same origin.
  obs::Clock::Micros start_micros() const { return start_us_; }

  const SolveBudget& budget() const { return budget_; }

 private:
  SolveBudget budget_;
  obs::Clock::Micros start_us_;
  std::size_t iterations_ = 0;
};

}  // namespace defender
