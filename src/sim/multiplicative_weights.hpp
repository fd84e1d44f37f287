// Multiplicative-weights (Hedge) attacker dynamics.
//
// A second learning route to the game value, complementing fictitious
// play: the attacker runs the Hedge algorithm (Freund–Schapire) over the n
// vertices — multiplying each vertex's weight by exp(η · escape payoff)
// per round — while the defender plays the exact best response to the
// attacker's current mixed strategy (the branch-and-bound oracle). By the
// standard no-regret argument the attacker's average payoff converges to
// the zero-sum value at rate O(√(log n / T)), typically much faster than
// fictitious play's empirical-history dynamics; experiment E11 compares
// the two convergence profiles head to head.
//
// One entry point, hedge_dynamics, stops early once the certified
// upper/lower bracket closes to `opts.tolerance`, at the wall-clock
// deadline, or after the full round horizon — always returning best-so-far
// bounds with a structured status, never throwing on budget exhaustion.
// The horizon is its own argument: it fixes η independently of how the run
// is split into budgeted segments, so SolveOptions' checkpoint capture/
// restore can stop and resume a run without changing its trajectory. A
// nullable fault::FaultContext is threaded into the oracle and the clock.
#pragma once

#include <cstddef>
#include <vector>

#include "core/budget.hpp"
#include "core/checkpoint.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "obs/context.hpp"

namespace defender::sim {

/// One checkpoint of the Hedge run.
struct HedgeTrace {
  std::size_t round = 0;
  /// Upper bound on the value: defender's best response vs the attacker's
  /// AVERAGE strategy.
  double upper = 0;
  /// Lower bound: min-hit vertex payoff vs the defender's average play.
  double lower = 0;
};

/// Result of a Hedge-vs-best-response run.
struct HedgeResult {
  /// Midpoint estimate of the game value (hit probability).
  double value_estimate = 0;
  /// Final upper/lower gap.
  double gap = 0;
  std::vector<HedgeTrace> trace;
  /// The attacker's time-averaged mixed strategy (a near-optimal mix).
  std::vector<double> attacker_average;
  /// Rounds actually played (== the horizon unless the target gap or a
  /// deadline stopped the run early).
  std::size_t rounds = 0;
  /// True when an oracle call was truncated by `oracle_node_budget`; the
  /// reported bounds then rest on completion-bound certificates.
  bool approximate = false;
};

/// Hedge (learning rate η = sqrt(8·ln n / T), the horizon-optimal
/// constant) against a best-responding defender. `horizon` is the total
/// round horizon T that fixes η across ALL segments and must be >= 1;
/// `opts.budget.max_iterations` (0 = unlimited) caps only the rounds played
/// by this call, so a run can be stopped and resumed without changing η or
/// the trajectory. Reads budget, tolerance (the target gap), resume,
/// capture, obs and fault; Hedge has no damage-weighted variant, so
/// `opts.weights` must be empty.
///
/// Status codes: kOk (gap <= tolerance, or the horizon completed with
/// tolerance == 0), kIterationLimit (horizon or segment budget exhausted
/// with the gap open), kDeadlineExceeded, kCancelled. Budget exhaustion
/// degrades gracefully to best-so-far certified bounds — no exception.
/// `opts.resume` restores the log-weights and running sums (validated —
/// wrong solver kind, game shape, horizon mismatch, or a checkpoint already
/// past the horizon returns kInvalidInput); `opts.capture` receives the
/// final loop state on every exit path.
///
/// Observability: with a non-null `opts.obs`, the run opens a `hedge.solve`
/// trace span, emits one `hedge.checkpoint` event + ConvergenceRecorder
/// sample per bound checkpoint, finishes with a `hedge.finish` event
/// matching the returned Status, and maintains the hedge.* / oracle.*
/// metrics. The default null context records nothing and leaves results
/// bit-for-bit identical.
Solved<HedgeResult> hedge_dynamics(const core::TupleGame& game,
                                   std::size_t horizon,
                                   const SolveOptions& opts);

}  // namespace defender::sim
