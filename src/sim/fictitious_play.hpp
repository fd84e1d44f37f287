// Fictitious play on the zero-sum view of Π_k(G) (experiment E11).
//
// An extension beyond the paper: Robinson (1951) proved fictitious play
// converges to the value of any zero-sum game, so an attacker and a
// defender that merely best-respond to each other's empirical history learn
// the equilibrium hit probability — the same k/|E(D(tp))| that Lemma 4.1
// constructs combinatorially. Because the defender's best response is the
// branch-and-bound tuple oracle, this runs on instances far beyond the LP's
// enumerable E^k.
//
// One entry point, fictitious_play, runs both games: the hit game and,
// with non-empty SolveOptions::weights, the damage-weighted game of
// core/weighted.hpp. It plays until its upper/lower bracket closes to
// `opts.tolerance` or the SolveBudget (rounds, wall clock, oracle nodes)
// runs out, whichever first. Budget exhaustion is graceful: the result
// carries the best-so-far certified bounds with a kIterationLimit /
// kDeadlineExceeded status — never an exception. SolveOptions also carries
// checkpoint capture/restore of the empirical histories (see
// core/checkpoint.hpp) and a nullable fault::FaultContext threaded into
// the oracle and the clock; both default to inert and cost one branch.
#pragma once

#include <vector>

#include "core/best_response.hpp"
#include "core/budget.hpp"
#include "core/checkpoint.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "obs/context.hpp"

namespace defender::sim {

/// One snapshot of the fictitious-play bounds after a given round.
struct FictitiousPlayTrace {
  std::size_t round = 0;
  /// Defender's best-response payoff against the attacker's empirical mix —
  /// an upper bound on the game value.
  double upper = 0;
  /// 1 - (attacker's best-response escape) against the defender's empirical
  /// mix — a lower bound on the game value.
  double lower = 0;
};

/// Result of a fictitious-play run.
struct FictitiousPlayResult {
  /// Final midpoint estimate of the game value (hit probability).
  double value_estimate = 0;
  /// Final upper/lower gap.
  double gap = 0;
  /// Snapshots at (roughly geometrically spaced) checkpoint rounds.
  std::vector<FictitiousPlayTrace> trace;
  /// Empirical attacker vertex frequencies after the final round.
  std::vector<double> attacker_frequency;
  /// Per-vertex empirical coverage frequency of the defender's history.
  std::vector<double> defender_hit_frequency;
  /// Rounds actually played (== the requested count unless a deadline or
  /// the target gap stopped the run early).
  std::size_t rounds = 0;
  /// True when an oracle call was truncated by `oracle_node_budget`; the
  /// reported bounds then rest on completion-bound certificates.
  bool approximate = false;
};

/// Fictitious play from uniform seeds. Plays rounds until the certified
/// upper/lower gap is <= `opts.tolerance` (kOk) or the budget runs out
/// (kIterationLimit / kDeadlineExceeded / kCancelled with best-so-far
/// bounds). With `opts.tolerance` == 0 the run uses the full round budget
/// and reports kOk on completion. At least one of {budget.max_iterations,
/// budget.wall_clock_seconds, tolerance} must bound the run.
///
/// Damage game: with non-empty `opts.weights` the attacker best-responds
/// with argmax_v w(v)·(1 − cover frequency), the defender with the
/// w-scaled coverage maximizer, and the bounds bracket the minimax *damage*
/// value: `upper` = attacker's best-response damage against the defender's
/// empirical mix, `lower` = the damage the defender's best response
/// concedes to the attacker's empirical mix.
///
/// Resume: `opts.resume` restores the attacker/defender empirical
/// histories and the cumulative round count (validated first — mismatched
/// solver kind or game shape returns kInvalidInput); `budget.max_iterations`
/// then bounds the *segment*, while checkpoints, normalizations, and the
/// reported round count stay cumulative. With `opts.capture` set, the final
/// histories are written there on every exit path. The round loop is a
/// deterministic function of that state, so stopping at round i and
/// resuming reproduces the uninterrupted trajectory.
///
/// Observability: with a non-null `opts.obs`, the run opens an `fp.solve`
/// trace span, emits one `fp.checkpoint` event + ConvergenceRecorder sample
/// per bound checkpoint, finishes with an `fp.finish` event matching the
/// returned Status, and maintains the fp.* / oracle.* metrics; the damage
/// game uses the `fp.weighted.*` names. The default null context records
/// nothing and leaves results bit-for-bit identical.
Solved<FictitiousPlayResult> fictitious_play(const core::TupleGame& game,
                                             const SolveOptions& opts);

}  // namespace defender::sim
