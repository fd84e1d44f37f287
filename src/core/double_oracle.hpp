// Double-oracle solver: exact zero-sum equilibria over the full E^k
// without enumerating it.
//
// The defender's pure-strategy space C(m,k) explodes combinatorially, so
// the direct LP (core/zero_sum.hpp) caps out quickly. The double-oracle
// method (McMahan–Gordon–Blum) sidesteps enumeration: keep small working
// sets of tuples and vertices, solve the restricted matrix game exactly by
// simplex, then ask each side's *best-response oracle* — the
// branch-and-bound coverage maximizer for the defender, the minimum-hit
// vertex for the attacker — whether it can beat the restricted value. If
// neither can, the restricted equilibrium is an equilibrium of the FULL
// game; otherwise the best responses join the working sets and the loop
// repeats. Both strategy spaces are finite, so termination is guaranteed,
// and in practice the final supports stay tiny (experiment E17 solves
// boards with > 10^12 tuples in a few iterations).
//
// One entry point, solve_double_oracle, serves both games: the hit game
// and, with non-empty SolveOptions::weights, the damage-weighted game of
// core/weighted.hpp. They differ only in payoff; one loop runs both.
//
// Budgets degrade gracefully. Every outer iteration certifies a bracket on
// the game value — the defender's restricted mix guarantees at least the
// attacker's best-response payoff and the attacker's restricted mix caps
// the defender at its best-response payoff — so when the iteration or
// wall-clock budget runs out the solver returns its best-so-far mixes with
// that certified bracket and a kIterationLimit / kDeadlineExceeded status
// instead of throwing.
//
// Fault injection & resume: SolveOptions carries checkpoint capture/
// restore slots (core/checkpoint.hpp) and a nullable fault::FaultContext
// that deterministically perturbs the oracle, the restricted LP, and the
// clock. Every certified bound is re-derived from authoritative data after
// any injected corruption, so the returned bracket stays sound under any
// fault schedule.
#pragma once

#include <cstddef>

#include "core/budget.hpp"
#include "core/checkpoint.hpp"
#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "obs/context.hpp"

namespace defender::core {

/// Result of a double-oracle solve.
struct DoubleOracleResult {
  /// The zero-sum value of Π_k(G): the equilibrium hit probability. On a
  /// budget-limited solve, the restricted-game value clamped into the
  /// certified bracket below.
  double value = 0;
  /// Achieved duality gap: max(defender BR − value, value − attacker BR).
  /// 0 within `tolerance` on clean convergence; up to 1e-4 when the
  /// restricted simplex hit its numerical floor first (still certified by
  /// the two exact oracles).
  double gap = 0;
  /// Best defender mix found (support only); optimal on kOk.
  TupleDistribution defender;
  /// Best attacker mix found (support only); optimal on kOk.
  VertexDistribution attacker;
  /// Outer iterations until both oracles were silent (or the budget ran out).
  std::size_t iterations = 0;
  /// Working-set sizes at termination (defender tuples / attacker vertices).
  std::size_t defender_set_size = 0;
  std::size_t attacker_set_size = 0;
  /// Certified bracket on the true game value. On kOk these collapse to
  /// `value` within tolerance; on a budgeted stop they are the best bounds
  /// the exact oracles certified across all iterations.
  double lower_bound = 0;
  double upper_bound = 0;
  /// True when an oracle call was truncated by `oracle_node_budget`, so the
  /// upper bound rests on a truncated certification.
  bool approximate = false;
};

/// Solves the zero-sum view of Π_k(G) within `opts.tolerance`. Never
/// throws on budget exhaustion or an oracle stall: those return
/// kIterationLimit / kDeadlineExceeded / kCancelled / kNumericallyUnstable
/// with best-so-far certified bounds (callers that want an exception use
/// value_or_throw()).
///
/// Non-empty `opts.weights` (one strictly positive weight per vertex)
/// solves the damage-weighted game instead: `value` is then the minimax
/// expected damage per attacker, which the attacker maximizes. Same oracles
/// with masses scaled by w, so it reaches instances far beyond
/// damage_matrix's enumeration cap.
///
/// Resume: with `opts.resume` set, the working sets, certified bracket and
/// cumulative iteration count are restored from the checkpoint (validated
/// first — wrong solver kind, version, or game shape comes back as
/// kInvalidInput) and the seeding oracle call is skipped. With
/// `opts.capture` set, the final loop state is written there on every exit
/// path. The loop body is a deterministic function of that state, so
/// stopping a solve at iteration i and resuming reproduces the
/// uninterrupted run's trajectory: same final status code, same bracket.
///
/// Observability: with a non-null `opts.obs`, the solve opens a `do.solve`
/// trace span, emits one `do.iteration` event + ConvergenceRecorder sample
/// per outer iteration (running bracket, instantaneous gap, working-set
/// sizes, oracle node count), finishes with a `do.finish` event matching
/// the returned Status, and maintains the do.* / oracle.* / lp.* metrics.
/// The damage game uses the `do.weighted.*` names.
///
/// Fault injection: a non-null `opts.fault` is forwarded to the oracle and
/// the restricted LP and perturbs the clock once per outer iteration.
Solved<DoubleOracleResult> solve_double_oracle(const TupleGame& game,
                                               const SolveOptions& opts = {});

}  // namespace defender::core
