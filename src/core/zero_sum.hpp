// Zero-sum view of the Tuple model, solved exactly by LP (experiment E8).
//
// With attackers symmetric, a mixed NE of Π_k(G) induces a pair of optimal
// strategies of the two-player zero-sum game "defender picks a tuple,
// attacker picks a vertex, defender wins 1 on coverage": the attacker side
// plays a minimum-hit distribution and the defender a maximum-mass one, and
// the zero-sum value — unique across all equilibria — equals the
// equilibrium hit probability. Lemma 4.1 therefore predicts
//     value(Π_k(G)) = k / |E(D(tp))|
// on every instance with a k-matching NE, which this module checks against
// the simplex baseline.
#pragma once

#include <cstdint>

#include "core/budget.hpp"
#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "lp/dense_matrix.hpp"
#include "lp/matrix_game.hpp"

namespace defender::core {

/// Enumeration cap of the exact LP route: the most defender strategies
/// (C(m, k) tuples) coverage_matrix, damage_matrix and solve_zero_sum will
/// enumerate. Larger boards belong to the double oracle.
inline constexpr std::uint64_t kMaxLpTuples = 20'000;

/// The 0/1 coverage matrix: rows = all C(m, k) tuples in lexicographic
/// order, columns = vertices; entry 1 iff the tuple covers the vertex.
/// Requires game.num_tuples() <= kMaxLpTuples.
lp::Matrix coverage_matrix(const TupleGame& game);

/// The tuple at lexicographic `rank` of E^k (row index of coverage_matrix).
Tuple tuple_at_rank(const TupleGame& game, std::uint64_t rank);

/// Exact zero-sum solution by enumerate-and-simplex. Reads `opts.budget`
/// (pivots, deadline, cancel), `opts.weights`, `opts.obs` and `opts.fault`.
///
/// Hit game (empty weights): `value` is the equilibrium hit probability,
/// `row_strategy` an optimal defender mix over lexicographic tuples,
/// `col_strategy` an optimal attacker mix over vertices.
/// Damage game (non-empty weights, core/weighted.hpp): the LP runs on
/// damage_matrix, so `value` is the minimax damage per attacker,
/// `row_strategy` the attacker's mix over vertices and `col_strategy` the
/// defender's over lexicographic tuples.
///
/// Never throws on a budget; status codes:
///   kOk                exact equilibrium (lower == upper == value);
///   kIterationLimit /  the simplex pivot budget (budget.max_iterations)
///   kDeadlineExceeded  or wall-clock deadline ran out; the returned
///                      strategies are valid mixes whose security levels
///                      bracket the true value ([lower_bound, upper_bound]);
///   kInvalidInput      E^k exceeds kMaxLpTuples (too large to enumerate);
///   kNumericallyUnstable  the LP failed its residual verification;
///   kCancelled         budget.cancel fired mid-pivot.
/// A non-null `obs` reaches the simplex substrate (lp.* metrics and trace
/// events). A non-null `fault` arms the simplex fault sites
/// (kLpPivotPerturb, kLpForceUnstable) for chaos drills; null leaves
/// results bit-identical.
Solved<lp::MatrixGameSolution> solve_zero_sum(const TupleGame& game,
                                              const SolveOptions& opts = {});

/// Converts a hit-game zero-sum solution into a symmetric mixed
/// configuration of the full ν-attacker game (drops strategies below
/// `prob_floor` and renormalizes, so the supports stay exact).
MixedConfiguration to_configuration(const TupleGame& game,
                                    const lp::MatrixGameSolution& solution,
                                    double prob_floor = 1e-9);

}  // namespace defender::core
