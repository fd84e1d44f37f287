// Damage-weighted defense: boards where hosts have unequal value.
//
// Extension of the Tuple model to heterogeneous assets: vertex v carries a
// damage weight w(v) > 0 (a database server outweighs a kiosk). An
// attacker that escapes on v inflicts damage w(v); the defender wants to
// minimize total expected damage, each attacker to maximize its own. The
// two-player view (defender vs one attacker) is zero-sum in damage with
//     D[v][t] = w(v) · [v not covered by t],
// so the simplex substrate solves it exactly: solve_zero_sum with weights
// (core/zero_sum.hpp) returns the minimax damage per attacker, and the
// optimal defender mix concentrates on tuples shielding the valuable
// assets. The defender's best response remains a weighted-coverage
// maximization, so the branch-and-bound oracle — and with it double oracle
// and fictitious play, given SolveOptions::weights — extends verbatim with
// masses scaled by w.
//
// With w ≡ 1 the damage value is 1 − (hit value): e.g. on C6 with k = 1
// the unweighted value 1/3 reappears as damage 2/3.
#pragma once

#include <span>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "lp/matrix_game.hpp"

namespace defender::core {

/// Validates damage weights: one strictly positive entry per vertex.
void validate_weights(const TupleGame& game, std::span<const double> weights);

/// The damage matrix: rows = vertices (attacker, maximizer), columns =
/// all C(m,k) tuples in lexicographic order (defender, minimizer);
/// entry w(v) when t misses v, 0 otherwise. Requires
/// game.num_tuples() <= kMaxLpTuples. core::solve_zero_sum with non-empty
/// weights solves it exactly.
lp::Matrix damage_matrix(const TupleGame& game,
                         std::span<const double> weights);

/// Expected total damage of a mixed configuration:
/// Σ_v w(v) · m(v) · (1 − P(Hit(v))).
double expected_damage(const TupleGame& game,
                       const MixedConfiguration& config,
                       std::span<const double> weights);

}  // namespace defender::core
