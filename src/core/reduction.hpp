// The two-way polynomial reduction of Theorem 4.5.
//
// Lemma 4.8 (lift): from a matching NE s' of Π_1(G), build a k-matching NE
// of Π_k(G) by labelling the defended edges e_0..e_{E-1} and taking the
// cyclic windows t_i = <e_{(i-1)k mod E}, ..., e_{(ik-1) mod E}> for
// i = 1..δ with δ = E / gcd(E, k); every edge then lands in exactly
// k / gcd(E, k) tuples (Claim 4.9).
//
// Lemma 4.6 (project): from a k-matching NE of Π_k(G), the flattened edge
// union E(D(tp)) with the same attacker support is a matching NE of Π_1(G).
//
// Corollaries 4.7/4.10: the defender's profit scales exactly by k across
// the reduction — IP_tp(s) = k · IP_tp(s') — the paper's headline
// "power of the defender" result.
//
// Deviation from the paper (DESIGN.md interpretation note): the cyclic
// construction produces tuples of k *distinct* edges only when
// k <= |D_s'(tp)|; lift() makes that a checked precondition. Since
// |D_s'(tp)| = |IS| and any expander partition has |IS| >= n/2, the bound
// only excludes defenders already powerful enough to hold a pure NE
// (Theorem 3.1 territory: k >= n/2 covers every vertex).
#pragma once

#include <span>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/k_matching.hpp"
#include "core/matching_ne.hpp"

namespace defender::core {

/// Lemma 4.8: lifts a matching NE of Π_1(G) to a k-matching NE of Π_k(G)
/// (`game` supplies k). Requires game.k() <= ne.tp_support.size().
KMatchingNe lift_to_k_matching(const TupleGame& game, const MatchingNe& ne);

/// Lemma 4.6: projects a k-matching NE of Π_k(G) down to a matching NE of
/// Π_1(G).
MatchingNe project_to_matching(const TupleGame& game, const KMatchingNe& ne);

/// Claim 4.9: the per-edge tuple multiplicity α = k / gcd(E, k) of the
/// lifted support, where E = |D_s'(tp)|.
std::size_t lifted_tuples_per_edge(std::size_t num_edges, std::size_t k);

/// The lifted support size δ = E / gcd(E, k).
std::size_t lifted_support_size(std::size_t num_edges, std::size_t k);

/// Lemma 4.8's cyclic windows over `edges` (E = |edges|, k = game.k()):
/// the δ = E / gcd(E, k) tuples t_i = <e_{ik mod E}, ..., e_{(ik+k-1) mod E}>
/// for i = 0..δ-1, each normalized. Every edge lies in exactly
/// k / gcd(E, k) of them (Claim 4.9), so uniform play over the windows
/// covers each edge with probability k/E. Requires 1 <= k <= E and
/// distinct edge ids.
std::vector<Tuple> cyclic_windows(const TupleGame& game,
                                  std::span<const graph::EdgeId> edges);

}  // namespace defender::core
