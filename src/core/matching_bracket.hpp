// The matching bracket: the zero-sum value of Π_k(G) from two matchings.
//
// Two polynomial-time matchings bracket the value of the Tuple game, and
// each side of the bracket comes with a mixed strategy that certifies it:
//   * lower bound min(1, k/ρ), where ρ = n − ν is the minimum edge-cover
//     size (Gallai). For k >= ρ the defender plays Theorem 3.1's pure
//     tuple, which covers every vertex. Otherwise it plays Lemma 4.8's
//     ρ / gcd(ρ, k) cyclic k-windows over a minimum edge cover, uniformly:
//     every cover edge lies in a k/ρ share of the windows, so every vertex
//     is hit with probability at least k/ρ.
//   * upper bound min(1, k/(n − ν_f)), where ν_f = |M(G × K2)| / 2 is the
//     fractional matching number. A König cover C of the bipartite double
//     cover G × K2 gives c_v = |C ∩ {v, v′}| / 2 with c_u + c_v >= 1 on
//     every edge of G, so x_v = 1 − c_v is a half-integral vertex packing
//     of total n − ν_f. Normalized, it is an attacker mix of which any k
//     edges catch at most k/(n − ν_f).
// The bracket is closed (both mixes optimal) in three cases, each a test on
// integers:
//   * k >= ρ or |M(G × K2)| = 2ν: the value is k/ρ (or 1). This holds on
//     every bipartite board (Theorem 5.1), every board with a perfect
//     matching (2k/n) and every board with k >= ρ (Theorem 3.1).
//   * 3k <= N = 2n − |M(G × K2)|: the value is k/(n − ν_f). The matching
//     of G × K2 read as σ: v ↦ u (vu′ matched) splits into full edges and
//     odd cycles of half edges; laid out as N slots (two per full edge, one
//     per half edge, zig-zag around each odd cycle), the rotations of k
//     slots spaced ⌊N/k⌋ or ⌈N/k⌉ apart hold k distinct edges and cover
//     every vertex in at least 2k of N, so uniform play over them reaches
//     the upper bound.
// docs/THEORY.md §8 has the proofs.
#pragma once

#include "core/configuration.hpp"
#include "core/game.hpp"

namespace defender::core {

/// The two-matching bracket on the value of Π_k(G) and its certificates.
struct MatchingBracket {
  /// `defender` hits every vertex at least this often: min(1, k/ρ), or
  /// k/(n − ν_f) when the half-integral windows close the bracket.
  double lower = 0;
  /// min(1, k/(n − ν_f)): no k-tuple catches more of `attacker`. Equal to
  /// `lower`, bit for bit, when `closed`.
  double upper = 1;
  /// True when the bracket pins the game value: it is then `lower`, and
  /// both mixes are optimal.
  bool closed = false;
  /// The pure padded edge cover when k >= ρ; the half-integral windows
  /// (probabilities multiples of 1 / N) when they close the bracket;
  /// otherwise uniform over the cyclic windows of a minimum edge cover.
  TupleDistribution defender;
  /// The normalized half-integral vertex packing; probabilities are
  /// multiples of 1 / (2n − |M(G × K2)|).
  VertexDistribution attacker;
};

/// Computes the bracket: a blossom matching of G and a Hopcroft–Karp
/// matching of G × K2. Reads no budget or cancel token.
MatchingBracket matching_bracket(const TupleGame& game);

}  // namespace defender::core
