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
// The bracket is closed (both bounds equal k/ρ, both mixes optimal) when
// k >= ρ or |M(G × K2)| = 2ν, a test on integers. It closes on every
// bipartite board (Theorem 5.1), every board with a perfect matching (2k/n)
// and every board with k >= ρ (Theorem 3.1). docs/THEORY.md §8 has the
// proofs.
#pragma once

#include "core/configuration.hpp"
#include "core/game.hpp"

namespace defender::core {

/// The two-matching bracket on the value of Π_k(G) and its certificates.
struct MatchingBracket {
  /// min(1, k/ρ): `defender` hits every vertex at least this often.
  double lower = 0;
  /// min(1, k/(n − ν_f)): no k-tuple catches more of `attacker`. Equal to
  /// `lower`, bit for bit, when `closed`.
  double upper = 1;
  /// True when the bracket pins the game value: it is then `lower`, and
  /// both mixes are optimal.
  bool closed = false;
  /// Uniform over the cyclic windows of a minimum edge cover, or the pure
  /// padded edge cover when k >= ρ.
  TupleDistribution defender;
  /// The normalized half-integral vertex packing; probabilities are
  /// multiples of 1 / (2n − |M(G × K2)|).
  VertexDistribution attacker;
};

/// Computes the bracket: a blossom matching of G and a Hopcroft–Karp
/// matching of G × K2. Reads no budget or cancel token.
MatchingBracket matching_bracket(const TupleGame& game);

}  // namespace defender::core
