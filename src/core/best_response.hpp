// Best-response oracles.
//
// Verifying Theorem 3.4's condition 3(a) — every support tuple attains
// max_{t ∈ E^k} m_s(t) — requires maximizing the attacker mass covered by k
// distinct edges, a weighted-coverage problem that is NP-hard in general.
// The library offers two oracles:
//   * an exhaustive one over all C(m, k) tuples (ground truth, small games);
//   * a branch-and-bound maximizer whose upper bound ignores endpoint
//     overlap (sum of the top remaining per-edge masses), exact but fast on
//     the medium instances the test sweeps use.
// The attacker's best response is trivial: any vertex of minimum hit
// probability.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cancel.hpp"
#include "core/configuration.hpp"
#include "core/game.hpp"
#include "obs/context.hpp"

namespace defender::fault {
class FaultContext;
}

namespace defender::core {

/// A best (or witnessed-optimal) defender tuple and its covered mass.
struct BestTuple {
  Tuple tuple;
  double mass = 0;
};

/// Exhaustive maximization of m_s(t) over E^k. Requires
/// game.num_tuples() <= 2'000'000.
BestTuple best_tuple_exhaustive(const TupleGame& game,
                                const std::vector<double>& masses);

/// Branch-and-bound maximization of m_s(t) over E^k; exact on all inputs.
BestTuple best_tuple_branch_and_bound(const TupleGame& game,
                                      const std::vector<double>& masses);

/// Outcome of a budgeted branch-and-bound oracle call.
struct BestTupleSearch {
  /// The incumbent: always a feasible tuple, exact when !truncated.
  BestTuple best;
  /// Search nodes expanded.
  std::uint64_t nodes = 0;
  /// True when the node budget ran out before the tree was exhausted; the
  /// incumbent is then only a lower bound on the true best response.
  bool truncated = false;
  /// Sound upper bound on the true optimum (== best.mass when !truncated;
  /// the max completion bound over abandoned subtrees otherwise).
  double upper_bound = 0;
  /// True when a fired cancel token (rather than the node budget) cut the
  /// search short; `truncated` is then set too.
  bool cancelled = false;
};

/// Branch-and-bound capped at `node_budget` node expansions (0 = unlimited,
/// equivalent to the exact oracle). Never throws on exhaustion: the greedy
/// incumbent guarantees a feasible answer, and `upper_bound` certifies how
/// far from optimal it can be. With a non-null `obs`, each call updates the
/// oracle.* metrics (calls, nodes, truncations); null obs is a no-op.
///
/// Fault injection: a non-null `fault` arms the kOracleAlloc (simulated
/// allocation failure → greedy fallback with a sound root bound),
/// kOracleTruncate (forced tiny node budget), kOracleGarble (poisoned
/// result mass, repaired by the result-integrity guard), and kMassPerturb
/// (poisoned objective copy, repaired from the caller's pristine vector)
/// sites. Every injected fault is detected and degraded soundly — the
/// returned incumbent stays feasible and `upper_bound` stays an upper
/// bound. Null fault costs one branch per site and leaves results
/// bit-identical.
///
/// Cancellation: a non-null `cancel` is read (never polled — the countdown
/// belongs to the outer solver loop) at the first node and every few
/// thousand node expansions after it; a fired token truncates the search
/// exactly like node-budget exhaustion, so the incumbent and `upper_bound`
/// stay sound, and sets `cancelled`.
BestTupleSearch best_tuple_branch_and_bound_budgeted(
    const TupleGame& game, const std::vector<double>& masses,
    std::uint64_t node_budget, obs::ObsContext* obs = nullptr,
    fault::FaultContext* fault = nullptr, CancelToken* cancel = nullptr);

/// Picks the cheaper exact oracle for the instance size.
BestTuple best_tuple(const TupleGame& game,
                     const std::vector<double>& masses);

/// Vertices of minimum hit probability (the attackers' best responses).
graph::VertexSet min_hit_vertices(const std::vector<double>& hit,
                                  double tolerance = 1e-9);

}  // namespace defender::core
