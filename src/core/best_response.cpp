#include "core/best_response.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>

#include "core/payoff.hpp"
#include "fault/fault.hpp"
#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {

BestTuple best_tuple_exhaustive(const TupleGame& game,
                                const std::vector<double>& masses) {
  DEF_REQUIRE(game.num_tuples() <= 2'000'000,
              "exhaustive tuple oracle limited to 2e6 tuples");
  const graph::Graph& g = game.graph();
  BestTuple best;
  best.mass = -1;
  util::for_each_combination(
      g.num_edges(), game.k(),
      [&](const std::vector<std::size_t>& combo) {
        Tuple t(combo.begin(), combo.end());
        const double m = tuple_mass(g, masses, t);
        if (m > best.mass) {
          best.mass = m;
          best.tuple = std::move(t);
        }
        return true;
      });
  DEF_ENSURE(best.mass >= 0, "tuple enumeration visited no tuple");
  return best;
}

namespace {

/// Depth-first branch and bound over edges sorted by per-edge mass.
class TupleSearch {
 public:
  TupleSearch(const graph::Graph& g, std::size_t k,
              const std::vector<double>& masses,
              std::uint64_t node_budget = 0, CancelToken* cancel = nullptr)
      : g_(g), k_(k), masses_(masses), node_budget_(node_budget),
        cancel_(cancel) {
    total_mass_ = 0;
    for (double m : masses) total_mass_ += m;
    order_.resize(g.num_edges());
    edge_mass_.resize(g.num_edges());
    for (graph::EdgeId id = 0; id < g.num_edges(); ++id) {
      order_[id] = id;
      const graph::Edge& e = g.edge(id);
      edge_mass_[id] = masses[e.u] + masses[e.v];
    }
    std::sort(order_.begin(), order_.end(),
              [&](graph::EdgeId a, graph::EdgeId b) {
                return edge_mass_[a] > edge_mass_[b];
              });
    covered_.assign(g.num_vertices(), 0);
  }

  BestTuple run() { return run_budgeted().best; }

  /// Degraded-mode answer when the full search cannot run (simulated
  /// allocation failure): the greedy incumbent plus the root completion
  /// bound — a feasible tuple and a sound upper bound, with zero nodes
  /// expanded.
  BestTupleSearch run_greedy_only() {
    seed_greedy();
    BestTupleSearch out;
    out.best = best_;
    out.nodes = 0;
    out.truncated = true;
    out.upper_bound = std::max(best_.mass, completion_bound(0, k_, 0.0));
    return out;
  }

  BestTupleSearch run_budgeted() {
    // Seed the incumbent with a greedy marginal-gain solution; combined with
    // the <=-pruning below, instances whose greedy solution already meets
    // the overlap-ignoring bound (e.g. uniform masses) terminate at the
    // root instead of exploring the full tree.
    seed_greedy();
    current_.reserve(k_);
    descend(0, 0.0);
    BestTupleSearch out;
    out.best = best_;
    out.nodes = nodes_;
    out.truncated = truncated_;
    out.cancelled = cancelled_;
    out.upper_bound =
        truncated_ ? std::max(best_.mass, open_bound_) : best_.mass;
    return out;
  }

 private:
  /// Greedy incumbent: k rounds, each taking the edge of maximum marginal
  /// coverage gain. O(k·m); a feasible tuple, so a valid lower bound.
  void seed_greedy() {
    std::vector<char> taken(order_.size(), 0);
    std::vector<char> cov(covered_.size(), 0);
    Tuple t;
    double total = 0;
    for (std::size_t round = 0; round < k_; ++round) {
      std::size_t best_i = order_.size();
      double best_delta = -1;
      for (std::size_t i = 0; i < order_.size(); ++i) {
        if (taken[i]) continue;
        const graph::Edge& e = g_.edge(order_[i]);
        const double delta =
            (cov[e.u] ? 0.0 : masses_[e.u]) + (cov[e.v] ? 0.0 : masses_[e.v]);
        if (delta > best_delta) {
          best_delta = delta;
          best_i = i;
        }
      }
      taken[best_i] = 1;
      const graph::Edge& e = g_.edge(order_[best_i]);
      cov[e.u] = 1;
      cov[e.v] = 1;
      t.push_back(order_[best_i]);
      total += best_delta;
    }
    std::sort(t.begin(), t.end());
    best_.tuple = std::move(t);
    best_.mass = total;
  }

  /// Upper bound for completing `current_` with `need` edges drawn from
  /// order_[from:]: the sum of the `need` largest remaining edge masses,
  /// capped by the total mass still uncovered (a tuple can never gain more
  /// than what remains on the board — much tighter when masses are diffuse
  /// and 2k approaches the number of massive vertices).
  double completion_bound(std::size_t from, std::size_t need,
                          double gained) const {
    double bound = 0;
    for (std::size_t i = from; i < order_.size() && need > 0; ++i, --need)
      bound += edge_mass_[order_[i]];
    if (need != 0) return -std::numeric_limits<double>::infinity();
    return std::min(bound, total_mass_ - gained);
  }

  void descend(std::size_t from, double gained) {
    ++nodes_;
    if (node_budget_ != 0 && nodes_ > node_budget_) truncated_ = true;
    // Cancellation reads the latch only (no countdown poll) at the first
    // node and then on a node stride, and degrades exactly like budget
    // exhaustion: the incumbent plus a sound completion bound for the
    // abandoned subtree.
    if (cancel_ != nullptr && !cancelled_ && nodes_ % kCancelStride == 1 &&
        cancel_->cancelled())
      truncated_ = cancelled_ = true;
    if (truncated_) {
      // Budget ran out: record a sound bound for this abandoned subtree so
      // the caller knows how far the incumbent can be from optimal, then
      // unwind without exploring further.
      const std::size_t need = k_ - current_.size();
      if (order_.size() - from >= need)
        open_bound_ = std::max(open_bound_,
                               gained + completion_bound(from, need, gained));
      return;
    }
    if (current_.size() == k_) {
      if (gained > best_.mass) {
        best_.mass = gained;
        best_.tuple = current_;
        std::sort(best_.tuple.begin(), best_.tuple.end());
      }
      return;
    }
    const std::size_t need = k_ - current_.size();
    if (order_.size() - from < need) return;
    // The 1e-9 slack trades at most 1e-9 of optimality for pruning the
    // exponentially many near-ties symmetric boards produce; every caller
    // tolerance is coarser.
    if (gained + completion_bound(from, need, gained) <= best_.mass + 1e-9)
      return;

    // Branch on including/excluding order_[from].
    const graph::EdgeId id = order_[from];
    const graph::Edge& e = g_.edge(id);
    double delta = 0;
    if (!covered_[e.u]) delta += masses_[e.u];
    if (!covered_[e.v]) delta += masses_[e.v];
    ++covered_[e.u];
    ++covered_[e.v];
    current_.push_back(id);
    descend(from + 1, gained + delta);
    current_.pop_back();
    --covered_[e.u];
    --covered_[e.v];
    descend(from + 1, gained);
  }

  const graph::Graph& g_;
  std::size_t k_;
  const std::vector<double>& masses_;
  std::vector<graph::EdgeId> order_;
  std::vector<double> edge_mass_;
  double total_mass_ = 0;
  static constexpr std::uint64_t kCancelStride = 4096;

  std::uint64_t node_budget_ = 0;
  CancelToken* cancel_ = nullptr;
  std::uint64_t nodes_ = 0;
  bool truncated_ = false;
  bool cancelled_ = false;
  double open_bound_ = 0;
  std::vector<int> covered_;
  Tuple current_;
  BestTuple best_;
};

}  // namespace

BestTuple best_tuple_branch_and_bound(const TupleGame& game,
                                      const std::vector<double>& masses) {
  DEF_REQUIRE(masses.size() == game.graph().num_vertices(),
              "mass vector must cover every vertex");
  return TupleSearch(game.graph(), game.k(), masses).run();
}

BestTupleSearch best_tuple_branch_and_bound_budgeted(
    const TupleGame& game, const std::vector<double>& masses,
    std::uint64_t node_budget, obs::ObsContext* obs,
    fault::FaultContext* fault, CancelToken* cancel) {
  DEF_REQUIRE(masses.size() == game.graph().num_vertices(),
              "mass vector must cover every vertex");
  const graph::Graph& g = game.graph();

  // The objective the search actually optimizes. Fault injection poisons a
  // *working copy* (kMassPerturb), never the caller's vector — mirroring a
  // corrupted internal buffer whose authoritative source survives.
  const std::vector<double>* objective = &masses;
  std::vector<double> working;
  bool mass_repaired = false;
  if (fault != nullptr) {
    if (fault->fires(fault::FaultSite::kMassPerturb) && !masses.empty()) {
      working = masses;
      const std::uint64_t sel = fault->aux(fault::FaultSite::kMassPerturb);
      working[sel % working.size()] = fault::poison_value(sel);
      objective = &working;
    }
    if (fault->fires(fault::FaultSite::kOracleTruncate)) {
      // Forced starvation: at most a handful of node expansions, driving
      // the truncation/completion-bound degradation path.
      node_budget = 1 + fault->aux(fault::FaultSite::kOracleTruncate) % 4;
    }
  }
  // Input guard: a non-finite attacker mass would silently poison every
  // bound the search certifies. On detection, fall back to the caller's
  // authoritative vector (identical to the pre-corruption objective).
  if (objective != &masses) {
    for (double mv : *objective) {
      if (!std::isfinite(mv)) {
        objective = &masses;
        mass_repaired = true;
        break;
      }
    }
  }

  BestTupleSearch out;
  bool alloc_fallback = false;
  if (fault_fires(fault, fault::FaultSite::kOracleAlloc)) {
    // Simulated allocation failure mid-search: the contract is "never
    // crash", so the oracle degrades to its greedy incumbent with a sound
    // root completion bound instead of propagating the exception.
    try {
      throw std::bad_alloc();
    } catch (const std::bad_alloc&) {
      alloc_fallback = true;
      out = TupleSearch(g, game.k(), *objective, node_budget, cancel)
                .run_greedy_only();
    }
  } else {
    out = TupleSearch(g, game.k(), *objective, node_budget, cancel)
              .run_budgeted();
  }

  if (fault != nullptr && fault->fires(fault::FaultSite::kOracleGarble)) {
    // Poison the result in place — the integrity guard below must catch it.
    const std::uint64_t sel = fault->aux(fault::FaultSite::kOracleGarble);
    out.best.mass = fault::poison_value(sel);
    out.upper_bound = fault::poison_value(sel + 1);
  }
  // Result-integrity guard (always on): the incumbent's mass must be the
  // actual coverage of its tuple, and the upper bound must be finite. A
  // non-finite mass is recomputed from the returned tuple; a non-finite
  // bound falls back to the incumbent (exact case) or the total objective
  // mass (truncated case) — both sound.
  bool result_repaired = false;
  if (!std::isfinite(out.best.mass)) {
    out.best.mass = tuple_mass(g, *objective, out.best.tuple);
    result_repaired = true;
  }
  if (!std::isfinite(out.upper_bound)) {
    if (out.truncated) {
      double total = 0;
      for (double mv : *objective) total += mv;
      out.upper_bound = std::max(out.best.mass, total);
    } else {
      out.upper_bound = out.best.mass;
    }
    result_repaired = true;
  }

  if (obs != nullptr && obs->metrics != nullptr) {
    obs->metrics->counter("oracle.calls").add(1);
    obs->metrics->counter("oracle.nodes").add(out.nodes);
    if (out.truncated) obs->metrics->counter("oracle.truncations").add(1);
    if (mass_repaired) obs->metrics->counter("oracle.mass_repairs").add(1);
    if (result_repaired)
      obs->metrics->counter("oracle.result_repairs").add(1);
    if (alloc_fallback)
      obs->metrics->counter("oracle.alloc_fallbacks").add(1);
  }
  return out;
}

BestTuple best_tuple(const TupleGame& game,
                     const std::vector<double>& masses) {
  if (game.num_tuples() <= 100'000)
    return best_tuple_exhaustive(game, masses);
  return best_tuple_branch_and_bound(game, masses);
}

graph::VertexSet min_hit_vertices(const std::vector<double>& hit,
                                  double tolerance) {
  DEF_REQUIRE(!hit.empty(), "hit vector must be nonempty");
  const double lo = *std::min_element(hit.begin(), hit.end());
  graph::VertexSet out;
  for (graph::Vertex v = 0; v < hit.size(); ++v)
    if (hit[v] <= lo + tolerance) out.push_back(v);
  return out;
}

}  // namespace defender::core
