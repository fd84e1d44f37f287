#include "core/matching_bracket.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "core/pure_ne.hpp"
#include "core/reduction.hpp"
#include "matching/blossom.hpp"
#include "matching/edge_cover.hpp"
#include "matching/konig.hpp"
#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {

namespace {

/// The slot line of a half-integral edge cover read off a maximum matching
/// of G × K2 (σ: v ↦ u when vu′ is matched): two consecutive slots per full
/// edge and one per half edge, 2n − |M(G × K2)| slots in all. σ's 2-cycles,
/// even cycles and paths give full edges; its odd cycles give half edges,
/// laid out zig-zag (e_0, e_{L−1}, e_1, e_{L−2}, …) so that the two edges
/// at any cycle vertex sit at most 2 slots apart.
std::vector<graph::EdgeId> half_integral_slots(const graph::Graph& g,
                                               const matching::Matching& m2) {
  const std::size_t n = g.num_vertices();
  constexpr graph::Vertex kNone = matching::kUnmatched;
  std::vector<graph::Vertex> next(n, kNone);
  std::vector<graph::Vertex> prev(n, kNone);
  for (graph::Vertex v = 0; v < n; ++v) {
    const graph::Vertex mate = m2.mate(v);
    if (mate == kNone) continue;
    next[v] = static_cast<graph::Vertex>(mate - n);
    prev[next[v]] = v;
  }

  std::vector<graph::EdgeId> slots;
  const auto add_full = [&](graph::Vertex a, graph::Vertex b) {
    const graph::EdgeId e = *g.edge_id(a, b);
    slots.push_back(e);
    slots.push_back(e);
  };
  std::vector<bool> visited(n, false);
  std::vector<graph::Vertex> walk;
  std::vector<graph::Vertex> exposed;
  // Paths start where σ has no preimage. A path with an even number of
  // vertices would augment the matching, so each leaves its last vertex
  // exposed after pairing the others.
  for (graph::Vertex v = 0; v < n; ++v) {
    if (prev[v] != kNone) continue;
    walk.clear();
    for (graph::Vertex w = v; w != kNone; w = next[w]) {
      walk.push_back(w);
      visited[w] = true;
    }
    DEF_ENSURE(walk.size() % 2 == 1,
               "a maximum matching of G × K2 leaves no even path");
    for (std::size_t i = 0; i + 1 < walk.size(); i += 2)
      add_full(walk[i], walk[i + 1]);
    exposed.push_back(walk.back());
  }
  // Every other vertex lies on a cycle of σ.
  for (graph::Vertex v = 0; v < n; ++v) {
    if (visited[v]) continue;
    walk.clear();
    for (graph::Vertex w = v; !visited[w]; w = next[w]) {
      walk.push_back(w);
      visited[w] = true;
    }
    const std::size_t len = walk.size();
    if (len % 2 == 0) {
      for (std::size_t i = 0; i < len; i += 2) add_full(walk[i], walk[i + 1]);
      continue;
    }
    for (std::size_t lo = 0, hi = len - 1; lo <= hi; ++lo, --hi) {
      slots.push_back(*g.edge_id(walk[lo], walk[(lo + 1) % len]));
      if (lo != hi) slots.push_back(*g.edge_id(walk[hi], walk[(hi + 1) % len]));
    }
  }
  // Exposed vertices are pairwise non-adjacent (an edge between two would
  // augment the matching), so each takes an incident edge of its own.
  for (graph::Vertex v : exposed) {
    const graph::EdgeId e = g.neighbors(v).front().edge;
    slots.push_back(e);
    slots.push_back(e);
  }
  return slots;
}

/// Uniform play over the N rotations T_r = {slot[(⌊jN/k⌋ + r) mod N] : j <
/// k}, identical ones merged (T_r repeats with period N / gcd(N, k)). With
/// 3k <= N any two picked slots are at least 3 apart, so a rotation never
/// holds both slots of a full edge or both cycle edges at one vertex: every
/// vertex is covered by at least 2k of the N rotations.
TupleDistribution half_integral_windows(const TupleGame& game,
                                        std::span<const graph::EdgeId> slots) {
  const graph::Graph& g = game.graph();
  const std::size_t k = game.k();
  const std::size_t slot_count = slots.size();
  DEF_REQUIRE(3 * k <= slot_count, "the windows need 3k <= N slots");
  const std::size_t repeats = util::gcd(slot_count, k);
  const std::size_t period = slot_count / repeats;

  // Identical rotations merge into the first one's support position.
  std::map<Tuple, std::size_t> position;
  std::vector<Tuple> support;
  std::vector<std::size_t> count;
  std::vector<std::size_t> covering(g.num_vertices(), 0);
  std::vector<std::size_t> stamp(g.num_vertices(), period);
  for (std::size_t r = 0; r < period; ++r) {
    Tuple t;
    t.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      const graph::EdgeId e = slots[(j * slot_count / k + r) % slot_count];
      t.push_back(e);
      for (graph::Vertex v : {g.edge(e).u, g.edge(e).v}) {
        if (stamp[v] == r) continue;
        stamp[v] = r;
        ++covering[v];
      }
    }
    t = make_tuple(game, std::move(t));
    const auto [it, fresh] = position.try_emplace(t, support.size());
    if (fresh) {
      support.push_back(std::move(t));
      count.push_back(0);
    }
    count[it->second] += repeats;
  }
  for (std::size_t c : covering)
    DEF_ENSURE(c * repeats >= 2 * k,
               "every vertex is covered by at least 2k of the N rotations");

  std::vector<double> probs;
  probs.reserve(count.size());
  for (std::size_t c : count)
    probs.push_back(static_cast<double>(c) / static_cast<double>(slot_count));
  return TupleDistribution(std::move(support), std::move(probs));
}

}  // namespace

MatchingBracket matching_bracket(const TupleGame& game) {
  const graph::Graph& g = game.graph();
  const std::size_t n = g.num_vertices();
  const std::size_t k = game.k();
  const matching::Matching m = matching::max_matching(g);
  const std::size_t rho = n - m.size();

  // G × K2: vertex v stays v and its copy v′ is v + n; edge uv becomes
  // uv′ and vu′.
  graph::GraphBuilder cover_builder(2 * n);
  for (const graph::Edge& e : g.edges()) {
    cover_builder.add_edge(e.u, e.v + n);
    cover_builder.add_edge(e.v, e.u + n);
  }
  const matching::KonigResult konig =
      matching::konig_vertex_cover(cover_builder.build());
  const std::size_t double_matching = konig.matching.size();
  DEF_ENSURE(double_matching >= 2 * m.size(),
             "G × K2 holds two copies of every matching of G");
  // N = 2(n − ν_f): the slots of the half-integral windows and the scaled
  // total of the attacker's packing.
  const std::size_t slot_count = 2 * n - double_matching;

  MatchingBracket out;
  const bool integral = k >= rho || double_matching == 2 * m.size();
  const bool half_integral = !integral && 3 * k <= slot_count;
  out.closed = integral || half_integral;
  const double fractional =
      std::min(1.0, static_cast<double>(2 * k) /
                        static_cast<double>(slot_count));
  if (half_integral) {
    out.lower = out.upper = fractional;
  } else {
    out.lower = k >= rho ? 1.0 : static_cast<double>(k) /
                                     static_cast<double>(rho);
    out.upper = out.closed ? out.lower : fractional;
  }

  if (k >= rho) {
    const std::optional<PureConfiguration> pure = find_pure_ne(game);
    DEF_ENSURE(pure.has_value(), "k >= ρ must admit a pure NE (Theorem 3.1)");
    out.defender = TupleDistribution::uniform({pure->defender_tuple});
  } else if (half_integral) {
    out.defender = half_integral_windows(
        game, half_integral_slots(g, konig.matching));
  } else {
    const graph::EdgeSet cover = matching::edge_cover_from_matching(g, m);
    DEF_ENSURE(cover.size() == rho,
               "a maximum matching must give a minimum edge cover (Gallai)");
    out.defender = TupleDistribution::uniform(cyclic_windows(game, cover));
  }

  // x_v = 1 − |C ∩ {v, v′}| / 2, scaled by 2 to stay integral; the scaled
  // packing totals 2n − |C| = 2n − |M(G × K2)| (König).
  std::vector<std::size_t> twice_x(n, 2);
  for (graph::Vertex c : konig.vertex_cover) --twice_x[c < n ? c : c - n];
  const double total = static_cast<double>(slot_count);
  graph::VertexSet support;
  std::vector<double> probs;
  for (graph::Vertex v = 0; v < n; ++v) {
    if (twice_x[v] == 0) continue;
    support.push_back(v);
    probs.push_back(static_cast<double>(twice_x[v]) / total);
  }
  out.attacker = VertexDistribution(std::move(support), std::move(probs));
  return out;
}

}  // namespace defender::core
