#include "core/matching_bracket.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/pure_ne.hpp"
#include "core/reduction.hpp"
#include "matching/blossom.hpp"
#include "matching/edge_cover.hpp"
#include "matching/konig.hpp"
#include "util/assert.hpp"

namespace defender::core {

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

  MatchingBracket out;
  out.closed = k >= rho || double_matching == 2 * m.size();
  out.lower = k >= rho ? 1.0 : static_cast<double>(k) /
                                   static_cast<double>(rho);
  out.upper = out.closed
                  ? out.lower
                  : std::min(1.0, static_cast<double>(2 * k) /
                                      static_cast<double>(2 * n -
                                                          double_matching));

  if (k >= rho) {
    const std::optional<PureConfiguration> pure = find_pure_ne(game);
    DEF_ENSURE(pure.has_value(), "k >= ρ must admit a pure NE (Theorem 3.1)");
    out.defender = TupleDistribution::uniform({pure->defender_tuple});
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
  const double total = static_cast<double>(2 * n - double_matching);
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
