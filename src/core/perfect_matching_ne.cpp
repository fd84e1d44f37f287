#include "core/perfect_matching_ne.hpp"

#include <algorithm>

#include "core/reduction.hpp"
#include "matching/blossom.hpp"
#include "util/assert.hpp"

namespace defender::core {

bool has_perfect_matching(const graph::Graph& g) {
  if (g.num_vertices() % 2 != 0) return false;
  return matching::max_matching(g).size() == g.num_vertices() / 2;
}

PerfectMatchingNe perfect_matching_ne_from(const TupleGame& game,
                                           const matching::Matching& m) {
  DEF_REQUIRE(m.size() * 2 == game.graph().num_vertices(),
              "the matching must be perfect");
  DEF_REQUIRE(game.k() <= m.size(),
              "the cyclic windows need k <= |M| = n/2 distinct edges");
  PerfectMatchingNe ne;
  ne.matching.assign(m.edges().begin(), m.edges().end());
  std::sort(ne.matching.begin(), ne.matching.end());
  ne.tp_support = cyclic_windows(game, ne.matching);
  return ne;
}

std::optional<PerfectMatchingNe> find_perfect_matching_ne(
    const TupleGame& game) {
  const matching::Matching m = matching::max_matching(game.graph());
  if (m.size() * 2 != game.graph().num_vertices()) return std::nullopt;
  DEF_REQUIRE(game.k() <= m.size(),
              "the cyclic windows need k <= |M| = n/2 distinct edges");
  return perfect_matching_ne_from(game, m);
}

MixedConfiguration to_configuration(const TupleGame& game,
                                    const PerfectMatchingNe& ne) {
  graph::VertexSet all;
  all.reserve(game.graph().num_vertices());
  for (graph::Vertex v = 0; v < game.graph().num_vertices(); ++v)
    all.push_back(v);
  return symmetric_configuration(
      game, VertexDistribution::uniform(std::move(all)),
      TupleDistribution::uniform(ne.tp_support));
}

double analytic_hit_probability(const TupleGame& game,
                                const PerfectMatchingNe&) {
  return 2.0 * static_cast<double>(game.k()) /
         static_cast<double>(game.graph().num_vertices());
}

double analytic_defender_profit(const TupleGame& game,
                                const PerfectMatchingNe& ne) {
  return analytic_hit_probability(game, ne) *
         static_cast<double>(game.num_attackers());
}

}  // namespace defender::core
