#include "core/reduction.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {

std::size_t lifted_tuples_per_edge(std::size_t num_edges, std::size_t k) {
  DEF_REQUIRE(num_edges >= 1 && k >= 1, "sizes must be positive");
  return k / util::gcd(num_edges, k);
}

std::size_t lifted_support_size(std::size_t num_edges, std::size_t k) {
  DEF_REQUIRE(num_edges >= 1 && k >= 1, "sizes must be positive");
  return num_edges / util::gcd(num_edges, k);
}

std::vector<Tuple> cyclic_windows(const TupleGame& game,
                                  std::span<const graph::EdgeId> edges) {
  const std::size_t k = game.k();
  const std::size_t e_num = edges.size();
  DEF_REQUIRE(k <= e_num, "the cyclic windows need k <= |edges| distinct "
                          "edges (DESIGN.md note on Lemma 4.8)");
  const std::size_t delta = lifted_support_size(e_num, k);
  std::vector<Tuple> windows;
  windows.reserve(delta);
  std::size_t current = 0;
  for (std::size_t i = 0; i < delta; ++i) {
    Tuple t;
    t.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      t.push_back(edges[current]);
      current = (current + 1) % e_num;
    }
    windows.push_back(make_tuple(game, std::move(t)));
  }
  DEF_ENSURE(current == 0,
             "the cyclic construction must end at the first edge (Lemma 4.8)");
  return windows;
}

KMatchingNe lift_to_k_matching(const TupleGame& game, const MatchingNe& ne) {
  DEF_REQUIRE(!ne.tp_support.empty(),
              "the matching NE support must be nonempty");
  DEF_REQUIRE(game.k() <= ne.tp_support.size(),
              "the cyclic lift needs k <= |D(tp)| to keep tuple edges "
              "distinct (DESIGN.md note on Lemma 4.8)");

  KMatchingNe lifted;
  lifted.vp_support = ne.vp_support;
  lifted.tp_support = cyclic_windows(game, ne.tp_support);
  DEF_ENSURE(is_k_matching_configuration(game, lifted.vp_support,
                                         lifted.tp_support),
             "the lift must produce a k-matching configuration");
  return lifted;
}

MatchingNe project_to_matching(const TupleGame& game, const KMatchingNe& ne) {
  MatchingNe projected;
  projected.vp_support = ne.vp_support;
  for (const Tuple& t : ne.tp_support)
    projected.tp_support.insert(projected.tp_support.end(), t.begin(),
                                t.end());
  std::sort(projected.tp_support.begin(), projected.tp_support.end());
  projected.tp_support.erase(
      std::unique(projected.tp_support.begin(), projected.tp_support.end()),
      projected.tp_support.end());
  DEF_ENSURE(is_matching_configuration(game.graph(), projected.vp_support,
                                       projected.tp_support),
             "the projection must produce a matching configuration");
  return projected;
}

}  // namespace defender::core
