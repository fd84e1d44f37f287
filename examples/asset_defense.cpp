// Asset-valued defense: protecting what actually matters.
//
// The enterprise topology of enterprise_network.cpp, but with asset values
// attached: core routers are worth 50, department switches 10,
// workstations 1. The example contrasts three defender postures against a
// value-aware attacker:
//   * value-blind equilibrium play (the unweighted k-matching NE),
//   * the damage-optimal mix computed by the weighted zero-sum LP (via the
//     double-oracle working-set trick for the larger k), and
//   * weighted fictitious play, learning the same mix online.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/atuple.hpp"
#include "core/payoff.hpp"
#include "core/weighted.hpp"
#include "core/zero_sum.hpp"
#include "graph/graph.hpp"
#include "sim/fictitious_play.hpp"
#include "util/table.hpp"

namespace {

using namespace defender;

graph::Graph enterprise_topology() {
  graph::GraphBuilder b(32);
  b.add_edge(0, 1);
  for (graph::Vertex s = 0; s < 6; ++s) b.add_edge(s < 3 ? 0 : 1, 2 + s);
  for (graph::Vertex w = 0; w < 24; ++w) b.add_edge(2 + w / 4, 8 + w);
  return b.build();
}

std::vector<double> asset_values() {
  std::vector<double> w(32, 1.0);
  w[0] = w[1] = 50.0;                      // core routers
  for (std::size_t s = 2; s < 8; ++s) w[s] = 10.0;  // department switches
  return w;
}

}  // namespace

int main() {
  const graph::Graph g = enterprise_topology();
  const std::vector<double> w = asset_values();
  constexpr std::size_t kK = 2;
  const core::TupleGame game(g, kK, 1);

  std::cout << "Enterprise board: n=" << g.num_vertices()
            << " m=" << g.num_edges() << ", k=" << kK
            << "; asset values: cores 50, switches 10, hosts 1\n\n";

  // Posture 1: value-blind k-matching equilibrium.
  const auto blind = core::a_tuple_bipartite(game);
  if (!blind) return 1;
  // Worst-case damage an informed attacker extracts from the blind mix.
  const auto hit = core::hit_probabilities(game, blind->configuration);
  double blind_damage = 0;
  graph::Vertex blind_target = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const double damage = w[v] * (1.0 - hit[v]);
    if (damage > blind_damage) {
      blind_damage = damage;
      blind_target = v;
    }
  }

  // Posture 2: damage-optimal mix (exact LP on the damage matrix).
  // Damage game: rows are the attacker's vertices, columns the defender's
  // tuples in lexicographic order (C(31,2) = 465 of them).
  const lp::MatrixGameSolution optimal =
      core::solve_zero_sum(game, {.weights = w}).value_or_throw();

  // Posture 3: weighted fictitious play learning the same defense.
  const sim::FictitiousPlayResult fp =
      sim::fictitious_play(game, {.budget = SolveBudget::iterations(5000),
                                  .tolerance = 0,
                                  .weights = w})
          .result;

  util::Table table({"defender posture", "worst-case damage conceded",
                     "attacker's favourite target"});
  table.add("value-blind k-matching NE", util::fixed(blind_damage, 3),
            "vertex " + std::to_string(blind_target) +
                (blind_target < 2 ? " (core!)" : ""));
  table.add("damage-optimal (LP)", util::fixed(optimal.value, 3),
            "indifferent (equalized)");
  table.add("learned (weighted FP, 5000 rounds)",
            util::fixed(fp.trace.back().upper, 3), "indifferent (learned)");
  table.print(std::cout);

  // Where does the optimal defense point its scans?
  double core_mass = 0, switch_mass = 0, host_mass = 0;
  std::uint64_t rank = 0;
  for (double p : optimal.col_strategy) {
    // Classify each tuple by its most valuable covered vertex.
    const core::Tuple t = core::tuple_at_rank(game, rank++);
    double best = 0;
    for (graph::Vertex v : core::tuple_vertices(g, t))
      best = std::max(best, w[v]);
    (best >= 50 ? core_mass : best >= 10 ? switch_mass : host_mass) += p;
  }
  std::cout << "Damage-optimal scan allocation by best covered asset:\n"
            << "  tuples touching a core router:   "
            << util::fixed(100 * core_mass, 1) << "%\n"
            << "  tuples topping out at a switch:  "
            << util::fixed(100 * switch_mass, 1) << "%\n"
            << "  tuples covering only hosts:      "
            << util::fixed(100 * host_mass, 1) << "%\n\n";

  std::cout << "Reading: the value-blind equilibrium spreads scans to "
               "equalize CATCH probability and lets an informed attacker "
               "take the uncovered high-value asset; the damage-optimal "
               "mix equalizes residual DAMAGE instead, cutting the "
               "worst case from " << util::fixed(blind_damage, 1) << " to "
            << util::fixed(optimal.value, 1) << ".\n";
  return 0;
}
