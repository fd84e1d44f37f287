// Quickstart: compute and inspect a k-matching Nash equilibrium.
//
// Builds a small campus-style bipartite network, instantiates the Tuple
// model Π_k(G) with a handful of attackers, runs algorithm A_tuple
// (Theorem 5.1's pipeline), and prints the equilibrium together with its
// analytic guarantees and a full Theorem 3.4 verification report.
//
// Usage: quickstart [k] [attackers]
#include <algorithm>
#include <cstdint>
#include <iostream>

#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/payoff.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/record.hpp"

namespace {

/// The cap defender_cli puts on its --k and --nu counts.
constexpr std::uint64_t kMaxCountArg = 1'000'000'000;

/// Reads positional argument `index` (default `fallback` when absent) as a
/// count in [1, max]; false on anything else.
bool read_count(int argc, char** argv, int index, std::size_t fallback,
                std::uint64_t max, std::size_t* out) {
  if (argc <= index) {
    *out = fallback;
    return true;
  }
  return defender::util::parse_count(argv[index], max, out) && *out >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace defender;
  // A two-tier network: 3 aggregation switches fully meshed to 6 access
  // switches (K_{3,6}) — bipartite, so Theorem 5.1 guarantees a k-matching
  // NE exists and is computable in polynomial time.
  const graph::Graph g = graph::complete_bipartite(3, 6);

  std::size_t k = 0;
  std::size_t nu = 0;
  const std::uint64_t max_k = std::min<std::uint64_t>(kMaxCountArg,
                                                      g.num_edges());
  if (!read_count(argc, argv, 1, 3, max_k, &k)) {
    std::cerr << "quickstart: bad k argument '" << argv[1]
              << "' (want a count from 1 to " << max_k << ")\n"
              << "usage: quickstart [k] [attackers]\n";
    return 2;
  }
  if (!read_count(argc, argv, 2, 5, kMaxCountArg, &nu)) {
    std::cerr << "quickstart: bad attackers argument '" << argv[2]
              << "' (want a count from 1 to " << kMaxCountArg << ")\n"
              << "usage: quickstart [k] [attackers]\n";
    return 2;
  }
  std::cout << "Board: K_{3,6} with n=" << g.num_vertices()
            << " hosts, m=" << g.num_edges() << " links\n";

  const core::TupleGame game(g, k, nu);
  std::cout << "Game: Pi_" << k << "(G) with nu=" << nu << " attackers; "
            << "defender scans " << k << " links at a time\n\n";

  const auto result = core::a_tuple_bipartite(game);
  if (!result) {
    std::cerr << "no k-matching NE (board not bipartite?)\n";
    return 1;
  }

  std::cout << "Equilibrium (uniform distributions on both supports):\n"
            << core::describe(game, result->configuration) << '\n';

  std::cout << "Support structure:\n"
            << "  |D(VP)|  (attacker support)        = "
            << result->k_matching_ne.vp_support.size() << '\n'
            << "  |D(tp)|  (defender tuple support)  = "
            << result->support_size << '\n'
            << "  alpha    (tuples per defended edge) = "
            << result->tuples_per_edge << "\n\n";

  const double hit = core::analytic_hit_probability(game, result->k_matching_ne);
  const double gain = core::analytic_defender_profit(game, result->k_matching_ne);
  std::cout << "Analytic guarantees (Lemma 4.1 / Corollary 4.10):\n"
            << "  P(Hit)            = k/|E(D(tp))| = " << hit << '\n'
            << "  defender profit   = k*nu/|D(VP)| = " << gain << '\n'
            << "  measured profit   = " << core::defender_profit(game, result->configuration)
            << "\n\n";

  std::cout << "Theorem 3.4 verification:\n"
            << core::verify_mixed_ne(game, result->configuration).describe()
            << '\n';

  graph::DotOptions dot;
  dot.name = "quickstart";
  dot.highlight_vertices = result->k_matching_ne.vp_support;
  dot.highlight_edges = result->configuration.defender.edge_union();
  std::cout << "Graphviz rendering of the equilibrium supports:\n"
            << graph::to_dot(g, dot);
  return 0;
}
