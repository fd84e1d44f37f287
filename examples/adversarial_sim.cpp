// Adversarial simulation: equilibrium play versus naive play.
//
// Monte-Carlo duel on a grid network comparing three defender policies
// against three attacker policies, with the k-matching equilibrium pair as
// the anchor. The numbers illustrate why the equilibrium matters: the
// equilibrium defender is robust (its arrest rate cannot be pushed below
// the game value), while naive defenders are exploited by adaptive
// attackers. A fictitious-play run then shows both sides *learning* the
// equilibrium value from scratch.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/atuple.hpp"
#include "core/best_response.hpp"
#include "core/payoff.hpp"
#include "graph/generators.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/playout.hpp"
#include "util/table.hpp"

namespace {

using namespace defender;

/// Uniform distribution over every vertex.
core::VertexDistribution uniform_attacker(const graph::Graph& g) {
  graph::VertexSet all;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  return core::VertexDistribution::uniform(all);
}

/// Defender that always scans one fixed tuple (the lexicographically first).
core::TupleDistribution static_defender(const core::TupleGame& game) {
  core::Tuple t;
  for (graph::EdgeId e = 0; e < game.k(); ++e) t.push_back(e);
  return core::TupleDistribution::uniform({t});
}

/// Uniform distribution over 64 random tuples (a "patrol at random" policy).
core::TupleDistribution random_patrol(const core::TupleGame& game,
                                      util::Rng& rng) {
  std::vector<core::Tuple> tuples;
  for (int i = 0; i < 64; ++i) {
    core::Tuple t;
    for (std::size_t e : util::sample_without_replacement(
             game.graph().num_edges(), game.k(), rng))
      t.push_back(static_cast<graph::EdgeId>(e));
    std::sort(t.begin(), t.end());
    tuples.push_back(std::move(t));
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return core::TupleDistribution::uniform(std::move(tuples));
}

/// The attacker's best response to a defender mix: all mass on a
/// minimum-hit vertex.
core::VertexDistribution exploiting_attacker(
    const core::TupleGame& game, const core::TupleDistribution& defender) {
  core::MixedConfiguration probe{
      std::vector<core::VertexDistribution>(game.num_attackers(),
                                            uniform_attacker(game.graph())),
      defender};
  const std::vector<double> hit = core::hit_probabilities(game, probe);
  return core::VertexDistribution::uniform(
      {core::min_hit_vertices(hit).front()});
}

}  // namespace

int main() {
  const graph::Graph g = graph::grid_graph(4, 5);
  constexpr std::size_t kK = 3;
  constexpr std::size_t kNu = 8;
  const core::TupleGame game(g, kK, kNu);
  util::Rng rng(17);

  const auto equilibrium = core::a_tuple_bipartite(game);
  if (!equilibrium) {
    std::cerr << "grid unexpectedly lacks a k-matching NE\n";
    return 1;
  }

  std::cout << "Duel on a 4x5 grid, k=" << kK << ", nu=" << kNu
            << " attackers. Cell = mean arrests per round (50k rounds).\n\n";

  struct Policy {
    std::string name;
    core::TupleDistribution defender;
  };
  const std::vector<Policy> defenders = {
      {"equilibrium", equilibrium->configuration.defender},
      {"static tuple", static_defender(game)},
      {"random patrol", random_patrol(game, rng)},
  };
  struct Attack {
    std::string name;
    core::VertexDistribution attacker;
  };

  util::Table table({"defender \\ attacker", "equilibrium", "uniform",
                     "exploiting"});
  for (const auto& d : defenders) {
    const std::vector<Attack> attackers = {
        {"equilibrium", equilibrium->configuration.attackers.front()},
        {"uniform", uniform_attacker(g)},
        {"exploiting", exploiting_attacker(game, d.defender)},
    };
    std::vector<std::string> row{d.name};
    for (const auto& a : attackers) {
      const core::MixedConfiguration config = core::symmetric_configuration(
          game, a.attacker, d.defender);
      const sim::PlayoutStats stats =
          sim::run_playouts(game, config, 50000, rng);
      row.push_back(util::fixed(stats.defender_profit_mean, 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  const double value =
      core::analytic_hit_probability(game, equilibrium->k_matching_ne);
  std::cout << "Game value (hit probability): " << value
            << "  -> value * nu = " << value * kNu
            << " arrests — the equilibrium defender's guaranteed floor.\n\n";

  std::cout << "Fictitious play (both sides learning from scratch):\n";
  const sim::FictitiousPlayResult fp =
      sim::fictitious_play(
          game, {.budget = SolveBudget::iterations(3000), .tolerance = 0})
          .result;
  util::Table fp_table({"round", "lower bound", "upper bound", "gap"});
  for (const auto& t : fp.trace)
    fp_table.add(t.round, util::fixed(t.lower, 4), util::fixed(t.upper, 4),
                 util::fixed(t.upper - t.lower, 4));
  fp_table.print(std::cout);
  std::cout << "Learned value estimate: " << fp.value_estimate
            << " (analytic: " << value << ")\n";
  return 0;
}
