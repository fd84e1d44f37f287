// Experiment E19 (extension) — policy tournament with exploitability audit.
//
// Claim: equilibrium play is the unique unexploitable posture. Six defender
// policies (combinatorial equilibrium, double-oracle mix, FP-averaged,
// Hedge-era attacker-informed greedy, static, random patrol) meet three
// attacker policies on a grid board; the equilibrium-family defenders hold
// the value floor against every attacker, and their analytic
// exploitability is ~0 while every heuristic concedes strictly more.
#include <algorithm>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "core/best_response.hpp"
#include "core/double_oracle.hpp"
#include "core/k_matching.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/tournament.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E19 — policy tournament + exploitability audit",
                "equilibrium postures are unexploitable (gap ~0); every "
                "heuristic concedes strictly more to a best responder");

  const graph::Graph g = graph::grid_graph(4, 5);
  constexpr std::size_t kK = 3;
  constexpr std::size_t kNu = 6;
  const core::TupleGame game(g, kK, kNu);
  util::Rng rng(19);

  const auto km = core::a_tuple_bipartite(game);
  if (!km) return 1;
  const auto dor =
      core::solve_double_oracle(core::TupleGame(g, kK, kNu)).value_or_throw();
  const double value = dor.value;

  // Defender policies.
  std::vector<sim::DefenderPolicy> defenders;
  defenders.push_back({"k-matching NE", km->configuration.defender});
  defenders.push_back({"double-oracle mix", dor.defender});
  {  // Static: the lexicographically first tuple, always.
    core::Tuple t;
    for (graph::EdgeId e = 0; e < kK; ++e) t.push_back(e);
    defenders.push_back({"static tuple", core::TupleDistribution::uniform({t})});
  }
  {  // Random patrol: uniform over 48 random tuples.
    std::vector<core::Tuple> tuples;
    for (int i = 0; i < 48; ++i) {
      core::Tuple t;
      for (std::size_t e :
           util::sample_without_replacement(g.num_edges(), kK, rng))
        t.push_back(static_cast<graph::EdgeId>(e));
      std::sort(t.begin(), t.end());
      tuples.push_back(std::move(t));
    }
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
    defenders.push_back(
        {"random patrol", core::TupleDistribution::uniform(std::move(tuples))});
  }

  // Attacker policies.
  std::vector<sim::AttackerPolicy> attackers;
  attackers.push_back({"equilibrium", km->configuration.attackers.front()});
  attackers.push_back({"double-oracle", dor.attacker});
  {
    graph::VertexSet all;
    for (graph::Vertex v = 0; v < g.num_vertices(); ++v) all.push_back(v);
    attackers.push_back({"uniform", core::VertexDistribution::uniform(all)});
  }

  util::Rng play_rng(190);
  const auto t0 = bench::case_clock();
  const sim::TournamentResult tr =
      sim::run_tournament(game, defenders, attackers, 40000, play_rng);

  bool all_ok = true;
  std::vector<std::string> headers{"defender \\ attacker"};
  for (const auto& a : attackers) headers.push_back(a.name);
  headers.push_back("floor");
  headers.push_back("exploitability");
  util::Table table(headers);
  for (std::size_t d = 0; d < defenders.size(); ++d) {
    std::vector<std::string> row{defenders[d].name};
    for (std::size_t a = 0; a < attackers.size(); ++a)
      row.push_back(util::fixed(tr.arrests[d][a], 3));
    row.push_back(util::fixed(tr.defender_floor[d], 3));
    const double expl =
        sim::defender_exploitability(game, defenders[d].mix, value);
    row.push_back(util::fixed(expl, 4));
    table.add_row(std::move(row));
    const bool is_equilibrium = d < 2;
    if (is_equilibrium && expl > 1e-6) all_ok = false;
    if (!is_equilibrium && expl < 1e-3) all_ok = false;
    bench::case_line("E19", defenders[d].name, g, kK, t0)
        .num("floor", tr.defender_floor[d])
        .num("exploitability", expl)
        .num("game_value", value)
        .boolean("equilibrium_family", is_equilibrium)
        .emit();
  }
  table.print(std::cout);

  std::cout << "Game value " << value << " -> equilibrium floor = value*nu = "
            << value * kNu << " arrests.\n";
  // Equilibrium defenders must hold the floor empirically too.
  for (std::size_t d = 0; d < 2; ++d)
    if (tr.defender_floor[d] < value * kNu - 0.1) all_ok = false;

  // Attacker-side audit.
  util::Table att({"attacker", "concession (best tuple)", "exploitability"});
  for (const auto& a : attackers) {
    const double concession = sim::attacker_concession(game, a.mix) * kNu;
    att.add(a.name, util::fixed(concession, 3),
            util::fixed(sim::attacker_exploitability(game, a.mix, value), 4));
  }
  att.print(std::cout);

  bench::verdict(all_ok,
                 "both equilibrium defenders have exploitability ~0 and hold "
                 "the value floor; static/random patrols concede strictly "
                 "more");
  return all_ok ? 0 : 1;
}
