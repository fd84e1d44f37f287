// Experiment E16 (extension) — damage-weighted defense.
//
// Claim: with heterogeneous asset values the minimax *damage* value is
// computed exactly by the simplex substrate and learned by weighted
// fictitious play; the optimal defender mix shifts toward valuable assets
// (their escape damage is equalized down to the common level), and with
// unit weights the damage value collapses to 1 − (unweighted hit value).
#include <cmath>

#include "bench_common.hpp"
#include "core/weighted.hpp"
#include "core/zero_sum.hpp"
#include "sim/fictitious_play.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E16 — damage-weighted defense",
                "LP damage value = FP-learned value; unit weights recover "
                "1 - hit; defenders concentrate on valuable assets");

  bool all_ok = true;

  // Part 1: unit-weight consistency across boards.
  util::Table unit({"board", "k", "1 - hit (unweighted LP)",
                    "damage value (weighted LP)", "|diff|"});
  for (const auto& [name, g] : bench::bipartite_boards()) {
    for (std::size_t k = 1; k <= 2; ++k) {
      const auto t0 = bench::case_clock();
      const core::TupleGame game(g, k, 1);
      if (game.num_tuples() > 1500) continue;
      const std::vector<double> w(g.num_vertices(), 1.0);
      const double unweighted =
          1.0 - core::solve_zero_sum(game).value_or_throw().value;
      const double weighted =
          core::solve_zero_sum(game, {.weights = w}).value_or_throw().value;
      const double diff = std::abs(unweighted - weighted);
      if (diff > 1e-7) all_ok = false;
      unit.add(name, k, util::fixed(unweighted, 5), util::fixed(weighted, 5),
               util::fixed(diff, 9));
      bench::case_line("E16", name, g, k, t0)
          .num("unweighted_complement", unweighted)
          .num("damage_value", weighted)
          .num("abs_diff", diff)
          .emit();
    }
  }
  unit.print(std::cout);

  // Part 2: the golden-asset star — closed form and learning dynamics.
  std::cout << "Golden-asset star K_{1,L}, one leaf worth W, k = 1:\n"
            << "closed-form damage value v solves sum_l (1 - v/w_l) = 1\n";
  util::Table star({"L", "W", "closed form", "LP", "FP (4000 rounds)",
                    "golden spoke prob (LP)"});
  for (const auto& [leaves, gold] :
       std::vector<std::pair<std::size_t, double>>{
           {4, 9.0}, {5, 4.0}, {6, 25.0}}) {
    const graph::Graph g = graph::star_graph(leaves);
    const core::TupleGame game(g, 1, 1);
    std::vector<double> w(g.num_vertices(), 1.0);
    w[1] = gold;
    // v * (1/W + (L-1)) = L - 1 + 1 - ... : sum_l (1 - v/w_l) = 1
    const double closed =
        static_cast<double>(leaves - 1) /
        (1.0 / gold + static_cast<double>(leaves - 1));
    const auto lp =
        core::solve_zero_sum(game, {.weights = w}).value_or_throw();
    const auto fp =
        sim::fictitious_play(game, {.budget = SolveBudget::iterations(4000),
                                    .tolerance = 0,
                                    .weights = w})
            .result;
    // The golden spoke is the edge (0,1); the defender's mix (the damage
    // game's columns) is over lexicographic edges and edge 0 = (0,1).
    const double golden_prob = lp.col_strategy[0];
    if (std::abs(lp.value - closed) > 1e-6) all_ok = false;
    if (std::abs(fp.value_estimate - closed) > 0.05) all_ok = false;
    // The golden spoke must carry more defender mass than 1/L.
    if (golden_prob <= 1.0 / static_cast<double>(leaves)) all_ok = false;
    star.add(leaves, gold, util::fixed(closed, 5),
             util::fixed(lp.value, 5),
             util::fixed(fp.value_estimate, 5), util::fixed(golden_prob, 4));
    bench::JsonLine("E16", "star L=" + std::to_string(leaves))
        .num("leaves", leaves)
        .num("gold_weight", gold)
        .num("closed_form", closed)
        .num("lp_value", lp.value)
        .num("fp_value", fp.value_estimate)
        .num("golden_prob", golden_prob)
        .emit();
  }
  star.print(std::cout);

  bench::verdict(all_ok,
                 "simplex, closed form, and weighted fictitious play agree; "
                 "defender mass concentrates on the golden asset");
  return all_ok ? 0 : 1;
}
