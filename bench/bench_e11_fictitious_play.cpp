// Experiment E11 — learnability of the equilibrium (extension).
//
// Claim (beyond the paper, via Robinson 1951): fictitious play between a
// best-responding attacker and defender converges to the zero-sum value
// k/|E(D(tp))| predicted by Lemma 4.1 — i.e. the equilibrium the paper
// constructs combinatorially is also what myopic learning dynamics find.
#include <cmath>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "core/k_matching.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E11 — learning dynamics converge to the equilibrium value",
                "fictitious play AND multiplicative weights bracket and "
                "approach k/|E(D(tp))|");

  constexpr std::size_t kRounds = 4000;
  bool all_ok = true;
  util::Table table({"board", "k", "analytic value", "FP estimate",
                     "FP gap", "Hedge estimate", "Hedge gap",
                     "value inside bounds"});
  for (const auto& [name, g] : bench::bipartite_boards()) {
    if (g.num_vertices() > 40) continue;  // keep per-round best response cheap
    for (std::size_t k : {std::size_t{1}, std::size_t{2}}) {
      if (k > g.num_edges()) continue;
      const auto t0 = bench::case_clock();
      const core::TupleGame game(g, k, 1);
      const auto result = core::a_tuple_bipartite(game);
      if (!result) continue;
      const double analytic =
          core::analytic_hit_probability(game, result->k_matching_ne);
      // Fixed-length runs: tolerance 0 plays every round.
      const SolveOptions fixed{.budget = SolveBudget::iterations(kRounds),
                               .tolerance = 0};
      const sim::FictitiousPlayResult fp =
          sim::fictitious_play(game, fixed).result;
      const sim::HedgeResult hedge =
          sim::hedge_dynamics(game, kRounds, fixed).result;
      const auto& last = fp.trace.back();
      const bool inside =
          last.lower <= analytic + 1e-9 && last.upper >= analytic - 1e-9 &&
          hedge.trace.back().lower <= analytic + 1e-9 &&
          hedge.trace.back().upper >= analytic - 1e-9;
      const bool close = std::abs(fp.value_estimate - analytic) < 0.05 &&
                         std::abs(hedge.value_estimate - analytic) < 0.05;
      if (!inside || !close) all_ok = false;
      table.add(name, k, util::fixed(analytic, 4),
                util::fixed(fp.value_estimate, 4), util::fixed(fp.gap, 4),
                util::fixed(hedge.value_estimate, 4),
                util::fixed(hedge.gap, 4), inside);
      bench::case_line("E11", name, g, k, t0)
          .num("analytic", analytic)
          .num("fp_value", fp.value_estimate)
          .num("fp_lower", last.lower)
          .num("fp_upper", last.upper)
          .num("iterations", fp.rounds)
          .num("hedge_value", hedge.value_estimate)
          .num("hedge_lower", hedge.trace.back().lower)
          .num("hedge_upper", hedge.trace.back().upper)
          .boolean("inside", inside)
          .emit();
    }
  }
  table.print(std::cout);
  bench::verdict(all_ok,
                 "on every board the analytic value lies inside both "
                 "dynamics' bounds and both estimates land within 0.05 "
                 "after " + std::to_string(kRounds) + " rounds");
  return all_ok ? 0 : 1;
}
