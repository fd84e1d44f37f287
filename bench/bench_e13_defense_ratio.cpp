// Experiment E13 (extension) — comparing the protection quality of the
// library's equilibrium families.
//
// Claim: for the same k, the perfect-matching NE (when it exists) weakly
// dominates the k-matching NE for the defender — k/|IS| <= 2k/n with
// equality iff |IS| = n/2 — and both agree with the LP's unique zero-sum
// value whenever the instance admits only one equilibrium value regime.
// The defense ratio nu/IP_tp makes the comparison scale-free.
#include "bench_common.hpp"
#include "core/analytics.hpp"
#include "core/atuple.hpp"
#include "core/k_matching.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/zero_sum.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E13 — defense ratios across equilibrium families",
                "perfect-matching NE hit 2k/n >= k-matching NE hit k/|IS|; "
                "defense ratio nu/IP_tp compares families scale-free");

  constexpr std::size_t kK = 2;
  constexpr std::size_t kNu = 12;
  bool all_ok = true;
  util::Table table({"board", "|IS|", "n/2", "k-match hit", "pm hit",
                     "ceiling", "k-match ratio", "pm ratio", "LP value"});
  for (const auto& [name, g] : bench::bipartite_boards()) {
    if (g.num_edges() < kK) continue;
    const auto t0 = bench::case_clock();
    const core::TupleGame game(g, kK, kNu);

    std::string km_hit = "-", km_ratio = "-", is_size = "-";
    double km_value = -1;
    if (const auto km = core::find_k_matching_ne(game)) {
      km_value = core::analytic_hit_probability(game, km->k_matching_ne);
      km_hit = util::fixed(km_value, 4);
      km_ratio = util::fixed(
          core::defense_ratio(
              game, core::analytic_defender_profit(game, km->k_matching_ne)),
          3);
      is_size = std::to_string(km->k_matching_ne.vp_support.size());
    }

    std::string pm_hit = "-", pm_ratio = "-";
    double pm_value = -1;
    if (core::has_perfect_matching(g) && kK <= g.num_vertices() / 2) {
      const auto pm = core::find_perfect_matching_ne(game);
      if (pm) {
        pm_value = core::analytic_hit_probability(game, *pm);
        pm_hit = util::fixed(pm_value, 4);
        pm_ratio = util::fixed(
            core::defense_ratio(
                game, core::analytic_defender_profit(game, *pm)),
            3);
      }
    }

    // Domination check: 2k/n >= k/|IS| whenever both exist.
    if (km_value > 0 && pm_value > 0 && pm_value < km_value - 1e-9)
      all_ok = false;
    // Ceiling check: nothing exceeds 2k/n.
    const double ceiling = core::coverage_ceiling(game);
    if (km_value > ceiling + 1e-9 || pm_value > ceiling + 1e-9)
      all_ok = false;

    std::string lp = "-";
    if (game.num_tuples() <= 2000) {
      const double v = core::solve_zero_sum(core::TupleGame(g, kK, 1))
                           .value_or_throw()
                           .value;
      lp = util::fixed(v, 4);
      if (v > ceiling + 1e-7) all_ok = false;
      // The zero-sum value is unique: any equilibrium family that exists
      // must produce exactly this hit probability.
      if (km_value > 0 && std::abs(km_value - v) > 1e-7) all_ok = false;
      if (pm_value > 0 && std::abs(pm_value - v) > 1e-7) all_ok = false;
    }
    table.add(name, is_size, g.num_vertices() / 2, km_hit, pm_hit,
              util::fixed(ceiling, 4), km_ratio, pm_ratio, lp);
    bench::case_line("E13", name, g, kK, t0)
        .num("km_hit", km_value)
        .num("pm_hit", pm_value)
        .num("ceiling", ceiling)
        .str("lp_value", lp)
        .emit();
  }
  table.print(std::cout);
  bench::verdict(all_ok,
                 "on every board: k-matching hit <= perfect-matching hit <= "
                 "ceiling, and any family that exists matches the unique LP "
                 "value");
  return all_ok ? 0 : 1;
}
