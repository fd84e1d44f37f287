// Experiment E8 — LP cross-validation of the equilibrium value.
//
// Claim (Claim 4.3 + zero-sum uniqueness): the equilibrium hit probability
// of a k-matching NE equals k/|E(D(tp))|, and the value of a zero-sum game
// is unique — so the combinatorial number must match the value computed by
// the independent simplex pipeline on the full C(m,k) x n coverage matrix.
//
// Since the flat-tableau rewrite (docs/SIMPLEX.md) this binary also runs
// every instance through BOTH simplex substrates — the production flat
// core and the preserved pre-rewrite implementation
// (lp::reference::solve_max) — and requires the complete game solutions
// (value, bracket, strategies, status) bit-identical and the pivot counts
// equal, mirroring tests/lp/simplex_differential_test.cpp on E8's corpus.
#include <bit>
#include <cmath>
#include <cstdint>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "core/k_matching.hpp"
#include "core/zero_sum.hpp"
#include "lp/matrix_game.hpp"
#include "lp/simplex_reference.hpp"
#include "util/table.hpp"

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool strategies_bit_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (bits(a[i]) != bits(b[i])) return false;
  return true;
}

/// Full game-level differential: the budgeted matrix-game pipeline (shift,
/// LP, strategy cleaning, security levels, status mapping) with the flat
/// core versus the reference substrate. True iff every field is bit-equal.
bool game_solutions_bit_equal(const defender::lp::Matrix& payoff) {
  using namespace defender;
  const auto flat = lp::solve_matrix_game(payoff);
  const auto ref = lp::solve_matrix_game(payoff, {}, nullptr, nullptr,
                                         &lp::reference::solve_max);
  return flat.status.code == ref.status.code &&
         bits(flat.result.value) == bits(ref.result.value) &&
         bits(flat.result.lower_bound) == bits(ref.result.lower_bound) &&
         bits(flat.result.upper_bound) == bits(ref.result.upper_bound) &&
         strategies_bit_equal(flat.result.row_strategy,
                              ref.result.row_strategy) &&
         strategies_bit_equal(flat.result.col_strategy,
                              ref.result.col_strategy);
}

}  // namespace

int main() {
  using namespace defender;
  bench::banner("E8 — exact LP cross-check (Claim 4.3 + zero-sum value)",
                "combinatorial hit probability k/|E(D(tp))| equals the "
                "simplex game value on every enumerable instance, and the "
                "flat-tableau core matches the reference simplex bit for "
                "bit");

  bool all_ok = true;
  util::Table table({"board", "k", "C(m,k) tuples", "k/|E(D(tp))|",
                     "LP value", "|diff|", "pivots", "flat=ref"});
  double worst = 0;
  std::size_t instances = 0;
  std::size_t differential_ok = 0;
  for (const auto& [name, g] : bench::bipartite_boards()) {
    const auto partition = core::find_partition_bipartite(g);
    if (!partition) continue;
    for (std::size_t k = 1; k <= 3; ++k) {
      if (k > partition->independent_set.size() || k > g.num_edges())
        continue;
      const auto t0 = bench::case_clock();
      const core::TupleGame game(g, k, 1);
      if (game.num_tuples() > 3000) continue;  // keep the LP enumerable
      const auto result = core::a_tuple(game, *partition);
      if (!result) continue;
      const double combinatorial =
          core::analytic_hit_probability(game, result->k_matching_ne);
      const double lp_value = core::solve_zero_sum(game).value_or_throw().value;
      const double diff = std::abs(lp_value - combinatorial);
      worst = std::max(worst, diff);
      ++instances;
      if (diff > 1e-7) all_ok = false;

      // Substrate differential on the same coverage matrix: shift the
      // payoff positive exactly as the game solver does, run both simplex
      // implementations on the identical LP, and compare pivot counts;
      // then require the complete budgeted game solutions bit-equal.
      const lp::Matrix payoff = core::coverage_matrix(game);
      double min_entry = payoff.at(0, 0);
      for (std::size_t i = 0; i < payoff.rows(); ++i)
        for (std::size_t j = 0; j < payoff.cols(); ++j)
          min_entry = std::min(min_entry, payoff.at(i, j));
      const double shift = 1.0 - min_entry;
      lp::Matrix shifted(payoff.rows(), payoff.cols());
      for (std::size_t i = 0; i < payoff.rows(); ++i)
        for (std::size_t j = 0; j < payoff.cols(); ++j)
          shifted.at(i, j) = payoff.at(i, j) + shift;
      const std::vector<double> ones_b(payoff.rows(), 1.0);
      const std::vector<double> ones_c(payoff.cols(), 1.0);
      const lp::LpSolution flat_lp =
          lp::solve_max(shifted, ones_b, ones_c);
      const lp::LpSolution ref_lp =
          lp::reference::solve_max(shifted, ones_b, ones_c);
      const bool same =
          flat_lp.status == ref_lp.status &&
          flat_lp.pivots == ref_lp.pivots &&
          bits(flat_lp.objective) == bits(ref_lp.objective) &&
          game_solutions_bit_equal(payoff);
      if (same) ++differential_ok;
      all_ok = all_ok && same;

      table.add(name, k, game.num_tuples(), util::fixed(combinatorial, 6),
                util::fixed(lp_value, 6), util::fixed(diff, 9),
                flat_lp.pivots, same ? "yes" : "NO");
      bench::case_line("E8", name, g, k, t0)
          .num("tuples", game.num_tuples())
          .num("combinatorial", combinatorial)
          .num("lp_value", lp_value)
          .num("abs_diff", diff)
          .num("pivots", static_cast<std::uint64_t>(flat_lp.pivots))
          .num("flat_matches_reference", same ? 1 : 0)
          .emit();
    }
  }
  table.print(std::cout);
  std::cout << "Instances checked: " << instances
            << ", worst absolute difference: " << worst
            << ", flat-vs-reference bit-equal: " << differential_ok << "/"
            << instances << "\n";
  bench::verdict(all_ok,
                 "two fully independent pipelines (combinatorial "
                 "construction vs two-phase simplex) agree to 1e-7, and the "
                 "flat-tableau core is bit-identical to the reference "
                 "simplex, on all " +
                     std::to_string(instances) + " instances");
  return all_ok ? 0 : 1;
}
