// Experiment E5 — Theorems 4.12/4.13 (A_tuple correctness and O(k·n) time).
//
// Claim: given the partition, the lift step of A_tuple runs in O(k·n).
//
// The harness times the cyclic lift (steps 2-5 of Figure 1) on paths with n
// up to 2^17 and k up to 512, regresses time against k·n, and reports the
// fit. The partition/matching step (algorithm A) is timed separately since
// its O(m·sqrt(n)) belongs to experiment E6.
#include <cmath>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "core/reduction.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E5 — A_tuple running time (Theorems 4.12/4.13)",
                "the lift step runs in O(k*n): time regresses linearly "
                "against k*n");

  util::Table table({"n", "k", "|D(tp)| (delta)", "lift time ms",
                     "partition+A time ms"});
  std::vector<double> kn, times;
  bool all_correct = true;

  for (std::size_t exp = 10; exp <= 16; ++exp) {
    const std::size_t n = std::size_t{1} << exp;
    const graph::Graph g = graph::path_graph(n);
    const auto prep = bench::case_clock();
    const auto partition = core::find_partition_bipartite(g);
    if (!partition) return 1;
    const auto base = core::compute_matching_ne(g, *partition);
    if (!base) return 1;
    const double prep_ms = bench::millis_since(prep);

    // Odd k is coprime with the power-of-two |D(tp)| of a path, forcing the
    // worst case delta = |D(tp)| of Theorem 4.13 (work is Theta(k*n));
    // round k would collapse to lcm = |D(tp)| and hide the k-dependence.
    for (std::size_t k : {std::size_t{7}, std::size_t{31}, std::size_t{255}}) {
      if (k > base->tp_support.size()) continue;
      const core::TupleGame game(g, k, 4);
      const auto lift_watch = bench::case_clock();
      const core::KMatchingNe lifted = core::lift_to_k_matching(game, *base);
      const double lift_ms = bench::millis_since(lift_watch);
      // Correctness spot check (full NE verification is E3's job; here we
      // check the structural invariants at scale).
      if (!core::is_k_matching_configuration(game, lifted.vp_support,
                                             lifted.tp_support))
        all_correct = false;
      if (lifted.tp_support.size() !=
          core::lifted_support_size(base->tp_support.size(), k))
        all_correct = false;
      table.add(n, k, lifted.tp_support.size(), util::fixed(lift_ms, 3),
                util::fixed(prep_ms, 3));
      kn.push_back(static_cast<double>(k) * static_cast<double>(n));
      times.push_back(lift_ms);
      bench::JsonLine("E5", "path n=" + std::to_string(n))
          .num("n", n)
          .num("k", k)
          .num("wall_ms", lift_ms)
          .num("delta", lifted.tp_support.size())
          .num("prep_ms", prep_ms)
          .emit();
    }
  }
  table.print(std::cout);

  const util::LinearFit fit = util::fit_line(kn, times);
  std::cout << "Linear regression of lift time against k*n:\n"
            << "  slope     = " << fit.slope * 1e6 << " ns per unit k*n\n"
            << "  intercept = " << fit.intercept << " ms\n"
            << "  R^2       = " << fit.r_squared << "\n";
  const bool linear_fit_ok = fit.r_squared > 0.90;
  bench::verdict(all_correct && linear_fit_ok,
                 "lift time scales linearly with k*n (R^2 = " +
                     util::fixed(fit.r_squared, 4) +
                     ") and every lifted support passes the structural "
                     "Definition 4.1 checks");
  return (all_correct && linear_fit_ok) ? 0 : 1;
}
