// Experiment E6 — Theorem 5.1 (bipartite pipeline, max{O(k·n), O(m·sqrt n)}).
//
// Claim: on bipartite boards a k-matching NE is computable end to end in
// polynomial time dominated by the maximum-matching step.
//
// The harness times the three pipeline stages (König partition via
// Hopcroft–Karp, algorithm A, cyclic lift) on random bipartite graphs of
// growing size and reports how total time tracks m·sqrt(n).
#include <cmath>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace defender;
  bench::banner("E6 — bipartite application (Theorem 5.1)",
                "k-matching NE on bipartite graphs in "
                "max{O(k*n), O(m*sqrt(n))} end to end");

  util::Rng rng(51);
  util::Table table({"n", "m", "k", "partition ms", "algorithm A ms",
                     "lift ms", "total ms", "m*sqrt(n) (x1e6)"});
  std::vector<double> msqrtn, totals;
  bool all_ok = true;

  for (std::size_t half : {256, 512, 1024, 2048, 4096, 8192}) {
    const graph::Graph g =
        graph::random_bipartite(half, half, 8.0 / static_cast<double>(half),
                                rng);
    const std::size_t n = g.num_vertices();
    const std::size_t m = g.num_edges();

    const auto w1 = bench::case_clock();
    const auto partition = core::find_partition_bipartite(g);
    const double t_partition = bench::millis_since(w1);
    if (!partition) return 1;

    const auto w2 = bench::case_clock();
    const auto base = core::compute_matching_ne(g, *partition);
    const double t_algo_a = bench::millis_since(w2);
    if (!base) return 1;

    const std::size_t k = std::min<std::size_t>(16, base->tp_support.size());
    const core::TupleGame game(g, k, 8);
    const auto w3 = bench::case_clock();
    const core::KMatchingNe lifted = core::lift_to_k_matching(game, *base);
    const double t_lift = bench::millis_since(w3);

    if (!core::satisfies_cover_conditions(game, lifted)) all_ok = false;

    const double total = t_partition + t_algo_a + t_lift;
    const double complexity =
        static_cast<double>(m) * std::sqrt(static_cast<double>(n)) / 1e6;
    table.add(n, m, k, util::fixed(t_partition, 2), util::fixed(t_algo_a, 2),
              util::fixed(t_lift, 2), util::fixed(total, 2),
              util::fixed(complexity, 3));
    msqrtn.push_back(complexity);
    totals.push_back(total);
    bench::JsonLine("E6", "bipartite " + std::to_string(half) + "x" +
                              std::to_string(half))
        .num("n", n)
        .num("m", m)
        .num("k", k)
        .num("wall_ms", total)
        .num("partition_ms", t_partition)
        .num("algorithm_a_ms", t_algo_a)
        .num("lift_ms", t_lift)
        .emit();
  }
  table.print(std::cout);

  const double corr = util::correlation(msqrtn, totals);
  std::cout << "Correlation of total time with m*sqrt(n): "
            << util::fixed(corr, 4) << "\n";
  const bool shape_ok = corr > 0.9;
  bench::verdict(all_ok && shape_ok,
                 "pipeline succeeds at every size; total time tracks "
                 "m*sqrt(n) (corr = " +
                     util::fixed(corr, 3) + ")");
  return (all_ok && shape_ok) ? 0 : 1;
}
