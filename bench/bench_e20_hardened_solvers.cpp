// Experiment E20 (extension) — graceful degradation under solve budgets.
//
// Claim: every budgeted solver (double oracle, direct LP, fictitious
// play, Hedge), when starved of iterations/pivots/rounds, returns a
// structured non-kOk status plus a certified bracket that still contains
// the exact game value — never an exception — and the bracket collapses
// onto the exact value as the budget grows. A chaos row re-runs the
// double oracle under a deterministic fault schedule arming every
// injection site (docs/FAULT_INJECTION.md); its bracket must stay sound.
#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "core/budget.hpp"
#include "core/double_oracle.hpp"
#include "core/status.hpp"
#include "core/zero_sum.hpp"
#include "fault/fault.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"
#include "util/table.hpp"

namespace {

/// One budgeted solve distilled to what the experiment certifies.
struct Row {
  std::string solver;
  std::string budget;
  defender::StatusCode code;
  double lower, upper, value;
};

}  // namespace

int main() {
  using namespace defender;
  bench::banner("E20 — hardened solvers: budget starvation as certified "
                "bounds",
                "starved solves return non-kOk statuses with sound value "
                "brackets (no exceptions); generous budgets recover the "
                "exact value");

  struct Case {
    std::string name;
    graph::Graph g;
    std::size_t k;
  };
  util::Rng rng(20);
  std::vector<Case> cases;
  cases.push_back({"Petersen", graph::petersen_graph(), 2});
  cases.push_back({"star S8", graph::star_graph(8), 2});
  cases.push_back({"grid 3x4", graph::grid_graph(3, 4), 3});
  cases.push_back({"gnp n=10 p=.35", graph::gnp_graph(10, 0.35, rng), 2});

  bool all_ok = true;
  util::Table table({"board", "solver", "budget", "status", "lower",
                     "upper", "value", "sound"});

  for (auto& [name, g, k] : cases) {
    const auto t0 = bench::case_clock();
    const core::TupleGame game(g, k, 1);
    const double exact = core::solve_zero_sum(game).value_or_throw().value;

    std::vector<Row> rows;
    const auto push_do = [&](const char* tag, const SolveBudget& budget) {
      const Solved<core::DoubleOracleResult> s =
          core::solve_double_oracle(game, {.budget = budget});
      rows.push_back({"double-oracle", tag, s.status.code,
                      s.result.lower_bound, s.result.upper_bound,
                      s.result.value});
    };
    push_do("1 iter", SolveBudget::iterations(1));
    push_do("3 iters", SolveBudget::iterations(3));
    push_do("unlimited", SolveBudget::unlimited_budget());
    {
      SolveBudget starved_oracle;
      starved_oracle.max_iterations = 40;
      starved_oracle.oracle_node_budget = 1;
      push_do("40 it, 1-node BB", starved_oracle);
    }
    {
      // Chaos row: every fault-injection site armed at rate 0.25. The
      // oracles re-certify their bounds after any injected corruption, so
      // the bracket must still contain the exact value.
      fault::FaultPlan plan;
      plan.seed = 0xe20u + g.num_vertices();
      plan.set_all(0.25);
      fault::FaultContext fault_ctx(plan);
      const Solved<core::DoubleOracleResult> s =
          core::solve_double_oracle(game,
                                    {.budget = SolveBudget::iterations(200),
                                     .fault = &fault_ctx});
      rows.push_back({"double-oracle", "faults @ 0.25", s.status.code,
                      s.result.lower_bound, s.result.upper_bound,
                      s.result.value});
    }

    const auto push_lp = [&](const char* tag, const SolveBudget& budget) {
      const Solved<lp::MatrixGameSolution> s =
          core::solve_zero_sum(game, {.budget = budget});
      rows.push_back({"direct LP", tag, s.status.code, s.result.lower_bound,
                      s.result.upper_bound, s.result.value});
    };
    push_lp("1 pivot", SolveBudget::iterations(1));
    push_lp("unlimited", SolveBudget::unlimited_budget());

    {
      const Solved<sim::FictitiousPlayResult> s =
          sim::fictitious_play(game, {.budget = SolveBudget::iterations(5),
                                      .tolerance = 1e-12});
      rows.push_back({"fictitious play", "5 rounds", s.status.code,
                      s.result.trace.back().lower,
                      s.result.trace.back().upper, s.result.value_estimate});
    }
    {
      const Solved<sim::HedgeResult> s =
          sim::hedge_dynamics(game, 5,
                              {.budget = SolveBudget::iterations(5),
                               .tolerance = 1e-12});
      rows.push_back({"hedge", "5 rounds", s.status.code,
                      s.result.trace.back().lower,
                      s.result.trace.back().upper, s.result.value_estimate});
    }

    for (const Row& r : rows) {
      const bool bracket_sound =
          r.lower <= exact + 1e-7 && r.upper >= exact - 1e-7;
      const bool exact_when_ok =
          r.code != StatusCode::kOk || std::abs(r.value - exact) <= 1e-5;
      const bool ok = bracket_sound && exact_when_ok;
      all_ok = all_ok && ok;
      table.add(name, r.solver, r.budget, to_string(r.code),
                util::fixed(r.lower, 5), util::fixed(r.upper, 5),
                util::fixed(r.value, 5), ok ? "yes" : "NO");
      bench::case_line("E20", name + " / " + r.solver + " / " + r.budget, g,
                       k, t0)
          .str("status", to_string(r.code))
          .num("lower", r.lower)
          .num("upper", r.upper)
          .num("value", r.value)
          .num("exact", exact)
          .boolean("sound", ok)
          .emit();
    }
  }

  table.print(std::cout);
  bench::verdict(all_ok,
                 "every budget-starved solve returned a certified bracket "
                 "containing the exact value, and every kOk solve matched "
                 "it to 1e-5");
  return all_ok ? 0 : 1;
}
