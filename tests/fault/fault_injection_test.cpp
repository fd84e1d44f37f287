// Fault-injection contract tests (the chaos layer's own unit tests):
//
//  * the name tables (StatusCode, LpStatus, FaultSite, SolverKind) are
//    exhaustive and round-trip — the test-time companion of the
//    static_assert audits in the headers;
//  * fault plans serialize/parse losslessly and the parser rejects hostile
//    input with kInvalidInput, never a crash;
//  * fault decisions are a pure function of (seed, site, counter):
//    replayable, rate-respecting, independent across sites;
//  * a null FaultContext leaves every budgeted solver bit-for-bit
//    identical (the same zero-cost promise the obs layer makes);
//  * each injection site degrades SOUNDLY: the guards repair poisoned
//    values from authoritative sources, so every certified bound survives;
//  * the obs::Clock monotonic clamp absorbs injected backward skew and
//    counts it, and forward skew starves deadlines gracefully.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/best_response.hpp"
#include "core/budget.hpp"
#include "core/checkpoint.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/status.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "lp/simplex.hpp"
#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"

namespace defender {
namespace {

// ---------------------------------------------------------------------------
// Satellite: name-table exhaustiveness audits (test-time round trips; the
// compile-time halves live as static_asserts next to each enum).

TEST(NameAudit, StatusCodesRoundTripAndAreDistinct) {
  std::set<std::string> names;
  for (StatusCode c : kAllStatusCodes) {
    const std::string name = to_string(c);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    StatusCode parsed{};
    ASSERT_TRUE(try_parse_status_code(name, &parsed));
    EXPECT_EQ(parsed, c);
  }
  EXPECT_EQ(names.size(), kStatusCodeCount);
  StatusCode sink = StatusCode::kOk;
  EXPECT_FALSE(try_parse_status_code("unknown", &sink));
  EXPECT_FALSE(try_parse_status_code("", &sink));
  EXPECT_FALSE(try_parse_status_code("OK", &sink));
  EXPECT_EQ(sink, StatusCode::kOk);  // failed parse leaves `out` untouched
}

TEST(NameAudit, LpStatusesAreNamedAndDistinct) {
  std::set<std::string> names;
  for (lp::LpStatus s : lp::kAllLpStatuses) {
    const std::string name = lp::to_string(s);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), lp::kLpStatusCount);
}

TEST(NameAudit, FaultSitesRoundTripAndAreDistinct) {
  std::set<std::string> names;
  for (fault::FaultSite s : fault::kAllFaultSites) {
    const std::string name = fault::to_string(s);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    fault::FaultSite parsed{};
    ASSERT_TRUE(fault::try_parse_fault_site(name, &parsed));
    EXPECT_EQ(parsed, s);
  }
  EXPECT_EQ(names.size(), fault::kFaultSiteCount);
  fault::FaultSite sink{};
  EXPECT_FALSE(fault::try_parse_fault_site("oracle", &sink));
  EXPECT_FALSE(fault::try_parse_fault_site("", &sink));
}

TEST(NameAudit, SolverKindsRoundTripAndAreDistinct) {
  std::set<std::string> names;
  for (core::SolverKind k : core::kAllSolverKinds) {
    const std::string name = core::to_string(k);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    core::SolverKind parsed{};
    ASSERT_TRUE(core::try_parse_solver_kind(name, &parsed));
    EXPECT_EQ(parsed, k);
  }
  core::SolverKind sink{};
  EXPECT_FALSE(core::try_parse_solver_kind("simplex", &sink));
}

// ---------------------------------------------------------------------------
// Fault-plan text format.

fault::FaultPlan sample_plan() {
  fault::FaultPlan plan;
  plan.seed = 0xDEADBEEFCAFE1234ULL;
  plan.rate_of(fault::FaultSite::kOracleAlloc) = 0.125;
  plan.rate_of(fault::FaultSite::kOracleGarble) = 1.0;
  plan.rate_of(fault::FaultSite::kLpPivotPerturb) = 0.123456789012345678;
  plan.rate_of(fault::FaultSite::kDeadlineStarve) = 1e-12;
  return plan;
}

TEST(FaultPlanText, RoundTripsBitExactly) {
  const fault::FaultPlan plan = sample_plan();
  const auto parsed = fault::FaultPlan::try_parse(plan.to_text());
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(parsed.result.seed, plan.seed);
  for (fault::FaultSite s : fault::kAllFaultSites) {
    // %.17g serialization is lossless for doubles.
    EXPECT_EQ(parsed.result.rate_of(s), plan.rate_of(s))
        << fault::to_string(s);
  }
}

TEST(FaultPlanText, GoldenSnapshotIsStable) {
  const std::string path =
      std::string(DEFENDER_TEST_DATA_DIR) + "/fault_plan_v1.golden.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  const std::string golden = os.str();

  EXPECT_EQ(sample_plan().to_text(), golden);
  const auto parsed = fault::FaultPlan::try_parse(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(parsed.result.to_text(), golden);
}

TEST(FaultPlanText, RejectsHostileInputWithLineNumbers) {
  const auto expect_invalid = [](const std::string& text) {
    const auto parsed = fault::FaultPlan::try_parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status.code, StatusCode::kInvalidInput);
    EXPECT_NE(parsed.status.message.find("line"), std::string::npos)
        << parsed.status.message;
  };
  expect_invalid("");
  expect_invalid("not-a-plan\n");
  expect_invalid("fault-plan v99\nseed 1\nend\n");
  expect_invalid("fault-plan v1\nseed nope\nend\n");
  expect_invalid("fault-plan v1\nseed 1\nrate bogus-site 0.5\nend\n");
  expect_invalid("fault-plan v1\nseed 1\nrate oracle-alloc 1.5\nend\n");
  expect_invalid("fault-plan v1\nseed 1\nrate oracle-alloc -0.1\nend\n");
  expect_invalid("fault-plan v1\nseed 1\nrate oracle-alloc nan\nend\n");
  expect_invalid("fault-plan v1\nseed 1\nrate oracle-alloc 0.5\n");  // no end
}

// ---------------------------------------------------------------------------
// Determinism of the firing schedule.

TEST(FaultContext, DecisionsAreAPureFunctionOfThePlan) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.set_all(0.5);
  fault::FaultContext a(plan);
  fault::FaultContext b(plan);
  for (int i = 0; i < 2000; ++i) {
    for (fault::FaultSite s : fault::kAllFaultSites) {
      ASSERT_EQ(a.fires(s), b.fires(s)) << fault::to_string(s) << " @" << i;
      ASSERT_EQ(a.aux(s), b.aux(s)) << fault::to_string(s) << " @" << i;
    }
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  // Rate 0.5 over 2000 draws: astronomically unlikely to be all-or-nothing.
  for (fault::FaultSite s : fault::kAllFaultSites) {
    EXPECT_EQ(a.evaluations(s), 2000u);
    EXPECT_GT(a.injected(s), 0u) << fault::to_string(s);
    EXPECT_LT(a.injected(s), 2000u) << fault::to_string(s);
  }
}

TEST(FaultContext, RateZeroNeverFiresAndRateOneAlwaysFires) {
  fault::FaultPlan never;
  never.seed = 7;
  EXPECT_FALSE(never.armed());
  fault::FaultContext off(never);

  fault::FaultPlan always;
  always.seed = 7;
  always.set_all(1.0);
  EXPECT_TRUE(always.armed());
  fault::FaultContext on(always);

  for (int i = 0; i < 500; ++i) {
    for (fault::FaultSite s : fault::kAllFaultSites) {
      EXPECT_FALSE(off.fires(s));
      EXPECT_TRUE(on.fires(s));
    }
  }
  EXPECT_EQ(off.total_injected(), 0u);
  EXPECT_EQ(on.total_injected(), 500u * fault::kFaultSiteCount);
}

TEST(FaultContext, SeedsProduceDifferentSchedules) {
  fault::FaultPlan p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  p1.set_all(0.5);
  p2.set_all(0.5);
  fault::FaultContext a(p1), b(p2);
  bool differs = false;
  for (int i = 0; i < 256 && !differs; ++i)
    differs = a.fires(fault::FaultSite::kOracleAlloc) !=
              b.fires(fault::FaultSite::kOracleAlloc);
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// The supervise-layer sites (worker-crash / worker-hang) and the stateless
// schedule predicate they are decided through.

TEST(FaultPlanText, WorkerSitesParseByName) {
  // Handwritten plan text naming the supervise-layer sites — the exact
  // text a chaos harness replays from a failing run's JobReport.
  const std::string text =
      "fault-plan v1\n"
      "seed 99\n"
      "rate worker-crash 0.5\n"
      "rate worker-hang 0.25\n"
      "end\n";
  const auto parsed = fault::FaultPlan::try_parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(parsed.result.seed, 99u);
  EXPECT_EQ(parsed.result.rate_of(fault::FaultSite::kWorkerCrash), 0.5);
  EXPECT_EQ(parsed.result.rate_of(fault::FaultSite::kWorkerHang), 0.25);
  EXPECT_TRUE(parsed.result.armed());

  // And bit-exactly through the full to_text round trip.
  const auto reparsed = fault::FaultPlan::try_parse(parsed.result.to_text());
  ASSERT_TRUE(reparsed.ok());
  for (fault::FaultSite s : fault::kAllFaultSites)
    EXPECT_EQ(reparsed.result.rate_of(s), parsed.result.rate_of(s))
        << fault::to_string(s);

  // Out-of-range rates on the new sites are rejected like any other.
  EXPECT_FALSE(fault::FaultPlan::try_parse(
                   "fault-plan v1\nseed 1\nrate worker-crash 1.5\nend\n")
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::try_parse(
                   "fault-plan v1\nseed 1\nrate worker-hang -1\nend\n")
                   .ok());
}

TEST(FaultContext, ScheduledMatchesFiresCallForCall) {
  // The stateless predicate IS the stateful decision: fires()'s n-th call
  // equals scheduled(plan, site, n), so the supervisor and worker can
  // both evaluate a job's crash schedule without perturbing the job's own
  // counters.
  fault::FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.set_all(0.5);
  fault::FaultContext ctx(plan);
  for (std::uint64_t n = 0; n < 500; ++n) {
    for (fault::FaultSite s : fault::kAllFaultSites) {
      ASSERT_EQ(ctx.fires(s), fault::FaultContext::scheduled(plan, s, n))
          << fault::to_string(s) << " @" << n;
      ASSERT_EQ(ctx.aux(s), fault::FaultContext::scheduled_aux(plan, s, n))
          << fault::to_string(s) << " @" << n;
    }
  }
}

TEST(FaultContext, ScheduledIsStatelessAndPure) {
  fault::FaultPlan plan;
  plan.seed = 31337;
  plan.rate_of(fault::FaultSite::kWorkerCrash) = 0.5;
  plan.rate_of(fault::FaultSite::kWorkerHang) = 0.5;

  // Same (plan, site, evaluation) -> same answer, every time, and
  // evaluating the predicate never advances anything.
  fault::FaultContext untouched(plan);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (std::uint64_t n = 0; n < 64; ++n) {
      const bool crash = fault::FaultContext::scheduled(
          plan, fault::FaultSite::kWorkerCrash, n);
      const bool again = fault::FaultContext::scheduled(
          plan, fault::FaultSite::kWorkerCrash, n);
      EXPECT_EQ(crash, again);
    }
  }
  EXPECT_EQ(untouched.evaluations(fault::FaultSite::kWorkerCrash), 0u);
  EXPECT_EQ(untouched.total_injected(), 0u);

  // Rate 0 never schedules; rate 1 always does.
  fault::FaultPlan off;
  off.seed = 31337;
  fault::FaultPlan on;
  on.seed = 31337;
  on.set_all(1.0);
  for (std::uint64_t n = 0; n < 64; ++n) {
    EXPECT_FALSE(fault::FaultContext::scheduled(
        off, fault::FaultSite::kWorkerCrash, n));
    EXPECT_TRUE(fault::FaultContext::scheduled(
        on, fault::FaultSite::kWorkerHang, n));
  }
}

// ---------------------------------------------------------------------------
// Null-context bit-identity: an armed-but-silent FaultContext (all rates 0)
// must leave every budgeted solver's output bit-for-bit identical to the
// null-pointer run — the same zero-cost contract the obs layer keeps.

template <typename T>
void expect_same_status(const Solved<T>& a, const Solved<T>& b) {
  EXPECT_EQ(a.status.code, b.status.code);
  EXPECT_EQ(a.status.iterations, b.status.iterations);
  EXPECT_EQ(a.status.residual, b.status.residual);
  // elapsed_seconds is wall time and exempt, as in the obs identity tests.
}

TEST(NullFaultIdentity, DoubleOracleIsBitIdentical) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const auto plain = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200)});
  fault::FaultPlan silent;
  silent.seed = 99;  // armed context, every rate 0: decisions all "no"
  fault::FaultContext ctx(silent);
  const auto faulted = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200), .fault = &ctx});

  expect_same_status(plain, faulted);
  EXPECT_EQ(plain.result.value, faulted.result.value);
  EXPECT_EQ(plain.result.gap, faulted.result.gap);
  EXPECT_EQ(plain.result.lower_bound, faulted.result.lower_bound);
  EXPECT_EQ(plain.result.upper_bound, faulted.result.upper_bound);
  EXPECT_EQ(plain.result.iterations, faulted.result.iterations);
  EXPECT_EQ(plain.result.defender_set_size, faulted.result.defender_set_size);
  EXPECT_EQ(plain.result.attacker_set_size, faulted.result.attacker_set_size);
  EXPECT_EQ(plain.result.approximate, faulted.result.approximate);
  ASSERT_EQ(plain.result.defender.support().size(),
            faulted.result.defender.support().size());
  for (std::size_t i = 0; i < plain.result.defender.support().size(); ++i) {
    EXPECT_EQ(plain.result.defender.support()[i],
              faulted.result.defender.support()[i]);
    EXPECT_EQ(plain.result.defender.probs()[i],
              faulted.result.defender.probs()[i]);
  }
  ASSERT_EQ(plain.result.attacker.support().size(),
            faulted.result.attacker.support().size());
  for (std::size_t i = 0; i < plain.result.attacker.support().size(); ++i) {
    EXPECT_EQ(plain.result.attacker.support()[i],
              faulted.result.attacker.support()[i]);
    EXPECT_EQ(plain.result.attacker.probs()[i],
              faulted.result.attacker.probs()[i]);
  }
  // The context was consulted (sites evaluated) but never fired.
  EXPECT_GT(ctx.evaluations(fault::FaultSite::kClockSkew), 0u);
  EXPECT_EQ(ctx.total_injected(), 0u);
}

TEST(NullFaultIdentity, LearningDynamicsAreBitIdentical) {
  const core::TupleGame game(graph::grid_graph(3, 4), 2, 1);
  fault::FaultPlan silent;
  silent.seed = 5;

  const auto fp_plain = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(300), .tolerance = 1e-4});
  fault::FaultContext fp_ctx(silent);
  const auto fp_faulted = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(300),
             .tolerance = 1e-4,
             .fault = &fp_ctx});
  expect_same_status(fp_plain, fp_faulted);
  EXPECT_EQ(fp_plain.result.value_estimate, fp_faulted.result.value_estimate);
  EXPECT_EQ(fp_plain.result.gap, fp_faulted.result.gap);
  EXPECT_EQ(fp_plain.result.rounds, fp_faulted.result.rounds);
  EXPECT_EQ(fp_plain.result.attacker_frequency,
            fp_faulted.result.attacker_frequency);
  EXPECT_EQ(fp_plain.result.defender_hit_frequency,
            fp_faulted.result.defender_hit_frequency);

  const auto hg_plain = sim::hedge_dynamics(
      game, 200, {.budget = SolveBudget::iterations(200), .tolerance = 1e-4});
  fault::FaultContext hg_ctx(silent);
  const auto hg_faulted = sim::hedge_dynamics(
      game, 200, {.budget = SolveBudget::iterations(200),
                  .tolerance = 1e-4,
                  .fault = &hg_ctx});
  expect_same_status(hg_plain, hg_faulted);
  EXPECT_EQ(hg_plain.result.value_estimate, hg_faulted.result.value_estimate);
  EXPECT_EQ(hg_plain.result.gap, hg_faulted.result.gap);
  EXPECT_EQ(hg_plain.result.rounds, hg_faulted.result.rounds);
  EXPECT_EQ(hg_plain.result.attacker_average,
            hg_faulted.result.attacker_average);

  std::vector<double> weights(game.graph().num_vertices());
  for (std::size_t v = 0; v < weights.size(); ++v)
    weights[v] = 1.0 + 0.25 * static_cast<double>(v % 4);
  const auto wdo_plain = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200), .weights = weights});
  fault::FaultContext wdo_ctx(silent);
  const auto wdo_faulted = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200),
             .weights = weights,
             .fault = &wdo_ctx});
  expect_same_status(wdo_plain, wdo_faulted);
  EXPECT_EQ(wdo_plain.result.value, wdo_faulted.result.value);
  EXPECT_EQ(wdo_plain.result.lower_bound, wdo_faulted.result.lower_bound);
  EXPECT_EQ(wdo_plain.result.upper_bound, wdo_faulted.result.upper_bound);

  const auto wfp_plain = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(200),
             .tolerance = 1e-4,
             .weights = weights});
  fault::FaultContext wfp_ctx(silent);
  const auto wfp_faulted = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(200),
             .tolerance = 1e-4,
             .weights = weights,
             .fault = &wfp_ctx});
  expect_same_status(wfp_plain, wfp_faulted);
  EXPECT_EQ(wfp_plain.result.value_estimate, wfp_faulted.result.value_estimate);
  EXPECT_EQ(wfp_plain.result.gap, wfp_faulted.result.gap);
  EXPECT_EQ(wfp_plain.result.rounds, wfp_faulted.result.rounds);
}

// ---------------------------------------------------------------------------
// Satellite: obs::Clock non-monotonicity guard.

TEST(ClockGuard, BackwardSkewIsClampedAndCounted) {
  // In a fresh process the first reading can be tick 0, where a backward
  // reading clamps to a *tie* (not counted). Skew forward first so the
  // baseline tick is firmly positive; net-positive skew is harmless to
  // leave in place — every later reading shares the same offset.
  obs::Clock::inject_skew_micros(2'000'000);
  const auto t0 = obs::Clock::now_micros();
  const auto clamps_before = obs::Clock::skew_clamps();
  obs::Clock::inject_skew_micros(-1'000'000);
  const auto t1 = obs::Clock::now_micros();
  EXPECT_GE(t1, t0);  // monotonic clamp held
  EXPECT_GT(obs::Clock::skew_clamps(), clamps_before);
  EXPECT_GE(obs::Clock::seconds_since(t0), 0.0);
  obs::Clock::inject_skew_micros(1'000'000);  // restore forward progress
}

TEST(ClockGuard, ClockSkewFaultSiteIsAbsorbed) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.rate_of(fault::FaultSite::kClockSkew) = 1.0;
  fault::FaultContext ctx(plan);
  // Baseline must be past the largest possible injected backward skew
  // (5 firings x 50 ms) so the clamped readings are strictly backward even
  // when this test is the process's first clock use.
  obs::Clock::inject_skew_micros(1'000'000);
  const auto t0 = obs::Clock::now_micros();
  const auto clamps_before = obs::Clock::skew_clamps();
  for (int i = 0; i < 5; ++i) {
    fault::perturb_clock(&ctx);
    EXPECT_GE(obs::Clock::now_micros(), t0);
  }
  EXPECT_EQ(ctx.injected(fault::FaultSite::kClockSkew), 5u);
  EXPECT_GT(obs::Clock::skew_clamps(), clamps_before);
  // Null context: one branch, no skew, no counter movement.
  fault::perturb_clock(nullptr);
}

// ---------------------------------------------------------------------------
// Per-site soundness of the oracle guards.

std::vector<double> test_masses(std::size_t n) {
  std::vector<double> masses(n);
  for (std::size_t v = 0; v < n; ++v)
    masses[v] = 0.05 + 0.1 * static_cast<double>(v % 7);
  return masses;
}

double coverage_mass(const graph::Graph& g, const std::vector<double>& masses,
                     const core::Tuple& tuple) {
  std::vector<bool> covered(g.num_vertices(), false);
  for (graph::EdgeId e : tuple) {
    covered[g.edge(e).u] = true;
    covered[g.edge(e).v] = true;
  }
  double total = 0;
  for (std::size_t v = 0; v < covered.size(); ++v)
    if (covered[v]) total += masses[v];
  return total;
}

struct SingleSiteFixture {
  core::TupleGame game{graph::petersen_graph(), 3, 1};
  std::vector<double> masses = test_masses(10);
  core::BestTuple exact =
      core::best_tuple_branch_and_bound(game, masses);

  core::BestTupleSearch run(fault::FaultSite site,
                            obs::MetricsRegistry* metrics = nullptr,
                            fault::FaultContext* out_ctx = nullptr) {
    fault::FaultPlan plan;
    plan.seed = 1234;
    plan.rate_of(site) = 1.0;
    fault::FaultContext ctx(plan);
    obs::ObsContext obs;
    obs.metrics = metrics;
    const auto result = core::best_tuple_branch_and_bound_budgeted(
        game, masses, /*node_budget=*/0, metrics ? &obs : nullptr, &ctx);
    if (out_ctx != nullptr) *out_ctx = ctx;
    return result;
  }
};

TEST(OracleFaults, AllocFailureFallsBackToSoundGreedyIncumbent) {
  SingleSiteFixture fx;
  obs::MetricsRegistry metrics;
  const auto r = fx.run(fault::FaultSite::kOracleAlloc, &metrics);
  // Feasible incumbent, mass consistent with its tuple, bound still sound.
  ASSERT_EQ(r.best.tuple.size(), fx.game.k());
  EXPECT_NEAR(r.best.mass,
              coverage_mass(fx.game.graph(), fx.masses, r.best.tuple), 1e-12);
  EXPECT_LE(r.best.mass, fx.exact.mass + 1e-12);
  EXPECT_GE(r.upper_bound, fx.exact.mass - 1e-12);
  EXPECT_EQ(metrics.counter("oracle.alloc_fallbacks").value(), 1u);
}

TEST(OracleFaults, GarbledResultIsRepairedToTheTrueMass) {
  SingleSiteFixture fx;
  obs::MetricsRegistry metrics;
  const auto r = fx.run(fault::FaultSite::kOracleGarble, &metrics);
  // The tuple itself was untouched and optimal; the poisoned mass and
  // bound were recomputed by the integrity guard.
  EXPECT_TRUE(std::isfinite(r.best.mass));
  EXPECT_TRUE(std::isfinite(r.upper_bound));
  EXPECT_NEAR(r.best.mass, fx.exact.mass, 1e-12);
  EXPECT_GE(r.upper_bound, r.best.mass - 1e-12);
  EXPECT_GE(metrics.counter("oracle.result_repairs").value(), 1u);
}

TEST(OracleFaults, PerturbedObjectiveIsRebuiltFromThePristineVector) {
  SingleSiteFixture fx;
  obs::MetricsRegistry metrics;
  const auto r = fx.run(fault::FaultSite::kMassPerturb, &metrics);
  // The input guard restored the caller's vector, so the answer is exact.
  EXPECT_FALSE(r.truncated);
  EXPECT_NEAR(r.best.mass, fx.exact.mass, 1e-12);
  EXPECT_EQ(metrics.counter("oracle.mass_repairs").value(), 1u);
}

TEST(OracleFaults, ForcedTruncationKeepsTheCompletionBoundSound) {
  SingleSiteFixture fx;
  fault::FaultContext ctx{fault::FaultPlan{}};
  const auto r = fx.run(fault::FaultSite::kOracleTruncate, nullptr, &ctx);
  EXPECT_EQ(ctx.injected(fault::FaultSite::kOracleTruncate), 1u);
  // Truncated or not, the incumbent is feasible and the bound brackets the
  // true optimum from above.
  ASSERT_EQ(r.best.tuple.size(), fx.game.k());
  EXPECT_LE(r.best.mass, fx.exact.mass + 1e-12);
  EXPECT_GE(r.upper_bound, fx.exact.mass - 1e-12);
  EXPECT_LE(r.best.mass, r.upper_bound + 1e-12);
}

// ---------------------------------------------------------------------------
// LP fault sites, exercised through the double oracle: whatever the
// simplex reports under injection, the returned bracket must stay sound
// (it is certified by the exact oracles, not the LP).

double reference_value(const core::TupleGame& game) {
  const auto clean = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(400)});
  EXPECT_TRUE(clean.ok()) << clean.status.to_string();
  return clean.result.value;
}

void expect_sound_bracket(const Solved<core::DoubleOracleResult>& solved,
                          double reference, double slack = 1e-6) {
  EXPECT_TRUE(std::isfinite(solved.result.lower_bound));
  EXPECT_TRUE(std::isfinite(solved.result.upper_bound));
  EXPECT_LE(solved.result.lower_bound,
            solved.result.upper_bound + 1e-9);
  EXPECT_LE(solved.result.lower_bound, reference + slack);
  EXPECT_GE(solved.result.upper_bound, reference - slack);
}

TEST(LpFaults, PivotPerturbationIsCaughtByTheResidualVerifier) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const double ref = reference_value(game);
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.rate_of(fault::FaultSite::kLpPivotPerturb) = 1.0;
  fault::FaultContext ctx(plan);
  const auto solved = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100), .fault = &ctx});
  EXPECT_GT(ctx.injected(fault::FaultSite::kLpPivotPerturb), 0u);
  expect_sound_bracket(solved, ref);
}

TEST(LpFaults, ForcedInstabilityDegradesTruthfully) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const double ref = reference_value(game);
  fault::FaultPlan plan;
  plan.seed = 22;
  plan.rate_of(fault::FaultSite::kLpForceUnstable) = 1.0;
  fault::FaultContext ctx(plan);
  const auto solved = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(100), .fault = &ctx});
  EXPECT_GT(ctx.injected(fault::FaultSite::kLpForceUnstable), 0u);
  // The status may be kOk (exact oracles certified convergence anyway),
  // kNumericallyUnstable, or kIterationLimit — but never a lie about the
  // bracket, and never a crash.
  expect_sound_bracket(solved, ref);
}

TEST(DeadlineStarve, ForwardSkewExpiresTheDeadlineGracefully) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const double ref = reference_value(game);
  fault::FaultPlan plan;
  plan.seed = 23;
  plan.rate_of(fault::FaultSite::kDeadlineStarve) = 1.0;
  fault::FaultContext ctx(plan);
  SolveBudget budget;
  budget.max_iterations = 500;
  budget.wall_clock_seconds = 30.0;  // generous — only the skew can kill it
  const auto solved =
      core::solve_double_oracle(game, {.budget = budget, .fault = &ctx});
  EXPECT_GT(ctx.injected(fault::FaultSite::kDeadlineStarve), 0u);
  // Either the solve converged before the injected jumps accumulated past
  // the deadline, or it degraded to kDeadlineExceeded — both truthful.
  EXPECT_TRUE(solved.status.code == StatusCode::kOk ||
              solved.status.code == StatusCode::kDeadlineExceeded)
      << solved.status.to_string();
  expect_sound_bracket(solved, ref);
}

// ---------------------------------------------------------------------------
// All sites armed at once: the micro chaos sweep (the full-scale version
// lives in tests/stress/stress_defender --fault-rate).

TEST(ChaosSoundness, EverySiteArmedBracketStaysCertified) {
  const core::TupleGame game(graph::petersen_graph(), 3, 1);
  const double ref = reference_value(game);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.set_all(0.25);
    // Forward clock jumps are exercised by DeadlineStarve above; with no
    // deadline in the budget they would only slow nothing down, so keep
    // them in — they must be harmless.
    fault::FaultContext ctx(plan);
    const auto solved = core::solve_double_oracle(
        game, {.budget = SolveBudget::iterations(60), .fault = &ctx});
    expect_sound_bracket(solved, ref);
    EXPECT_GT(ctx.total_injected(), 0u) << "seed " << seed;
    // The status must be truthful: kOk implies a closed bracket.
    if (solved.status.code == StatusCode::kOk) {
      EXPECT_LE(solved.result.upper_bound - solved.result.lower_bound, 1e-4);
    }
  }
}

}  // namespace
}  // namespace defender
