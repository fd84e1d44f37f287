#include "sim/multiplicative_weights.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/best_response.hpp"
#include "core/payoff.hpp"
#include "fault/fault.hpp"
#include "util/assert.hpp"

namespace defender::sim {

namespace {

/// Running intersection of the per-checkpoint certified brackets (see the
/// twin struct in fictitious_play.cpp): every checkpoint bracket contains
/// the game value, so the intersection is a sound, monotone bracket — the
/// narrowing invariant the ConvergenceRecorder samples promise.
struct RunningBracket {
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
  void absorb(double lo, double up) {
    lower = std::max(lower, lo);
    upper = std::min(upper, up);
  }
};

/// One Hedge checkpoint: ConvergenceRecorder sample (running bracket),
/// trace event (instantaneous bounds), running gap gauge. Callers gate on
/// `obs != nullptr`.
void record_hedge_checkpoint(obs::ObsContext* obs, const HedgeTrace& t,
                             RunningBracket& bracket,
                             std::size_t attacker_support,
                             double elapsed_seconds) {
  bracket.absorb(t.lower, t.upper);
  if (obs->convergence != nullptr) {
    obs::IterationSample s;
    s.iteration = t.round;
    s.lower = bracket.lower;
    s.upper = bracket.upper;
    s.gap = t.upper - t.lower;
    s.attacker_support = attacker_support;
    s.elapsed_seconds = elapsed_seconds;
    obs->convergence->record(s);
  }
  if (obs->tracer != nullptr) {
    obs->tracer->instant(
        "hedge.checkpoint",
        {obs::TraceArg::of("round", static_cast<std::uint64_t>(t.round)),
         obs::TraceArg::of("lower", t.lower),
         obs::TraceArg::of("upper", t.upper),
         obs::TraceArg::of("gap", t.upper - t.lower),
         obs::TraceArg::of("best_lower", bracket.lower),
         obs::TraceArg::of("best_upper", bracket.upper),
         obs::TraceArg::of("attacker_support",
                           static_cast<std::uint64_t>(attacker_support))});
  }
  if (obs->metrics != nullptr)
    obs->metrics->gauge("hedge.gap").set(t.upper - t.lower);
}

/// Validates a Hedge resume checkpoint: the horizon must match (it fixes
/// η), and the checkpoint cannot already be past it.
Status validate_hedge_checkpoint(const core::SolverCheckpoint& cp,
                                 const core::TupleGame& game,
                                 std::size_t horizon) {
  const auto invalid = [](const std::string& what) {
    return Status::make(StatusCode::kInvalidInput,
                        "cannot resume hedge: " + what);
  };
  if (cp.version != core::kSolverCheckpointVersion)
    return invalid("unsupported checkpoint version " +
                   std::to_string(cp.version));
  if (cp.solver != core::SolverKind::kHedge)
    return invalid(std::string("checkpoint belongs to solver '") +
                   core::to_string(cp.solver) + "', expected 'hedge'");
  const graph::Graph& g = game.graph();
  if (cp.n != g.num_vertices() || cp.m != g.num_edges() || cp.k != game.k())
    return invalid("game shape mismatch");
  if (cp.horizon != horizon)
    return invalid("horizon mismatch (checkpoint " +
                   std::to_string(cp.horizon) + ", requested " +
                   std::to_string(horizon) +
                   "); the horizon fixes the learning rate and cannot "
                   "change across segments");
  if (cp.iterations > horizon)
    return invalid("checkpoint is already past the horizon");
  if (cp.attacker_history.size() != g.num_vertices() ||
      cp.defender_history.size() != g.num_vertices() ||
      cp.average_history.size() != g.num_vertices())
    return invalid("state vectors must have one entry per vertex");
  return Status::make_ok();
}

}  // namespace

Solved<HedgeResult> hedge_dynamics(const core::TupleGame& game,
                                   std::size_t horizon,
                                   const SolveOptions& opts) {
  DEF_REQUIRE(horizon >= 1,
              "hedge needs a positive round horizon to fix its learning "
              "rate");
  DEF_REQUIRE(opts.weights.empty(),
              "hedge has no damage-weighted variant");
  const SolveBudget& budget = opts.budget;
  const double target_gap = opts.tolerance;
  obs::ObsContext* const obs = opts.obs;
  fault::FaultContext* const fault = opts.fault;
  const core::SolverCheckpoint* const resume = opts.resume;
  const graph::Graph& g = game.graph();
  const std::size_t n = g.num_vertices();
  if (resume != nullptr) {
    Status check = validate_hedge_checkpoint(*resume, game, horizon);
    if (!check.ok()) {
      Solved<HedgeResult> out;
      out.status = std::move(check);
      return out;
    }
  }
  const double eta = std::sqrt(8.0 * std::log(static_cast<double>(n)) /
                               static_cast<double>(horizon));
  BudgetMeter meter(budget);
  obs::Span run_span;
  RunningBracket obs_bracket;
  if (obs != nullptr && obs->tracer != nullptr)
    run_span = obs->tracer->span(
        "hedge.solve",
        {obs::TraceArg::of("n", static_cast<std::uint64_t>(n)),
         obs::TraceArg::of("m", static_cast<std::uint64_t>(g.num_edges())),
         obs::TraceArg::of("k", static_cast<std::uint64_t>(game.k())),
         obs::TraceArg::of("horizon", static_cast<std::uint64_t>(horizon)),
         obs::TraceArg::of("target_gap", target_gap)});

  // Attacker weights (log-domain to avoid under/overflow) and running
  // sums of its per-round strategies and the defender's coverage.
  std::vector<double> log_weight(n, 0.0);
  std::vector<double> strategy(n);
  std::vector<double> attacker_sum(n, 0.0);
  std::vector<double> cover_sum(n, 0.0);

  HedgeResult result;
  std::size_t next_checkpoint = 1;
  std::size_t round = 0;    // cumulative across all segments
  std::size_t segment = 0;  // rounds played by THIS call (budget scope)
  bool truncated_any = false;
  StatusCode code = StatusCode::kOk;
  if (resume != nullptr) {
    log_weight = resume->attacker_history;
    cover_sum = resume->defender_history;
    attacker_sum = resume->average_history;
    next_checkpoint = resume->next_checkpoint;
    round = resume->iterations;
    truncated_any = resume->any_truncated;
  }

  const auto bounds_now = [&](std::size_t rounds_done) {
    // Upper bound: defender's best response to the attacker's average.
    std::vector<double> average(n);
    for (std::size_t v = 0; v < n; ++v)
      average[v] = attacker_sum[v] / static_cast<double>(rounds_done);
    const core::BestTupleSearch s = core::best_tuple_branch_and_bound_budgeted(
        game, average, budget.oracle_node_budget, obs, fault);
    truncated_any = truncated_any || s.truncated;
    const double upper = s.truncated ? s.upper_bound : s.best.mass;
    // Lower bound: the least-covered vertex of the defender's history.
    const double lower =
        *std::min_element(cover_sum.begin(), cover_sum.end()) /
        static_cast<double>(rounds_done);
    return HedgeTrace{rounds_done, upper, lower};
  };

  while (true) {
    fault::perturb_clock(fault);
    // Horizon first: it decides the run's natural end (and, on a resume
    // that starts at the horizon, reproduces the uninterrupted status).
    if (round >= horizon) {
      code = target_gap > 0 ? StatusCode::kIterationLimit : StatusCode::kOk;
      break;
    }
    if (segment > 0 && meter.out_of_iterations()) {
      code = StatusCode::kIterationLimit;
      break;
    }
    if (round > 0 && meter.deadline_exceeded()) {
      code = StatusCode::kDeadlineExceeded;
      break;
    }
    if (round > 0 && meter.cancel_requested()) {
      code = StatusCode::kCancelled;
      break;
    }
    ++round;
    ++segment;
    meter.charge_iteration();

    // Current attacker mix = softmax of the weights.
    const double lw_max =
        *std::max_element(log_weight.begin(), log_weight.end());
    double z = 0;
    for (std::size_t v = 0; v < n; ++v) {
      strategy[v] = std::exp(log_weight[v] - lw_max);
      z += strategy[v];
    }
    for (double& p : strategy) p /= z;
    for (std::size_t v = 0; v < n; ++v) attacker_sum[v] += strategy[v];

    // Defender best-responds to the current mix.
    const core::BestTupleSearch br = core::best_tuple_branch_and_bound_budgeted(
        game, strategy, budget.oracle_node_budget, obs, fault);
    truncated_any = truncated_any || br.truncated;
    std::vector<char> covered(n, 0);
    for (graph::Vertex v : core::tuple_vertices(g, br.best.tuple)) {
      covered[v] = 1;
      cover_sum[v] += 1.0;
    }

    // Hedge update: reward = escape indicator (1 - covered).
    for (std::size_t v = 0; v < n; ++v)
      log_weight[v] += eta * (covered[v] ? 0.0 : 1.0);

    if (round == next_checkpoint || round == horizon) {
      const HedgeTrace t = bounds_now(round);
      result.trace.push_back(t);
      if (obs != nullptr)
        record_hedge_checkpoint(obs, t, obs_bracket, n,
                                meter.elapsed_seconds());
      next_checkpoint = std::max(next_checkpoint + 1, next_checkpoint * 2);
      if (target_gap > 0 && t.upper - t.lower <= target_gap) {
        code = StatusCode::kOk;
        break;
      }
    }
  }

  if (result.trace.empty() || result.trace.back().round != round) {
    result.trace.push_back(bounds_now(round));
    if (obs != nullptr)
      record_hedge_checkpoint(obs, result.trace.back(), obs_bracket, n,
                              meter.elapsed_seconds());
  }

  const HedgeTrace& last = result.trace.back();
  result.value_estimate = 0.5 * (last.upper + last.lower);
  result.gap = last.upper - last.lower;
  result.rounds = round;
  result.approximate = truncated_any || code != StatusCode::kOk;
  result.attacker_average.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    result.attacker_average[v] =
        attacker_sum[v] / static_cast<double>(round);

  if (opts.capture != nullptr) {
    core::SolverCheckpoint cp;
    cp.solver = core::SolverKind::kHedge;
    cp.n = n;
    cp.m = g.num_edges();
    cp.k = game.k();
    cp.iterations = round;
    cp.horizon = horizon;
    cp.next_checkpoint = next_checkpoint;
    cp.best_lower = last.lower;
    cp.best_upper = last.upper;
    cp.any_truncated = truncated_any;
    cp.attacker_history = log_weight;
    cp.defender_history = cover_sum;
    cp.average_history = attacker_sum;
    *opts.capture = std::move(cp);
  }

  Solved<HedgeResult> out;
  if (code == StatusCode::kOk) {
    out.status =
        Status::make_ok(round, result.gap, meter.elapsed_seconds());
  } else {
    const char* what =
        code == StatusCode::kDeadlineExceeded
            ? "hedge wall-clock deadline expired; returning "
              "best-so-far certified bounds"
        : code == StatusCode::kCancelled
            ? "hedge cancelled; returning best-so-far certified bounds"
            : round >= horizon
                  ? "hedge horizon exhausted before the target "
                    "gap; returning best-so-far bounds"
                  : "hedge round budget exhausted mid-horizon; returning "
                    "best-so-far bounds";
    out.status = Status::make(code, what, round, result.gap,
                              meter.elapsed_seconds());
  }
  out.result = std::move(result);
  if (obs != nullptr) {
    const double elapsed_ms = meter.elapsed_seconds() * 1e3;
    if (obs->metrics != nullptr) {
      obs->metrics->counter("hedge.solves").add(1);
      obs->metrics->counter("hedge.rounds").add(out.result.rounds);
      if (!out.status.ok()) obs->metrics->counter("hedge.degraded").add(1);
      obs->metrics->histogram("hedge.solve_ms").observe(elapsed_ms);
    }
    if (obs->tracer != nullptr) {
      obs->tracer->instant(
          "hedge.finish",
          {obs::TraceArg::of("status",
                             std::string(to_string(out.status.code))),
           obs::TraceArg::of("rounds",
                             static_cast<std::uint64_t>(out.result.rounds)),
           obs::TraceArg::of("value", out.result.value_estimate),
           obs::TraceArg::of("gap", out.result.gap),
           obs::TraceArg::of("elapsed_ms", elapsed_ms)});
      run_span.arg("status", std::string(to_string(out.status.code)));
      run_span.arg("rounds",
                   static_cast<std::uint64_t>(out.result.rounds));
      run_span.end();
    }
  }
  return out;
}

}  // namespace defender::sim
