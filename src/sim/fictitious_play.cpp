#include "sim/fictitious_play.hpp"

#include <algorithm>
#include <limits>

#include "core/payoff.hpp"
#include "core/weighted.hpp"
#include "fault/fault.hpp"
#include "util/assert.hpp"

namespace defender::sim {

namespace {

void require_bounded(const SolveBudget& budget, double target_gap) {
  DEF_REQUIRE(budget.max_iterations > 0 || budget.wall_clock_seconds > 0 ||
                  target_gap > 0,
              "fictitious play needs a round cap, a deadline, or a positive "
              "target gap to terminate");
}

/// Validates a learning-dynamics resume checkpoint (shared by both
/// fictitious-play variants). Any mismatch is a caller error
/// (kInvalidInput), never a crash or a silent restart.
Status validate_fp_checkpoint(const core::SolverCheckpoint& cp,
                              core::SolverKind kind,
                              const core::TupleGame& game) {
  const auto invalid = [](const std::string& what) {
    return Status::make(StatusCode::kInvalidInput,
                        "cannot resume fictitious play: " + what);
  };
  if (cp.version != core::kSolverCheckpointVersion)
    return invalid("unsupported checkpoint version " +
                   std::to_string(cp.version));
  if (cp.solver != kind)
    return invalid(std::string("checkpoint belongs to solver '") +
                   core::to_string(cp.solver) + "', expected '" +
                   core::to_string(kind) + "'");
  const graph::Graph& g = game.graph();
  if (cp.n != g.num_vertices() || cp.m != g.num_edges() || cp.k != game.k())
    return invalid("game shape mismatch (checkpoint " +
                   std::to_string(cp.n) + "x" + std::to_string(cp.m) + " k=" +
                   std::to_string(cp.k) + ", game " +
                   std::to_string(g.num_vertices()) + "x" +
                   std::to_string(g.num_edges()) + " k=" +
                   std::to_string(game.k()) + ")");
  if (cp.attacker_history.size() != g.num_vertices() ||
      cp.defender_history.size() != g.num_vertices())
    return invalid("history vectors must have one entry per vertex");
  return Status::make_ok();
}

Status finish_status(StatusCode code, std::size_t rounds, double gap,
                     double elapsed) {
  if (code == StatusCode::kOk) return Status::make_ok(rounds, gap, elapsed);
  const char* what = code == StatusCode::kDeadlineExceeded
                         ? "fictitious play wall-clock deadline expired; "
                           "returning best-so-far certified bounds"
                     : code == StatusCode::kCancelled
                         ? "fictitious play cancelled; returning "
                           "best-so-far certified bounds"
                         : "fictitious play round budget exhausted before "
                           "the target gap; returning best-so-far bounds";
  return Status::make(code, what, rounds, gap, elapsed);
}

/// Positive entries of an empirical history — the support size recorded at
/// checkpoints.
std::size_t support_size(const std::vector<double>& counts) {
  std::size_t s = 0;
  for (double c : counts)
    if (c > 0) ++s;
  return s;
}

/// Opens the run-level span when tracing is on; inert otherwise.
obs::Span open_fp_span(obs::ObsContext* obs, const char* name,
                       const core::TupleGame& game, double target_gap) {
  if (obs->tracer == nullptr) return obs::Span();
  return obs->tracer->span(
      name,
      {obs::TraceArg::of("n", static_cast<std::uint64_t>(
                                  game.graph().num_vertices())),
       obs::TraceArg::of("m", static_cast<std::uint64_t>(
                                  game.graph().num_edges())),
       obs::TraceArg::of("k", static_cast<std::uint64_t>(game.k())),
       obs::TraceArg::of("target_gap", target_gap)});
}

/// Running intersection of the per-checkpoint certified brackets. Each
/// checkpoint's bounds individually contain the game value, so the
/// intersection does too — and it is monotone by construction, which is the
/// narrowing invariant ConvergenceRecorder samples promise (the raw,
/// possibly wobbling per-checkpoint bounds stay visible in the trace
/// events and in result.trace).
struct RunningBracket {
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
  void absorb(double lo, double up) {
    lower = std::max(lower, lo);
    upper = std::min(upper, up);
  }
};

/// One bound checkpoint: ConvergenceRecorder sample (running bracket),
/// trace event (instantaneous bounds), running gap gauge. Callers gate on
/// `obs != nullptr`.
void record_checkpoint(obs::ObsContext* obs, const char* event_name,
                       const FictitiousPlayTrace& t, RunningBracket& bracket,
                       std::size_t defender_support,
                       std::size_t attacker_support, double elapsed_seconds) {
  bracket.absorb(t.lower, t.upper);
  if (obs->convergence != nullptr) {
    obs::IterationSample s;
    s.iteration = t.round;
    s.lower = bracket.lower;
    s.upper = bracket.upper;
    s.gap = t.upper - t.lower;
    s.defender_support = defender_support;
    s.attacker_support = attacker_support;
    s.elapsed_seconds = elapsed_seconds;
    obs->convergence->record(s);
  }
  if (obs->tracer != nullptr) {
    obs->tracer->instant(
        event_name,
        {obs::TraceArg::of("round", static_cast<std::uint64_t>(t.round)),
         obs::TraceArg::of("lower", t.lower),
         obs::TraceArg::of("upper", t.upper),
         obs::TraceArg::of("gap", t.upper - t.lower),
         obs::TraceArg::of("best_lower", bracket.lower),
         obs::TraceArg::of("best_upper", bracket.upper),
         obs::TraceArg::of("defender_support",
                           static_cast<std::uint64_t>(defender_support)),
         obs::TraceArg::of("attacker_support",
                           static_cast<std::uint64_t>(attacker_support))});
  }
  if (obs->metrics != nullptr)
    obs->metrics->gauge("fp.gap").set(t.upper - t.lower);
}

/// Final record mirroring the returned Status; closes the run span.
/// Callers gate on `obs != nullptr`.
void record_fp_finish(obs::ObsContext* obs, const std::string& prefix,
                      obs::Span& span,
                      const Solved<FictitiousPlayResult>& out,
                      double elapsed_ms) {
  if (obs->metrics != nullptr) {
    obs->metrics->counter(prefix + ".solves").add(1);
    obs->metrics->counter(prefix + ".rounds").add(out.result.rounds);
    if (!out.status.ok()) obs->metrics->counter(prefix + ".degraded").add(1);
    obs->metrics->histogram(prefix + ".solve_ms").observe(elapsed_ms);
  }
  if (obs->tracer != nullptr) {
    obs->tracer->instant(
        prefix + ".finish",
        {obs::TraceArg::of("status",
                           std::string(to_string(out.status.code))),
         obs::TraceArg::of("rounds",
                           static_cast<std::uint64_t>(out.result.rounds)),
         obs::TraceArg::of("value", out.result.value_estimate),
         obs::TraceArg::of("gap", out.result.gap),
         obs::TraceArg::of("elapsed_ms", elapsed_ms)});
    span.arg("status", std::string(to_string(out.status.code)));
    span.arg("rounds", static_cast<std::uint64_t>(out.result.rounds));
    span.end();
  }
}

/// The hit game: the defender's oracle objective is the attacker's
/// empirical history itself.
struct HitPlay {
  static constexpr core::SolverKind kKind = core::SolverKind::kFictitiousPlay;
  static constexpr const char* kPrefix = "fp";
  static constexpr const char* kSolveSpan = "fp.solve";
  static constexpr const char* kCheckpointEvent = "fp.checkpoint";

  const core::TupleGame& game;

  const std::vector<double>& objective(
      const std::vector<double>& attacker_count) {
    return attacker_count;
  }

  /// The attacker best-responds to the defender's empirical coverage.
  std::size_t attacker_reply(const std::vector<double>& cover,
                             std::size_t /*round*/) const {
    return static_cast<std::size_t>(
        std::min_element(cover.begin(), cover.end()) - cover.begin());
  }

  /// Certified hit bounds after `rounds_done` rounds. The attacker history
  /// has mass (1 + rounds): uniform seed + picks.
  template <class Oracle>
  FictitiousPlayTrace bounds(std::size_t rounds_done,
                             const std::vector<double>& attacker_count,
                             const std::vector<double>& cover,
                             const Oracle& best_reply) {
    const double attacker_mass = 1.0 + static_cast<double>(rounds_done);
    const core::BestTupleSearch s = best_reply(attacker_count);
    const double upper =
        (s.truncated ? s.upper_bound : s.best.mass) / attacker_mass;
    const double lower = *std::min_element(cover.begin(), cover.end()) /
                         static_cast<double>(rounds_done);
    return FictitiousPlayTrace{rounds_done, upper, lower};
  }
};

/// The damage game: the defender maximizes covered damage = minimizes
/// conceded damage, so its oracle objective is w·count.
struct DamagePlay {
  static constexpr core::SolverKind kKind =
      core::SolverKind::kWeightedFictitiousPlay;
  static constexpr const char* kPrefix = "fp.weighted";
  static constexpr const char* kSolveSpan = "fp.weighted.solve";
  static constexpr const char* kCheckpointEvent = "fp.weighted.checkpoint";

  const core::TupleGame& game;
  std::span<const double> weights;
  std::vector<double> scaled = std::vector<double>(weights.size(), 0.0);

  const std::vector<double>& objective(
      const std::vector<double>& attacker_count) {
    for (std::size_t v = 0; v < scaled.size(); ++v)
      scaled[v] = weights[v] * attacker_count[v];
    return scaled;
  }

  /// The attacker maximizes w(v) * (1 - cover frequency).
  std::size_t attacker_reply(const std::vector<double>& cover,
                             std::size_t round) const {
    std::size_t best_vertex = 0;
    double best_damage = -1;
    for (std::size_t v = 0; v < cover.size(); ++v) {
      const double damage =
          weights[v] * (1.0 - cover[v] / static_cast<double>(round));
      if (damage > best_damage) {
        best_damage = damage;
        best_vertex = v;
      }
    }
    return best_vertex;
  }

  /// Certified damage bounds after `rounds_done` rounds.
  template <class Oracle>
  FictitiousPlayTrace bounds(std::size_t rounds_done,
                             const std::vector<double>& attacker_count,
                             const std::vector<double>& cover,
                             const Oracle& best_reply) {
    const double attacker_mass = 1.0 + static_cast<double>(rounds_done);
    // Upper bound on the damage value: the attacker's best response
    // against the defender's empirical mix.
    double upper = 0;
    for (std::size_t v = 0; v < cover.size(); ++v)
      upper = std::max(
          upper,
          weights[v] * (1.0 - cover[v] / static_cast<double>(rounds_done)));
    // Lower bound: total weighted attacker mass minus what the defender's
    // best response covers, normalized per attacker. Under oracle
    // truncation only the completion bound certifies the coverage.
    const std::vector<double>& mass = objective(attacker_count);
    double total = 0;
    for (double x : mass) total += x;
    const core::BestTupleSearch s = best_reply(mass);
    const double covered = s.truncated ? s.upper_bound : s.best.mass;
    const double lower = (total - covered) / attacker_mass;
    return FictitiousPlayTrace{rounds_done, upper, lower};
  }
};

/// The fictitious-play loop over either game's payoff view: the view holds
/// the defender's oracle objective, the attacker's best-response rule and
/// the bound formulas; everything else is shared.
template <class Game>
Solved<FictitiousPlayResult> run_fictitious_play(Game& view,
                                                 const SolveOptions& opts) {
  const core::TupleGame& game = view.game;
  const graph::Graph& g = game.graph();
  const std::size_t n = g.num_vertices();
  const SolveBudget& budget = opts.budget;
  const double target_gap = opts.tolerance;
  obs::ObsContext* const obs = opts.obs;
  fault::FaultContext* const fault = opts.fault;
  const core::SolverCheckpoint* const resume = opts.resume;
  if (resume != nullptr) {
    Status check = validate_fp_checkpoint(*resume, Game::kKind, game);
    if (!check.ok()) {
      Solved<FictitiousPlayResult> out;
      out.status = std::move(check);
      return out;
    }
  }
  BudgetMeter meter(budget);
  obs::Span run_span;
  if (obs != nullptr)
    run_span = open_fp_span(obs, Game::kSolveSpan, game, target_gap);
  RunningBracket obs_bracket;

  // Histories: how often the attacker stood on v / the defender covered v.
  std::vector<double> attacker_count(n, 0.0);
  std::vector<double> defender_cover_count(n, 0.0);

  // Seed round: attacker uniform over V, defender covers its best tuple
  // against that.
  for (std::size_t v = 0; v < n; ++v)
    attacker_count[v] = 1.0 / static_cast<double>(n);

  FictitiousPlayResult result;
  std::size_t next_checkpoint = 1;
  std::size_t round = 0;    // cumulative across all segments
  std::size_t segment = 0;  // rounds played by THIS call (budget scope)
  bool truncated_any = false;
  StatusCode code = StatusCode::kOk;
  if (resume != nullptr) {
    attacker_count = resume->attacker_history;
    defender_cover_count = resume->defender_history;
    next_checkpoint = resume->next_checkpoint;
    round = resume->iterations;
    truncated_any = resume->any_truncated;
  }

  // The defender's oracle; every call feeds the truncation flag.
  const auto best_reply = [&](const std::vector<double>& objective) {
    const core::BestTupleSearch s = core::best_tuple_branch_and_bound_budgeted(
        game, objective, budget.oracle_node_budget, obs, fault);
    truncated_any = truncated_any || s.truncated;
    return s;
  };
  const auto bounds_now = [&](std::size_t rounds_done) {
    return view.bounds(rounds_done, attacker_count, defender_cover_count,
                       best_reply);
  };

  while (true) {
    fault::perturb_clock(fault);
    if (segment > 0 && meter.out_of_iterations()) {
      code = target_gap > 0 ? StatusCode::kIterationLimit : StatusCode::kOk;
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

    // Defender best-responds to the attacker's empirical distribution.
    const core::BestTupleSearch br =
        best_reply(view.objective(attacker_count));
    for (graph::Vertex v : core::tuple_vertices(g, br.best.tuple))
      defender_cover_count[v] += 1.0;

    // Attacker best-responds to the defender's empirical coverage.
    attacker_count[view.attacker_reply(defender_cover_count, round)] += 1.0;

    const bool final_round =
        budget.max_iterations != 0 && segment == budget.max_iterations;
    if (round == next_checkpoint || final_round) {
      const FictitiousPlayTrace t = bounds_now(round);
      result.trace.push_back(t);
      if (obs != nullptr)
        record_checkpoint(obs, Game::kCheckpointEvent, t, obs_bracket,
                          support_size(defender_cover_count),
                          support_size(attacker_count),
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
      record_checkpoint(obs, Game::kCheckpointEvent, result.trace.back(),
                        obs_bracket, support_size(defender_cover_count),
                        support_size(attacker_count),
                        meter.elapsed_seconds());
  }

  const FictitiousPlayTrace& last = result.trace.back();
  result.value_estimate = 0.5 * (last.upper + last.lower);
  result.gap = last.upper - last.lower;
  result.rounds = round;
  result.approximate = truncated_any || code != StatusCode::kOk;
  result.attacker_frequency = attacker_count;
  const double attacker_mass = 1.0 + static_cast<double>(round);
  for (double& c : result.attacker_frequency) c /= attacker_mass;
  result.defender_hit_frequency = defender_cover_count;
  for (double& c : result.defender_hit_frequency)
    c /= static_cast<double>(round);

  if (opts.capture != nullptr) {
    core::SolverCheckpoint cp;
    cp.solver = Game::kKind;
    cp.n = n;
    cp.m = g.num_edges();
    cp.k = game.k();
    cp.iterations = round;
    cp.next_checkpoint = next_checkpoint;
    cp.best_lower = last.lower;
    cp.best_upper = last.upper;
    cp.any_truncated = truncated_any;
    cp.attacker_history = attacker_count;
    cp.defender_history = defender_cover_count;
    *opts.capture = std::move(cp);
  }

  Solved<FictitiousPlayResult> out;
  out.status =
      finish_status(code, round, result.gap, meter.elapsed_seconds());
  out.result = std::move(result);
  if (obs != nullptr)
    record_fp_finish(obs, Game::kPrefix, run_span, out,
                     meter.elapsed_seconds() * 1e3);
  return out;
}

}  // namespace

Solved<FictitiousPlayResult> fictitious_play(const core::TupleGame& game,
                                             const SolveOptions& opts) {
  require_bounded(opts.budget, opts.tolerance);
  if (opts.weights.empty()) {
    HitPlay view{game};
    return run_fictitious_play(view, opts);
  }
  core::validate_weights(game, opts.weights);
  DamagePlay view{game, opts.weights};
  return run_fictitious_play(view, opts);
}

}  // namespace defender::sim
