#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/double_oracle.hpp"
#include "core/zero_sum.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"
#include "util/assert.hpp"
#include "util/json_writer.hpp"
#include "util/record.hpp"

namespace defender::engine {

namespace {

/// Watchdog scan interval. The watchdog thread only exists while a batch
/// containing watchdog-armed jobs is running.
constexpr double kWatchdogPollSeconds = 0.005;

/// A-priori upper bound on a job's game value: hit probabilities live in
/// [0, 1]; weighted damage values in [0, max vertex weight].
double value_upper_bound(const SolveJob& job) {
  if (job.weights.empty()) return 1.0;
  double w = 0;
  for (double x : job.weights) w = std::max(w, x);
  return w;
}

/// Up-front shape validation so a malformed job degrades to kInvalidInput
/// instead of tripping a DEF_REQUIRE on its worker.
Status validate_job(const SolveJob& job) {
  const std::size_t n = job.game.graph().num_vertices();
  if (is_weighted(job.solver)) {
    if (job.weights.size() != n)
      return Status::make(StatusCode::kInvalidInput,
                          std::string(to_string(job.solver)) + " needs " +
                              std::to_string(n) + " vertex weights, got " +
                              std::to_string(job.weights.size()));
  } else if (!job.weights.empty()) {
    return Status::make(StatusCode::kInvalidInput,
                        std::string(to_string(job.solver)) +
                            " takes no vertex weights");
  }
  if (job.solver == JobSolver::kHedge && job.budget.max_iterations == 0)
    return Status::make(StatusCode::kInvalidInput,
                        "hedge jobs need budget.max_iterations > 0 (the "
                        "round horizon that fixes the learning rate)");
  if (!(job.tolerance >= 0))
    return Status::make(StatusCode::kInvalidInput,
                        "job tolerance must be >= 0");
  return Status::make_ok();
}

/// Scales the bounded dimensions of a budget for a resumed/enlarged rung.
SolveBudget grow_budget(const SolveBudget& budget, double factor) {
  SolveBudget grown = budget;
  if (grown.max_iterations != 0)
    grown.max_iterations = std::max(
        grown.max_iterations + 1,
        static_cast<std::size_t>(static_cast<double>(grown.max_iterations) *
                                 factor));
  if (grown.wall_clock_seconds > 0) grown.wall_clock_seconds *= factor;
  if (grown.oracle_node_budget != 0)
    grown.oracle_node_budget = std::max(
        grown.oracle_node_budget + 1,
        static_cast<std::uint64_t>(
            static_cast<double>(grown.oracle_node_budget) * factor));
  return grown;
}

/// The cross-solver fallback rung; nullopt when no independent solver can
/// take the job over.
std::optional<JobSolver> fallback_for(JobSolver solver, const SolveJob& job) {
  switch (solver) {
    case JobSolver::kZeroSumLp:
      return JobSolver::kDoubleOracle;
    case JobSolver::kDoubleOracle:
      if (job.game.num_tuples() <= core::kMaxLpTuples)
        return JobSolver::kZeroSumLp;
      return std::nullopt;
    case JobSolver::kWeightedDoubleOracle:
      return std::nullopt;  // no second weighted exact solver
    case JobSolver::kFictitiousPlay:
    case JobSolver::kHedge:
      return JobSolver::kDoubleOracle;
    case JobSolver::kWeightedFictitiousPlay:
      return JobSolver::kWeightedDoubleOracle;
  }
  return std::nullopt;
}

/// One attempt's normalized outcome, whatever solver ran it.
struct AttemptOutput {
  Status status;
  double value = 0;
  double lower = 0;
  double upper = 1;
  core::SolverCheckpoint checkpoint;
  bool captured = false;
  /// Explicit strategy mixes, captured only on `want_profiles` kOk solves
  /// of the exact solvers (double oracle, LP) for cache population. The
  /// learning dynamics report frequencies, not mixes, so they leave this
  /// empty.
  bool has_profiles = false;
  std::vector<core::Tuple> defender_support;
  std::vector<double> defender_probs;
  std::vector<graph::Vertex> attacker_support;
  std::vector<double> attacker_probs;
};

/// Runs one attempt on `solver` with the job's weights and the given budget.
/// `hedge_horizon` is the job's original round horizon (fixed across
/// attempts even as the segment budget grows).
AttemptOutput run_attempt(const SolveJob& job, JobSolver solver,
                          double tolerance, const SolveBudget& budget,
                          std::size_t hedge_horizon,
                          const core::SolverCheckpoint* resume,
                          bool want_profiles, obs::ObsContext* obs,
                          fault::FaultContext* fault) {
  AttemptOutput out;
  out.upper = value_upper_bound(job);
  // Weighted jobs carry their weights and plain ones none (validate_job),
  // and a weighted job only falls back to a weighted solver, so the job's
  // weights select the game for every solver that reads them.
  SolveOptions opts;
  opts.budget = budget;
  opts.tolerance = tolerance;
  opts.weights = job.weights;
  opts.resume = resume;
  opts.capture = &out.checkpoint;
  opts.obs = obs;
  opts.fault = fault;

  const auto capture_mixes = [&](const core::TupleDistribution& defender,
                                 const core::VertexDistribution& attacker) {
    if (!want_profiles || out.status.code != StatusCode::kOk) return;
    out.has_profiles = true;
    out.defender_support.assign(defender.support().begin(),
                                defender.support().end());
    out.defender_probs.assign(defender.probs().begin(),
                              defender.probs().end());
    out.attacker_support.assign(attacker.support().begin(),
                                attacker.support().end());
    out.attacker_probs.assign(attacker.probs().begin(),
                              attacker.probs().end());
  };
  // The learning dynamics report their last checkpoint's bounds.
  const auto take_trace = [&](const auto& solved) {
    out.status = solved.status;
    out.captured = true;
    out.value = solved.result.value_estimate;
    if (!solved.result.trace.empty()) {
      out.lower = solved.result.trace.back().lower;
      out.upper = solved.result.trace.back().upper;
    } else {
      out.lower = 0;
    }
  };

  switch (solver) {
    case JobSolver::kDoubleOracle:
    case JobSolver::kWeightedDoubleOracle: {
      const Solved<core::DoubleOracleResult> solved =
          core::solve_double_oracle(job.game, opts);
      out.status = solved.status;
      out.captured = true;
      out.value = solved.result.value;
      out.lower = solved.result.lower_bound;
      out.upper = solved.result.upper_bound;
      capture_mixes(solved.result.defender, solved.result.attacker);
      break;
    }
    case JobSolver::kFictitiousPlay:
    case JobSolver::kWeightedFictitiousPlay:
      take_trace(sim::fictitious_play(job.game, opts));
      break;
    case JobSolver::kHedge:
      take_trace(sim::hedge_dynamics(job.game, hedge_horizon, opts));
      break;
    case JobSolver::kZeroSumLp: {
      const Solved<lp::MatrixGameSolution> solved =
          core::solve_zero_sum(job.game, opts);
      out.status = solved.status;
      out.captured = false;  // the LP route has no checkpoint
      out.value = solved.result.value;
      out.lower = solved.result.lower_bound;
      out.upper = solved.result.upper_bound;
      if (want_profiles && out.status.code == StatusCode::kOk) {
        const core::MixedConfiguration config =
            core::to_configuration(job.game, solved.result, 1e-12);
        capture_mixes(config.defender, config.attackers.front());
      }
      break;
    }
  }

  // A rejected attempt (checkpoint/shape validation) certifies nothing;
  // fall back to the a-priori bracket so the envelope stays truthful.
  if (out.status.code == StatusCode::kInvalidInput ||
      out.status.code == StatusCode::kInfeasible) {
    out.lower = 0;
    out.upper = value_upper_bound(job);
    out.value = 0.5 * (out.lower + out.upper);
    out.captured = false;
  }
  return out;
}

/// Cooperative worker stall (the kWorkerStall site): sleep in short
/// slices, bailing out as soon as the watchdog kills the job so a stalled
/// worker never outlives its deadline by much.
void stall_worker(const SolveJob& job, std::uint64_t aux,
                  const CancelToken* token) {
  using clock = std::chrono::steady_clock;
  const double stall_seconds =
      job.watchdog_seconds > 0
          ? std::max(0.05, 3.0 * job.watchdog_seconds)
          : 0.02 + static_cast<double>(aux % 80) * 1e-3;
  const clock::time_point until =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(stall_seconds));
  while (clock::now() < until) {
    if (token != nullptr && token->cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The canonical twin of a job: the same solve on the canonically
/// relabeled board, plus the derived cache key.
struct CanonicalRoute {
  cache::CanonicalForm form;
  SolveJob job;
  cache::CacheKey key;
};

/// Canonicalizes a job (already shape-validated). The relabeled game's
/// scalars — value, bracket, status — equal the original's, so the route
/// is transparent to JobResult consumers.
CanonicalRoute make_canonical_route(const SolveJob& job, bool with_key) {
  std::vector<std::uint32_t> colors;
  if (is_weighted(job.solver))
    colors = cache::weight_color_classes(job.weights);
  cache::CanonicalForm form = cache::canonical_form(job.game.graph(), colors);
  core::TupleGame canonical_game(cache::build_canonical_graph(form),
                                 job.game.k(), job.game.num_attackers());
  SolveJob canonical_job(std::move(canonical_game));
  canonical_job.solver = job.solver;
  canonical_job.tolerance = job.tolerance;
  canonical_job.budget = job.budget;
  if (is_weighted(job.solver))
    canonical_job.weights = cache::to_canonical_weights(form, job.weights);
  canonical_job.fault_plan = job.fault_plan;
  canonical_job.watchdog_seconds = job.watchdog_seconds;

  CanonicalRoute route{std::move(form), std::move(canonical_job), {}};
  if (with_key)
    route.key = cache::SolveCache::make_key(
        route.form, route.job.weights, job.game.k(),
        job.game.num_attackers(), to_string(job.solver), job.tolerance,
        job.budget);
  return route;
}

/// The checkpoint family a job solver resumes from; nullopt for solvers a
/// warm start cannot help (LP has no checkpoint; Hedge's horizon is baked
/// into the stored learning rate).
std::optional<core::SolverKind> warm_kind_for(JobSolver solver) {
  switch (solver) {
    case JobSolver::kDoubleOracle: return core::SolverKind::kDoubleOracle;
    case JobSolver::kWeightedDoubleOracle:
      return core::SolverKind::kWeightedDoubleOracle;
    case JobSolver::kFictitiousPlay:
      return core::SolverKind::kFictitiousPlay;
    case JobSolver::kWeightedFictitiousPlay:
      return core::SolverKind::kWeightedFictitiousPlay;
    case JobSolver::kHedge:
    case JobSolver::kZeroSumLp:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Runs one job's full retry ladder on the calling thread. `token` may be
/// nullptr (serial reference path); `allow_stall` gates the kWorkerStall
/// sleep (the site's fires/aux draws are consumed either way, so pool and
/// serial runs see bit-identical fault schedules). `warm` is the batch's
/// warm-index snapshot (nullptr = no warm starts).
JobResult run_ladder(const SolveJob& job, std::size_t job_index,
                     CancelToken* token, const EngineConfig& config,
                     bool allow_stall, const cache::WarmSnapshot* warm,
                     const JobRunHooks* hooks = nullptr) {
  JobResult out;
  out.job_index = job_index;
  out.solver = job.solver;
  const double vub = value_upper_bound(job);
  out.lower_bound = 0;
  out.upper_bound = vub;
  out.value = 0.5 * vub;

  const Status invalid = validate_job(job);
  if (invalid.code != StatusCode::kOk) {
    out.status = invalid;
    return out;
  }

  // Drain resume (serve path): seed attempt 1 from the service-provided
  // checkpoint. The cache is bypassed for the whole resumed job so the
  // continuation reproduces exactly what the uninterrupted solve would
  // have reported, independent of what the cache holds at restart.
  const core::SolverCheckpoint* drain_resume =
      hooks != nullptr ? hooks->resume : nullptr;

  // Canonical-form routing: solve the relabeled twin so isomorphic jobs
  // (and cache hits) are bit-identical. A failure to canonicalize —
  // there is no expected one — degrades to the raw labeling rather than
  // the job.
  const bool cache_eligible = config.cache != nullptr &&
                              !job.fault_plan.armed() &&
                              !config.collect_convergence &&
                              drain_resume == nullptr;
  std::optional<CanonicalRoute> route;
  if (config.canonicalize || config.cache != nullptr) {
    try {
      route.emplace(make_canonical_route(job, cache_eligible));
    } catch (const std::exception&) {
      route.reset();
    }
  }
  const SolveJob& work = route.has_value() ? route->job : job;

  std::optional<fault::FaultContext> fctx;
  if (job.fault_plan.armed()) fctx.emplace(job.fault_plan);

  obs::ConvergenceRecorder recorder;
  obs::ObsContext ctx;
  ctx.tracer = config.tracer;
  ctx.metrics = config.metrics;
  ctx.convergence = config.collect_convergence ? &recorder : nullptr;
  obs::ObsContext* obs = (ctx.tracer != nullptr || ctx.metrics != nullptr ||
                          ctx.convergence != nullptr)
                             ? &ctx
                             : nullptr;
  obs::Span job_span;
  if (config.tracer != nullptr)
    job_span = config.tracer->span(
        "engine.job",
        {obs::TraceArg::of("job", static_cast<std::uint64_t>(job_index)),
         obs::TraceArg::of("solver", std::string(to_string(job.solver)))});

  // Cache lookup before any solve. A hit reconstructs the JobResult a
  // fresh canonical solve would produce, bit for bit (the stored entry
  // was itself a clean single-attempt canonical solve of this key).
  if (cache_eligible && route.has_value()) {
    if (std::optional<cache::CachedSolve> hit =
            config.cache->lookup(route->key)) {
      out.status = Status::make_ok();
      out.status.message = hit->message;
      out.status.iterations = hit->iterations;
      out.status.residual = hit->residual;
      out.value = hit->value;
      out.lower_bound = hit->lower;
      out.upper_bound = hit->upper;
      out.iterations = hit->iterations;
      out.attempts.push_back(AttemptRecord{
          1, AttemptAction::kInitial, job.solver, StatusCode::kOk,
          hit->attempt_value, hit->attempt_lower, hit->attempt_upper,
          hit->iterations, 0.0});
      if (config.metrics != nullptr)
        config.metrics->counter("engine.jobs").add(1);
      if (config.tracer != nullptr) {
        job_span.arg("status", std::string(to_string(out.status.code)));
        job_span.arg("attempts", std::uint64_t{1});
        job_span.arg("value", out.value);
        job_span.arg("cache", std::string("hit"));
      }
      return out;
    }
  }

  if (fctx.has_value() && fctx->fires(fault::FaultSite::kWorkerStall)) {
    const std::uint64_t aux = fctx->aux(fault::FaultSite::kWorkerStall);
    if (allow_stall) stall_worker(job, aux, token);
  }

  const RetryPolicy& policy = config.retry;
  const std::size_t max_attempts = std::max<std::size_t>(1, policy.max_attempts);
  JobSolver solver = job.solver;
  double tolerance = job.tolerance;
  // `budget` is the ladder anchor the growth rungs scale; `segment` is
  // what the next attempt actually runs with. They only differ on a
  // drain-resumed first attempt, whose segment is charged the iterations
  // the checkpoint already consumed — growth still anchors on the job's
  // ORIGINAL budget, so a resumed job's rung trajectory (and therefore
  // its JobResult) is bit-identical to an uninterrupted run's.
  SolveBudget budget = job.budget;
  budget.cancel = token;
  SolveBudget segment = budget;
  const std::size_t hedge_horizon = job.budget.max_iterations;
  core::SolverCheckpoint checkpoint;
  bool resume_next = false;
  if (drain_resume != nullptr) {
    checkpoint = *drain_resume;
    resume_next = true;
    if (segment.max_iterations != 0) {
      const std::size_t consumed =
          std::min(checkpoint.iterations, segment.max_iterations - 1);
      segment.max_iterations -= consumed;
    }
  }
  bool rescaled = false;
  bool fell_back = false;
  AttemptAction action = AttemptAction::kInitial;
  double env_lo = 0;
  double env_hi = vub;

  // Warm start on a near miss: a stored checkpoint under this job's
  // STRUCTURAL key (same canonical board/weights/solver, any params)
  // seeds the first attempt via the solver's resume path. The snapshot
  // was taken at batch start, so this never depends on worker schedule.
  bool warm_used = false;
  if (cache_eligible && route.has_value() && config.cache_warm_start &&
      warm != nullptr) {
    const std::optional<core::SolverKind> kind = warm_kind_for(job.solver);
    const auto warm_it =
        kind.has_value() ? warm->find(route->key.structural) : warm->end();
    if (kind.has_value() && warm_it != warm->end()) {
      Solved<core::SolverCheckpoint> parsed =
          core::try_parse_checkpoint(warm_it->second);
      if (parsed.status.ok() && parsed.result.solver == *kind &&
          parsed.result.n == work.game.graph().num_vertices() &&
          parsed.result.m == work.game.graph().num_edges() &&
          parsed.result.k == work.game.k()) {
        checkpoint = std::move(parsed.result);
        resume_next = true;
        warm_used = true;
        if (config.metrics != nullptr)
          config.metrics->counter("cache.warm_starts").add(1);
      }
    }
  }

  // Last attempt's captured strategy mixes, kept for cache population.
  const bool want_profiles = cache_eligible && route.has_value();
  AttemptOutput profiles;
  bool checkpoint_captured = false;

  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt >= 2) {
      const double backoff_ms = policy.backoff_before_attempt_ms(attempt);
      if (backoff_ms > 0 && (token == nullptr || !token->cancelled()))
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      if (config.metrics != nullptr)
        config.metrics->counter("engine.retries").add(1);
    }

    AttemptOutput r;
    try {
      r = run_attempt(work, solver, tolerance, segment, hedge_horizon,
                      resume_next ? &checkpoint : nullptr, want_profiles,
                      obs, fctx.has_value() ? &*fctx : nullptr);
    } catch (const std::exception& e) {
      // Per-job isolation: a throwing job (hostile input past validation,
      // allocation failure, ...) degrades to a truthful status on its own
      // slot; it never takes the batch down.
      r.status = Status::make(
          StatusCode::kInvalidInput,
          std::string("job attempt threw: ") + e.what());
      r.lower = 0;
      r.upper = vub;
      r.value = 0.5 * vub;
      r.captured = false;
    }

    // Tightest truthful envelope: every attempt's bracket is sound, so
    // intersect. A converged solve can report a bracket crossed by an ulp
    // (gap ~ -1e-16); normalize that before intersecting, but discard any
    // seriously inverted claim (a garbled solver certifies nothing).
    if (std::isfinite(r.lower) && std::isfinite(r.upper) &&
        r.lower <= r.upper + 1e-9) {
      const double lo = std::max(env_lo, std::min(r.lower, r.upper));
      const double hi = std::min(env_hi, std::max(r.lower, r.upper));
      if (lo <= hi) {
        env_lo = lo;
        env_hi = hi;
      } else if (lo - hi <= 1e-9) {
        env_lo = env_hi = 0.5 * (lo + hi);
      }
    }

    out.attempts.push_back(AttemptRecord{
        attempt, action, solver, r.status.code, r.value, r.lower, r.upper,
        r.status.iterations, r.status.elapsed_seconds});
    out.status = r.status;
    out.value = std::clamp(r.value, env_lo, env_hi);
    out.iterations = r.status.iterations;

    if (r.captured) {
      checkpoint = std::move(r.checkpoint);
      checkpoint_captured = true;
    }
    if (want_profiles) {
      profiles.has_profiles = r.has_profiles;
      profiles.defender_support = std::move(r.defender_support);
      profiles.defender_probs = std::move(r.defender_probs);
      profiles.attacker_support = std::move(r.attacker_support);
      profiles.attacker_probs = std::move(r.attacker_probs);
    }

    if (attempt == max_attempts) break;
    const StatusCode code = r.status.code;
    if (code == StatusCode::kOk || code == StatusCode::kCancelled ||
        code == StatusCode::kInfeasible || code == StatusCode::kInvalidInput)
      break;

    if (code == StatusCode::kIterationLimit ||
        code == StatusCode::kDeadlineExceeded) {
      // Hedge cannot grow past its horizon: the horizon pins the learning
      // rate, so once reached the answer is final.
      if (solver == JobSolver::kHedge && r.captured &&
          checkpoint.iterations >= checkpoint.horizon)
        break;
      budget = grow_budget(budget, policy.budget_growth);
      budget.cancel = token;
      segment = budget;
      if (solver == JobSolver::kZeroSumLp || !r.captured) {
        resume_next = false;
        action = AttemptAction::kEnlarge;
      } else {
        resume_next = true;
        action = AttemptAction::kResume;
      }
      continue;
    }

    // kNumericallyUnstable: rescale the tolerance once, then fall back.
    if (!rescaled && solver != JobSolver::kZeroSumLp &&
        policy.tolerance_scale > 0 && policy.tolerance_scale != 1.0) {
      tolerance = tolerance * policy.tolerance_scale;
      rescaled = true;
      resume_next = false;
      segment = budget;
      action = AttemptAction::kRescale;
      continue;
    }
    if (policy.allow_fallback && !fell_back) {
      const std::optional<JobSolver> alt = fallback_for(solver, job);
      if (alt.has_value()) {
        solver = *alt;
        fell_back = true;
        rescaled = false;
        tolerance = job.tolerance;
        budget = job.budget;
        budget.cancel = token;
        segment = budget;
        resume_next = false;
        action = AttemptAction::kFallback;
        continue;
      }
    }
    break;
  }

  out.lower_bound = env_lo;
  out.upper_bound = env_hi;
  out.value = std::clamp(out.value, env_lo, env_hi);
  out.fallback_used =
      !out.attempts.empty() && out.attempts.back().solver != job.solver;
  out.faults_injected = fctx.has_value() ? fctx->total_injected() : 0;
  out.convergence_samples = recorder.samples().size();

  // Populate the cache — only from pristine solves: a clean kOk on the
  // FIRST attempt, no fallback, no warm resume, and (by cache_eligible)
  // no armed fault plan, so a hit replays exactly what a fresh solve of
  // any isomorphic twin would report. Degraded, retried, or faulted jobs
  // never land in the cache.
  if (cache_eligible && route.has_value() && !warm_used &&
      out.status.code == StatusCode::kOk && out.attempts.size() == 1 &&
      !out.fallback_used && out.faults_injected == 0) {
    cache::CachedSolve entry;
    entry.n = route->form.n;
    entry.k = job.game.k();
    entry.num_attackers = job.game.num_attackers();
    entry.exact_form = route->form.exact;
    entry.solver = to_string(job.solver);
    entry.tolerance = job.tolerance;
    entry.max_iterations = job.budget.max_iterations;
    entry.wall_clock_seconds = job.budget.wall_clock_seconds;
    entry.oracle_node_budget = job.budget.oracle_node_budget;
    entry.edges = route->form.edges;
    entry.weights = route->job.weights;
    entry.message = out.status.message;
    entry.iterations = out.iterations;
    entry.residual = out.status.residual;
    entry.value = out.value;
    entry.lower = out.lower_bound;
    entry.upper = out.upper_bound;
    const AttemptRecord& first = out.attempts.front();
    entry.attempt_value = first.value;
    entry.attempt_lower = first.lower;
    entry.attempt_upper = first.upper;
    entry.has_profiles = profiles.has_profiles;
    entry.defender_support = std::move(profiles.defender_support);
    entry.defender_probs = std::move(profiles.defender_probs);
    entry.attacker_support = std::move(profiles.attacker_support);
    entry.attacker_probs = std::move(profiles.attacker_probs);
    if (checkpoint_captured) entry.checkpoint_text = core::to_text(checkpoint);
    config.cache->store(route->key, std::move(entry));
  }

  // Drain capture: export the checkpoint only when it truthfully restarts
  // the job — a clean kCancelled first attempt of the submitted solver,
  // no armed fault plan (fault counters reset on resume, so a faulted
  // continuation would diverge). Everything else re-runs fresh, which the
  // determinism contract makes bit-identical anyway.
  if (hooks != nullptr) {
    const bool capturable =
        hooks->capture != nullptr && checkpoint_captured &&
        out.status.code == StatusCode::kCancelled &&
        out.attempts.size() == 1 && !out.fallback_used &&
        !job.fault_plan.armed();
    if (hooks->captured != nullptr) *hooks->captured = capturable;
    if (capturable) *hooks->capture = std::move(checkpoint);
  }

  if (config.metrics != nullptr) {
    config.metrics->counter("engine.jobs").add(1);
    if (!out.ok()) config.metrics->counter("engine.jobs_degraded").add(1);
  }
  if (config.tracer != nullptr) {
    job_span.arg("status", std::string(to_string(out.status.code)));
    job_span.arg("attempts",
                 static_cast<std::uint64_t>(out.attempts.size()));
    job_span.arg("value", out.value);
  }
  return out;
}

}  // namespace

std::string JobResult::to_json() const {
  // Rendered through the repo-wide util::JsonWriter so JobReport JSONL,
  // bench lines, and serve responses share one escaping/number rule. No
  // elapsed timing is included, so for a fixed job the line is a pure
  // function of the job — serve's drain-determinism smoke test compares
  // these lines byte for byte across an interrupted and a clean run.
  util::JsonWriter w;
  w.num("job", static_cast<std::uint64_t>(job_index));
  w.str("solver", engine::to_string(solver));
  w.str("status", defender::to_string(status.code));
  w.str("message", status.message);
  w.num("value", value);
  w.num("lower", lower_bound);
  w.num("upper", upper_bound);
  w.num("iterations", static_cast<std::uint64_t>(iterations));
  w.boolean("fallback", fallback_used);
  w.boolean("watchdog_killed", watchdog_killed);
  w.num("faults", faults_injected);
  std::vector<std::string> rendered;
  rendered.reserve(attempts.size());
  for (const AttemptRecord& a : attempts) {
    util::JsonWriter aw;
    aw.num("attempt", static_cast<std::uint64_t>(a.attempt));
    aw.str("action", engine::to_string(a.action));
    aw.str("solver", engine::to_string(a.solver));
    aw.str("outcome", defender::to_string(a.outcome));
    aw.num("value", a.value);
    aw.num("lower", a.lower);
    aw.num("upper", a.upper);
    aw.num("iterations", static_cast<std::uint64_t>(a.iterations));
    rendered.push_back(aw.object());
  }
  w.raw("attempts", util::JsonWriter::array(rendered));
  return w.object();
}

std::string BatchReport::to_jsonl() const {
  std::string out;
  for (const JobResult& r : results) {
    out += r.to_json();
    out += '\n';
  }
  return out;
}

SolveEngine::SolveEngine(EngineConfig config) : config_(std::move(config)) {}

JobResult SolveEngine::run_serial(const SolveJob& job,
                                  std::size_t job_index) const {
  std::optional<cache::WarmSnapshot> warm;
  if (config_.cache != nullptr && config_.cache_warm_start)
    warm = config_.cache->warm_snapshot();
  return run_ladder(job, job_index, nullptr, config_, /*allow_stall=*/false,
                    warm.has_value() ? &*warm : nullptr);
}

JobResult SolveEngine::run_one(const SolveJob& job, std::size_t job_index,
                               const JobRunHooks& hooks) const {
  if (hooks.captured != nullptr) *hooks.captured = false;
  if (hooks.resume != nullptr && job.solver == JobSolver::kZeroSumLp) {
    // The LP route has no checkpoint; a manifest claiming one is hostile
    // or corrupt. Reject instead of silently solving under a reduced
    // first-segment budget (which would diverge from a clean run).
    JobResult out;
    out.job_index = job_index;
    out.solver = job.solver;
    const double vub = value_upper_bound(job);
    out.lower_bound = 0;
    out.upper_bound = vub;
    out.value = 0.5 * vub;
    out.status = Status::make(StatusCode::kInvalidInput,
                              "zero-sum-lp has no checkpoint to resume");
    return out;
  }
  // No warm snapshot: run_one serves one job at a time, and a warm start
  // taken at dispatch time would make resume trajectories depend on what
  // the cache happened to hold — exactly what drain determinism forbids.
  JobResult result = run_ladder(job, job_index, hooks.cancel, config_,
                                /*allow_stall=*/false, nullptr, &hooks);
  if (config_.metrics != nullptr) {
    if (hooks.resume != nullptr)
      config_.metrics->counter("engine.drain_resumes").add(1);
    if (hooks.captured != nullptr && *hooks.captured)
      config_.metrics->counter("engine.drain_checkpoints").add(1);
  }
  return result;
}

CanonicalJobKey canonical_key_for_job(const SolveJob& job) {
  CanonicalRoute route = make_canonical_route(job, /*with_key=*/true);
  return CanonicalJobKey{std::move(route.form), std::move(route.key)};
}

BatchReport SolveEngine::run(const std::vector<SolveJob>& jobs) {
  using clock = std::chrono::steady_clock;
  const clock::time_point batch_start = clock::now();

  BatchReport report;
  report.results.resize(jobs.size());
  if (jobs.empty()) return report;

  std::size_t workers = config_.workers;
  if (workers == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers = hc == 0 ? 1 : hc;
  }
  workers = std::min(workers, jobs.size());
  workers = std::max<std::size_t>(1, workers);

  /// Watchdog registration slot: one per worker, mutex-guarded so the
  /// watchdog's scan and the worker's job transitions never race.
  struct Slot {
    std::mutex mu;
    bool active = false;
    bool killed = false;
    double deadline_seconds = 0;
    clock::time_point start{};
    CancelToken* token = nullptr;
  };
  std::vector<Slot> slots(workers);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> inflight{0};
  std::atomic<std::size_t> kills{0};
  std::atomic<bool> stop{false};
  obs::MetricsRegistry* metrics = config_.metrics;

  // Gauge lifecycle: queue_depth/inflight are published on enqueue (batch
  // start), every dequeue (claim), and every completion, and all three
  // gauges — batch_active included — read zero once run() returns, so a
  // drained process exports a quiescent registry (pinned by the serve
  // gauge-lifecycle test).
  const auto publish_gauges = [&]() {
    if (metrics == nullptr) return;
    const std::size_t claimed = std::min(next.load(), jobs.size());
    metrics->gauge("engine.queue_depth")
        .set(static_cast<double>(jobs.size() - claimed));
    metrics->gauge("engine.inflight")
        .set(static_cast<double>(inflight.load()));
  };
  if (metrics != nullptr) metrics->gauge("engine.batch_active").set(1);
  publish_gauges();

  // Warm-start snapshot, taken ONCE before any job runs: entries stored
  // mid-batch must never seed later jobs' resume trajectories, or results
  // would depend on worker count and scheduling order.
  std::optional<cache::WarmSnapshot> warm;
  if (config_.cache != nullptr && config_.cache_warm_start)
    warm = config_.cache->warm_snapshot();
  const cache::WarmSnapshot* warm_ptr =
      warm.has_value() ? &*warm : nullptr;

  bool any_watchdog = false;
  for (const SolveJob& job : jobs)
    if (job.watchdog_seconds > 0) any_watchdog = true;

  std::thread watchdog;
  if (any_watchdog) {
    watchdog = std::thread([&]() {
      // The watchdog reads the RAW steady clock: obs::Clock skew injected
      // by a faulted job must never starve (or reprieve) another job.
      while (!stop.load(std::memory_order_acquire)) {
        for (Slot& slot : slots) {
          std::lock_guard<std::mutex> lock(slot.mu);
          if (slot.active && !slot.killed && slot.deadline_seconds > 0 &&
              std::chrono::duration<double>(clock::now() - slot.start)
                      .count() >= slot.deadline_seconds) {
            slot.token->request_cancel();
            slot.killed = true;
            kills.fetch_add(1, std::memory_order_relaxed);
            if (metrics != nullptr)
              metrics->counter("engine.deadline_kills").add(1);
          }
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kWatchdogPollSeconds));
      }
    });
  }

  const auto worker_fn = [&](std::size_t worker_index) {
    Slot& slot = slots[worker_index];
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) break;
      inflight.fetch_add(1, std::memory_order_relaxed);
      publish_gauges();

      CancelToken token;
      {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.active = true;
        slot.killed = false;
        slot.deadline_seconds = jobs[i].watchdog_seconds;
        slot.start = clock::now();
        slot.token = &token;
      }
      JobResult result = run_ladder(jobs[i], i, &token, config_,
                                    /*allow_stall=*/true, warm_ptr);
      {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.active = false;
        slot.token = nullptr;
        result.watchdog_killed = slot.killed;
      }
      report.results[i] = std::move(result);

      inflight.fetch_sub(1, std::memory_order_relaxed);
      publish_gauges();
    }
  };

  if (workers == 1) {
    // Single-worker batches run inline: no pool thread, identical results.
    worker_fn(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      pool.emplace_back(worker_fn, w);
    for (std::thread& t : pool) t.join();
  }

  stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  publish_gauges();
  if (metrics != nullptr) metrics->gauge("engine.batch_active").set(0);

  for (const JobResult& r : report.results) {
    if (r.ok()) ++report.completed;
    else ++report.degraded;
    if (!r.attempts.empty()) report.retries += r.attempts.size() - 1;
    if (r.faults_injected > 0) ++report.faulted_jobs;
  }
  report.deadline_kills = kills.load();
  report.elapsed_seconds =
      std::chrono::duration<double>(clock::now() - batch_start).count();
  return report;
}

std::string RetryPolicy::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "attempts=%zu,grow=%g,scale=%g,fallback=%s,backoff-ms=%g,"
                "cap-ms=%g",
                max_attempts, budget_growth, tolerance_scale,
                allow_fallback ? "on" : "off", backoff_ms, backoff_cap_ms);
  return buf;
}

Solved<RetryPolicy> RetryPolicy::try_parse(const std::string& spec) {
  Solved<RetryPolicy> out;
  RetryPolicy policy;
  const auto fail = [&](const std::string& what) {
    out.status = Status::make(StatusCode::kInvalidInput,
                              "retry ladder spec: " + what);
    return out;
  };

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      return fail("token '" + token + "' is not key=value");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) return fail("empty value for '" + key + "'");

    const auto parse_double = [&](double* slot) {
      return util::parse_finite(value, slot) && *slot >= 0;
    };

    if (key == "attempts") {
      if (!util::parse_count(value, 1'000'000, &policy.max_attempts) ||
          policy.max_attempts == 0)
        return fail("attempts must be an integer in [1, 1e6], got '" +
                    value + "'");
    } else if (key == "grow") {
      if (!parse_double(&policy.budget_growth) || policy.budget_growth < 1.0)
        return fail("grow must be a finite number >= 1, got '" + value + "'");
    } else if (key == "scale") {
      if (!parse_double(&policy.tolerance_scale) ||
          policy.tolerance_scale <= 0)
        return fail("scale must be a finite number > 0, got '" + value + "'");
    } else if (key == "fallback") {
      if (value == "on") policy.allow_fallback = true;
      else if (value == "off") policy.allow_fallback = false;
      else return fail("fallback must be on|off, got '" + value + "'");
    } else if (key == "backoff-ms") {
      if (!parse_double(&policy.backoff_ms))
        return fail("backoff-ms must be a finite number >= 0, got '" +
                    value + "'");
    } else if (key == "cap-ms") {
      if (!parse_double(&policy.backoff_cap_ms))
        return fail("cap-ms must be a finite number >= 0, got '" + value +
                    "'");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  out.result = policy;
  out.status = Status::make_ok();
  return out;
}

}  // namespace defender::engine
