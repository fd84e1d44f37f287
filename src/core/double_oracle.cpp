#include "core/double_oracle.hpp"

#include <algorithm>
#include <utility>

#include "core/best_response.hpp"
#include "core/payoff.hpp"
#include "core/weighted.hpp"
#include "fault/fault.hpp"
#include "lp/matrix_game.hpp"
#include "util/assert.hpp"

namespace defender::core {

namespace {

/// Residual duality gap below which a stalled loop (both oracles already
/// in the working sets) is accepted as numerically converged.
constexpr double kStallSlack = 1e-4;

/// Builds the support-only mixed strategies from a restricted-game solution.
/// `def_probs` / `att_probs` may be shorter than the working sets (the sets
/// grow after the LP snapshot); extra strategies carry zero probability.
std::pair<TupleDistribution, VertexDistribution> extract_mixes(
    const std::vector<Tuple>& tuples,
    const std::vector<graph::Vertex>& vertices,
    std::span<const double> def_probs, std::span<const double> att_probs) {
  std::vector<Tuple> def_support;
  std::vector<double> def_mass;
  for (std::size_t t = 0; t < def_probs.size() && t < tuples.size(); ++t) {
    if (def_probs[t] <= 1e-12) continue;
    def_support.push_back(tuples[t]);
    def_mass.push_back(def_probs[t]);
  }
  if (def_support.empty()) {  // degenerate LP snapshot: fall back to uniform
    def_support.assign(tuples.begin(), tuples.end());
    def_mass.assign(tuples.size(), 1.0);
  }
  double def_sum = 0;
  for (double p : def_mass) def_sum += p;
  for (double& p : def_mass) p /= def_sum;

  // Vertices must be sorted for VertexDistribution; gather then sort.
  std::vector<std::pair<graph::Vertex, double>> att;
  for (std::size_t v = 0; v < att_probs.size() && v < vertices.size(); ++v)
    if (att_probs[v] > 1e-12) att.emplace_back(vertices[v], att_probs[v]);
  if (att.empty())
    for (graph::Vertex v : vertices) att.emplace_back(v, 1.0);
  std::sort(att.begin(), att.end());
  att.erase(std::unique(att.begin(), att.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            att.end());
  graph::VertexSet att_support;
  std::vector<double> att_mass;
  double att_sum = 0;
  for (const auto& [vtx, p] : att) {
    att_support.push_back(vtx);
    att_mass.push_back(p);
    att_sum += p;
  }
  for (double& p : att_mass) p /= att_sum;

  return {TupleDistribution(std::move(def_support), std::move(def_mass)),
          VertexDistribution(std::move(att_support), std::move(att_mass))};
}

/// Snapshot of the last successfully solved restricted game, used to build
/// a best-so-far answer when a budget runs out mid-loop.
struct RestrictedSnapshot {
  std::vector<double> def_probs;  // over the tuples working set (prefix)
  std::vector<double> att_probs;  // over the vertices working set (prefix)
  double value = 0;
  bool valid = false;
};

/// Opens the solve-level span when tracing is on; inert otherwise.
obs::Span open_solve_span(obs::ObsContext* obs, const char* name,
                          const TupleGame& game, double tolerance) {
  if (obs->tracer == nullptr) return obs::Span();
  return obs->tracer->span(
      name,
      {obs::TraceArg::of("n", static_cast<std::uint64_t>(
                                  game.graph().num_vertices())),
       obs::TraceArg::of("m", static_cast<std::uint64_t>(
                                  game.graph().num_edges())),
       obs::TraceArg::of("k", static_cast<std::uint64_t>(game.k())),
       obs::TraceArg::of("tolerance", tolerance)});
}

/// One outer-iteration record: ConvergenceRecorder sample, trace event, and
/// the running-gap gauge. Callers gate on `obs != nullptr`.
void record_iteration(obs::ObsContext* obs, const char* event_name,
                      const BudgetMeter& meter, double lower, double upper,
                      double gap, std::size_t defender_set,
                      std::size_t attacker_set, std::uint64_t oracle_nodes) {
  if (obs->convergence != nullptr) {
    obs::IterationSample s;
    s.iteration = meter.iterations();
    s.lower = lower;
    s.upper = upper;
    s.gap = gap;
    s.defender_support = defender_set;
    s.attacker_support = attacker_set;
    s.oracle_nodes = oracle_nodes;
    s.elapsed_seconds = meter.elapsed_seconds();
    obs->convergence->record(s);
  }
  if (obs->tracer != nullptr) {
    obs->tracer->instant(
        event_name,
        {obs::TraceArg::of("iteration",
                           static_cast<std::uint64_t>(meter.iterations())),
         obs::TraceArg::of("lower", lower), obs::TraceArg::of("upper", upper),
         obs::TraceArg::of("gap", gap),
         obs::TraceArg::of("defender_set",
                           static_cast<std::uint64_t>(defender_set)),
         obs::TraceArg::of("attacker_set",
                           static_cast<std::uint64_t>(attacker_set)),
         obs::TraceArg::of("oracle_nodes", oracle_nodes)});
  }
  if (obs->metrics != nullptr) obs->metrics->gauge("do.gap").set(upper - lower);
}

/// Final record: the `<prefix>.finish` event carries exactly the returned
/// Status (code, iterations) plus the certified bracket, then the solve
/// span is closed and the do.* metrics updated. Callers gate on
/// `obs != nullptr`.
void record_finish(obs::ObsContext* obs, const std::string& prefix,
                   obs::Span& span, const Solved<DoubleOracleResult>& out,
                   double elapsed_ms) {
  if (obs->metrics != nullptr) {
    obs->metrics->counter(prefix + ".solves").add(1);
    obs->metrics->counter(prefix + ".iterations")
        .add(out.result.iterations);
    if (!out.status.ok()) obs->metrics->counter(prefix + ".degraded").add(1);
    obs->metrics->histogram(prefix + ".solve_ms").observe(elapsed_ms);
  }
  if (obs->tracer != nullptr) {
    obs->tracer->instant(
        prefix + ".finish",
        {obs::TraceArg::of("status",
                           std::string(to_string(out.status.code))),
         obs::TraceArg::of("iterations",
                           static_cast<std::uint64_t>(
                               out.result.iterations)),
         obs::TraceArg::of("value", out.result.value),
         obs::TraceArg::of("lower", out.result.lower_bound),
         obs::TraceArg::of("upper", out.result.upper_bound),
         obs::TraceArg::of("gap", out.result.gap),
         obs::TraceArg::of("elapsed_ms", elapsed_ms)});
    span.arg("status", std::string(to_string(out.status.code)));
    span.arg("iterations",
             static_cast<std::uint64_t>(out.result.iterations));
    span.end();
  }
}

/// Validates a resume checkpoint against the solver family and the game it
/// is being resumed on. Any mismatch is a caller error (kInvalidInput),
/// never a crash or a silent restart.
Status validate_do_checkpoint(const SolverCheckpoint& cp, SolverKind kind,
                              const TupleGame& game) {
  const auto invalid = [](const std::string& what) {
    return Status::make(StatusCode::kInvalidInput,
                        "cannot resume double oracle: " + what);
  };
  if (cp.version != kSolverCheckpointVersion)
    return invalid("unsupported checkpoint version " +
                   std::to_string(cp.version));
  if (cp.solver != kind)
    return invalid(std::string("checkpoint belongs to solver '") +
                   to_string(cp.solver) + "', expected '" + to_string(kind) +
                   "'");
  const graph::Graph& g = game.graph();
  if (cp.n != g.num_vertices() || cp.m != g.num_edges() || cp.k != game.k())
    return invalid("game shape mismatch (checkpoint " +
                   std::to_string(cp.n) + "x" + std::to_string(cp.m) + " k=" +
                   std::to_string(cp.k) + ", game " +
                   std::to_string(g.num_vertices()) + "x" +
                   std::to_string(g.num_edges()) + " k=" +
                   std::to_string(game.k()) + ")");
  if (cp.tuples.empty() || cp.vertices.empty())
    return invalid("double-oracle working sets must be non-empty");
  for (const Tuple& t : cp.tuples) {
    if (t.size() != game.k())
      return invalid("working-set tuple size does not match k");
    for (graph::EdgeId e : t)
      if (static_cast<std::size_t>(e) >= g.num_edges())
        return invalid("working-set tuple references an unknown edge");
  }
  for (graph::Vertex v : cp.vertices)
    if (static_cast<std::size_t>(v) >= g.num_vertices())
      return invalid("working-set vertex id out of range");
  // The capture stores the RAW running bounds, and on a converged solve
  // the independently computed lower/upper certificates can cross by a few
  // ulps — that is round-off, not corruption. Reject only inversions too
  // large to be floating-point noise.
  if (!(cp.best_lower <= cp.best_upper + 1e-9))
    return invalid("certified bracket is inverted (lower > upper)");
  return Status::make_ok();
}

/// Hit probability of every vertex under the defender's restricted mix
/// (`def_probs` runs over the tuples working set).
std::vector<double> restricted_hit(const graph::Graph& g,
                                   const std::vector<Tuple>& tuples,
                                   std::span<const double> def_probs) {
  std::vector<double> hit(g.num_vertices(), 0.0);
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    if (def_probs[t] <= 0) continue;
    for (graph::Vertex v : tuple_vertices(g, tuples[t])) hit[v] += def_probs[t];
  }
  return hit;
}

/// One side's best response to the other side's restricted mix, in the
/// restricted LP's payoff units.
struct Reply {
  /// Payoff of the returned strategy.
  double value = 0;
  /// Sound bound on the payoff of the true best response: `value` unless
  /// a truncated oracle search leaves only its completion bound.
  double certificate = 0;
};

struct DefenderReply {
  BestTupleSearch search;
  Reply payoff;
};

struct AttackerReply {
  graph::Vertex vertex = 0;
  Reply payoff;
};

/// The hit game: the defender maximizes the hit probability. Restricted LP
/// rows are tuples (defender, maximizer), columns vertices (attacker).
struct HitGame {
  static constexpr bool kDefenderIsRow = true;
  static constexpr SolverKind kKind = SolverKind::kDoubleOracle;
  static constexpr const char* kName = "double oracle";
  static constexpr const char* kPrefix = "do";
  static constexpr const char* kSolveSpan = "do.solve";
  static constexpr const char* kIterationEvent = "do.iteration";
  static constexpr const char* kStalled =
      "double oracle stalled: an improving best response was already in the "
      "working set (numerical tolerance too tight); returning best-so-far "
      "certified bounds";

  const TupleGame& game;

  /// Hit probabilities live in [0, 1] a priori.
  double a_priori_upper() const { return 1.0; }

  /// Seed: the defender's best response to a uniform attacker, and one
  /// uncovered-if-possible vertex.
  std::vector<double> seed_masses() const {
    const std::size_t n = game.graph().num_vertices();
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
  }
  graph::Vertex seed_vertex() const { return 0; }

  lp::Matrix restricted(const std::vector<Tuple>& tuples,
                        const std::vector<graph::Vertex>& vertices) const {
    lp::Matrix a(tuples.size(), vertices.size());
    for (std::size_t t = 0; t < tuples.size(); ++t) {
      const graph::VertexSet covered = tuple_vertices(game.graph(), tuples[t]);
      for (std::size_t v = 0; v < vertices.size(); ++v)
        if (graph::contains(covered, vertices[v])) a.at(t, v) = 1.0;
    }
    return a;
  }

  /// Best tuple against the attacker's restricted mix: its coverage mass
  /// caps the value; when the oracle was truncated only its completion
  /// bound is sound.
  DefenderReply defender_reply(const std::vector<graph::Vertex>& vertices,
                               std::span<const double> att_probs,
                               const SolveBudget& budget, obs::ObsContext* obs,
                               fault::FaultContext* fault) const {
    std::vector<double> masses(game.graph().num_vertices(), 0.0);
    for (std::size_t v = 0; v < vertices.size(); ++v)
      masses[vertices[v]] += att_probs[v];
    DefenderReply r;
    r.search = best_tuple_branch_and_bound_budgeted(
        game, masses, budget.oracle_node_budget, obs, fault, budget.cancel);
    r.payoff.value = r.search.best.mass;
    r.payoff.certificate =
        r.search.truncated ? r.search.upper_bound : r.search.best.mass;
    return r;
  }

  /// Minimum-hit vertex against the defender's restricted mix.
  AttackerReply attacker_reply(const std::vector<double>& hit) const {
    const auto min_it = std::min_element(hit.begin(), hit.end());
    return {static_cast<graph::Vertex>(min_it - hit.begin()),
            {*min_it, *min_it}};
  }
};

/// The damage game (core/weighted.hpp): the attacker maximizes expected
/// damage. Restricted LP rows are vertices (attacker, maximizer), columns
/// tuples (defender, minimizer).
struct DamageGame {
  static constexpr bool kDefenderIsRow = false;
  static constexpr SolverKind kKind = SolverKind::kWeightedDoubleOracle;
  static constexpr const char* kName = "weighted double oracle";
  static constexpr const char* kPrefix = "do.weighted";
  static constexpr const char* kSolveSpan = "do.weighted.solve";
  static constexpr const char* kIterationEvent = "do.weighted.iteration";
  static constexpr const char* kStalled =
      "weighted double oracle stalled outside the accepted gap; returning "
      "best-so-far certified bounds";

  const TupleGame& game;
  std::span<const double> weights;

  /// Damage values live in [0, max weight] a priori.
  double a_priori_upper() const {
    return *std::max_element(weights.begin(), weights.end());
  }

  /// Seed: the defender's best response to a uniform attacker, and the
  /// most valuable vertex (the attacker's first instinct).
  std::vector<double> seed_masses() const {
    const std::size_t n = game.graph().num_vertices();
    std::vector<double> masses(n);
    for (std::size_t v = 0; v < n; ++v)
      masses[v] = weights[v] / static_cast<double>(n);
    return masses;
  }
  graph::Vertex seed_vertex() const {
    return static_cast<graph::Vertex>(
        std::max_element(weights.begin(), weights.end()) - weights.begin());
  }

  lp::Matrix restricted(const std::vector<Tuple>& tuples,
                        const std::vector<graph::Vertex>& vertices) const {
    lp::Matrix a(vertices.size(), tuples.size());
    for (std::size_t t = 0; t < tuples.size(); ++t) {
      const graph::VertexSet covered = tuple_vertices(game.graph(), tuples[t]);
      for (std::size_t v = 0; v < vertices.size(); ++v)
        if (!graph::contains(covered, vertices[v]))
          a.at(v, t) = weights[vertices[v]];
    }
    return a;
  }

  /// Concede the least damage against the attacker's restricted mix =
  /// maximize covered weighted mass. The damage floor subtracts the
  /// coverage the oracle certifies (its completion bound when truncated).
  DefenderReply defender_reply(const std::vector<graph::Vertex>& vertices,
                               std::span<const double> att_probs,
                               const SolveBudget& budget, obs::ObsContext* obs,
                               fault::FaultContext* fault) const {
    std::vector<double> masses(game.graph().num_vertices(), 0.0);
    double total = 0;
    for (std::size_t v = 0; v < vertices.size(); ++v) {
      masses[vertices[v]] += weights[vertices[v]] * att_probs[v];
      total += weights[vertices[v]] * att_probs[v];
    }
    DefenderReply r;
    r.search = best_tuple_branch_and_bound_budgeted(
        game, masses, budget.oracle_node_budget, obs, fault, budget.cancel);
    r.payoff.value = total - r.search.best.mass;
    r.payoff.certificate =
        total -
        (r.search.truncated ? r.search.upper_bound : r.search.best.mass);
    return r;
  }

  /// The most damaging vertex against the defender's restricted mix.
  AttackerReply attacker_reply(const std::vector<double>& hit) const {
    AttackerReply r;
    double best = -1;
    for (std::size_t v = 0; v < hit.size(); ++v) {
      const double d = weights[v] * (1.0 - hit[v]);
      if (d > best) {
        best = d;
        r.vertex = static_cast<graph::Vertex>(v);
      }
    }
    r.payoff = {best, best};
    return r;
  }
};

/// The double-oracle loop over either game's payoff view. It is written in
/// the restricted LP's sides: the row side maximizes and its best response
/// certifies the upper bound, the column side minimizes and certifies the
/// lower bound; `Game::kDefenderIsRow` says which side the defender is.
template <class Game>
Solved<DoubleOracleResult> run_double_oracle(const Game& view,
                                             const SolveOptions& opts) {
  const TupleGame& game = view.game;
  const graph::Graph& g = game.graph();
  const SolveBudget& budget = opts.budget;
  obs::ObsContext* const obs = opts.obs;
  fault::FaultContext* const fault = opts.fault;
  const SolverCheckpoint* const resume = opts.resume;
  std::size_t base_iterations = 0;
  if (resume != nullptr) {
    Status check = validate_do_checkpoint(*resume, Game::kKind, game);
    if (!check.ok()) {
      Solved<DoubleOracleResult> out;
      out.status = std::move(check);
      return out;
    }
    base_iterations = resume->iterations;
  }
  BudgetMeter meter(budget);
  obs::Span solve_span;
  if (obs != nullptr)
    solve_span = open_solve_span(obs, Game::kSolveSpan, game, opts.tolerance);

  // Certified bracket on the game value, a priori [0, a_priori_upper];
  // every iteration tightens both ends via the exact oracles.
  std::vector<Tuple> tuples;
  std::vector<graph::Vertex> vertices;
  double best_lower = 0.0;
  double best_upper = view.a_priori_upper();
  bool any_truncated = false;
  if (resume != nullptr) {
    // Continue from the captured loop state; the seed round already
    // happened in the interrupted segment.
    tuples = resume->tuples;
    vertices = resume->vertices;
    best_lower = resume->best_lower;
    best_upper = resume->best_upper;
    any_truncated = resume->any_truncated;
  } else {
    const BestTupleSearch seed = best_tuple_branch_and_bound_budgeted(
        game, view.seed_masses(), budget.oracle_node_budget, obs, fault);
    tuples.push_back(seed.best.tuple);
    vertices.push_back(view.seed_vertex());
    any_truncated = seed.truncated;
  }
  RestrictedSnapshot snap;

  // Assembles the result from the latest snapshot plus the running bounds.
  const auto finish = [&](StatusCode code, std::string message,
                          double value_hint, double gap) {
    DoubleOracleResult r;
    r.lower_bound = best_lower;
    r.upper_bound = std::max(best_upper, best_lower);
    r.value = std::clamp(value_hint, r.lower_bound, r.upper_bound);
    r.gap = std::max(0.0, gap);
    auto [def, att] = extract_mixes(tuples, vertices, snap.def_probs,
                                    snap.att_probs);
    r.defender = std::move(def);
    r.attacker = std::move(att);
    r.iterations = base_iterations + meter.iterations();
    r.defender_set_size = tuples.size();
    r.attacker_set_size = vertices.size();
    r.approximate = any_truncated || code != StatusCode::kOk;
    if (opts.capture != nullptr) {
      // Raw loop state (not the clamped result fields) so a resumed
      // segment continues from exactly the state this one stopped in.
      SolverCheckpoint cp;
      cp.solver = Game::kKind;
      cp.n = g.num_vertices();
      cp.m = g.num_edges();
      cp.k = game.k();
      cp.iterations = r.iterations;
      cp.best_lower = best_lower;
      cp.best_upper = best_upper;
      cp.any_truncated = any_truncated;
      cp.tuples = tuples;
      cp.vertices = vertices;
      *opts.capture = std::move(cp);
    }
    Solved<DoubleOracleResult> out;
    out.result = std::move(r);
    out.status = code == StatusCode::kOk
                     ? Status::make_ok(base_iterations + meter.iterations(),
                                       gap, meter.elapsed_seconds())
                     : Status::make(code, std::move(message),
                                    base_iterations + meter.iterations(),
                                    r.upper_bound - r.lower_bound,
                                    meter.elapsed_seconds());
    if (obs != nullptr)
      record_finish(obs, Game::kPrefix, solve_span, out,
                    meter.elapsed_seconds() * 1e3);
    return out;
  };
  // Exits before this iteration's LP: the last restricted value (or the
  // bracket midpoint before the first one) and the running bracket.
  const auto stop = [&](StatusCode code, const std::string& what) {
    return finish(code,
                  std::string(Game::kName) + " " + what +
                      "; returning best-so-far certified bounds",
                  snap.valid ? snap.value : 0.5 * (best_lower + best_upper),
                  best_upper - best_lower);
  };

  while (true) {
    // Under fault injection the clock may skew backwards (guarded by
    // obs::Clock) or jump forward into the deadline checks below.
    fault::perturb_clock(fault);
    if (meter.out_of_iterations())
      return stop(StatusCode::kIterationLimit, "iteration budget exhausted");
    if (meter.deadline_exceeded())
      return stop(StatusCode::kDeadlineExceeded,
                  "wall-clock deadline expired");
    if (meter.cancel_requested())
      return stop(StatusCode::kCancelled, "cancelled");

    // An exit inside the iteration (cancel or deadline in the restricted
    // LP, cancel in the oracle) returns the loop state exactly as it stood
    // at the top: the iteration is charged, and the snapshot, bracket,
    // truncation flag and working sets move, only once the LP and both
    // oracles have completed. A checkpoint taken there resumes to the
    // uninterrupted answer.
    const lp::Matrix a = view.restricted(tuples, vertices);
    SolveBudget lp_budget;
    lp_budget.cancel = budget.cancel;
    if (budget.wall_clock_seconds > 0)
      lp_budget.wall_clock_seconds = std::max(
          1e-3, budget.wall_clock_seconds - meter.elapsed_seconds());
    const Solved<lp::MatrixGameSolution> lp_solved =
        lp::solve_matrix_game(a, lp_budget, obs, fault);
    if (lp_solved.status.code == StatusCode::kCancelled)
      return stop(StatusCode::kCancelled,
                  "cancelled inside the restricted LP");
    if (!lp_solved.ok() &&
        lp_solved.status.code != StatusCode::kNumericallyUnstable)
      return finish(StatusCode::kDeadlineExceeded,
                    "restricted LP ran out of time mid-iteration: " +
                        lp_solved.status.message,
                    snap.valid ? snap.value : 0.5 * (best_lower + best_upper),
                    best_upper - best_lower);
    const lp::MatrixGameSolution& restricted = lp_solved.result;
    const std::vector<double>& def_probs = Game::kDefenderIsRow
                                               ? restricted.row_strategy
                                               : restricted.col_strategy;
    const std::vector<double>& att_probs = Game::kDefenderIsRow
                                               ? restricted.col_strategy
                                               : restricted.row_strategy;
    const DefenderReply def =
        view.defender_reply(vertices, att_probs, budget, obs, fault);
    if (def.search.cancelled)
      return stop(StatusCode::kCancelled,
                  "cancelled inside the best-response oracle");
    const AttackerReply att =
        view.attacker_reply(restricted_hit(g, tuples, def_probs));
    const Tuple& br_tuple = def.search.best.tuple;

    meter.charge_iteration();
    snap.def_probs = def_probs;
    snap.att_probs = att_probs;
    snap.value = restricted.value;
    snap.valid = true;
    any_truncated = any_truncated || def.search.truncated;

    const Reply& row = Game::kDefenderIsRow ? def.payoff : att.payoff;
    const Reply& col = Game::kDefenderIsRow ? att.payoff : def.payoff;
    best_lower = std::max(best_lower, col.certificate);
    best_upper = std::min(best_upper, row.certificate);
    const bool row_closed = row.value <= restricted.value + opts.tolerance;
    const bool col_closed = col.value >= restricted.value - opts.tolerance;
    const bool defender_closed = Game::kDefenderIsRow ? row_closed : col_closed;
    const bool attacker_closed = Game::kDefenderIsRow ? col_closed : row_closed;

    // When an "improving" best response is already in the working set the
    // residual gap is pure LP round-off (the restricted LP should have
    // priced that strategy in); accept the equilibrium if the gap is
    // negligible.
    const bool defender_stalled =
        !defender_closed &&
        std::find(tuples.begin(), tuples.end(), br_tuple) != tuples.end();
    const bool attacker_stalled =
        !attacker_closed && std::find(vertices.begin(), vertices.end(),
                                      att.vertex) != vertices.end();
    const double gap = std::max(row.value - restricted.value,
                                restricted.value - col.value);
    if (obs != nullptr)
      record_iteration(obs, Game::kIterationEvent, meter, best_lower,
                       best_upper, gap, tuples.size(), vertices.size(),
                       def.search.nodes);
    const bool converged =
        (defender_closed || defender_stalled) &&
        (attacker_closed || attacker_stalled) && gap <= kStallSlack;
    if (converged) {
      if (def.search.truncated)
        return finish(StatusCode::kIterationLimit,
                      "oracle node budget truncated the final best-response "
                      "certification; bounds are sound but not tight",
                      restricted.value, best_upper - best_lower);
      return finish(StatusCode::kOk, {}, restricted.value, gap);
    }

    // Grow the working sets with the improving best responses.
    bool grew = false;
    if (!defender_closed &&
        std::find(tuples.begin(), tuples.end(), br_tuple) == tuples.end()) {
      tuples.push_back(br_tuple);
      grew = true;
    }
    if (!attacker_closed && std::find(vertices.begin(), vertices.end(),
                                      att.vertex) == vertices.end()) {
      vertices.push_back(att.vertex);
      grew = true;
    }
    if (!grew)
      return finish(StatusCode::kNumericallyUnstable, Game::kStalled,
                    restricted.value, gap);
  }
}

}  // namespace

Solved<DoubleOracleResult> solve_double_oracle(const TupleGame& game,
                                               const SolveOptions& opts) {
  if (opts.weights.empty()) return run_double_oracle(HitGame{game}, opts);
  validate_weights(game, opts.weights);
  return run_double_oracle(DamageGame{game, opts.weights}, opts);
}

}  // namespace defender::core
