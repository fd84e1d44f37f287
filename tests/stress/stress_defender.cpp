// Differential stress harness (standalone binary; `stress_smoke` in ctest).
//
// Two independent defenses against wrong answers and crashes:
//
//  1. Differential solver cross-check: randomized instances across the
//     generator zoo, solved four ways — exact LP (solve_zero_sum), the
//     double oracle, fictitious play, and Hedge — plus the Lemma 4.1
//     combinatorial value k/|E(D(tp))| whenever A_tuple finds a k-matching
//     NE. All routes must agree on the game value within 1e-6 (the
//     learning dynamics via their certified brackets), and budget-starved
//     solves must still return sound bounds without throwing.
//
//  2. Mutational fuzzing of every hardened text format: edge lists and
//     the byte golden of every record format (tests/data/*.golden.txt:
//     checkpoints, configurations, cache stores, drain manifests, fault
//     plans and the six supervise-* frames) mutated by byte flips,
//     truncations, token swaps and hostile-count injection, then fed to
//     every parser. Any outcome is acceptable except a crash, an uncaught
//     non-ContractViolation exception, an outsized allocation, or an
//     accepted input whose re-serialization is not a parse/write fixed
//     point.
//
// With --trace FILE.jsonl every differential solve runs with a global
// ObsContext (JSONL tracing + metrics); CI uploads the resulting trace as
// an artifact so failures come with a full solver narrative attached.
//
// Chaos mode (--fault-rate R, 0 < R <= 1): every instance additionally
// runs the budgeted solvers under a deterministic fault schedule
// (fault::FaultPlan seeded per instance from --fault-seed) arming every
// injection site at rate R. The acceptance bar: no solver crashes, every
// returned bracket still contains the fault-free LP value (certified by
// independent re-evaluation), and every Status stays truthful (kOk implies
// a closed bracket). A failing instance prints its replayable fault-plan
// text; --fault-plans DIR additionally writes it to
// DIR/fault-plan-<instance>.txt so CI can upload the plans as artifacts.
//
// Engine chaos mode (--engine-jobs N, N >= 1): 200 random boards run
// through the SolveEngine pool with N workers, every third job under an
// armed fault schedule. The acceptance bar is batch ISOLATION: every
// non-faulted job's JobResult must be bit-for-bit identical to a serial
// solve of the same job, every bracket sound, every status truthful. On
// failure --engine-report FILE dumps the whole BatchReport as JobReport
// JSONL so CI can upload it as an artifact.
//
// --engine-cache additionally arms a canonical-form SolveCache
// (docs/CACHE.md) on the chaos batch and raises the bar twice over: every
// JobResult must stay bit-identical to a cache-less canonicalized run of
// the same batch, and no ARMED-fault job may ever populate the cache (a
// key present in the cache must be owned by a clean unfaulted job).
//
// Serve fuzz mode (--serve-fuzz N): N mutated request lines and drain
// manifests through the hardened serve parsers (parse_json,
// try_parse_request + to_job, try_parse_drain_manifest). No crashes, no
// exceptions, and every ACCEPTED manifest is a to_text/parse fixed point.
//
// Io chaos mode (--io-chaos): crash-durability sweep over the three
// artifact save paths (checkpoint, cache store, drain manifest). A
// simulated SIGKILL at every byte offset of each wrapped image plus the
// rename-window stages, then armed io-* fault plans over dozens of
// alternating saves, reloading through the real consumer loaders after
// every attempt. Invariant: the reload is always the previous durable
// generation or the complete attempted one, bit for bit — never garbage
// — and for the record-framed cache store a torn sole generation always
// salvages a byte-exact record prefix. --io-artifacts DIR keeps the
// on-disk debris in DIR for CI upload (docs/DURABILITY.md).
//
// Serve soak mode (--serve-soak SECONDS): a live SolveService under
// sustained three-client overload — truthful kOverloaded rejections with
// retry hints, exactly-once delivery accounting against the final drain
// manifest, weighted-fair throughput, gauges zero after drain. On
// failure --serve-report FILE captures metrics + per-client tallies as a
// JSONL artifact for CI upload.
//
// Usage: stress_defender [--instances N] [--fuzz-iters N] [--seed S]
//                        [--trace FILE.jsonl] [--fault-rate R]
//                        [--fault-seed S] [--fault-plans DIR]
//                        [--engine-jobs N] [--engine-report FILE]
//                        [--engine-cache] [--serve-fuzz N]
//                        [--serve-soak SECONDS] [--serve-report FILE]
//                        [--supervise-chaos] [--supervise-report FILE]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cache/cache.hpp"
#include "common/board_corpus.hpp"
#include "core/atuple.hpp"
#include "core/checkpoint.hpp"
#include "core/double_oracle.hpp"
#include "fault/fault.hpp"
#include "core/k_matching.hpp"
#include "core/serialization.hpp"
#include "core/zero_sum.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "io/atomic_file.hpp"
#include "io/durable.hpp"
#include "io/envelope.hpp"
#include "lp/matrix_game.hpp"
#include "lp/simplex_reference.hpp"
#include "obs/context.hpp"
#include "serve/drain.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/fictitious_play.hpp"
#include "sim/multiplicative_weights.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/wire.hpp"
#include "supervise/worker.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace {

using namespace defender;

/// Installed by --trace; null keeps every solver on its zero-cost path.
obs::ObsContext* g_obs = nullptr;

constexpr double kValueTolerance = 1e-6;
/// Keep C(m, k) at most this, so the exact LP stays small and fast.
constexpr std::uint64_t kMaxLpTuples = test_corpus::kMaxLpTuples;
/// Fuzz inputs are length-limited to keep each iteration O(small).
constexpr std::size_t kMaxFuzzBytes = 2'048;

int failures = 0;

void fail(const std::string& what) {
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

// The board zoo lives in tests/common/board_corpus.hpp now, shared with the
// differential simplex suite so "the stress corpus" means one thing.
using test_corpus::pick_k;
using test_corpus::random_board;

/// Flat-vs-reference LP bit-equality on this instance's coverage matrix:
/// the stress-harness arm of the differential simplex suite (tests/lp),
/// re-checked here on every sweep so corpus drift cannot open a gap the
/// unit suite no longer covers.
void check_simplex_differential(const core::TupleGame& game,
                                const std::string& tag,
                                fault::FaultContext* flat_fault = nullptr,
                                fault::FaultContext* ref_fault = nullptr) {
  const lp::Matrix payoff = core::coverage_matrix(game);
  const auto flat = lp::solve_matrix_game(
      payoff, SolveBudget::unlimited_budget(), g_obs, flat_fault);
  const auto ref =
      lp::solve_matrix_game(payoff, SolveBudget::unlimited_budget(), g_obs,
                            ref_fault, &lp::reference::solve_max);
  check(flat.status.code == ref.status.code,
        tag + ": flat/reference simplex status diverged (" +
            flat.status.describe() + " vs " + ref.status.describe() + ")");
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  check(bits(flat.result.value) == bits(ref.result.value) &&
            bits(flat.result.lower_bound) == bits(ref.result.lower_bound) &&
            bits(flat.result.upper_bound) == bits(ref.result.upper_bound),
        tag + ": flat/reference simplex bracket diverged ([" +
            std::to_string(flat.result.lower_bound) + ", " +
            std::to_string(flat.result.upper_bound) + "] vs [" +
            std::to_string(ref.result.lower_bound) + ", " +
            std::to_string(ref.result.upper_bound) + "])");
}

void differential_instance(util::Rng& rng, std::size_t index) {
  const graph::Graph g = random_board(rng);
  const std::size_t nu = static_cast<std::size_t>(rng.range(1, 3));
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 4)),
                            g.num_edges());
  const core::TupleGame game(g, pick_k(g, want, nu), nu);
  const std::string tag = "instance " + std::to_string(index) + " (n=" +
                          std::to_string(g.num_vertices()) + ", m=" +
                          std::to_string(g.num_edges()) + ", k=" +
                          std::to_string(game.k()) + ")";

  // Route 0: flat-tableau simplex vs the preserved reference substrate,
  // bit for bit (docs/SIMPLEX.md).
  check_simplex_differential(game, tag);

  // Route 1: exact LP over the enumerated tuple space.
  const double lp_value = core::solve_zero_sum(game).value_or_throw().value;

  // Route 2: double oracle (exact, without enumeration).
  const Solved<core::DoubleOracleResult> oracle =
      core::solve_double_oracle(
          game, {.budget = SolveBudget::iterations(400), .obs = g_obs});
  check(oracle.ok(), tag + ": double oracle did not converge: " +
                         oracle.status.describe());
  check(std::abs(oracle.result.value - lp_value) <= kValueTolerance,
        tag + ": LP value " + std::to_string(lp_value) +
            " vs double oracle " + std::to_string(oracle.result.value));

  // Route 3: fictitious play's certified bracket must contain the value.
  const Solved<sim::FictitiousPlayResult> fp = sim::fictitious_play(
      game, {.budget = SolveBudget::iterations(400),
             .tolerance = 1e-7,
             .obs = g_obs});
  check(fp.result.trace.back().lower <= lp_value + kValueTolerance &&
            fp.result.trace.back().upper >= lp_value - kValueTolerance,
        tag + ": FP bracket [" +
            std::to_string(fp.result.trace.back().lower) + ", " +
            std::to_string(fp.result.trace.back().upper) +
            "] misses LP value " + std::to_string(lp_value));

  // Route 4: Hedge's certified bracket must contain the value too.
  const Solved<sim::HedgeResult> hedge =
      sim::hedge_dynamics(game, 400,
                          {.budget = SolveBudget::iterations(400),
                           .tolerance = 1e-7,
                           .obs = g_obs});
  check(hedge.result.trace.back().lower <= lp_value + kValueTolerance &&
            hedge.result.trace.back().upper >= lp_value - kValueTolerance,
        tag + ": Hedge bracket misses LP value " + std::to_string(lp_value));

  // Route 5: the Lemma 4.1 combinatorial value, when a k-matching NE
  // exists: P(Hit) = k / |E(D(tp))|.
  if (const auto ne = core::find_k_matching_ne(game)) {
    const double analytic =
        core::analytic_hit_probability(game, ne->k_matching_ne);
    check(std::abs(analytic - lp_value) <= kValueTolerance,
          tag + ": Lemma 4.1 value " + std::to_string(analytic) +
              " vs LP " + std::to_string(lp_value));
  }

  // Graceful degradation: a starved solve must return sound bounds, not
  // throw.
  if (index % 10 == 0) {
    try {
      const Solved<core::DoubleOracleResult> starved =
          core::solve_double_oracle(
              game, {.budget = SolveBudget::iterations(1), .obs = g_obs});
      // kOk after one iteration is legitimate (the seed working set can
      // already be an equilibrium) but then the value must be exact.
      if (starved.ok())
        check(std::abs(starved.result.value - lp_value) <= kValueTolerance,
              tag + ": 1-iteration kOk value " +
                  std::to_string(starved.result.value) + " vs LP " +
                  std::to_string(lp_value));
      check(starved.result.lower_bound <= lp_value + kValueTolerance &&
                starved.result.upper_bound >= lp_value - kValueTolerance,
            tag + ": starved bracket [" +
                std::to_string(starved.result.lower_bound) + ", " +
                std::to_string(starved.result.upper_bound) +
                "] misses LP value " + std::to_string(lp_value));
    } catch (const std::exception& e) {
      fail(tag + ": starved solve threw: " + e.what());
    }
  }
}

/// One chaos instance: a random board solved under a deterministic fault
/// schedule. The soundness bar is checked against the fault-free exact LP
/// value (independent re-evaluation): no crash, every bracket contains the
/// true value, every status truthful. On failure the instance's fault plan
/// is printed (and optionally dumped) so the exact schedule can be
/// replayed from its text alone.
void chaos_instance(util::Rng& rng, std::size_t index, double fault_rate,
                    std::uint64_t fault_seed,
                    const std::string& plan_dir) {
  const graph::Graph g = random_board(rng);
  const std::size_t nu = static_cast<std::size_t>(rng.range(1, 3));
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 4)),
                            g.num_edges());
  const core::TupleGame game(g, pick_k(g, want, nu), nu);
  const std::string tag = "chaos instance " + std::to_string(index) +
                          " (n=" + std::to_string(g.num_vertices()) +
                          ", m=" + std::to_string(g.num_edges()) +
                          ", k=" + std::to_string(game.k()) + ")";

  // Ground truth, computed fault-free.
  const double lp_value = core::solve_zero_sum(game).value_or_throw().value;

  fault::FaultPlan plan;
  plan.seed = fault_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  plan.set_all(fault_rate);

  // Armed differential: under the same plan (fresh contexts replay the
  // identical per-site schedule), the flat and reference simplex substrates
  // must produce bit-equal brackets even while the lp-* sites fire.
  {
    fault::FaultContext flat_ctx(plan);
    fault::FaultContext ref_ctx(plan);
    check_simplex_differential(game, tag + " [armed]", &flat_ctx, &ref_ctx);
  }

  const int failures_before = failures;
  fault::FaultContext do_ctx(plan);
  try {
    // Double oracle with a wall-clock deadline in the budget, so the
    // kDeadlineStarve site has something to starve.
    SolveBudget budget;
    budget.max_iterations = 400;
    budget.wall_clock_seconds = 60.0;
    core::SolverCheckpoint cp;
    const Solved<core::DoubleOracleResult> solved =
        core::solve_double_oracle(game, {.budget = budget,
                                         .capture = &cp,
                                         .obs = g_obs,
                                         .fault = &do_ctx});
    check(std::isfinite(solved.result.lower_bound) &&
              std::isfinite(solved.result.upper_bound),
          tag + ": non-finite bracket under faults");
    check(solved.result.lower_bound <= lp_value + kValueTolerance &&
              solved.result.upper_bound >= lp_value - kValueTolerance,
          tag + ": faulted DO bracket [" +
              std::to_string(solved.result.lower_bound) + ", " +
              std::to_string(solved.result.upper_bound) +
              "] misses LP value " + std::to_string(lp_value));
    if (solved.ok())
      check(std::abs(solved.result.value - lp_value) <= 1e-4,
            tag + ": kOk under faults but value " +
                std::to_string(solved.result.value) + " vs LP " +
                std::to_string(lp_value));
    // The captured checkpoint must survive a text round trip and resume
    // cleanly — chaos must not corrupt the serialized state either.
    const auto reparsed = core::try_parse_checkpoint(core::to_text(cp));
    check(reparsed.ok(), tag + ": checkpoint captured under faults does "
                               "not reparse: " + reparsed.status.describe());
    if (reparsed.ok()) {
      const auto resumed = core::solve_double_oracle(
          game, {.budget = SolveBudget::iterations(50),
                 .resume = &reparsed.result});
      check(resumed.status.code != StatusCode::kInvalidInput,
            tag + ": chaos checkpoint rejected on resume: " +
                resumed.status.describe());
      check(resumed.result.lower_bound <= lp_value + kValueTolerance &&
                resumed.result.upper_bound >= lp_value - kValueTolerance,
            tag + ": resumed-after-chaos bracket misses LP value");
    }
  } catch (const std::exception& e) {
    fail(tag + ": double oracle crashed under faults: " + e.what());
  }

  try {
    fault::FaultContext fp_ctx(plan);
    const Solved<sim::FictitiousPlayResult> fp =
        sim::fictitious_play(game, {.budget = SolveBudget::iterations(200),
                                    .tolerance = 1e-7,
                                    .obs = g_obs,
                                    .fault = &fp_ctx});
    check(fp.result.trace.back().lower <= lp_value + kValueTolerance &&
              fp.result.trace.back().upper >= lp_value - kValueTolerance,
          tag + ": faulted FP bracket misses LP value " +
              std::to_string(lp_value));
  } catch (const std::exception& e) {
    fail(tag + ": fictitious play crashed under faults: " + e.what());
  }

  try {
    fault::FaultContext hg_ctx(plan);
    const Solved<sim::HedgeResult> hedge = sim::hedge_dynamics(
        game, 200,
        {.budget = SolveBudget::iterations(200),
         .tolerance = 1e-7,
         .obs = g_obs,
         .fault = &hg_ctx});
    check(hedge.result.trace.back().lower <= lp_value + kValueTolerance &&
              hedge.result.trace.back().upper >= lp_value - kValueTolerance,
          tag + ": faulted Hedge bracket misses LP value " +
              std::to_string(lp_value));
  } catch (const std::exception& e) {
    fail(tag + ": Hedge crashed under faults: " + e.what());
  }

  if (failures > failures_before) {
    std::fprintf(stderr, "replayable fault plan for %s:\n%s(%s)\n",
                 tag.c_str(), plan.to_text().c_str(),
                 do_ctx.summary().c_str());
    if (!plan_dir.empty()) {
      const std::string path =
          plan_dir + "/fault-plan-" + std::to_string(index) + ".txt";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        const std::string text = plan.to_text();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
}

/// Applies one random mutation to `text` in place.
void mutate(std::string& text, util::Rng& rng) {
  static const char* kHostile[] = {"-1",  "4294967295", "999999999999999",
                                   "1e9", "NaN",        "--",
                                   "\x00", "2147483648"};
  if (text.empty()) {
    text = kHostile[rng.range(0, 7)];
    return;
  }
  switch (rng.range(0, 4)) {
    case 0:  // byte flip
      text[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(text.size()) - 1))] =
          static_cast<char>(rng.range(32, 126));
      break;
    case 1:  // truncate
      text.resize(static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(text.size()) - 1)));
      break;
    case 2: {  // inject a hostile token at a random position
      const std::size_t pos = static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(text.size())));
      text.insert(pos, kHostile[rng.range(0, 7)]);
      break;
    }
    case 3:  // duplicate a slice
      text += text.substr(text.size() / 2);
      break;
    default:  // whitespace churn
      text.insert(static_cast<std::size_t>(
                      rng.range(0, static_cast<std::int64_t>(text.size()))),
                  " \t\n");
      break;
  }
  if (text.size() > kMaxFuzzBytes) text.resize(kMaxFuzzBytes);
}

/// One hardened text format under fuzz: parses an input and, when the
/// parser accepts it, returns its re-serialization.
struct FuzzFormat {
  const char* name;
  std::function<std::optional<std::string>(const std::string&)> rewrite;
};

template <typename T, typename Write>
std::optional<std::string> rewrite_if_ok(const Solved<T>& parsed,
                                         Write write) {
  if (!parsed.ok()) return std::nullopt;
  return write(parsed.result);
}

std::vector<FuzzFormat> fuzz_formats(const core::TupleGame& config_game) {
  const auto frame_text = [](const auto& f) { return supervise::to_text(f); };
  return {
      {"edge list",
       [](const std::string& in) {
         return rewrite_if_ok(graph::try_parse_edge_list(in),
                              graph::to_edge_list);
       }},
      {"configuration",
       [&config_game](const std::string& in) {
         return rewrite_if_ok(core::try_from_text(config_game, in),
                              [&](const core::MixedConfiguration& c) {
                                return core::to_text(config_game, c);
                              });
       }},
      {"cache store",
       [](const std::string& in) -> std::optional<std::string> {
         cache::SolveCache cache;
         if (!cache.merge_text(in).ok()) return std::nullopt;
         return cache.to_text();
       }},
      {"checkpoint",
       [](const std::string& in) {
         return rewrite_if_ok(core::try_parse_checkpoint(in),
                              [](const core::SolverCheckpoint& cp) {
                                return core::to_text(cp);
                              });
       }},
      {"fault plan",
       [](const std::string& in) {
         return rewrite_if_ok(fault::FaultPlan::try_parse(in),
                              [](const fault::FaultPlan& plan) {
                                return plan.to_text();
                              });
       }},
      {"drain manifest",
       [](const std::string& in) {
         return rewrite_if_ok(serve::try_parse_drain_manifest(in),
                              [](const serve::DrainManifest& m) {
                                return serve::to_text(m);
                              });
       }},
      {"supervise-job",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_job_frame(in), frame_text);
       }},
      {"supervise-result",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_result_frame(in),
                              frame_text);
       }},
      {"supervise-heartbeat",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_heartbeat_frame(in),
                              frame_text);
       }},
      {"supervise-checkpoint",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_checkpoint_frame(in),
                              frame_text);
       }},
      {"supervise-cancel",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_cancel_frame(in),
                              frame_text);
       }},
      {"supervise-hello",
       [frame_text](const std::string& in) {
         return rewrite_if_ok(supervise::try_parse_hello_frame(in),
                              frame_text);
       }},
  };
}

/// The committed byte goldens of every record format (tests/data).
std::vector<std::string> golden_documents() {
  std::vector<std::string> docs;
  for (const char* name :
       {"checkpoint_v1", "cache_v1", "drain_v1", "configuration_v1",
        "fault_plan_v1", "supervise_job_v1", "supervise_result_v1",
        "supervise_heartbeat_v1", "supervise_checkpoint_v1",
        "supervise_cancel_v1", "supervise_hello_v1"}) {
    const std::string path =
        std::string(DEFENDER_TEST_DATA_DIR) + "/" + name + ".golden.txt";
    std::ifstream in(path, std::ios::binary);
    if (!in) fail("fuzz seed missing: " + path);
    docs.emplace_back(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  return docs;
}

void fuzz_parsers(util::Rng& rng, std::size_t iterations) {
  // Seed corpus: edge lists plus the golden document of every other
  // format. Every mutated input goes through every parser.
  const core::TupleGame config_game(graph::cycle_graph(6), 2, 3);
  std::vector<std::string> corpus = golden_documents();
  corpus.push_back(graph::to_edge_list(graph::petersen_graph()));
  corpus.push_back(graph::to_edge_list(graph::grid_graph(2, 3)));
  corpus.push_back("3 2\n0 1\n1 2\n");
  const std::vector<FuzzFormat> formats = fuzz_formats(config_game);

  for (std::size_t i = 0; i < iterations; ++i) {
    std::string input = corpus[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int mutations = static_cast<int>(rng.range(1, 4));
    for (int j = 0; j < mutations; ++j) mutate(input, rng);

    // Never a throw; whatever a parser accepts must re-serialize to a
    // fixed point: text that parses back and writes the same bytes.
    for (const FuzzFormat& format : formats) {
      try {
        const std::optional<std::string> text = format.rewrite(input);
        if (!text.has_value()) continue;
        const std::optional<std::string> again = format.rewrite(*text);
        if (!again.has_value() || *again != *text)
          fail("fuzz iter " + std::to_string(i) + ": accepted " +
               format.name + " input failed to round-trip");
      } catch (const std::exception& e) {
        fail("fuzz iter " + std::to_string(i) + ": " + format.name +
             " parser threw: " + e.what());
      }
    }
    // The legacy throwing parsers may throw ContractViolation, nothing else.
    try {
      (void)graph::parse_edge_list(input);
    } catch (const ContractViolation&) {
    } catch (const std::exception& e) {
      fail("fuzz iter " + std::to_string(i) +
           ": parse_edge_list threw non-contract exception: " + e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// Serve fuzz: hostile request lines and drain manifests through the
// hardened serve parsers (docs/SERVE.md). Any outcome but a crash or an
// exception is acceptable; whatever the manifest parser ACCEPTS must be a
// to_text/parse fixed point, and any accepted solve request must build
// (or cleanly reject) through to_job.

/// A valid drain manifest (one plain job, one double-drained job) as a
/// mutation seed, so the fuzzer spends its budget inside the grammar
/// instead of bouncing off the version header.
std::string serve_manifest_seed() {
  serve::DrainManifest manifest;
  serve::DrainedJob job;
  job.client = "fuzz";
  job.request_id = "seed-0";
  job.job_index = 0;
  job.spec.type = serve::RequestType::kSolve;
  job.spec.client = "fuzz";
  job.spec.id = "seed-0";
  job.spec.solver = engine::JobSolver::kDoubleOracle;
  job.spec.n = 4;
  job.spec.k = 2;
  job.spec.attackers = 1;
  job.spec.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  job.spec.max_iterations = 60;
  manifest.jobs.push_back(job);
  job.request_id = "seed-1";
  job.job_index = 1;
  job.spec.id = "seed-1";
  job.spec.solver = engine::JobSolver::kWeightedFictitiousPlay;
  job.spec.weights = {1.0, 2.0, 1.0, 1.5};
  manifest.jobs.push_back(job);
  return serve::to_text(manifest);
}

void serve_fuzz(util::Rng& rng, std::size_t iterations) {
  const std::vector<std::string> corpus = {
      "{\"type\":\"solve\",\"id\":\"a\",\"client\":\"c\",\"solver\":"
      "\"double-oracle\",\"n\":6,\"k\":2,\"attackers\":1,\"edges\":"
      "[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]],\"iters\":200}",
      "{\"type\":\"solve\",\"id\":\"w\",\"client\":\"c\",\"solver\":"
      "\"weighted-fictitious-play\",\"n\":3,\"k\":1,\"attackers\":1,"
      "\"edges\":[[0,1],[1,2],[2,0]],\"weights\":[1.0,2.5,0.5],"
      "\"tolerance\":1e-6,\"iters\":1000,\"wall_seconds\":0.5}",
      "{\"type\":\"cancel\",\"id\":\"x\",\"client\":\"c\",\"cancel\":\"a\"}",
      "{\"type\":\"ping\",\"id\":\"p\",\"client\":\"c\"}",
      "{\"type\":\"metrics\",\"id\":\"m\",\"client\":\"c\"}",
      "{\"type\":\"shutdown\",\"id\":\"s\",\"client\":\"c\"}",
      serve_manifest_seed(),
  };
  // Serve-grammar tokens worth splicing into random positions: header
  // words the manifest parser keys on, JSON structure, and boundary
  // numerals for the count fields.
  static const char* kServeHostile[] = {
      "job 0 c id",     "spec double-oracle 4 2 1 1e-9 60 0 0",
      "edges 4 0 1",    "weights 2 1.0 2.0",
      "checkpoint 1",   "defender-drain v1",
      "end",            "\"type\":\"solve\"",
      "[[0,1]",         "1e309",
      "-1",             "18446744073709551616",
  };

  for (std::size_t i = 0; i < iterations; ++i) {
    std::string input = corpus[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int mutations = static_cast<int>(rng.range(1, 4));
    for (int j = 0; j < mutations; ++j) {
      if (rng.range(0, 3) == 0 && !input.empty()) {
        const std::size_t pos = static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(input.size())));
        input.insert(pos, kServeHostile[rng.range(0, 11)]);
        if (input.size() > kMaxFuzzBytes) input.resize(kMaxFuzzBytes);
      } else {
        mutate(input, rng);
      }
    }

    try {
      (void)serve::parse_json(input);
    } catch (const std::exception& e) {
      fail("serve fuzz iter " + std::to_string(i) +
           ": parse_json threw: " + e.what());
    }
    try {
      const Solved<serve::Request> parsed = serve::try_parse_request(input);
      if (parsed.ok() && parsed.result.type == serve::RequestType::kSolve) {
        std::optional<engine::SolveJob> built;
        (void)serve::to_job(parsed.result, &built);
      }
    } catch (const std::exception& e) {
      fail("serve fuzz iter " + std::to_string(i) +
           ": try_parse_request threw: " + e.what());
    }
    try {
      const Solved<serve::DrainManifest> parsed =
          serve::try_parse_drain_manifest(input);
      if (parsed.ok()) {
        const std::string text = serve::to_text(parsed.result);
        const Solved<serve::DrainManifest> again =
            serve::try_parse_drain_manifest(text);
        if (!again.ok() || serve::to_text(again.result) != text)
          fail("serve fuzz iter " + std::to_string(i) +
               ": accepted manifest is not a to_text/parse fixed point");
      }
    } catch (const std::exception& e) {
      fail("serve fuzz iter " + std::to_string(i) +
           ": try_parse_drain_manifest threw: " + e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// Serve soak: a SolveService under sustained multi-client overload.
//
// Three clients (one carrying fair-queue weight 3) hammer submits against
// a deliberately small queue for the soak duration. The acceptance bar:
// every rejection is a truthful kOverloaded with a positive retry hint,
// every admitted job is delivered exactly once (or swept into the final
// drain manifest), the weighted client's delivered share reflects its
// weight, and every serve gauge reads zero after the drain. On failure
// the metrics registry and per-client tallies are dumped to
// --serve-report as a JSONL artifact.

struct SoakClientTally {
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> rejected_overload{0};
  std::atomic<std::size_t> delivered{0};
};

void serve_soak(double seconds, const std::string& report_path) {
  obs::MetricsRegistry metrics;
  serve::ServiceConfig config;
  config.workers = 4;
  config.queue_high_watermark = 16;
  config.queue_low_watermark = 8;
  config.max_inflight_per_client = 8;
  config.client_weights["heavy"] = 3.0;
  config.engine.retry = engine::RetryPolicy::none();
  config.engine.metrics = &metrics;
  serve::SolveService service(config);

  const char* kClients[] = {"heavy", "light", "burst"};
  std::map<std::string, SoakClientTally> tallies;
  for (const char* c : kClients) tallies[c];
  std::mutex delivered_mu;
  std::set<std::string> delivered_keys;
  std::atomic<std::size_t> double_deliveries{0};

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::vector<std::thread> submitters;
  for (const char* name : kClients) {
    submitters.emplace_back([&, name] {
      SoakClientTally& tally = tallies[name];
      util::Rng thread_rng(std::hash<std::string>{}(name));
      std::size_t next_id = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        serve::Request req;
        req.type = serve::RequestType::kSolve;
        req.client = name;
        req.id = "soak-" + std::to_string(next_id++);
        // Fictitious play chasing an unreachable tolerance: ~a
        // millisecond per job, so the workers (not the submitters) are
        // the bottleneck and the weighted-fair dequeue governs
        // throughput.
        req.solver = engine::JobSolver::kFictitiousPlay;
        req.n = 6;
        req.k = 2;
        req.attackers = 1;
        for (std::size_t v = 0; v < req.n; ++v)
          req.edges.emplace_back(v, (v + 1) % req.n);
        req.tolerance = 1e-15;
        req.max_iterations =
            static_cast<std::size_t>(5000 + thread_rng.range(0, 5000));
        const std::string key = std::string(name) + "/" + req.id;
        const serve::Admission admission = service.submit(
            req, [&tally, &delivered_mu, &delivered_keys,
                  &double_deliveries, key](const engine::JobResult&) {
              tally.delivered.fetch_add(1);
              std::lock_guard<std::mutex> lock(delivered_mu);
              if (!delivered_keys.insert(key).second)
                double_deliveries.fetch_add(1);
            });
        if (admission.admitted()) {
          tally.admitted.fetch_add(1);
        } else if (admission.code == StatusCode::kOverloaded) {
          tally.rejected_overload.fetch_add(1);
          if (admission.retry_after_ms <= 0)
            fail("serve soak: overload rejection without a retry hint");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else {
          fail("serve soak: unexpected rejection (" +
               std::string(to_string(admission.code)) +
               "): " + admission.message);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const serve::DrainManifest manifest = service.drain(-1);

  std::size_t total_admitted = 0;
  std::size_t total_delivered = 0;
  for (const char* c : kClients) {
    total_admitted += tallies[c].admitted.load();
    total_delivered += tallies[c].delivered.load();
  }
  if (double_deliveries.load() > 0)
    fail("serve soak: " + std::to_string(double_deliveries.load()) +
         " double deliveries");
  if (total_delivered + manifest.jobs.size() != total_admitted)
    fail("serve soak: delivered " + std::to_string(total_delivered) +
         " + manifested " + std::to_string(manifest.jobs.size()) +
         " != admitted " + std::to_string(total_admitted));
  // Weighted fairness, asserted loosely enough to be timing-robust: the
  // weight-3 client must out-deliver each weight-1 client under
  // saturation (exact WFQ ratios are pinned by serve_service_test).
  const std::size_t heavy = tallies["heavy"].delivered.load();
  const std::size_t light = tallies["light"].delivered.load();
  const std::size_t burst = tallies["burst"].delivered.load();
  if (total_admitted > 100 && (heavy <= light || heavy <= burst))
    fail("serve soak: weight-3 client delivered " + std::to_string(heavy) +
         " vs " + std::to_string(light) + "/" + std::to_string(burst));
  for (const char* gauge :
       {"serve.queue_depth", "serve.inflight", "serve.draining",
        "serve.admitting"}) {
    for (const obs::MetricSnapshot& snap : metrics.snapshot())
      if (snap.name == gauge && snap.value != 0)
        fail(std::string("serve soak: gauge ") + gauge +
             " nonzero after drain");
  }

  const bool failed = failures > 0;
  if (!report_path.empty() && failed) {
    if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
      const std::string metrics_json = metrics.to_json();
      std::fprintf(f, "{\"metrics\":%s}\n", metrics_json.c_str());
      for (const char* c : kClients)
        std::fprintf(f,
                     "{\"client\":\"%s\",\"admitted\":%zu,"
                     "\"rejected_overload\":%zu,\"delivered\":%zu}\n",
                     c, tallies[c].admitted.load(),
                     tallies[c].rejected_overload.load(),
                     tallies[c].delivered.load());
      std::fclose(f);
      std::fprintf(stderr, "serve soak artifact -> %s\n",
                   report_path.c_str());
    }
  }
  std::printf(
      "serve soak: %zus, admitted %zu (heavy %zu / light %zu / burst %zu "
      "delivered), %zu manifested\n",
      static_cast<std::size_t>(seconds), total_admitted, heavy, light,
      burst, manifest.jobs.size());
}

// ---------------------------------------------------------------------------
// Engine chaos: batch isolation under concurrency + deterministic faults.

/// Builds the fixed 200-job engine batch: random boards, all six solver
/// kinds, every third job running under an armed per-job fault plan.
/// Budgets are iteration-only — a faulted job can skew the shared
/// obs::Clock, which must never leak into a neighbour's result.
std::vector<engine::SolveJob> build_engine_batch(std::uint64_t seed,
                                                 std::uint64_t fault_seed) {
  util::Rng rng(seed ^ 0xE21u);
  std::vector<engine::SolveJob> jobs;
  constexpr std::size_t kJobs = 200;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const graph::Graph g = random_board(rng);
    const std::size_t nu = static_cast<std::size_t>(rng.range(1, 3));
    const std::size_t want =
        std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 4)),
                              g.num_edges());
    engine::SolveJob job(core::TupleGame(g, pick_k(g, want, nu), nu));
    job.solver = engine::kAllJobSolvers[i % engine::kJobSolverCount];
    job.budget = SolveBudget::iterations(60);
    job.tolerance = (job.solver == engine::JobSolver::kFictitiousPlay ||
                     job.solver == engine::JobSolver::kWeightedFictitiousPlay ||
                     job.solver == engine::JobSolver::kHedge)
                        ? 1e-2
                        : 1e-9;
    if (engine::is_weighted(job.solver)) {
      const std::size_t n = job.game.graph().num_vertices();
      for (std::size_t v = 0; v < n; ++v)
        job.weights.push_back(1.0 + 0.125 * static_cast<double>(v % 8));
    }
    if (i % 3 == 0) {
      job.fault_plan.seed = engine::derive_job_seed(fault_seed, i);
      job.fault_plan.set_all(0.2);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void engine_chaos(std::size_t workers, std::uint64_t seed,
                  std::uint64_t fault_seed, const std::string& report_path,
                  bool with_cache) {
  const std::vector<engine::SolveJob> jobs =
      build_engine_batch(seed, fault_seed);
  engine::EngineConfig config;
  config.workers = workers;

  // --engine-cache: a cache-less canonicalized pass is the bit-for-bit
  // reference the cached pass must reproduce exactly.
  cache::SolveCache cache;
  std::optional<engine::BatchReport> reference;
  if (with_cache) {
    engine::EngineConfig ref_config;
    ref_config.workers = workers;
    ref_config.canonicalize = true;
    reference.emplace(engine::SolveEngine(ref_config).run(jobs));
    config.cache = &cache;
  }

  engine::SolveEngine eng(config);
  const engine::BatchReport report = eng.run(jobs);
  check(report.results.size() == jobs.size(), "engine: result count");

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const engine::JobResult& r = report.results[i];
    const std::string tag = "engine job " + std::to_string(i);
    check(r.job_index == i, tag + ": index");
    check(r.lower_bound <= r.upper_bound + 1e-12, tag + ": bracket sane");
    check(r.value >= r.lower_bound - 1e-12 &&
              r.value <= r.upper_bound + 1e-12,
          tag + ": value inside bracket");
    if (r.status.code == StatusCode::kOk)
      check(r.upper_bound - r.lower_bound <= 1e-6 + jobs[i].tolerance,
            tag + ": kOk must mean a closed bracket");

    // Isolation: every job WITHOUT an armed plan must come out bit-equal
    // to a serial solve of the same job, no matter what its pool
    // neighbours injected.
    if (jobs[i].fault_plan.armed()) continue;
    const engine::JobResult serial = eng.run_serial(jobs[i], i);
    check(r.status.code == serial.status.code, tag + ": status drifted");
    check(r.status.message == serial.status.message, tag + ": message drifted");
    check(r.status.iterations == serial.status.iterations,
          tag + ": iteration count drifted");
    check(r.value == serial.value, tag + ": value drifted");
    check(r.lower_bound == serial.lower_bound, tag + ": lower drifted");
    check(r.upper_bound == serial.upper_bound, tag + ": upper drifted");
    check(r.attempts.size() == serial.attempts.size(),
          tag + ": attempt history drifted");
    check(r.faults_injected == 0, tag + ": faults on an unarmed job");
  }

  if (with_cache) {
    // 1. The cache must be invisible in results: every job bit-identical
    //    to the cache-less canonicalized reference pass.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const engine::JobResult& r = report.results[i];
      const engine::JobResult& ref = reference->results[i];
      const std::string tag = "engine-cache job " + std::to_string(i);
      check(r.status.code == ref.status.code, tag + ": status drifted");
      check(r.status.message == ref.status.message, tag + ": message drifted");
      check(r.status.iterations == ref.status.iterations,
            tag + ": iterations drifted");
      check(r.value == ref.value, tag + ": value drifted");
      check(r.lower_bound == ref.lower_bound, tag + ": lower drifted");
      check(r.upper_bound == ref.upper_bound, tag + ": upper drifted");
      check(r.faults_injected == ref.faults_injected,
            tag + ": fault count drifted");
    }

    // 2. Faulted jobs must never populate the cache: any key present in
    //    the cache must be owned by a clean unfaulted job.
    std::unordered_set<std::string> clean_keys;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const engine::JobResult& r = report.results[i];
      if (!jobs[i].fault_plan.armed() && r.ok() && r.attempts.size() == 1 &&
          !r.fallback_used)
        clean_keys.insert(engine::canonical_key_for_job(jobs[i]).key.text());
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].fault_plan.armed()) continue;
      const engine::CanonicalJobKey key =
          engine::canonical_key_for_job(jobs[i]);
      if (cache.lookup(key.key).has_value())
        check(clean_keys.count(key.key.text()) > 0,
              "engine-cache job " + std::to_string(i) +
                  ": armed-fault job's key in cache with no clean owner");
    }
    const cache::CacheStats stats = cache.stats();
    std::printf(
        "engine-cache: %zu entries (%llu hits, %llu misses, %llu stores)\n",
        cache.size(), static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.stores));
  }

  if (failures > 0 && !report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    out << report.to_jsonl();
    std::fprintf(stderr, "engine: wrote JobReport JSONL to %s\n",
                 report_path.c_str());
  }
  std::printf(
      "engine: %zu jobs through %zu workers (%zu ok, %zu degraded, %zu "
      "faulted)\n",
      report.results.size(), workers, report.completed, report.degraded,
      report.faulted_jobs);
}

// --------------------------------------------------------------------------
// io chaos (--io-chaos): crash-durability sweep over the three artifact
// save paths (docs/DURABILITY.md).
//
// Two campaigns per artifact (checkpoint, cache store, drain manifest):
//
//  1. Kill sweep: publish gen1 cleanly, then attempt gen2 with a
//     simulated SIGKILL at EVERY byte offset of the wrapped image, plus
//     the three rename-window stages. After every kill the consumer-level
//     reload must yield gen1 or gen2 bit-for-bit (canonical to_text
//     compare), reload again identically (recovery converges), and accept
//     a fresh clean save afterwards (debris never bricks the store).
//
//  2. Armed io-* plans: a deterministic FaultPlan arming io-short-write /
//     io-enospc / io-rename-fail / io-bit-flip over dozens of alternating
//     saves through ONE fault context, reloading after every attempt.
//     Invariant: the reload is either the attempted generation or the
//     last durably-loaded one — never a third artifact, never garbage.
//
// The cache store additionally gets a torn-tail salvage sweep: a torn
// record image planted as the only generation must reload as a byte-exact
// record PREFIX of the attempted store (or fail truthfully) at every cut.

/// One artifact family under io chaos, reduced to what the sweep needs:
/// save/load through the REAL consumer entry points, canonical texts for
/// the bit-for-bit compare, and the wrapped on-disk image (for offsets).
struct IoChaosArtifact {
  std::string name;
  std::string gen1;  ///< canonical to_text of generation 1
  std::string gen2;  ///< canonical to_text of generation 2
  std::string wrapped_gen2;  ///< full on-disk image of gen2
  /// Serializes the generation with canonical text `text` to `path`.
  std::function<Status(const std::string& path, const std::string& text,
                       const io::AtomicWriteOptions&)>
      save;
  /// Loads `path` through the consumer loader, returns canonical text.
  std::function<Solved<std::string>(const std::string& path)> load;
};

core::SolverCheckpoint io_chaos_checkpoint(std::size_t iteration) {
  const std::string text =
      "defender-checkpoint v1\n"
      "solver hedge\n"
      "game 5 6 2\n"
      "progress " +
      std::to_string(iteration) +
      " 100 16 1\n"
      "bracket 0.25 0.5\n"
      "tuples 2\n"
      "tuple 2 0 1\n"
      "tuple 2 2 3\n"
      "vertices 2 0 4\n"
      "attacker 3 0.125 -1.5 2\n"
      "defender 2 0.5 0.75\n"
      "average 2 1 0\n"
      "end\n";
  const Solved<core::SolverCheckpoint> parsed =
      core::try_parse_checkpoint(text);
  if (!parsed.ok()) fail("io chaos: checkpoint seed rejected");
  return parsed.result;
}

/// Fills `store` with `entries` deterministic cache entries.
void io_chaos_fill_cache(cache::SolveCache& store, std::size_t entries) {
  for (std::size_t i = 0; i < entries; ++i) {
    cache::CachedSolve e;
    e.n = 4 + i;
    e.k = 2;
    e.num_attackers = 1;
    e.solver = "double-oracle";
    e.tolerance = 1e-9;
    e.max_iterations = 60 + i;
    e.edges = {{0, 1}, {1, 2}, {2, 3}};
    e.message = "converged";
    e.iterations = 5 + i;
    e.value = e.lower = e.upper = 0.25 + 0.0625 * static_cast<double>(i);
    e.attempt_value = e.attempt_lower = e.attempt_upper = e.value;
    store.store(cache::key_from_entry(e), e);
  }
}

serve::DrainManifest io_chaos_manifest(std::size_t jobs) {
  serve::DrainManifest manifest;
  for (std::size_t i = 0; i < jobs; ++i) {
    serve::DrainedJob job;
    job.client = "iochaos";
    job.request_id = "job-" + std::to_string(i);
    job.job_index = i;
    job.spec.type = serve::RequestType::kSolve;
    job.spec.client = job.client;
    job.spec.id = job.request_id;
    job.spec.solver = engine::JobSolver::kDoubleOracle;
    job.spec.n = 4 + i;
    job.spec.k = 2;
    job.spec.attackers = 1;
    job.spec.edges = {{0, 1}, {1, 2}, {2, 3}};
    job.spec.max_iterations = 60;
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

/// The three artifact families, each bound to its real save/load pair.
std::vector<IoChaosArtifact> io_chaos_artifacts() {
  std::vector<IoChaosArtifact> out;

  {
    IoChaosArtifact a;
    a.name = "checkpoint";
    a.gen1 = core::to_text(io_chaos_checkpoint(7));
    a.gen2 = core::to_text(io_chaos_checkpoint(8));
    a.wrapped_gen2 =
        io::wrap_artifact(core::kCheckpointArtifactFormat, a.gen2);
    a.save = [](const std::string& path, const std::string& text,
                const io::AtomicWriteOptions& opts) {
      const Solved<core::SolverCheckpoint> parsed =
          core::try_parse_checkpoint(text);
      if (!parsed.ok()) return parsed.status;
      return core::save_checkpoint_file(path, parsed.result, opts);
    };
    a.load = [](const std::string& path) {
      Solved<std::string> out_text;
      const Solved<core::SolverCheckpoint> got =
          core::load_checkpoint_file(path);
      if (!got.ok()) {
        out_text.status = got.status;
        return out_text;
      }
      out_text.result = core::to_text(got.result);
      return out_text;
    };
    out.push_back(std::move(a));
  }

  {
    IoChaosArtifact a;
    a.name = "cache";
    cache::SolveCache gen1, gen2;
    io_chaos_fill_cache(gen1, 1);
    io_chaos_fill_cache(gen2, 3);
    a.gen1 = gen1.to_text();
    a.gen2 = gen2.to_text();
    a.wrapped_gen2 = io::wrap_record_artifact(cache::kCacheArtifactFormat,
                                              gen2.to_record_texts());
    a.save = [](const std::string& path, const std::string& text,
                const io::AtomicWriteOptions& opts) {
      cache::SolveCache store;
      const Status merged = store.merge_text(text);
      if (!merged.ok()) return merged;
      return cache::save_cache_file(path, store, opts);
    };
    a.load = [](const std::string& path) {
      Solved<std::string> out_text;
      cache::SolveCache store;
      const Status s = cache::load_cache_file(path, &store);
      if (!s.ok()) {
        out_text.status = s;
        return out_text;
      }
      out_text.result = store.to_text();
      return out_text;
    };
    out.push_back(std::move(a));
  }

  {
    IoChaosArtifact a;
    a.name = "drain";
    a.gen1 = serve::to_text(io_chaos_manifest(1));
    a.gen2 = serve::to_text(io_chaos_manifest(2));
    a.wrapped_gen2 = io::wrap_artifact(serve::kDrainArtifactFormat, a.gen2);
    a.save = [](const std::string& path, const std::string& text,
                const io::AtomicWriteOptions& opts) {
      const Solved<serve::DrainManifest> parsed =
          serve::try_parse_drain_manifest(text);
      if (!parsed.ok()) return parsed.status;
      return serve::save_drain_manifest_file(path, parsed.result, opts);
    };
    a.load = [](const std::string& path) {
      Solved<std::string> out_text;
      const Solved<serve::DrainManifest> got =
          serve::load_drain_manifest_file(path);
      if (!got.ok()) {
        out_text.status = got.status;
        return out_text;
      }
      out_text.result = serve::to_text(got.result);
      return out_text;
    };
    out.push_back(std::move(a));
  }

  return out;
}

/// Clears every generation/debris name of `path`.
void io_chaos_reset(const std::string& path) {
  io::remove_file(path);
  io::remove_file(io::temp_path(path));
  io::remove_file(io::backup_path(path));
  io::remove_file(io::quarantine_path(path));
}

/// Reload after a kill/fault. The result must be EXACTLY one of the two
/// generations; a second reload must agree (recovery converges); and a
/// clean save must still work afterwards (debris never bricks the path).
void io_chaos_check_reload(const IoChaosArtifact& a, const std::string& path,
                           const std::string& what) {
  const Solved<std::string> first = a.load(path);
  if (!first.ok()) {
    fail("io chaos [" + a.name + "] " + what +
         ": reload failed: " + first.status.message);
    return;
  }
  if (first.result != a.gen1 && first.result != a.gen2) {
    fail("io chaos [" + a.name + "] " + what +
         ": reload is neither generation (" +
         std::to_string(first.result.size()) + " bytes)");
    return;
  }
  const Solved<std::string> second = a.load(path);
  if (!second.ok() || second.result != first.result) {
    fail("io chaos [" + a.name + "] " + what +
         ": second reload diverged from the first");
    return;
  }
  io::AtomicWriteOptions clean;
  clean.fsync = false;
  const Status resaved = a.save(path, a.gen2, clean);
  if (!resaved.ok()) {
    fail("io chaos [" + a.name + "] " + what +
         ": clean save after recovery failed: " + resaved.message);
    return;
  }
  const Solved<std::string> after = a.load(path);
  if (!after.ok() || after.result != a.gen2)
    fail("io chaos [" + a.name + "] " + what +
         ": store did not accept a clean save after recovery");
}

/// Campaign 1: gen1 durable, then a simulated kill at every byte offset
/// of gen2's publish, plus the three rename-window stages.
void io_chaos_kill_sweep(const IoChaosArtifact& a, const std::string& dir) {
  const std::string path = dir + "/" + a.name + ".artifact";
  std::size_t kills = 0;
  for (std::size_t cut = 0; cut <= a.wrapped_gen2.size(); ++cut) {
    io_chaos_reset(path);
    io::AtomicWriteOptions clean;
    clean.fsync = false;
    Status s = a.save(path, a.gen1, clean);
    if (!s.ok()) {
      fail("io chaos [" + a.name + "]: clean gen1 save failed: " + s.message);
      return;
    }
    io::AtomicWriteOptions kill = clean;
    kill.crash_point = io::CrashPoint::kDuringTempWrite;
    kill.crash_byte = cut;
    s = a.save(path, a.gen2, kill);
    if (s.ok()) {
      fail("io chaos [" + a.name + "]: kill at byte " + std::to_string(cut) +
           " reported success");
      return;
    }
    ++kills;
    io_chaos_check_reload(a, path, "kill at byte " + std::to_string(cut));
    if (failures > 0) return;  // first broken offset names itself; stop
  }
  for (const io::CrashPoint stage :
       {io::CrashPoint::kAfterTempWrite, io::CrashPoint::kAfterBackupRename,
        io::CrashPoint::kAfterFinalRename}) {
    io_chaos_reset(path);
    io::AtomicWriteOptions clean;
    clean.fsync = false;
    if (!a.save(path, a.gen1, clean).ok()) {
      fail("io chaos [" + a.name + "]: clean gen1 save failed");
      return;
    }
    io::AtomicWriteOptions kill = clean;
    kill.crash_point = stage;
    if (a.save(path, a.gen2, kill).ok()) {
      fail("io chaos [" + a.name + "]: stage kill reported success");
      return;
    }
    ++kills;
    io_chaos_check_reload(
        a, path,
        "stage kill " + std::to_string(static_cast<int>(stage)));
    if (failures > 0) return;
  }
  std::printf("io chaos [%s]: %zu kills survived (image %zu bytes)\n",
              a.name.c_str(), kills, a.wrapped_gen2.size());
}

/// Campaign 2: alternating saves under an armed io-* fault plan, one
/// context across the whole run, reload after every attempt. The reload
/// must equal the attempted generation or the last durably-loaded one.
void io_chaos_fault_plan(const IoChaosArtifact& a, const std::string& dir,
                         std::uint64_t fault_seed) {
  const std::string path = dir + "/" + a.name + ".faulted";
  constexpr std::size_t kSeeds = 5;
  constexpr std::size_t kSavesPerSeed = 40;
  std::uint64_t injected_total = 0;
  std::size_t clean_saves = 0;
  for (std::size_t s = 0; s < kSeeds; ++s) {
    io_chaos_reset(path);
    io::AtomicWriteOptions clean;
    clean.fsync = false;
    if (!a.save(path, a.gen1, clean).ok()) {
      fail("io chaos [" + a.name + "]: base save failed");
      return;
    }
    std::string last_durable = a.gen1;

    fault::FaultPlan plan;
    plan.seed = fault_seed + s;
    plan.rate_of(fault::FaultSite::kIoShortWrite) = 0.2;
    plan.rate_of(fault::FaultSite::kIoEnospc) = 0.1;
    plan.rate_of(fault::FaultSite::kIoRenameFail) = 0.2;
    plan.rate_of(fault::FaultSite::kIoBitFlip) = 0.15;
    fault::FaultContext ctx(plan);

    for (std::size_t i = 0; i < kSavesPerSeed; ++i) {
      const std::string& attempted = (i % 2 == 0) ? a.gen2 : a.gen1;
      io::AtomicWriteOptions faulted;
      faulted.fsync = false;
      faulted.fault = &ctx;
      const std::uint64_t flips_before =
          ctx.injected(fault::FaultSite::kIoBitFlip);
      const Status saved = a.save(path, attempted, faulted);
      if (saved.ok()) ++clean_saves;
      const Solved<std::string> loaded = a.load(path);
      if (!loaded.ok()) {
        fail("io chaos [" + a.name + "] plan seed " + std::to_string(s) +
             " save " + std::to_string(i) +
             ": reload failed: " + loaded.status.message +
             "\n  replay plan:\n" + plan.to_text());
        return;
      }
      if (loaded.result != attempted && loaded.result != last_durable) {
        fail("io chaos [" + a.name + "] plan seed " + std::to_string(s) +
             " save " + std::to_string(i) +
             ": reload is neither the attempted nor the last durable "
             "generation\n  replay plan:\n" +
             plan.to_text());
        return;
      }
      // An acknowledged save MUST be the attempted generation — unless an
      // injected SILENT bit flip corrupted it, in which case the reload
      // legitimately fell back (that is the checksum doing its job).
      if (saved.ok() && loaded.result != attempted &&
          ctx.injected(fault::FaultSite::kIoBitFlip) == flips_before) {
        fail("io chaos [" + a.name + "] plan seed " + std::to_string(s) +
             " save " + std::to_string(i) +
             ": acknowledged save did not survive reload\n  replay plan:\n" +
             plan.to_text());
        return;
      }
      last_durable = loaded.result;
    }
    injected_total += ctx.total_injected();
  }
  std::printf(
      "io chaos [%s]: %zu faulted saves (%zu acknowledged, %llu injections) "
      "never lost a generation\n",
      a.name.c_str(), kSeeds * kSavesPerSeed, clean_saves,
      static_cast<unsigned long long>(injected_total));
}

/// Campaign 3 (cache only): a torn record image as the ONLY generation
/// must salvage a byte-exact record prefix — or fail truthfully — at
/// every cut offset.
void io_chaos_salvage_sweep(const std::string& dir) {
  cache::SolveCache gen2;
  io_chaos_fill_cache(gen2, 3);
  const std::vector<std::string> records = gen2.to_record_texts();
  const std::string wrapped =
      io::wrap_record_artifact(cache::kCacheArtifactFormat, records);
  const std::string path = dir + "/cache.salvage";
  std::size_t salvages = 0, refusals = 0;
  for (std::size_t cut = 0; cut < wrapped.size(); ++cut) {
    io_chaos_reset(path);
    if (!io::write_file_checked(path, wrapped.substr(0, cut)).ok()) {
      fail("io chaos [salvage]: planting torn image failed");
      return;
    }
    cache::SolveCache loaded;
    io::LoadReport report;
    const Status s = cache::load_cache_file(path, &loaded, &report);
    if (!s.ok()) {
      ++refusals;  // nothing salvageable: truthful failure is fine
      continue;
    }
    const std::vector<std::string> got = loaded.to_record_texts();
    if (got.size() > records.size()) {
      fail("io chaos [salvage]: cut " + std::to_string(cut) +
           " salvaged MORE records than were written");
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != records[i]) {
        fail("io chaos [salvage]: cut " + std::to_string(cut) + " record " +
             std::to_string(i) + " is not a byte-exact prefix record");
        return;
      }
    }
    ++salvages;
  }
  std::printf(
      "io chaos [salvage]: %zu cuts -> %zu exact-prefix salvages, %zu "
      "truthful refusals\n",
      wrapped.size(), salvages, refusals);
}

/// Entry point for --io-chaos. `dir` empty = private mkdtemp scratch
/// (removed when everything passes); non-empty = caller-owned directory
/// whose debris CI uploads on failure.
void io_chaos(std::string dir, std::uint64_t fault_seed) {
  bool scratch = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/defender-io-chaos-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      fail("io chaos: cannot create scratch directory");
      return;
    }
    dir = tmpl;
    scratch = true;
  }
  const std::vector<IoChaosArtifact> artifacts = io_chaos_artifacts();
  for (const IoChaosArtifact& a : artifacts) {
    if (failures > 0) break;
    io_chaos_kill_sweep(a, dir);
    if (failures > 0) break;
    io_chaos_fault_plan(a, dir, fault_seed);
  }
  if (failures == 0) io_chaos_salvage_sweep(dir);
  if (failures > 0) {
    std::fprintf(stderr, "io chaos: on-disk debris kept in %s\n",
                 dir.c_str());
    return;
  }
  if (scratch) {
    for (const IoChaosArtifact& a : artifacts) {
      io_chaos_reset(dir + "/" + a.name + ".artifact");
      io_chaos_reset(dir + "/" + a.name + ".faulted");
    }
    io_chaos_reset(dir + "/cache.salvage");
    rmdir(dir.c_str());
  }
}

// --------------------------------------------------------------------------
// Supervise chaos (--supervise-chaos): the subprocess worker pool under
// worker kills landing at arbitrary instants (docs/SUPERVISION.md).
//
// Three phases:
//
//  1. Armed sweep: a mixed batch where jobs carry worker-crash /
//     worker-hang plans. Whether a dispatch dies is a pure function of
//     the plan (FaultContext::scheduled), so the harness computes the
//     expected fate of every job up front: a job whose first
//     max_job_crashes dispatches all die must be quarantined with a
//     truthful kWorkerCrashed; every survivor must come out bit-equal to
//     a serial in-process solve (the in-process engine never evaluates
//     the worker-* sites, so an armed plan is inert there).
//
//  2. External SIGKILL chaos: a clean batch while a killer thread
//     SIGKILLs random live workers mid-flight. max_job_crashes is raised
//     above the kill budget so bad luck cannot quarantine anything: the
//     batch must complete with every result bit-identical to an
//     uninterrupted serial run.
//
//  3. Recovery: the pool climbs back to full strength (restarts are
//     asynchronous under capped backoff, so strength is polled, not
//     asserted synchronously) and a follow-up clean batch is all-ok.

/// Polls for `ok` to become true; worker restarts are eventual.
bool supervise_eventually(const std::function<bool()>& ok,
                          double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return ok();
}

/// True when dispatch `d` of a job under `plan` is scheduled to kill its
/// worker — the SAME pure predicate the worker consults, so the harness
/// and the pool can never disagree about a job's fate.
bool supervise_kill_scheduled(const fault::FaultPlan& plan, std::uint64_t d) {
  return fault::FaultContext::scheduled(plan, fault::FaultSite::kWorkerCrash,
                                        d) ||
         fault::FaultContext::scheduled(plan, fault::FaultSite::kWorkerHang,
                                        d);
}

/// Phase-1 batch: 48 random boards, all six solvers; every fourth job is
/// armed with worker-crash, every eighth with worker-hang, and two
/// explicit rate-1.0 poison jobs are guaranteed quarantine.
std::vector<engine::SolveJob> build_supervise_batch(std::uint64_t seed,
                                                    std::uint64_t fault_seed) {
  util::Rng rng(seed ^ 0x5afe5u);
  std::vector<engine::SolveJob> jobs;
  constexpr std::size_t kJobs = 48;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const graph::Graph g = random_board(rng);
    const std::size_t nu = static_cast<std::size_t>(rng.range(1, 3));
    const std::size_t want =
        std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 4)),
                              g.num_edges());
    engine::SolveJob job(core::TupleGame(g, pick_k(g, want, nu), nu));
    job.solver = engine::kAllJobSolvers[i % engine::kJobSolverCount];
    job.budget = SolveBudget::iterations(60);
    job.tolerance = (job.solver == engine::JobSolver::kFictitiousPlay ||
                     job.solver == engine::JobSolver::kWeightedFictitiousPlay ||
                     job.solver == engine::JobSolver::kHedge)
                        ? 1e-2
                        : 1e-9;
    if (engine::is_weighted(job.solver)) {
      const std::size_t n = job.game.graph().num_vertices();
      for (std::size_t v = 0; v < n; ++v)
        job.weights.push_back(1.0 + 0.125 * static_cast<double>(v % 8));
    }
    job.fault_plan.seed = engine::derive_job_seed(fault_seed, i);
    if (i == 9 || i == 29) {
      job.fault_plan.rate_of(fault::FaultSite::kWorkerCrash) = 1.0;  // poison
    } else if (i % 4 == 0) {
      job.fault_plan.rate_of(fault::FaultSite::kWorkerCrash) = 0.5;
    } else if (i % 8 == 2) {
      job.fault_plan.rate_of(fault::FaultSite::kWorkerHang) = 0.5;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Compares a pool result to its serial truth bit for bit.
void supervise_expect_serial(const engine::JobResult& r,
                             const engine::JobResult& t,
                             const std::string& tag) {
  check(r.status.code == t.status.code, tag + ": status drifted");
  check(r.status.message == t.status.message, tag + ": message drifted");
  check(r.status.iterations == t.status.iterations,
        tag + ": iteration count drifted");
  check(r.value == t.value, tag + ": value drifted");
  check(r.lower_bound == t.lower_bound, tag + ": lower drifted");
  check(r.upper_bound == t.upper_bound, tag + ": upper drifted");
  check(r.iterations == t.iterations, tag + ": solver iterations drifted");
  check(r.attempts.size() == t.attempts.size(),
        tag + ": attempt history drifted");
  check(r.faults_injected == t.faults_injected,
        tag + ": fault count drifted");
}

void supervise_chaos(std::uint64_t seed, std::uint64_t fault_seed,
                     const std::string& report_path) {
  const int failures_before = failures;

  // ---- Phase 1: deterministic armed sweep -------------------------------
  const std::vector<engine::SolveJob> jobs =
      build_supervise_batch(seed, fault_seed);

  engine::EngineConfig serial_config;
  serial_config.workers = 1;
  engine::SolveEngine serial(serial_config);
  const engine::BatchReport truth = serial.run(jobs);

  supervise::PoolConfig config;
  config.workers = 4;
  // Short escalation clocks: worker-hang shields SIGTERM, so every hang
  // costs a full heartbeat timeout + grace before SIGKILL reclaims it.
  config.heartbeat_interval_seconds = 0.02;
  config.heartbeat_timeout_seconds = 0.5;
  config.term_grace_seconds = 0.2;

  std::size_t expected_quarantined = 0;
  std::size_t expected_kills = 0;
  std::vector<bool> expect_quarantine(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool all_die = true;
    for (std::uint64_t d = 0; d < config.max_job_crashes; ++d) {
      if (!supervise_kill_scheduled(jobs[i].fault_plan, d)) {
        all_die = false;
        break;  // this dispatch survives and completes the job
      }
      ++expected_kills;
    }
    expect_quarantine[i] = all_die;
    if (all_die) ++expected_quarantined;
  }

  supervise::SupervisedReport report;
  {
    supervise::WorkerPool pool(config);
    report = pool.run(jobs);
    check(report.batch.results.size() == jobs.size(),
          "supervise: result count");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const engine::JobResult& r = report.batch.results[i];
      const std::string tag = "supervise job " + std::to_string(i);
      check(r.job_index == i, tag + ": index");
      if (expect_quarantine[i]) {
        check(r.status.code == StatusCode::kWorkerCrashed,
              tag + ": poison job not quarantined");
        check(!r.status.message.empty(), tag + ": quarantine needs a story");
        check(r.attempts.empty(), tag + ": fabricated attempt history");
        check(r.lower_bound <= r.value && r.value <= r.upper_bound,
              tag + ": quarantine bracket insane");
      } else {
        // Survivors — including jobs recovered after a scheduled kill —
        // must be bit-identical to the serial in-process engine.
        supervise_expect_serial(r, truth.results[i], tag);
      }
    }
    check(report.quarantined_jobs == expected_quarantined,
          "supervise: quarantine count " +
              std::to_string(report.quarantined_jobs) + " != expected " +
              std::to_string(expected_quarantined));
    // Every scheduled kill is answered with a restart; the last restarts
    // may still be in their backoff windows when run() returns.
    supervise::WorkerPool* pool_ptr = &pool;
    const std::size_t want_kills = expected_kills;
    check(supervise_eventually([pool_ptr, want_kills] {
            return pool_ptr->worker_restarts() == want_kills;
          }),
          "supervise: restarts " + std::to_string(pool.worker_restarts()) +
              " != scheduled kills " + std::to_string(want_kills));
    check(supervise_eventually([pool_ptr] {
            return pool_ptr->worker_pids().size() == 4;
          }),
          "supervise: pool never recovered full strength");
  }
  std::printf(
      "supervise chaos: armed sweep — %zu jobs, %zu scheduled kills, "
      "%zu quarantined (%zu restarts, %zu heartbeat misses)\n",
      jobs.size(), expected_kills, report.quarantined_jobs,
      report.worker_restarts, report.heartbeat_misses);

  // ---- Phase 2: external SIGKILLs at arbitrary instants -----------------
  // Clean long-running jobs; a killer thread SIGKILLs random live workers
  // mid-batch. The kill budget stays far below max_job_crashes, so every
  // job must complete — and bit-identically to an uninterrupted serial
  // run, whether it was re-run from scratch or resumed from a streamed
  // checkpoint.
  std::vector<engine::SolveJob> clean;
  {
    util::Rng rng(seed ^ 0x51660u);
    for (std::size_t i = 0; i < 32; ++i) {
      const graph::Graph g = random_board(rng);
      const std::size_t nu = static_cast<std::size_t>(rng.range(1, 3));
      const std::size_t want =
          std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 4)),
                                g.num_edges());
      engine::SolveJob job(core::TupleGame(g, pick_k(g, want, nu), nu));
      job.solver = (i % 2 == 0) ? engine::JobSolver::kFictitiousPlay
                                : engine::JobSolver::kHedge;
      job.budget = SolveBudget::iterations(40'000);
      job.tolerance = 0.0;  // run the full budget: kills land mid-solve
      clean.push_back(std::move(job));
    }
  }
  const engine::BatchReport clean_truth = serial.run(clean);

  supervise::PoolConfig chaos_config;
  chaos_config.workers = 4;
  chaos_config.max_job_crashes = 1'000;  // external kills never quarantine
  chaos_config.stream_interval_seconds = 0.05;  // exercise resume paths
  std::size_t kills_delivered = 0;
  {
    supervise::WorkerPool pool(chaos_config);
    std::atomic<bool> batch_done{false};
    util::Rng kill_rng(seed ^ 0xdeadu);
    std::thread killer([&] {
      constexpr std::size_t kKillBudget = 12;
      while (!batch_done.load() && kills_delivered < kKillBudget) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(kill_rng.range(20, 60))));
        const std::vector<pid_t> pids = pool.worker_pids();
        if (pids.empty()) continue;
        const pid_t victim = pids[static_cast<std::size_t>(
            kill_rng.range(0, static_cast<long long>(pids.size()) - 1))];
        if (::kill(victim, SIGKILL) == 0) ++kills_delivered;
      }
    });
    const supervise::SupervisedReport chaos_report = pool.run(clean);
    batch_done.store(true);
    killer.join();

    check(chaos_report.batch.results.size() == clean.size(),
          "supervise sigkill: result count");
    check(chaos_report.quarantined_jobs == 0,
          "supervise sigkill: external kills must never quarantine");
    for (std::size_t i = 0; i < clean.size(); ++i)
      supervise_expect_serial(chaos_report.batch.results[i],
                              clean_truth.results[i],
                              "supervise sigkill job " + std::to_string(i));
    // Every delivered kill is eventually answered with a restart (a kill
    // can even land in the gap between run() returning and the killer
    // noticing, so the report snapshot may lag — poll the pool).
    supervise::WorkerPool* pool_ptr = &pool;
    const std::size_t want_restarts = kills_delivered;
    check(supervise_eventually([pool_ptr, want_restarts] {
            return pool_ptr->worker_restarts() >= want_restarts;
          }),
          "supervise sigkill: " + std::to_string(kills_delivered) +
              " kills but only " + std::to_string(pool.worker_restarts()) +
              " restarts");

    // ---- Phase 3: recovery — full strength, then a clean batch --------
    check(supervise_eventually([pool_ptr] {
            return pool_ptr->worker_pids().size() == 4;
          }),
          "supervise sigkill: pool never recovered full strength");
    std::vector<engine::SolveJob> after(clean.begin(), clean.begin() + 4);
    const supervise::SupervisedReport after_report = pool.run(after);
    for (std::size_t i = 0; i < after.size(); ++i)
      supervise_expect_serial(after_report.batch.results[i],
                              clean_truth.results[i],
                              "supervise after job " + std::to_string(i));
    std::printf(
        "supervise chaos: sigkill phase — %zu kills delivered, %zu "
        "restarts, %zu resumed dispatches, batch + follow-up bit-identical "
        "to serial\n",
        kills_delivered, chaos_report.worker_restarts,
        chaos_report.resumed_dispatches);
  }

  if (failures > failures_before && !report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary);
    out << report.batch.to_jsonl();
    std::fprintf(stderr, "supervise: wrote JobReport JSONL to %s\n",
                 report_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  supervise::worker_trampoline(argc, argv);
  std::size_t instances = 200;
  std::size_t fuzz_iters = 10'000;
  std::uint64_t seed = 0xdefe2026ULL;
  std::string trace_path;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0xc4a05ULL;  // "chaos"
  std::string fault_plan_dir;
  std::size_t engine_jobs = 0;  // workers; 0 = engine chaos off
  std::string engine_report;
  bool engine_cache = false;
  std::size_t serve_fuzz_iters = 0;
  double serve_soak_seconds = 0;
  std::string serve_report;
  bool io_chaos_enabled = false;
  std::string io_artifacts_dir;
  bool supervise_chaos_enabled = false;
  std::string supervise_report;
  for (int i = 1; i < argc; ++i) {
    const auto next_value = [&](const char* flag) -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--instances") == 0) {
      instances = static_cast<std::size_t>(next_value("--instances"));
    } else if (std::strcmp(argv[i], "--fuzz-iters") == 0) {
      fuzz_iters = static_cast<std::size_t>(next_value("--fuzz-iters"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(next_value("--seed"));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --trace\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-rate") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --fault-rate\n");
        return 2;
      }
      fault_rate = std::atof(argv[++i]);
      if (!(fault_rate >= 0.0) || fault_rate > 1.0) {
        std::fprintf(stderr, "--fault-rate must be in [0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      fault_seed = static_cast<std::uint64_t>(next_value("--fault-seed"));
    } else if (std::strcmp(argv[i], "--fault-plans") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --fault-plans\n");
        return 2;
      }
      fault_plan_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--engine-jobs") == 0) {
      const long long v = next_value("--engine-jobs");
      if (v < 1) {
        std::fprintf(stderr, "--engine-jobs must be >= 1\n");
        return 2;
      }
      engine_jobs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--engine-report") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --engine-report\n");
        return 2;
      }
      engine_report = argv[++i];
    } else if (std::strcmp(argv[i], "--engine-cache") == 0) {
      engine_cache = true;
    } else if (std::strcmp(argv[i], "--serve-fuzz") == 0) {
      serve_fuzz_iters = static_cast<std::size_t>(next_value("--serve-fuzz"));
    } else if (std::strcmp(argv[i], "--serve-soak") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --serve-soak\n");
        return 2;
      }
      serve_soak_seconds = std::atof(argv[++i]);
      if (!(serve_soak_seconds >= 0)) {
        std::fprintf(stderr, "--serve-soak must be >= 0 seconds\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--serve-report") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --serve-report\n");
        return 2;
      }
      serve_report = argv[++i];
    } else if (std::strcmp(argv[i], "--io-chaos") == 0) {
      io_chaos_enabled = true;
    } else if (std::strcmp(argv[i], "--io-artifacts") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --io-artifacts\n");
        return 2;
      }
      io_artifacts_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--supervise-chaos") == 0) {
      supervise_chaos_enabled = true;
    } else if (std::strcmp(argv[i], "--supervise-report") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --supervise-report\n");
        return 2;
      }
      supervise_report = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--instances N] [--fuzz-iters N] [--seed S] "
                   "[--trace FILE.jsonl] [--fault-rate R] [--fault-seed S] "
                   "[--fault-plans DIR] [--engine-jobs N] "
                   "[--engine-report FILE] [--engine-cache] "
                   "[--serve-fuzz N] [--serve-soak SECONDS] "
                   "[--serve-report FILE] [--io-chaos] "
                   "[--io-artifacts DIR] [--supervise-chaos] "
                   "[--supervise-report FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  // --trace wires every differential solve into one JSONL narrative plus
  // the global metrics registry (no convergence recorder: samples from
  // unrelated solves would interleave meaninglessly).
  std::unique_ptr<obs::JsonlSink> sink;
  obs::Tracer tracer;
  obs::ObsContext ctx;
  if (!trace_path.empty()) {
    sink = std::make_unique<obs::JsonlSink>(trace_path);
    if (!sink->ok()) {
      std::fprintf(stderr, "cannot open trace file %s\n", trace_path.c_str());
      return 2;
    }
    tracer.add_sink(sink.get());
    ctx.tracer = &tracer;
    ctx.metrics = &obs::MetricsRegistry::global();
    g_obs = &ctx;
  }

  util::Rng rng(seed);
  for (std::size_t i = 0; i < instances; ++i) {
    try {
      differential_instance(rng, i);
    } catch (const std::exception& e) {
      fail("instance " + std::to_string(i) + " threw: " + e.what());
    }
  }
  std::printf("differential: %zu instances checked\n", instances);

  if (fault_rate > 0.0) {
    for (std::size_t i = 0; i < instances; ++i) {
      try {
        chaos_instance(rng, i, fault_rate, fault_seed, fault_plan_dir);
      } catch (const std::exception& e) {
        fail("chaos instance " + std::to_string(i) + " threw: " + e.what());
      }
    }
    std::printf("chaos: %zu instances survived fault rate %.3f (seed %llu)\n",
                instances, fault_rate,
                static_cast<unsigned long long>(fault_seed));
  }

  if (engine_jobs > 0) {
    try {
      engine_chaos(engine_jobs, seed, fault_seed, engine_report,
                   engine_cache);
    } catch (const std::exception& e) {
      fail(std::string("engine chaos threw: ") + e.what());
    }
  }

  if (io_chaos_enabled) {
    try {
      io_chaos(io_artifacts_dir, fault_seed);
    } catch (const std::exception& e) {
      fail(std::string("io chaos threw: ") + e.what());
    }
    if (failures == 0)
      std::printf("io chaos: kill sweep + fault plans survived on all "
                  "three artifact paths\n");
  }

  if (supervise_chaos_enabled) {
    try {
      supervise_chaos(seed, fault_seed, supervise_report);
    } catch (const std::exception& e) {
      fail(std::string("supervise chaos threw: ") + e.what());
    }
  }

  fuzz_parsers(rng, fuzz_iters);
  std::printf("fuzz: %zu parser inputs survived\n", fuzz_iters);

  if (serve_fuzz_iters > 0) {
    serve_fuzz(rng, serve_fuzz_iters);
    std::printf("serve fuzz: %zu request/manifest inputs survived\n",
                serve_fuzz_iters);
  }
  if (serve_soak_seconds > 0) {
    try {
      serve_soak(serve_soak_seconds, serve_report);
    } catch (const std::exception& e) {
      fail(std::string("serve soak threw: ") + e.what());
    }
  }

  if (g_obs != nullptr) {
    tracer.flush();
    std::printf("trace: %llu events -> %s\n",
                static_cast<unsigned long long>(tracer.events_emitted()),
                trace_path.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  std::printf("stress_defender: all checks passed\n");
  return 0;
}
