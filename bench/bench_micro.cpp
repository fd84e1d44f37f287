// Micro-benchmarks of the library's hot paths (google-benchmark).
//
// Not tied to a paper claim; these track the cost of the primitive
// operations the experiment harness composes: graph construction, payoff
// evaluation, equilibrium construction, verification, and the LP baseline.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/atuple.hpp"
#include "core/characterization.hpp"
#include "core/double_oracle.hpp"
#include "core/payoff.hpp"
#include "core/zero_sum.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "io/atomic_file.hpp"
#include "io/envelope.hpp"
#include "lp/matrix_game.hpp"
#include "lp/simplex_reference.hpp"
#include "lp/tableau.hpp"
#include "obs/context.hpp"
#include "sim/playout.hpp"
#include "supervise/wire.hpp"
#include "util/random.hpp"

namespace {

using namespace defender;

void BM_GraphBuild_Grid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::grid_graph(side, side).num_edges());
  }
}
BENCHMARK(BM_GraphBuild_Grid)->Arg(16)->Arg(64)->Arg(256);

void BM_ATuple_EndToEnd(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::grid_graph(side, side);
  const core::TupleGame game(g, 8, 4);
  for (auto _ : state) {
    auto result = core::a_tuple_bipartite(game);
    benchmark::DoNotOptimize(result->support_size);
  }
}
BENCHMARK(BM_ATuple_EndToEnd)->Arg(8)->Arg(16)->Arg(32);

void BM_HitProbabilities(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::grid_graph(side, side);
  const core::TupleGame game(g, 8, 4);
  const auto result = core::a_tuple_bipartite(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::hit_probabilities(game, result->configuration).size());
  }
}
BENCHMARK(BM_HitProbabilities)->Arg(8)->Arg(16)->Arg(32);

void BM_VerifyMixedNe_BranchAndBound(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::grid_graph(side, side);
  const core::TupleGame game(g, 4, 4);
  const auto result = core::a_tuple_bipartite(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::verify_mixed_ne(game, result->configuration,
                              core::Oracle::kBranchAndBound)
            .is_ne());
  }
}
BENCHMARK(BM_VerifyMixedNe_BranchAndBound)->Arg(4)->Arg(8);

void BM_ZeroSumLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::cycle_graph(n);
  const core::TupleGame game(g, 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_zero_sum(game).value_or_throw().value);
  }
  state.counters["tuples"] = static_cast<double>(game.num_tuples());
}
BENCHMARK(BM_ZeroSumLp)->Arg(6)->Arg(10)->Arg(14);

// --------------------------------------------------------------------------
// The simplex pivot pair (docs/SIMPLEX.md): the pre-rewrite vector-of-
// vectors pivot kernel against the flat-tableau SimplexCore::pivot, on
// identical data. Both sides run dyadic tableaus — integer entries,
// identity basic block, pivot elements that are small powers of two — so
// every pivot is floating-point exact and pivot(0, m) followed by
// pivot(0, 0) restores the tableau bit-for-bit: iterations never drift,
// and both kernels chew on the same bytes forever.

constexpr double kPivotBenchEps = 1e-9;

/// Entry (i, j) of the shared dyadic bench tableau with m constraint rows:
/// an identity basic block in columns [0, m), an entering column at m whose
/// pivot element is 2, and small deterministic integers elsewhere.
double dyadic_entry(std::size_t i, std::size_t j, std::size_t m) {
  if (j < m) return i == j ? 1.0 : 0.0;
  if (j == m) return i == 0 ? 2.0 : 1.0;
  return static_cast<double>(static_cast<int>((i * 31 + j * 17) % 9) - 4);
}

/// Replica of the pre-rewrite pivot kernel over per-row heap vectors (the
/// original Tableau class is internal to simplex_reference.cpp; this
/// reproduces its storage shape and arithmetic exactly).
struct ReferencePivotTableau {
  std::vector<std::vector<double>> t;
  std::vector<std::size_t> basis;

  explicit ReferencePivotTableau(std::size_t m) {
    const std::size_t width = 2 * m + 1;
    t.assign(m + 1, std::vector<double>(width));
    basis.assign(m, 0);
    for (std::size_t i = 0; i <= m; ++i)
      for (std::size_t j = 0; j < width; ++j) t[i][j] = dyadic_entry(i, j, m);
    for (std::size_t i = 0; i < m; ++i) basis[i] = i;
  }

  void pivot(std::size_t row, std::size_t col) {
    std::vector<double>& pr = t[row];
    const double p = pr[col];
    for (double& v : pr) v /= p;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i == row) continue;
      std::vector<double>& ri = t[i];
      const double f = ri[col];
      if (std::abs(f) < kPivotBenchEps) continue;
      for (std::size_t j = 0; j < ri.size(); ++j) ri[j] -= f * pr[j];
    }
    basis[row] = col;
  }
};

lp::Simplex flat_pivot_tableau(std::size_t m) {
  const std::size_t width = 2 * m + 1;
  lp::Simplex s(m, width);
  lp::SimplexCore core = s.core();
  for (std::size_t i = 0; i <= m; ++i)
    for (std::size_t j = 0; j < width; ++j)
      core.at(i, j) = dyadic_entry(i, j, m);
  for (std::size_t i = 0; i < m; ++i) core.set_basis(i, i);
  return s;
}

void BM_Pivot_Reference(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  ReferencePivotTableau rt(m);
  for (auto _ : state) {
    rt.pivot(0, m);
    rt.pivot(0, 0);
    benchmark::DoNotOptimize(rt.t[0][2 * m]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_Pivot_Reference)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_Pivot_Flat(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  lp::Simplex s = flat_pivot_tableau(m);
  lp::SimplexCore core = s.core();
  for (auto _ : state) {
    core.pivot(0, m, kPivotBenchEps);
    core.pivot(0, 0, kPivotBenchEps);
    benchmark::DoNotOptimize(core.at(0, 2 * m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_Pivot_Flat)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// End-to-end complement: the full two-phase solve_max on a dense synthetic
// LP, flat core versus the preserved reference implementation (the live
// bit-compatibility oracle — tests/lp/simplex_differential_test.cpp proves
// the outputs identical, so this pair times the same work).
lp::Matrix solve_bench_matrix(std::size_t n) {
  util::Rng rng(20260808);
  lp::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a.at(i, j) = rng.uniform(1.0, 2.0);  // positive => bounded, feasible
  return a;
}

void BM_SolveMax_Reference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::Matrix a = solve_bench_matrix(n);
  const std::vector<double> ones(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lp::reference::solve_max(a, ones, ones).objective);
  }
}
BENCHMARK(BM_SolveMax_Reference)->Arg(16)->Arg(48);

void BM_SolveMax_Flat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lp::Matrix a = solve_bench_matrix(n);
  const std::vector<double> ones(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_max(a, ones, ones).objective);
  }
}
BENCHMARK(BM_SolveMax_Flat)->Arg(16)->Arg(48);

/// Back-to-back timing of `reps` exact pivot/unpivot pairs for the
/// BENCH_JSON speedup line below.
double reference_pivot_seconds(std::size_t m, int reps) {
  ReferencePivotTableau rt(m);
  const auto t0 = bench::case_clock();
  for (int i = 0; i < reps; ++i) {
    rt.pivot(0, m);
    rt.pivot(0, 0);
    benchmark::DoNotOptimize(rt.t[0][2 * m]);
  }
  return obs::Clock::seconds_since(t0);
}

double flat_pivot_seconds(std::size_t m, int reps) {
  lp::Simplex s = flat_pivot_tableau(m);
  lp::SimplexCore core = s.core();
  const auto t0 = bench::case_clock();
  for (int i = 0; i < reps; ++i) {
    core.pivot(0, m, kPivotBenchEps);
    core.pivot(0, 0, kPivotBenchEps);
    benchmark::DoNotOptimize(core.at(0, 2 * m));
  }
  return obs::Clock::seconds_since(t0);
}

/// Back-to-back timing of `reps` full two-phase solves for the same line
/// (the end-to-end comparison, where the flat core's single allocation and
/// construction path actually pay off).
double solve_pair_seconds(lp::LpSolveFn solve, const lp::Matrix& a,
                          std::span<const double> ones, int reps) {
  const auto t0 = bench::case_clock();
  for (int i = 0; i < reps; ++i)
    benchmark::DoNotOptimize(solve(a, ones, ones, {}).objective);
  return obs::Clock::seconds_since(t0);
}

// The observability overhead pair: the same double-oracle solve with the
// default null ObsContext versus a fully wired context (tracer with a
// discarding sink, metrics, convergence recorder). The null-obs time must
// stay within 1% of the pre-obs baseline (see docs/OBSERVABILITY.md);
// tests/obs/obs_solver_test.cpp asserts the outputs are bit-identical.
void BM_DoubleOracle_NullObs(benchmark::State& state) {
  const graph::Graph g = graph::grid_graph(4, 5);
  const core::TupleGame game(g, 3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_double_oracle(
            game, {.budget = SolveBudget::iterations(200)})
            .result.value);
  }
}
BENCHMARK(BM_DoubleOracle_NullObs);

void BM_DoubleOracle_FullObs(benchmark::State& state) {
  const graph::Graph g = graph::grid_graph(4, 5);
  const core::TupleGame game(g, 3, 1);
  // Discarding sink: measures instrumentation cost, not disk throughput.
  struct NullSink final : obs::TraceSink {
    void write(const obs::TraceEvent& event) override {
      benchmark::DoNotOptimize(event.ts_us);
    }
    void flush() override {}
  } sink;
  obs::Tracer tracer;
  tracer.add_sink(&sink);
  obs::MetricsRegistry metrics;
  obs::ConvergenceRecorder recorder;
  obs::ObsContext ctx{&tracer, &metrics, &recorder};
  for (auto _ : state) {
    recorder.clear();
    benchmark::DoNotOptimize(
        core::solve_double_oracle(
            game, {.budget = SolveBudget::iterations(200), .obs = &ctx})
            .result.value);
  }
}
BENCHMARK(BM_DoubleOracle_FullObs);

// The fault-injection overhead pair, mirroring the obs pair above: the same
// solve with the default null FaultContext versus an *armed* context whose
// per-site rates are all zero. Every injection hook then evaluates its
// deterministic firing decision but nothing ever fires, so this bounds the
// cost of carrying the chaos machinery through a clean solve
// (tests/fault/fault_injection_test.cpp asserts the outputs stay
// bit-identical; see docs/FAULT_INJECTION.md).
void BM_DoubleOracle_NullFault(benchmark::State& state) {
  const graph::Graph g = graph::grid_graph(4, 5);
  const core::TupleGame game(g, 3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_double_oracle(
            game, {.budget = SolveBudget::iterations(200)})
            .result.value);
  }
}
BENCHMARK(BM_DoubleOracle_NullFault);

void BM_DoubleOracle_ArmedFault(benchmark::State& state) {
  const graph::Graph g = graph::grid_graph(4, 5);
  const core::TupleGame game(g, 3, 1);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.set_all(0.0);
  fault::FaultContext fault_ctx(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_double_oracle(
            game, {.budget = SolveBudget::iterations(200), .fault = &fault_ctx})
            .result.value);
  }
}
BENCHMARK(BM_DoubleOracle_ArmedFault);

void BM_Playouts(benchmark::State& state) {
  const graph::Graph g = graph::grid_graph(8, 8);
  const core::TupleGame game(g, 4, 8);
  const auto result = core::a_tuple_bipartite(game);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_playouts(game, result->configuration, 10000, rng)
            .defender_profit_mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_Playouts);

// --------------------------------------------------------------------------
// Supervise IPC framing (docs/SUPERVISION.md): what shipping a job to a
// subprocess worker costs before any solving happens — serialize the
// SolveJob to its wire frame, seal it in the checksummed envelope, feed
// it back through the FrameReader, and reconstruct the job. Arg is the
// grid side, so the board (and payload) scales quadratically.

void BM_IpcRoundTrip_Job(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = graph::grid_graph(side, side);
  engine::SolveJob job(core::TupleGame(g, 2, 1));
  job.budget = SolveBudget::iterations(100);
  const engine::EngineConfig config;
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    const supervise::JobFrame frame =
        supervise::frame_from_job(job, 7, config);
    const std::string sealed =
        supervise::make_frame(supervise::kJobFormat,
                              supervise::to_text(frame));
    frame_bytes = sealed.size();
    supervise::FrameReader reader;
    reader.feed(sealed.data(), sealed.size());
    supervise::FrameReader::Frame out;
    if (reader.next(&out, nullptr) != supervise::FrameReader::Next::kFrame) {
      state.SkipWithError("job frame did not round-trip");
      return;
    }
    const Solved<supervise::JobFrame> parsed =
        supervise::try_parse_job_frame(out.payload);
    std::optional<engine::SolveJob> back;
    benchmark::DoNotOptimize(
        supervise::job_from_frame(parsed.result, &back).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_IpcRoundTrip_Job)->Arg(4)->Arg(8)->Arg(16);

void BM_IpcRoundTrip_Result(benchmark::State& state) {
  // A result frame shaped like a retried job: two attempt records plus a
  // closed bracket, the common worst case on the result pipe.
  supervise::ResultFrame frame;
  frame.job_index = 7;
  frame.dispatch = 1;
  frame.result.value = 0.625;
  frame.result.lower_bound = 0.5;
  frame.result.upper_bound = 0.625;
  frame.result.iterations = 4'000;
  frame.result.attempts.resize(2);
  frame.result.attempts[1].attempt = 1;
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    const std::string sealed =
        supervise::make_frame(supervise::kResultFormat,
                              supervise::to_text(frame));
    frame_bytes = sealed.size();
    supervise::FrameReader reader;
    reader.feed(sealed.data(), sealed.size());
    supervise::FrameReader::Frame out;
    if (reader.next(&out, nullptr) != supervise::FrameReader::Next::kFrame) {
      state.SkipWithError("result frame did not round-trip");
      return;
    }
    benchmark::DoNotOptimize(
        supervise::try_parse_result_frame(out.payload).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_IpcRoundTrip_Result);

// --------------------------------------------------------------------------
// Durable artifact writes (docs/DURABILITY.md): what the crash-safe
// publish protocol costs over a bare buffered write, with and without the
// fsyncs that make it power-loss durable. Arg is log2(payload bytes).

/// One scratch directory per process, created lazily.
const std::string& bench_io_dir() {
  static const std::string dir = [] {
    char tmpl[] = "/tmp/defender-bench-io-XXXXXX";
    const char* made = mkdtemp(tmpl);
    return std::string(made != nullptr ? made : "/tmp");
  }();
  return dir;
}

std::string bench_payload(std::size_t bytes) {
  std::string payload;
  payload.reserve(bytes);
  while (payload.size() < bytes)
    payload += "tuple 2 0 1\ntuple 2 2 3\nvertices 2 0 4\n";
  payload.resize(bytes);
  return payload;
}

void BM_DurableWrite_BareOfstream(benchmark::State& state) {
  const std::string payload =
      bench_payload(std::size_t{1} << state.range(0));
  const std::string path = bench_io_dir() + "/bare.txt";
  for (auto _ : state) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
    benchmark::DoNotOptimize(out.good());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DurableWrite_BareOfstream)->Arg(12)->Arg(16)->Arg(20);

void BM_DurableWrite_AtomicNoFsync(benchmark::State& state) {
  const std::string payload =
      bench_payload(std::size_t{1} << state.range(0));
  const std::string path = bench_io_dir() + "/atomic.txt";
  io::AtomicWriteOptions opts;
  opts.fsync = false;
  for (auto _ : state) {
    const std::string wrapped =
        io::wrap_artifact("defender-checkpoint", payload);
    benchmark::DoNotOptimize(io::atomic_write_file(path, wrapped, opts).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DurableWrite_AtomicNoFsync)->Arg(12)->Arg(16)->Arg(20);

void BM_DurableWrite_AtomicFsync(benchmark::State& state) {
  const std::string payload =
      bench_payload(std::size_t{1} << state.range(0));
  const std::string path = bench_io_dir() + "/durable.txt";
  for (auto _ : state) {
    const std::string wrapped =
        io::wrap_artifact("defender-checkpoint", payload);
    benchmark::DoNotOptimize(io::atomic_write_file(path, wrapped, {}).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DurableWrite_AtomicFsync)->Arg(12)->Arg(16)->Arg(20);

/// Back-to-back timing of `reps` writes for the BENCH_JSON comparison.
template <typename WriteOnce>
double write_reps_seconds(int reps, WriteOnce&& write_once) {
  const auto t0 = bench::case_clock();
  for (int i = 0; i < reps; ++i) benchmark::DoNotOptimize(write_once());
  return obs::Clock::seconds_since(t0);
}

// Direct null-vs-armed timing for the BENCH_JSON line below: google-benchmark
// reports each side separately, but the overhead claim is a ratio, so we
// measure both sides back to back over the same instance.
double fault_pair_seconds(core::TupleGame const& game,
                          fault::FaultContext* fault_ctx, int reps) {
  const auto t0 = bench::case_clock();
  for (int i = 0; i < reps; ++i) {
    benchmark::DoNotOptimize(
        core::solve_double_oracle(
            game, {.budget = SolveBudget::iterations(200), .fault = fault_ctx})
            .result.value);
  }
  return obs::Clock::seconds_since(t0);
}

}  // namespace

// BENCHMARK_MAIN() plus one BENCH_JSON line quantifying the armed-fault
// overhead, so the zero-cost claim stays measured across PRs (extract with
// `grep '^BENCH_JSON '`).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const graph::Graph g = graph::grid_graph(4, 5);
  const core::TupleGame game(g, 3, 1);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.set_all(0.0);
  fault::FaultContext fault_ctx(plan);
  constexpr int kReps = 20;
  fault_pair_seconds(game, nullptr, 2);  // warm-up
  const double null_s = fault_pair_seconds(game, nullptr, kReps);
  const double armed_s = fault_pair_seconds(game, &fault_ctx, kReps);
  bench::JsonLine("micro", "fault overhead")
      .num("reps", kReps)
      .num("null_fault_ms", null_s * 1e3)
      .num("armed_fault_ms", armed_s * 1e3)
      .num("overhead_pct", 100.0 * (armed_s - null_s) / null_s)
      .emit();

  // Durable-write cost triple (docs/DURABILITY.md): bare buffered write
  // vs the atomic envelope publish without fsync vs the full power-loss-
  // durable protocol, over a checkpoint-sized 64 KiB payload.
  constexpr std::size_t kIoBytes = 64u << 10;
  constexpr int kIoReps = 50;
  const std::string payload = bench_payload(kIoBytes);
  const std::string dir = bench_io_dir();
  const auto bare = [&] {
    std::ofstream out(dir + "/json-bare.txt",
                      std::ios::binary | std::ios::trunc);
    out << payload;
    return out.good();
  };
  io::AtomicWriteOptions no_fsync;
  no_fsync.fsync = false;
  const auto atomic_fast = [&] {
    return io::atomic_write_file(
               dir + "/json-atomic.txt",
               io::wrap_artifact("defender-checkpoint", payload), no_fsync)
        .ok();
  };
  const auto atomic_durable = [&] {
    return io::atomic_write_file(
               dir + "/json-durable.txt",
               io::wrap_artifact("defender-checkpoint", payload), {})
        .ok();
  };
  write_reps_seconds(5, bare);  // warm-up
  const double bare_s = write_reps_seconds(kIoReps, bare);
  const double atomic_s = write_reps_seconds(kIoReps, atomic_fast);
  const double durable_s = write_reps_seconds(kIoReps, atomic_durable);
  bench::JsonLine("micro", "durable write overhead")
      .num("reps", kIoReps)
      .num("payload_bytes", static_cast<double>(kIoBytes))
      .num("bare_ofstream_ms", bare_s * 1e3)
      .num("atomic_no_fsync_ms", atomic_s * 1e3)
      .num("atomic_fsync_ms", durable_s * 1e3)
      .num("fsync_cost_ms_per_write",
           (durable_s - atomic_s) * 1e3 / kIoReps)
      .emit();

  // Simplex pivot speedup (docs/SIMPLEX.md): the flat-tableau core against
  // the pre-rewrite vector-of-vectors substrate, measured back to back at
  // two levels. pivot_* times the bare elimination kernel on identical
  // dyadic data — bit-compatibility forces the same arithmetic in the same
  // order, so this pair is expected near parity and exists to catch
  // regressions in either direction. solve_* times the full two-phase
  // solve_max, where the rewrite's single allocation, construction path,
  // and adjacent index arrays actually pay off — that ratio is the headline
  // speedup. bounds_checked reports whether DEF_TABLEAU_CHECK asserts are
  // compiled in — it must be 0 in a Release bench, proving the hot loop
  // carries no index checking.
  constexpr std::size_t kPivotRows = 64;
  constexpr int kPivotReps = 4000;
  constexpr std::size_t kSolveN = 48;
  constexpr int kSolveReps = 200;
  const lp::Matrix solve_a = solve_bench_matrix(kSolveN);
  const std::vector<double> solve_ones(kSolveN, 1.0);
  reference_pivot_seconds(kPivotRows, 50);  // warm-up
  flat_pivot_seconds(kPivotRows, 50);       // warm-up
  solve_pair_seconds(&lp::reference::solve_max, solve_a, solve_ones, 5);
  solve_pair_seconds(&lp::solve_max, solve_a, solve_ones, 5);
  // Alternating min-of-5: the sides differ by a few percent (pivot) to a
  // few tens of percent (solve), which a noisy box would otherwise bury;
  // the minimum of interleaved passes is the standard robust estimator.
  double ref_pivot_s = 1e300;
  double flat_pivot_s = 1e300;
  double ref_solve_s = 1e300;
  double flat_solve_s = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    ref_pivot_s =
        std::min(ref_pivot_s, reference_pivot_seconds(kPivotRows, kPivotReps));
    flat_pivot_s =
        std::min(flat_pivot_s, flat_pivot_seconds(kPivotRows, kPivotReps));
    ref_solve_s = std::min(
        ref_solve_s, solve_pair_seconds(&lp::reference::solve_max, solve_a,
                                        solve_ones, kSolveReps));
    flat_solve_s = std::min(
        flat_solve_s,
        solve_pair_seconds(&lp::solve_max, solve_a, solve_ones, kSolveReps));
  }
  bench::JsonLine("micro", "simplex pivot speedup")
      .num("rows", static_cast<int>(kPivotRows))
      .num("width", static_cast<int>(2 * kPivotRows + 1))
      .num("pivots", 2 * kPivotReps)
      .num("pivot_reference_ms", ref_pivot_s * 1e3)
      .num("pivot_flat_ms", flat_pivot_s * 1e3)
      .num("pivot_speedup", ref_pivot_s / flat_pivot_s)
      .num("solve_n", static_cast<int>(kSolveN))
      .num("solve_reps", kSolveReps)
      .num("solve_reference_ms", ref_solve_s * 1e3)
      .num("solve_flat_ms", flat_solve_s * 1e3)
      .num("speedup", ref_solve_s / flat_solve_s)
      .num("bounds_checked", lp::kTableauBoundsChecked ? 1 : 0)
      .emit();
  return 0;
}
