// defender_cli — run the paper's algorithms on your own network.
//
// Reads a graph in edge-list format ("n m" then one "u v" per line) from a
// file or stdin and reports, for the requested defender power k and
// attacker count nu:
//   * the pure-NE threshold and a pure NE when k reaches it (Theorem 3.1);
//   * a k-matching NE via A_tuple when an expander partition is found
//     (Theorems 4.12/5.1), with its hit probability and defender gain;
//   * a perfect-matching NE when the board has one (defense-optimal);
//   * the Theorem 3.4 verification report for whichever equilibrium it
//     computed, and optionally a DOT rendering;
//   * the zero-sum game value via the budgeted double oracle, reporting a
//     structured status (and certified bounds) when the budget runs out
//     instead of crashing.
//
// Observability (see docs/OBSERVABILITY.md):
//   * --trace FILE.jsonl        one JSON trace event per line;
//   * --chrome-trace FILE.json  the same solve as a Chrome trace_event
//                               file (open at chrome://tracing);
//   * --metrics                 dump the metrics registry as JSON on exit.
//
// Chaos & resume (see docs/FAULT_INJECTION.md):
//   * --fault-rate R / --fault-seed S  run the game-value solve under a
//     deterministic fault schedule arming every injection site at rate R;
//   * --save-checkpoint FILE    write the solve's final loop state so a
//     budget-limited run can be continued later;
//   * --resume-checkpoint FILE  continue a solve from a saved checkpoint.
//
// Batch engine mode (see docs/ENGINE.md):
//   * --batch FILE     run a batch of solve jobs on the loaded board
//     through the resilient SolveEngine instead of the single-board
//     analysis. Each non-comment line of FILE is one job:
//         <solver> <k> <nu> <budget-iters> [tolerance]
//     where <solver> is one of double-oracle, weighted-double-oracle,
//     fictitious-play, weighted-fictitious-play, hedge, zero-sum-lp;
//   * --jobs N         worker threads for the batch (0 = one per core);
//   * --retry-ladder S escalation-ladder spec, e.g.
//     "attempts=3,grow=4,scale=10,fallback=on,backoff-ms=0,cap-ms=1000";
//   * --deadline, --fault-rate, --fault-seed apply per job in batch mode
//     (the deadline becomes each job's watchdog; fault plans derive
//     per-job seeds so schedules are independent of worker count);
//   * --isolate        run the batch through a supervised subprocess pool
//     (docs/SUPERVISION.md): a crashing or hanging solver kills a worker
//     process, never the CLI; non-faulted results stay bit-identical to
//     the in-process engine.
//
// Canonical-form solve cache (see docs/CACHE.md):
//   * --cache FILE     arm a SolveCache for the batch: isomorphic jobs
//     cost one solve per class. FILE is loaded first when it exists
//     ("defender-cache v1" text store) and rewritten after the batch, so
//     repeated invocations accumulate a persistent result corpus;
//   * --cache-size N   LRU capacity in entries (default 4096).
//
// Usage: defender_cli [--k K] [--nu N] [--dot] [--budget-iters N]
//                     [--deadline SECONDS] [--trace FILE.jsonl]
//                     [--chrome-trace FILE.json] [--metrics]
//                     [--fault-rate R] [--fault-seed S]
//                     [--save-checkpoint FILE] [--resume-checkpoint FILE]
//                     [--batch FILE] [--jobs N] [--retry-ladder SPEC]
//                     [--cache FILE] [--cache-size N] [FILE]
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "core/analytics.hpp"
#include "core/atuple.hpp"
#include "core/budget.hpp"
#include "core/characterization.hpp"
#include "core/checkpoint.hpp"
#include "core/double_oracle.hpp"
#include "fault/fault.hpp"
#include "io/durable.hpp"
#include "core/payoff.hpp"
#include "core/perfect_matching_ne.hpp"
#include "core/pure_ne.hpp"
#include "core/status.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/retry.hpp"
#include "graph/io.hpp"
#include "matching/edge_cover.hpp"
#include "obs/context.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/worker.hpp"
#include "util/assert.hpp"
#include "util/json_writer.hpp"
#include "util/record.hpp"

namespace {

void usage() {
  std::cerr << "usage: defender_cli [--k K] [--nu N] [--dot]\n"
               "                    [--budget-iters N] [--deadline SECONDS]\n"
               "                    [--trace FILE.jsonl] "
               "[--chrome-trace FILE.json]\n"
               "                    [--metrics] [--fault-rate R] "
               "[--fault-seed S]\n"
               "                    [--save-checkpoint FILE] "
               "[--resume-checkpoint FILE]\n"
               "                    [--batch FILE] [--jobs N] "
               "[--retry-ladder SPEC]\n"
               "                    [--isolate] [--cache FILE] "
               "[--cache-size N] [FILE]\n"
            << "  FILE holds 'n m' then one 'u v' line per edge; stdin when "
               "omitted.\n"
            << "  --budget-iters / --deadline bound the game-value solve; "
               "when the budget\n"
            << "  runs out the CLI prints the certified value bracket and "
               "the solver status.\n"
            << "  --trace / --chrome-trace record the solve as JSONL / "
               "Chrome trace_event\n"
            << "  events; --metrics dumps the metrics registry as JSON on "
               "exit.\n"
            << "  --fault-rate arms every fault-injection site at the given "
               "rate (chaos\n"
            << "  demo; deterministic per --fault-seed). --save-checkpoint / "
               "--resume-checkpoint\n"
            << "  persist and continue the game-value solve across runs.\n"
            << "  --batch runs one solve job per line of FILE ('<solver> <k> "
               "<nu>\n"
            << "  <budget-iters> [tolerance]'; '#' comments) through the "
               "SolveEngine pool\n"
            << "  with --jobs workers and the --retry-ladder escalation "
               "spec; --deadline\n"
            << "  becomes each job's watchdog and --fault-rate arms per-job "
               "fault plans.\n"
            << "  --cache arms a canonical-form solve cache for the batch "
               "(isomorphic jobs\n"
            << "  cost one solve per class), persisted to FILE across runs; "
               "--cache-size\n"
            << "  bounds the LRU (entries). See docs/CACHE.md.\n";
}

/// Structured CLI-layer error: same rendering path as solver statuses.
int fail_invalid(const std::string& message) {
  std::cerr << "defender_cli: "
            << defender::Status::make(defender::StatusCode::kInvalidInput,
                                      message)
                   .to_string()
            << '\n';
  return 2;
}

/// Non-zero exit for a malformed numeric flag value.
int bad_flag(const std::string& flag, const char* value) {
  return fail_invalid("bad " + flag + " value '" + value + "'");
}

/// Non-zero exit for an already-structured status (io-error and friends).
int fail_status(const defender::Status& status) {
  std::cerr << "defender_cli: " << status.to_string() << '\n';
  return 2;
}

/// Surfaces what artifact recovery had to do (fallback, salvage,
/// quarantine) so a shrunken cache or older checkpoint is never silent.
void log_recovery(const char* what, const defender::io::LoadReport& report) {
  if (report.recovered)
    std::cerr << "defender_cli: " << what << " recovered: " << report.note
              << '\n';
}

/// One parsed line of a --batch file: "<solver> <k> <nu> <budget-iters>
/// [tolerance]".
struct BatchLine {
  defender::engine::JobSolver solver =
      defender::engine::JobSolver::kDoubleOracle;
  std::size_t k = 0;
  std::size_t nu = 0;
  std::size_t budget_iters = 0;
  double tolerance = 1e-9;
};

/// Cap on jobs per batch file — same shape as the parser allocation caps:
/// a hostile file degrades to kInvalidInput, never to an OOM.
constexpr std::size_t kMaxBatchJobs = 100'000;

/// Caps on numeric flag and batch-file counts: --jobs sizes a thread or
/// process pool, so it gets a tight one.
constexpr std::uint64_t kMaxCountArg = 1'000'000'000;
constexpr std::uint64_t kMaxWorkers = 1024;

/// Line-numbered kInvalidInput, mirroring graph::try_parse_edge_list.
defender::Status batch_error(std::size_t line, const std::string& what) {
  return defender::Status::make(
      defender::StatusCode::kInvalidInput,
      "batch file line " + std::to_string(line) + ": " + what);
}

/// Hardened parse of a --batch file. '#' starts a comment; blank lines are
/// skipped. Errors come back as line-numbered kInvalidInput.
defender::Solved<std::vector<BatchLine>> parse_batch_file(std::istream& in) {
  defender::Solved<std::vector<BatchLine>> out;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream fields(raw);
    std::string solver_name;
    if (!(fields >> solver_name)) continue;  // blank / comment-only line
    if (out.result.size() >= kMaxBatchJobs) {
      out.status = batch_error(line_no, "too many jobs (cap " +
                                            std::to_string(kMaxBatchJobs) +
                                            ")");
      return out;
    }
    BatchLine job;
    if (!defender::engine::try_parse_job_solver(solver_name, &job.solver)) {
      out.status = batch_error(line_no,
                               "unknown solver '" + solver_name + "'");
      return out;
    }
    std::string k_tok, nu_tok, iters_tok;
    if (!(fields >> k_tok >> nu_tok >> iters_tok)) {
      out.status = batch_error(
          line_no, "expected '<solver> <k> <nu> <budget-iters> [tolerance]'");
      return out;
    }
    using defender::util::parse_count;
    if (!parse_count(k_tok, kMaxCountArg, &job.k) || job.k == 0) {
      out.status = batch_error(line_no, "bad k '" + k_tok + "'");
      return out;
    }
    if (!parse_count(nu_tok, kMaxCountArg, &job.nu) || job.nu == 0) {
      out.status = batch_error(line_no, "bad nu '" + nu_tok + "'");
      return out;
    }
    if (!parse_count(iters_tok, kMaxCountArg, &job.budget_iters) ||
        job.budget_iters == 0) {
      out.status = batch_error(line_no,
                               "bad budget-iters '" + iters_tok + "'");
      return out;
    }
    std::string tol_tok;
    if (fields >> tol_tok) {
      if (!defender::util::parse_finite(tol_tok, &job.tolerance) ||
          job.tolerance < 0.0) {
        out.status = batch_error(line_no,
                                 "bad tolerance '" + tol_tok + "'");
        return out;
      }
      std::string extra;
      if (fields >> extra) {
        out.status = batch_error(line_no,
                                 "unexpected trailing token '" + extra + "'");
        return out;
      }
    }
    out.result.push_back(job);
  }
  if (out.result.empty())
    out.status = defender::Status::make(defender::StatusCode::kInvalidInput,
                                        "batch file holds no jobs");
  return out;
}

/// Runs the --batch jobs through the SolveEngine pool and prints one
/// result row per job plus the batch aggregates. Returns the process exit
/// code: 0 when every job finished kOk, 1 when any degraded (each row
/// still reports its truthful status and certified bracket).
int run_batch(const defender::graph::Graph& g,
              const std::vector<BatchLine>& lines,
              const defender::engine::EngineConfig& config,
              double watchdog_seconds, double fault_rate,
              std::uint64_t fault_seed) {
  using namespace defender;
  std::vector<engine::SolveJob> jobs;
  jobs.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const BatchLine& line = lines[i];
    if (line.k > g.num_edges())
      return fail_invalid("batch job " + std::to_string(i) +
                          ": k=" + std::to_string(line.k) +
                          " exceeds m=" + std::to_string(g.num_edges()));
    engine::SolveJob job(core::TupleGame(g, line.k, line.nu));
    job.solver = line.solver;
    job.tolerance = line.tolerance;
    job.budget = SolveBudget::iterations(line.budget_iters);
    if (engine::is_weighted(line.solver))
      job.weights.assign(g.num_vertices(), 1.0);
    if (fault_rate > 0.0) {
      job.fault_plan.seed = engine::derive_job_seed(fault_seed, i);
      job.fault_plan.set_all(fault_rate);
    }
    job.watchdog_seconds = watchdog_seconds;
    jobs.push_back(std::move(job));
  }

  engine::BatchReport report;
  std::optional<supervise::SupervisedReport> supervised;
  if (config.isolation == engine::IsolationMode::kProcess) {
    // Process isolation: a supervised subprocess pool replaces the thread
    // pool; non-faulted results are bit-identical (docs/SUPERVISION.md).
    supervise::PoolConfig pool_config;
    pool_config.workers =
        config.workers == 0
            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
            : config.workers;
    pool_config.engine = config;
    pool_config.metrics = config.metrics;
    supervise::WorkerPool pool(pool_config);
    supervised = pool.run(jobs);
    report = supervised->batch;
  } else {
    engine::SolveEngine pool(config);
    report = pool.run(jobs);
  }

  std::cout << "Batch: " << jobs.size() << " jobs, "
            << (config.workers == 0 ? std::string("auto")
                                    : std::to_string(config.workers))
            << (supervised.has_value() ? " isolated workers" : " workers")
            << ", ladder " << config.retry.to_string() << "\n\n";
  std::printf("%4s  %-24s  %-20s  %10s  %-25s  %8s  %s\n", "job", "solver",
              "status", "value", "bracket", "attempts", "flags");
  for (const engine::JobResult& r : report.results) {
    char bracket[64];
    std::snprintf(bracket, sizeof bracket, "[%.6g, %.6g]", r.lower_bound,
                  r.upper_bound);
    std::string flags;
    if (r.fallback_used) flags += " fallback";
    if (r.watchdog_killed) flags += " watchdog-killed";
    if (r.faults_injected > 0)
      flags += " faults=" + std::to_string(r.faults_injected);
    std::printf("%4zu  %-24s  %-20s  %10.6g  %-25s  %8zu %s\n", r.job_index,
                engine::to_string(r.solver), to_string(r.status.code),
                r.value, bracket, r.attempts.size(), flags.c_str());
  }
  std::printf(
      "\n%zu ok, %zu degraded; %zu retries, %zu deadline kills, %zu faulted "
      "jobs, %.3fs\n",
      report.completed, report.degraded, report.retries,
      report.deadline_kills, report.faulted_jobs, report.elapsed_seconds);
  if (supervised.has_value())
    std::printf(
        "Supervision: %zu worker restarts, %zu quarantined, %zu heartbeat "
        "misses, %zu checkpoints streamed, %zu resumed dispatches\n",
        supervised->worker_restarts, supervised->quarantined_jobs,
        supervised->heartbeat_misses, supervised->checkpoints_streamed,
        supervised->resumed_dispatches);
  return report.degraded == 0 ? 0 : 1;
}

/// Remote mode: ship the --batch jobs to a defender_serve instance
/// (docs/SERVE.md) instead of solving locally. Every response line is
/// echoed to stdout; result lines are also appended to `report_path`
/// (JSONL) so transcripts from interrupted and uninterrupted runs can be
/// compared per request id. Returns 0 when every admitted job's result
/// arrived, 1 when any request was rejected, 3 when the server went away
/// first (e.g. it drained mid-batch — the rest arrive via the server's
/// --resume-report after restart).
int run_connect(const defender::graph::Graph& g,
                const std::vector<BatchLine>& lines,
                const std::string& address, const std::string& client_name,
                const std::string& report_path) {
  using namespace defender;
  // Process-wide: the server closing mid-write (a drain, a crash) must
  // surface as a send error on this connection, not kill the CLI.
  std::signal(SIGPIPE, SIG_IGN);
  Solved<serve::LineClient> connected = serve::LineClient::connect(address);
  if (!connected.ok()) return fail_invalid(connected.status.message);
  serve::LineClient client = std::move(connected.result);

  std::ofstream report;
  if (!report_path.empty()) {
    report.open(report_path, std::ios::trunc);
    if (!report) return fail_invalid("cannot write report " + report_path);
  }

  std::string edges = "[";
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    if (e != 0) edges += ',';
    edges += '[' + std::to_string(edge.u) + ',' + std::to_string(edge.v) +
             ']';
  }
  edges += ']';
  std::string unit_weights = "[";
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (v != 0) unit_weights += ',';
    unit_weights += '1';
  }
  unit_weights += ']';

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const BatchLine& line = lines[i];
    util::JsonWriter w;
    w.str("type", "solve");
    w.str("id", "job" + std::to_string(i));
    w.str("client", client_name);
    w.str("solver", engine::to_string(line.solver));
    w.num("n", static_cast<std::uint64_t>(g.num_vertices()));
    w.num("k", static_cast<std::uint64_t>(line.k));
    w.num("attackers", static_cast<std::uint64_t>(line.nu));
    w.raw("edges", edges);
    if (engine::is_weighted(line.solver)) w.raw("weights", unit_weights);
    w.num("tolerance", line.tolerance);
    w.num("iters", static_cast<std::uint64_t>(line.budget_iters));
    const Status sent = client.send_line(w.object());
    if (!sent.ok()) return fail_invalid(sent.message);
  }

  // Responses interleave: one ack/error per request (roughly immediate)
  // plus one result per *acked* request whenever its solve finishes.
  std::size_t admission_replies = 0, acks = 0, rejections = 0, results = 0;
  bool server_gone = false;
  while (admission_replies < lines.size() || results < acks) {
    const Solved<std::string> received = client.recv_line(120.0);
    if (!received.ok()) {
      std::cerr << "defender_cli: server connection: "
                << received.status.to_string() << '\n';
      server_gone = true;
      break;
    }
    std::cout << received.result << '\n';
    const Solved<serve::JsonValue> doc = serve::parse_json(received.result);
    const serve::JsonValue* type =
        doc.ok() ? doc.result.find("type") : nullptr;
    const std::string kind =
        type != nullptr && type->kind == serve::JsonValue::Kind::kString
            ? type->string
            : "";
    if (kind == "ack") {
      ++admission_replies;
      ++acks;
    } else if (kind == "error") {
      ++admission_replies;
      ++rejections;
    } else if (kind == "result") {
      ++results;
      if (report.is_open()) {
        report << received.result << '\n';
        report.flush();
      }
    }
  }

  if (report.is_open()) {
    report.flush();
    if (!report)
      return fail_status(defender::Status::make(
          defender::StatusCode::kIoError,
          "report '" + report_path + "' hit a write error"));
  }

  std::cerr << "defender_cli: " << acks << " admitted, " << rejections
            << " rejected, " << results << " results\n";
  if (server_gone && results < acks) return 3;
  return rejections == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace defender;

  // Worker re-exec entry point: when a supervised pool forked this binary
  // as a worker, this call never returns. Must precede everything else.
  supervise::worker_trampoline(argc, argv);

  std::size_t k = 2, nu = 4;
  bool dot = false, dump_metrics = false, isolate = false;
  std::string file, trace_path, chrome_trace_path;
  std::string save_checkpoint_path, resume_checkpoint_path;
  std::string batch_path, retry_spec, cache_path;
  std::string connect_address, connect_client = "cli", report_path;
  std::size_t pool_workers = 1;
  std::size_t cache_capacity = cache::kDefaultCacheCapacity;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0xdef3ddef3dULL;
  SolveBudget budget;
  budget.max_iterations = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--k" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg, &k))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--nu" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg, &nu) || nu == 0)
        return bad_flag(arg, argv[i]);
    } else if (arg == "--budget-iters" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg, &budget.max_iterations))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--deadline" && i + 1 < argc) {
      if (!util::parse_finite(argv[++i], &budget.wall_clock_seconds) ||
          budget.wall_clock_seconds < 0)
        return bad_flag(arg, argv[i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_trace_path = argv[++i];
    } else if (arg == "--fault-rate" && i + 1 < argc) {
      if (!util::parse_finite(argv[++i], &fault_rate) ||
          !(fault_rate >= 0.0 && fault_rate <= 1.0))
        return fail_invalid("--fault-rate must lie in [0, 1]");
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      if (!util::parse_count(argv[++i],
                             std::numeric_limits<std::uint64_t>::max(),
                             &fault_seed))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--save-checkpoint" && i + 1 < argc) {
      save_checkpoint_path = argv[++i];
    } else if (arg == "--resume-checkpoint" && i + 1 < argc) {
      resume_checkpoint_path = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxWorkers, &pool_workers))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--retry-ladder" && i + 1 < argc) {
      retry_spec = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--cache-size" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg, &cache_capacity) ||
          cache_capacity == 0)
        return fail_invalid("--cache-size must be positive");
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_address = argv[++i];
    } else if (arg == "--client" && i + 1 < argc) {
      connect_client = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--isolate") {
      isolate = true;
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      file = arg;
    } else {
      usage();
      return 2;
    }
  }

  // Observability wiring: only the members the user asked for are non-null,
  // and a fully null context leaves the solvers on their zero-cost path.
  std::unique_ptr<obs::JsonlSink> jsonl_sink;
  std::unique_ptr<obs::ChromeTraceSink> chrome_sink;
  obs::Tracer tracer;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  obs::ConvergenceRecorder recorder;
  obs::ObsContext ctx;
  if (!trace_path.empty()) {
    jsonl_sink = std::make_unique<obs::JsonlSink>(trace_path);
    if (!jsonl_sink->ok())
      return fail_invalid("cannot open trace file " + trace_path);
    tracer.add_sink(jsonl_sink.get());
  }
  if (!chrome_trace_path.empty()) {
    chrome_sink = std::make_unique<obs::ChromeTraceSink>(chrome_trace_path);
    if (!chrome_sink->ok())
      return fail_invalid("cannot open chrome trace file " +
                          chrome_trace_path);
    tracer.add_sink(chrome_sink.get());
  }
  if (!trace_path.empty() || !chrome_trace_path.empty()) {
    ctx.tracer = &tracer;
    ctx.convergence = &recorder;
  }
  if (dump_metrics) ctx.metrics = &metrics;
  obs::ObsContext* obs_ptr =
      (ctx.tracer != nullptr || ctx.metrics != nullptr) ? &ctx : nullptr;

  Solved<graph::Graph> parsed;
  if (file.empty()) {
    parsed = graph::try_parse_edge_list(std::cin);
  } else {
    std::ifstream in(file);
    if (!in) return fail_invalid("cannot open " + file);
    parsed = graph::try_parse_edge_list(in);
  }
  if (!parsed.ok()) {
    std::cerr << "defender_cli: " << parsed.status.to_string() << '\n';
    return 2;
  }
  const graph::Graph& g = parsed.result;

  if (!connect_address.empty() && batch_path.empty())
    return fail_invalid("--connect requires --batch (the jobs to ship)");
  if (isolate && batch_path.empty())
    return fail_invalid("--isolate requires --batch (it isolates the "
                        "engine pool, not the single-board analysis)");
  if (isolate && !connect_address.empty())
    return fail_invalid("--isolate cannot be combined with --connect "
                        "(isolation is server-side: defender_serve "
                        "--isolate-workers)");
  if (isolate && !cache_path.empty())
    return fail_invalid("--cache cannot be combined with --isolate: "
                        "subprocess workers are cache-less, so the store "
                        "would silently stop filling");

  // Batch engine mode: run the jobs through the resilient SolveEngine pool
  // and skip the single-board analysis entirely.
  if (!batch_path.empty()) {
    std::ifstream batch_in(batch_path);
    if (!batch_in)
      return fail_invalid("cannot open batch file " + batch_path);
    const Solved<std::vector<BatchLine>> lines = parse_batch_file(batch_in);
    if (!lines.ok()) {
      std::cerr << "defender_cli: " << lines.status.to_string() << '\n';
      return 2;
    }
    // Remote batch: ship the jobs to a defender_serve instance instead of
    // running the local engine (docs/SERVE.md).
    if (!connect_address.empty())
      return run_connect(g, lines.result, connect_address, connect_client,
                         report_path);
    engine::EngineConfig config;
    config.workers = pool_workers;
    if (isolate) config.isolation = engine::IsolationMode::kProcess;
    if (!retry_spec.empty()) {
      const Solved<engine::RetryPolicy> ladder =
          engine::RetryPolicy::try_parse(retry_spec);
      if (!ladder.ok()) {
        std::cerr << "defender_cli: " << ladder.status.to_string() << '\n';
        return 2;
      }
      config.retry = ladder.result;
    }
    config.tracer = ctx.tracer;
    config.metrics = ctx.metrics;

    // Canonical-form solve cache: merge the persistent store when the
    // file already exists (a missing file just means a cold start), arm
    // the engine, and rewrite the store after the batch.
    std::unique_ptr<cache::SolveCache> solve_cache;
    if (!cache_path.empty()) {
      cache::CacheConfig cache_config;
      cache_config.capacity = cache_capacity;
      cache_config.metrics = ctx.metrics;
      solve_cache = std::make_unique<cache::SolveCache>(cache_config);
      if (io::artifact_present(cache_path)) {
        io::LoadReport report;
        const Status loaded =
            cache::load_cache_file(cache_path, solve_cache.get(), &report);
        if (!loaded.ok()) return fail_status(loaded);
        log_recovery("cache store", report);
      }
      config.cache = solve_cache.get();
    }

    std::cout << "Board: n=" << g.num_vertices() << " m=" << g.num_edges()
              << "\n\n";
    const int rc = run_batch(g, lines.result, config,
                             budget.wall_clock_seconds, fault_rate,
                             fault_seed);
    if (solve_cache != nullptr) {
      // Atomic checksummed rewrite: a crash here costs at most this run's
      // new entries, never the store that existed before the batch.
      const Status saved = cache::save_cache_file(cache_path, *solve_cache);
      if (!saved.ok()) return fail_status(saved);
      const cache::CacheStats cs = solve_cache->stats();
      std::cout << "\nCache: " << solve_cache->size() << " entries -> "
                << cache_path << " (" << cs.hits << " hits, " << cs.misses
                << " misses, " << cs.stores << " stores, " << cs.evictions
                << " evictions)\n";
    }
    if (ctx.tracer != nullptr) {
      tracer.flush();
      std::cout << "\nTrace: " << tracer.events_emitted() << " events";
      if (!trace_path.empty()) std::cout << " -> " << trace_path;
      if (!chrome_trace_path.empty())
        std::cout << " -> " << chrome_trace_path << " (chrome://tracing)";
      std::cout << '\n';
    }
    if (dump_metrics)
      std::cout << "\nMetrics:\n" << metrics.to_json() << '\n';
    return rc;
  }

  std::cout << "Board: n=" << g.num_vertices() << " m=" << g.num_edges()
            << ", game Pi_" << k << "(G) with nu=" << nu << " attackers\n\n";
  if (k < 1 || k > g.num_edges())
    return fail_invalid("k must satisfy 1 <= k <= m = " +
                        std::to_string(g.num_edges()));
  const core::TupleGame game(g, k, nu);

  // Theorem 3.1.
  const std::size_t threshold = matching::min_edge_cover_size(g);
  std::cout << "Pure NE threshold (min edge cover): k >= " << threshold
            << " -> " << (k >= threshold ? "PURE NE AVAILABLE" : "mixed play required")
            << '\n';
  if (const auto pure = core::find_pure_ne(game)) {
    std::cout << "  deterministic cover: edges {";
    for (std::size_t i = 0; i < pure->defender_tuple.size(); ++i) {
      const graph::Edge& e = g.edge(pure->defender_tuple[i]);
      std::cout << (i ? ", " : "") << e.u << '-' << e.v;
    }
    std::cout << "} catches all attackers\n";
  }
  std::cout << '\n';

  // k-matching NE.
  bool printed_equilibrium = false;
  if (const auto result = core::find_k_matching_ne(game)) {
    printed_equilibrium = true;
    const double hit =
        core::analytic_hit_probability(game, result->k_matching_ne);
    std::cout << "k-matching NE found (A_tuple):\n"
              << "  attacker support |IS| = "
              << result->k_matching_ne.vp_support.size()
              << ", defender tuples = " << result->support_size << '\n'
              << "  hit probability = " << hit << ", expected arrests = "
              << core::analytic_defender_profit(game, result->k_matching_ne)
              << ", defense optimality = "
              << core::defense_optimality(game, hit) << '\n'
              << core::verify_mixed_ne(game, result->configuration).describe()
              << '\n';
    if (dot) {
      graph::DotOptions opts;
      opts.name = "equilibrium";
      opts.highlight_vertices = result->k_matching_ne.vp_support;
      opts.highlight_edges = result->configuration.defender.edge_union();
      std::cout << graph::to_dot(g, opts) << '\n';
    }
  } else {
    std::cout << "No k-matching NE found (no (IS, VC-expander) partition "
                 "discovered; exact for bipartite or n <= 24 boards).\n\n";
  }

  // Perfect-matching NE.
  if (core::has_perfect_matching(g) && k <= g.num_vertices() / 2) {
    const auto pm = core::find_perfect_matching_ne(game);
    if (pm) {
      const double hit = core::analytic_hit_probability(game, *pm);
      std::cout << "Perfect-matching NE found (defense-optimal):\n"
                << "  hit probability = " << hit
                << " (= coverage ceiling 2k/n), expected arrests = "
                << core::analytic_defender_profit(game, *pm) << '\n';
      printed_equilibrium = true;
    }
  }

  if (!printed_equilibrium)
    std::cout << "No structural mixed equilibrium found for this board; try "
                 "other k, or use the LP solver on small instances.\n";

  // Zero-sum game value via the budgeted double oracle. A budget that runs
  // out is reported as a certified bracket, never a crash — and with
  // --save-checkpoint the final loop state is written out so a later run
  // can continue it via --resume-checkpoint.
  fault::FaultPlan plan;
  plan.seed = fault_seed;
  plan.set_all(fault_rate);
  fault::FaultContext fault_ctx(plan);
  fault::FaultContext* fault_ptr = fault_rate > 0.0 ? &fault_ctx : nullptr;

  core::SolverCheckpoint resumed, captured;
  core::ResumeHooks hooks;
  if (!resume_checkpoint_path.empty()) {
    io::LoadReport report;
    const Solved<core::SolverCheckpoint> parsed_cp =
        core::load_checkpoint_file(resume_checkpoint_path, &report);
    if (!parsed_cp.ok()) return fail_status(parsed_cp.status);
    log_recovery("checkpoint", report);
    resumed = parsed_cp.result;
    hooks.resume = &resumed;
  }
  if (!save_checkpoint_path.empty()) hooks.capture = &captured;

  std::cout << "\nGame value (budgeted double oracle, max "
            << budget.max_iterations << " iterations";
  if (budget.wall_clock_seconds > 0)
    std::cout << ", deadline " << budget.wall_clock_seconds << "s";
  if (hooks.resume != nullptr)
    std::cout << ", resuming after " << resumed.iterations << " iterations";
  if (fault_ptr != nullptr)
    std::cout << ", fault rate " << fault_rate << " seed " << fault_seed;
  std::cout << "):\n";
  const Solved<core::DoubleOracleResult> solved =
      core::solve_double_oracle_resumable(game, 1e-9, budget, hooks, obs_ptr,
                                          fault_ptr);
  if (solved.ok()) {
    std::cout << "  hit probability = " << solved.result.value << " ("
              << solved.result.iterations << " iterations, gap "
              << solved.result.gap << ")\n";
  } else {
    std::cout << "  status: " << solved.status.to_string() << '\n'
              << "  certified bracket: [" << solved.result.lower_bound
              << ", " << solved.result.upper_bound << "], best estimate "
              << solved.result.value << '\n';
  }
  if (hooks.capture != nullptr &&
      solved.status.code != StatusCode::kInvalidInput) {
    // Durable save through the same fault context as the solve, so an
    // armed --fault-rate plan exercises the io-* sites too.
    io::AtomicWriteOptions write_opts;
    write_opts.fault = fault_ptr;
    const Status saved =
        core::save_checkpoint_file(save_checkpoint_path, captured, write_opts);
    if (!saved.ok()) return fail_status(saved);
    std::cout << "  checkpoint (" << captured.iterations
              << " iterations) -> " << save_checkpoint_path << '\n';
  }
  if (fault_ptr != nullptr)
    std::cout << "  fault injection: " << fault_ctx.summary() << '\n';

  if (obs_ptr != nullptr && obs_ptr->tracer != nullptr) {
    tracer.flush();
    std::cout << "\nTrace: " << tracer.events_emitted() << " events";
    if (!trace_path.empty()) std::cout << " -> " << trace_path;
    if (!chrome_trace_path.empty())
      std::cout << " -> " << chrome_trace_path << " (chrome://tracing)";
    std::cout << ", " << recorder.samples().size()
              << " convergence samples\n";
  }
  if (dump_metrics) std::cout << "\nMetrics:\n" << metrics.to_json() << '\n';
  return 0;
}
