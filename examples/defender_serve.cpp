// defender_serve — a long-lived solve service over the SolveEngine.
//
// Listens on TCP (--tcp HOST:PORT, dotted IPv4, port 0 = ephemeral)
// and/or a Unix socket (--unix PATH) for JSONL requests (one JSON object
// per line; grammar in docs/SERVE.md) and routes solve jobs through a
// shared worker pool with one canonical-form solve cache:
//
//   {"type":"solve","id":"j1","client":"alice","solver":"double-oracle",
//    "n":6,"k":2,"attackers":3,"edges":[[0,1],[1,2],...],"iters":200}
//
// Robustness features (the reason this binary exists):
//   * admission control: a bounded queue with high/low watermarks; at the
//     high watermark solves are rejected with status "overloaded" and a
//     retry_after_ms hint instead of buffering without bound;
//   * per-client quotas: --rate/--burst token bucket and --max-inflight
//     cap, plus weighted-fair dequeue (--weight CLIENT=W) so one greedy
//     client cannot starve the rest;
//   * graceful drain: SIGTERM (or a {"type":"shutdown"} request) stops
//     admission, lets running jobs finish for --drain-deadline seconds,
//     cancels the stragglers, and writes every unfinished job — with its
//     solver checkpoint where one was truthfully captured — to the
//     --drain-manifest file ("defender-drain v1"). A restarted server
//     passed --resume FILE re-admits those jobs and, because the engine
//     is deterministic, their results are bit-identical to an
//     uninterrupted run; they land in the --resume-report JSONL file
//     keyed by the original request ids;
//   * observability: {"type":"metrics"} returns the full metrics registry
//     as JSON; --metrics dumps it on exit.
//
//   * process isolation: --isolate-workers routes every solve through a
//     supervised subprocess pool (docs/SUPERVISION.md) so a crashing or
//     hanging solver kills a worker process, never the service; crashed
//     jobs are retried (resuming from streamed checkpoints) and poison
//     jobs are quarantined with status "worker-crashed".
//
// Usage: defender_serve [--tcp HOST:PORT] [--unix PATH] [--jobs N]
//                       [--queue-high N] [--queue-low N]
//                       [--rate R] [--burst N] [--max-inflight N]
//                       [--retry-after-ms MS] [--drain-deadline S]
//                       [--max-budget-iters N] [--weight CLIENT=W]...
//                       [--retry-ladder SPEC] [--cache FILE]
//                       [--cache-size N] [--resume FILE]
//                       [--resume-report FILE] [--drain-manifest FILE]
//                       [--port-file FILE] [--isolate-workers] [--metrics]
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cache/cache.hpp"
#include "engine/retry.hpp"
#include "io/durable.hpp"
#include "obs/metrics.hpp"
#include "serve/drain.hpp"
#include "serve/server.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/worker.hpp"
#include "util/record.hpp"

namespace {

defender::serve::SolveServer* g_server = nullptr;

extern "C" void on_signal(int) {
  // request_shutdown() is async-signal-safe (atomic store + write(2)).
  if (g_server != nullptr) g_server->request_shutdown();
}

void usage() {
  std::cerr
      << "usage: defender_serve [--tcp HOST:PORT] [--unix PATH]\n"
         "                      [--jobs N] [--queue-high N] [--queue-low N]\n"
         "                      [--rate R] [--burst N] [--max-inflight N]\n"
         "                      [--retry-after-ms MS] [--drain-deadline S]\n"
         "                      [--max-budget-iters N] [--weight CLIENT=W]\n"
         "                      [--retry-ladder SPEC] [--cache FILE]\n"
         "                      [--cache-size N] [--resume FILE]\n"
         "                      [--resume-report FILE]\n"
         "                      [--drain-manifest FILE] [--port-file FILE]\n"
         "                      [--isolate-workers] [--metrics]\n"
         "  Serves JSONL solve requests (docs/SERVE.md). SIGTERM drains\n"
         "  gracefully: unfinished jobs (with checkpoints) are written to\n"
         "  the --drain-manifest file; restart with --resume FILE to\n"
         "  finish them bit-identically, results to --resume-report.\n";
}

int fail(const std::string& message) {
  std::cerr << "defender_serve: "
            << defender::Status::make(defender::StatusCode::kInvalidInput,
                                      message)
                   .to_string()
            << '\n';
  return 2;
}

int fail_status(const defender::Status& status) {
  std::cerr << "defender_serve: " << status.to_string() << '\n';
  return 2;
}

/// Logs what artifact recovery had to do, so a fallback or salvage is
/// visible in the service log instead of silently shrinking state.
void log_recovery(const char* what, const defender::io::LoadReport& report) {
  if (report.recovered)
    std::cerr << "defender_serve: " << what << " recovered: " << report.note
              << '\n';
}

/// Caps on numeric flag values: --jobs sizes a thread or process pool, so
/// it gets a tight one.
constexpr std::uint64_t kMaxCountArg = 1'000'000'000;
constexpr std::uint64_t kMaxWorkers = 1024;

/// Non-zero exit for a malformed numeric flag value.
int bad_flag(const std::string& flag, const char* value) {
  return fail("bad " + flag + " value '" + value + "'");
}

/// A finite double no less than `min`.
bool parse_at_least(const char* arg, double min, double* out) {
  return defender::util::parse_finite(arg, out) && *out >= min;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace defender;

  // Worker re-exec entry point: when the supervisor forked this binary as
  // a pool worker, this call never returns. Must precede everything else.
  supervise::worker_trampoline(argc, argv);

  // Process-wide, before any socket or pipe exists: a peer (client socket
  // or supervised worker) dying mid-write must surface as EPIPE, not kill
  // the service.
  std::signal(SIGPIPE, SIG_IGN);

  serve::ServerConfig config;
  std::string retry_spec, cache_path, resume_path, resume_report_path;
  std::string drain_manifest_path, port_file_path;
  std::size_t cache_capacity = cache::kDefaultCacheCapacity;
  bool dump_metrics = false;
  bool isolate_workers = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0)
        return fail("--tcp needs HOST:PORT, got " + spec);
      config.tcp_host = spec.substr(0, colon);
      if (!util::parse_count(spec.substr(colon + 1), 65535,
                             &config.tcp_port))
        return fail("bad TCP port in " + spec);
    } else if (arg == "--unix" && i + 1 < argc) {
      config.unix_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxWorkers, &config.service.workers))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--queue-high" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg,
                             &config.service.queue_high_watermark))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--queue-low" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg,
                             &config.service.queue_low_watermark))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--rate" && i + 1 < argc) {
      if (!parse_at_least(argv[++i], 0, &config.service.tokens_per_second))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--burst" && i + 1 < argc) {
      if (!parse_at_least(argv[++i], 1, &config.service.token_burst))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg,
                             &config.service.max_inflight_per_client))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--retry-after-ms" && i + 1 < argc) {
      if (!parse_at_least(argv[++i], 0, &config.service.retry_after_ms))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--drain-deadline" && i + 1 < argc) {
      if (!parse_at_least(argv[++i], 0,
                          &config.service.drain_deadline_seconds))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--max-budget-iters" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg,
                             &config.service.max_budget_iterations))
        return bad_flag(arg, argv[i]);
    } else if (arg == "--weight" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0)
        return fail("--weight needs CLIENT=W, got " + spec);
      double w = 0;
      if (!util::parse_finite(spec.substr(eq + 1), &w) || !(w > 0))
        return bad_flag(arg, argv[i]);
      config.service.client_weights[spec.substr(0, eq)] = w;
    } else if (arg == "--retry-ladder" && i + 1 < argc) {
      retry_spec = argv[++i];
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--cache-size" && i + 1 < argc) {
      if (!util::parse_count(argv[++i], kMaxCountArg, &cache_capacity) ||
          cache_capacity == 0)
        return fail("--cache-size must be positive");
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--resume-report" && i + 1 < argc) {
      resume_report_path = argv[++i];
    } else if (arg == "--drain-manifest" && i + 1 < argc) {
      drain_manifest_path = argv[++i];
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file_path = argv[++i];
    } else if (arg == "--isolate-workers") {
      isolate_workers = true;
    } else if (arg == "--metrics") {
      dump_metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  if (!retry_spec.empty()) {
    const Solved<engine::RetryPolicy> ladder =
        engine::RetryPolicy::try_parse(retry_spec);
    if (!ladder.ok()) return fail(ladder.status.message);
    config.service.engine.retry = ladder.result;
  }
  config.service.engine.metrics = &obs::MetricsRegistry::global();

  if (isolate_workers && !cache_path.empty())
    return fail("--cache cannot be combined with --isolate-workers: "
                "subprocess workers are cache-less, so a shared cache "
                "would silently stop filling");

  // Subprocess isolation: one supervised pool, sized like the service
  // thread pool, consumed through the isolated_run hook.
  std::unique_ptr<supervise::WorkerPool> worker_pool;
  if (isolate_workers) {
    supervise::PoolConfig pool_config;
    pool_config.workers = std::max<std::size_t>(1, config.service.workers);
    pool_config.engine = config.service.engine;
    pool_config.metrics = config.service.engine.metrics;
    worker_pool = std::make_unique<supervise::WorkerPool>(pool_config);
    supervise::WorkerPool* pool = worker_pool.get();
    config.service.isolated_run =
        [pool](const engine::SolveJob& job, std::size_t job_index,
               const engine::JobRunHooks& hooks) {
          return pool->run_one(job, job_index, hooks);
        };
  }

  // Shared canonical-form cache across every request (docs/CACHE.md):
  // isomorphic boards submitted by different clients cost one solve.
  std::unique_ptr<cache::SolveCache> solve_cache;
  if (!cache_path.empty()) {
    cache::CacheConfig cache_config;
    cache_config.capacity = cache_capacity;
    cache_config.metrics = config.service.engine.metrics;
    solve_cache = std::make_unique<cache::SolveCache>(cache_config);
    if (io::artifact_present(cache_path)) {
      io::LoadReport report;
      const Status loaded =
          cache::load_cache_file(cache_path, solve_cache.get(), &report);
      if (!loaded.ok()) return fail_status(loaded);
      log_recovery("cache store", report);
    }
    config.service.engine.cache = solve_cache.get();
  }

  std::ofstream resume_report;
  if (!resume_report_path.empty()) {
    resume_report.open(resume_report_path, std::ios::trunc);
    if (!resume_report)
      return fail("cannot write resume report " + resume_report_path);
    config.on_orphan = [&resume_report](const std::string& client,
                                        const std::string& line) {
      (void)client;
      resume_report << line << '\n';
      resume_report.flush();
    };
  }

  serve::SolveServer server(std::move(config));
  const Status started = server.start();
  if (!started.ok()) return fail(started.message);

  if (!port_file_path.empty() && server.tcp_port() != 0) {
    // Checked write: a short write here would leave smoke scripts waiting
    // on a port that was never fully published.
    const Status wrote = io::write_file_checked(
        port_file_path, std::to_string(server.tcp_port()) + "\n");
    if (!wrote.ok()) return fail_status(wrote);
  }

  std::size_t resumed = 0;
  if (!resume_path.empty()) {
    io::LoadReport report;
    const Solved<serve::DrainManifest> manifest =
        serve::load_drain_manifest_file(resume_path, &report);
    if (!manifest.ok()) return fail_status(manifest.status);
    log_recovery("drain manifest", report);
    resumed = server.resume(manifest.result);
  }

  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::cout << "defender_serve: listening";
  if (server.tcp_port() != 0) std::cout << " tcp=" << server.tcp_port();
  if (resumed > 0) std::cout << " resumed=" << resumed;
  std::cout << std::endl;  // flush: smoke scripts wait for this line

  const serve::DrainManifest manifest = server.run();
  g_server = nullptr;

  // Both exit artifacts go through the atomic checksummed protocol
  // (docs/DURABILITY.md): a crash or full disk mid-write can cost at most
  // this generation, never the previous one — and a failure is a loud
  // non-zero exit naming the path, never a silently torn file.
  if (!drain_manifest_path.empty()) {
    const Status saved =
        serve::save_drain_manifest_file(drain_manifest_path, manifest);
    if (!saved.ok()) return fail_status(saved);
  }

  if (solve_cache != nullptr) {
    const Status saved = cache::save_cache_file(cache_path, *solve_cache);
    if (!saved.ok()) return fail_status(saved);
  }

  if (resume_report.is_open()) {
    resume_report.flush();
    if (!resume_report)
      return fail_status(Status::make(
          StatusCode::kIoError,
          "resume report '" + resume_report_path + "' hit a write error"));
  }

  std::cout << "defender_serve: drained " << manifest.jobs.size()
            << " unfinished job(s)";
  if (!drain_manifest_path.empty() && !manifest.jobs.empty())
    std::cout << " -> " << drain_manifest_path;
  std::cout << '\n';
  if (dump_metrics)
    std::cout << obs::MetricsRegistry::global().to_json() << '\n';
  return 0;
}
