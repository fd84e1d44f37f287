// defender_e2e: the end-to-end load driver for defender_serve.
//
// One run of one workload (README.md):
//   1. solve every distinct instance in process, configured like the
//      workload's server — the truth every served result must equal bit
//      for bit (and, for isomorph-zipf, the preloaded cache store);
//   2. spawn the real defender_serve, timing spawn to "listening", the
//      last of kSetupProbes + 1 spawns serving the run and kSetupProbes
//      more after it;
//   3. drive it for a warm-up plus --seconds from one poll thread over at
//      most four connections, snapshotting its registry and /proc at the
//      window edges;
//   4. with --trace 1, replay the stream on one thread through the same
//      public entry points with spans around each call, and write the
//      spans to <workdir>/trace-<workload>.jsonl.
// The last stdout line is one JSON object: correct, attempted, failed and
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics. Any
// mismatch or missing result makes the exit code non-zero.
//
// Usage: defender_e2e --workload NAME --seed N --seconds S --trace 0|1
//                     --server PATH --workdir DIR [--commit ID]
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "engine/engine.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "served.hpp"
#include "supervise/worker.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

/// Probe spawns before and again after the served run (set-up time
/// drifts with the host's state, so the samples straddle the window);
/// setup_s is the median of these and the serving spawn.
constexpr int kSetupProbes = 10;
/// Window requests per latency block: a block's p99 has ten samples
/// beyond it.
constexpr std::size_t kBlockRequests = 1000;
/// The replay runs for at most this share of --seconds.
constexpr double kReplayShare = 0.25;
/// The replay's mean engine call must be within this share of the served
/// mean job time on solve-heavy, or the trace is flagged.
constexpr double kRepresentativeShare = 0.2;
/// Open-loop generator lateness above which a run is not valid.
constexpr double kMaxLateMs = 5.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms"},        {"latency_p99_ms", "ms"},
    {"throughput_rps", "1/s"},       {"ok_ratio", "ratio"},
    {"server_cpu_ms_per_req", "ms"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};
constexpr MetricDef kPerLayer[] = {
    {"serve.parse_us", "us"},
    {"serve.render_us", "us"},
    {"serve.job_ms", "ms"},
    {"serve.outside_job_ms", "ms"},
    {"serve.rejected", "count"},
    {"engine.jobs_degraded", "count"},
    {"engine.run_one_us", "us"},
    {"engine.retries_per_job", "count"},
    {"cache.canon_us", "us"},
    {"cache.canon_nodes", "count"},
    {"cache.lookup_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.stores", "count"},
    {"cache.evictions", "count"},
    {"io.cache_load_ms", "ms"},
    {"io.cache_store_bytes", "bytes"},
    {"do.solve_ms", "ms"},
    {"do.iterations_per_solve", "count"},
    {"do.lp_share", "ratio"},
    {"do.oracle_ms_per_solve", "ms"},
    {"oracle.calls_per_solve", "count"},
    {"oracle.nodes_per_call", "count"},
    {"lp.solve_ms", "ms"},
    {"lp.pivots_per_solve", "count"},
    {"lp.us_per_pivot", "us"},
    {"fp.rounds_per_solve", "count"},
    {"fp.solve_ms", "ms"},
    {"hedge.rounds_per_solve", "count"},
    {"hedge.solve_ms", "ms"},
    {"supervise.ipc_us", "us"},
    {"supervise.restarts", "count"},
    {"supervise.heartbeat_misses", "count"},
    {"driver.late_max_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string commit = "unknown";
};

[[noreturn]] void usage() {
  std::cerr << "usage: defender_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH --workdir DIR [--commit ID]\n"
               "  workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds >= 1)) usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage();
      a.trace = value == "1";
      have_trace = true;
    } else if (arg == "--server") {
      a.server = value;
    } else if (arg == "--workdir") {
      a.workdir = value;
    } else if (arg == "--commit") {
      a.commit = value;
    } else {
      usage();
    }
  }
  if (!have_seed || !have_trace || a.seconds == 0 || a.server.empty() ||
      a.workdir.empty() ||
      std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end())
    usage();
  return a;
}

defender::engine::SolveJob parse_job(const std::string& fields) {
  const defender::Solved<defender::serve::Request> request =
      defender::serve::try_parse_request(request_line("t", "t", fields));
  std::optional<defender::engine::SolveJob> job;
  const defender::Status built =
      request.ok() ? defender::serve::to_job(request.result, &job)
                   : request.status;
  if (!built.ok())
    throw std::runtime_error("workload generated a bad request: " +
                             built.message);
  return std::move(*job);
}

/// The in-process answers, solved with the workload's server engine
/// configuration; for a cache workload also the store its server loads.
struct TruthSet {
  std::vector<Truth> truth;
  std::unique_ptr<defender::cache::SolveCache> preload;
};

TruthSet compute_truth(const Workload& w) {
  using namespace defender;
  TruthSet out;
  out.truth.resize(w.instances.size());
  cache::CacheConfig all_config;
  all_config.capacity = w.instances.size();
  cache::SolveCache all(all_config);
  engine::EngineConfig config;
  if (w.cache) config.cache = &all;  // canonical routing, like the server
  const engine::SolveEngine engine(config);
  std::vector<std::size_t> order = w.preload_order;
  if (order.empty())
    for (std::size_t i = 0; i < w.instances.size(); ++i) order.push_back(i);
  for (const std::size_t i : order) {
    const engine::JobResult r = engine.run_one(parse_job(w.instances[i]), i, {});
    if (!r.ok() || r.attempts.size() != 1)
      throw std::runtime_error("instance " + std::to_string(i) +
                               " does not solve cleanly in process: " +
                               r.status.to_string());
    out.truth[i] = truth_of(r);
  }
  if (w.cache) {
    // Solved least popular first, so the kCacheEntries most recently used
    // entries — the ones a capacity-limited reload keeps — are the most
    // popular classes.
    cache::CacheConfig preload_config;
    preload_config.capacity = kCacheEntries;
    out.preload = std::make_unique<cache::SolveCache>(preload_config);
    const Status merged = out.preload->merge_text(all.to_text());
    if (!merged.ok())
      throw std::runtime_error("cannot build the preload store: " +
                               merged.message);
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t mid = s.size() / 2;
  return s.size() % 2 == 1 ? s[mid] : 0.5 * (s[mid - 1] + s[mid]);
}

/// Median over consecutive blocks of kBlockRequests window requests (in
/// start order) of each block's p50 and p99.
std::pair<double, double> block_latency(std::vector<Outcome> window) {
  std::sort(window.begin(), window.end(),
            [](const Outcome& a, const Outcome& b) { return a.start_s < b.start_s; });
  const std::size_t blocks =
      std::max<std::size_t>(1, window.size() / kBlockRequests);
  std::vector<double> p50, p99;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> ms;
    for (std::size_t i = b * window.size() / blocks;
         i < (b + 1) * window.size() / blocks; ++i)
      ms.push_back(window[i].latency_ms);
    p50.push_back(percentile(ms, 0.50));
    p99.push_back(percentile(ms, 0.99));
  }
  return {median(p50), median(p99)};
}

/// Median over the one-second slices of ok requests started per second.
double slice_throughput(const ServedResult& s) {
  const std::vector<double>& edges = s.slice_seconds;
  std::vector<double> per_slice(edges.size() - 1, 0.0);
  for (const Outcome& o : s.window) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), o.start_s);
    const auto slice = static_cast<std::size_t>(it - edges.begin()) - 1;
    if (o.ok && slice < per_slice.size()) per_slice[slice] += 1;
  }
  for (std::size_t k = 0; k < per_slice.size(); ++k)
    per_slice[k] /= edges[k + 1] - edges[k];
  return median(per_slice);
}

/// Median over the one-second slices of server CPU per result received.
double slice_cpu_per_request(const ServedResult& s) {
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < s.slice_cpu_ms.size(); ++k)
    if (s.slice_received[k] > 0)
      per_slice.push_back(s.slice_cpu_ms[k] /
                          static_cast<double>(s.slice_received[k]));
  return median(per_slice);
}

/// Removes the per-run directory (socket, cache store) on every exit path.
struct RunDir {
  explicit RunDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  std::filesystem::path path;
};

/// The per-layer metrics of the served run: its registry diffed over the
/// window, plus the driver's own lateness.
std::map<std::string, double> served_per_layer(const ServedResult& served) {
  const Registry& r = served.registry;
  std::map<std::string, double> m;
  const auto c = [&](const char* name) { return get(r.counters, name); };
  const auto hc = [&](const char* name) { return get(r.hist_count, name); };
  const auto hs = [&](const char* name) { return get(r.hist_sum, name); };

  m["serve.job_ms"] = ratio(hs("serve.job_ms"), hc("serve.job_ms"));
  double ok_ms = 0, ok_count = 0;
  for (const Outcome& o : served.window)
    if (o.ok) {
      ok_ms += o.latency_ms;
      ok_count += 1;
    }
  m["serve.outside_job_ms"] = ratio(ok_ms, ok_count) - m["serve.job_ms"];
  m["serve.rejected"] = c("serve.rejected");
  m["engine.jobs_degraded"] = c("engine.jobs_degraded");
  m["cache.hit_ratio"] =
      ratio(c("cache.hits"), c("cache.hits") + c("cache.misses"));
  m["cache.stores"] = c("cache.stores");
  m["cache.evictions"] = c("cache.evictions");
  // Double oracle: the plain and weighted variants together.
  const double do_solves = hc("do.solve_ms") + hc("do.weighted.solve_ms");
  const double do_ms = hs("do.solve_ms") + hs("do.weighted.solve_ms");
  const double lp_ms = hs("lp.solve_ms");
  m["do.solve_ms"] = ratio(do_ms, do_solves);
  m["do.iterations_per_solve"] =
      ratio(c("do.iterations") + c("do.weighted.iterations"), do_solves);
  m["do.lp_share"] = ratio(lp_ms, do_ms);
  m["do.oracle_ms_per_solve"] = ratio(do_ms - lp_ms, do_solves);
  m["oracle.calls_per_solve"] = ratio(c("oracle.calls"), do_solves);
  m["oracle.nodes_per_call"] = ratio(c("oracle.nodes"), c("oracle.calls"));
  m["lp.solve_ms"] = ratio(lp_ms, c("lp.solves"));
  m["lp.pivots_per_solve"] = ratio(c("lp.pivots"), c("lp.solves"));
  m["lp.us_per_pivot"] = ratio(lp_ms * 1e3, c("lp.pivots"));
  m["supervise.restarts"] = c("supervise.restarts");
  m["supervise.heartbeat_misses"] = c("supervise.heartbeat_misses");
  m["driver.late_max_ms"] = served.late_max_ms;
  return m;
}

std::string render_metrics(const MetricDef* begin, const MetricDef* end,
                           const std::map<std::string, double>& values) {
  defender::util::JsonWriter metrics;
  for (const MetricDef* d = begin; d != end; ++d) {
    const auto it = values.find(d->name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not computed: ") + d->name);
    defender::util::JsonWriter one;
    one.num("value", it->second);
    one.str("unit", d->unit);
    metrics.raw(d->name, one.object());
  }
  return metrics.object();
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.seconds);
  const RunDir dir(std::filesystem::path(args.workdir) /
                   ("run-" + std::to_string(::getpid())));
  const std::string store = (dir.path / "cache.store").string();
  const std::string socket = (dir.path / "serve.sock").string();

  const TruthSet truth = compute_truth(w);
  const auto write_store = [&] {
    if (!w.cache) return;
    const defender::Status saved =
        defender::cache::save_cache_file(store, *truth.preload);
    if (!saved.ok())
      throw std::runtime_error("cannot write the cache store: " +
                               saved.message);
  };

  std::vector<std::string> argv = {args.server, "--jobs",
                                   std::to_string(kServerJobs)};
  if (w.tcp) {
    argv.insert(argv.end(), {"--tcp", "127.0.0.1:0"});
  } else {
    argv.insert(argv.end(), {"--unix", socket});
  }
  if (w.cache)
    argv.insert(argv.end(),
                {"--cache", store, "--cache-size", std::to_string(kCacheEntries)});
  if (w.isolated) argv.push_back("--isolate-workers");
  argv.insert(argv.end(), w.server_flags.begin(), w.server_flags.end());

  std::vector<double> setups;
  const auto probe_setups = [&] {
    for (int s = 0; s < kSetupProbes; ++s) {
      write_store();
      ServerProcess probe;
      probe.start(argv);
      setups.push_back(probe.setup_seconds());
      probe.stop();
    }
  };
  probe_setups();
  write_store();
  ServerProcess server;
  server.start(argv);
  setups.push_back(server.setup_seconds());
  const ServedResult served =
      run_load(w, server, socket, args.seconds, truth.truth);
  server.stop();
  probe_setups();

  std::optional<ReplayResult> replay;
  if (args.trace) {
    write_store();
    replay = run_replay(w, served.issued, kReplayShare * args.seconds,
                        truth.truth, store);
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const bool late = w.loop == Loop::kOpen && served.late_max_ms > kMaxLateMs;
  const std::size_t mismatched =
      served.mismatched + (replay ? replay->mismatched : 0);
  const bool correct = mismatched == 0 && served.missing == 0;

  const double driver_busy = served.driver_cpu_ms / (args.seconds * 1e3);
  std::map<std::string, double> values;
  values["setup_s"] = median(setups);
  const std::size_t window_ok = static_cast<std::size_t>(
      std::count_if(served.window.begin(), served.window.end(),
                    [](const Outcome& o) { return o.ok; }));
  std::tie(values["latency_p50_ms"], values["latency_p99_ms"]) =
      block_latency(served.window);
  values["throughput_rps"] = slice_throughput(served);
  values["ok_ratio"] = ratio(static_cast<double>(window_ok),
                             static_cast<double>(served.window.size()));
  values["server_cpu_ms_per_req"] = slice_cpu_per_request(served);
  values["peak_rss_mb"] = served.peak_rss_mb;
  for (const auto& [name, v] : served_per_layer(served))
    values[name] = v;

  std::cerr << "defender_e2e: " << w.name << " seed=" << args.seed
            << " window=" << args.seconds << "s nproc=" << nproc
            << " window_requests=" << served.window.size()
            << " ok=" << window_ok << " failed=" << served.failed
            << " mismatched=" << mismatched << " missing=" << served.missing
            << " driver_busy=" << driver_busy << '\n';
  if (late)
    std::cerr << "defender_e2e: open-loop generator ran "
              << served.late_max_ms << " ms late (limit " << kMaxLateMs
              << " ms): this run is not valid\n";

  if (replay) {
    for (const auto& [name, v] : replay->metrics) values[name] = v;
    const double replay_ms = replay->metrics.at("engine.run_one_us") * 1e-3;
    const double job_ms = values.at("serve.job_ms");
    const bool checked = w.name == "solve-heavy";
    const bool representative =
        !checked || std::abs(replay_ms - job_ms) <= kRepresentativeShare * job_ms;
    if (!representative)
      std::cerr << "defender_e2e: trace unrepresentative: replay engine call "
                << replay_ms << " ms vs served job " << job_ms << " ms\n";
    defender::util::JsonWriter meta;
    meta.str("workload", w.name);
    meta.num("seed", static_cast<std::uint64_t>(args.seed));
    meta.str("commit", args.commit);
    meta.num("nproc", static_cast<std::uint64_t>(nproc));
    meta.num("replayed", static_cast<std::uint64_t>(replay->replayed));
    meta.num("replay_run_one_ms", replay_ms);
    meta.num("served_job_ms", job_ms);
    if (checked) meta.boolean("representative", representative);
    write_trace((std::filesystem::path(args.workdir) /
                 ("trace-" + w.name + ".jsonl"))
                    .string(),
                meta.object(), replay->spans);
  }

  defender::util::JsonWriter context;
  context.str("workload", w.name);
  context.num("seed", static_cast<std::uint64_t>(args.seed));
  context.num("seconds", args.seconds);
  context.num("nproc", static_cast<std::uint64_t>(nproc));
  context.str("commit", args.commit);
  context.num("window_requests",
              static_cast<std::uint64_t>(served.window.size()));
  context.num("driver_busy", driver_busy);
  context.boolean("valid", !late);
  std::cout << context.object() << '\n';

  defender::util::JsonWriter result;
  result.boolean("correct", correct);
  result.num("attempted", static_cast<std::uint64_t>(served.attempted));
  result.num("failed", static_cast<std::uint64_t>(served.failed));
  result.raw("metrics",
             args.trace
                 ? render_metrics(std::begin(kPerLayer), std::end(kPerLayer),
                                  values)
                 : render_metrics(std::begin(kEndToEnd), std::end(kEndToEnd),
                                  values));
  std::cout << result.object() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The traced replay of mixed-isolated hosts a WorkerPool, whose workers
  // re-exec this binary; must precede everything else.
  defender::supervise::worker_trampoline(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "defender_e2e: " << e.what() << '\n';
    return 2;
  }
}
