#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cache/cache.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "supervise/supervisor.hpp"
#include "util/json_writer.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Times of repeated cache-store loads; the median is reported.
constexpr int kStoreLoads = 5;

/// Spans in memory plus per-name busy-time totals.
class Recorder {
 public:
  std::size_t open(const char* name, std::size_t request,
                   std::int64_t parent = -1) {
    spans_.push_back(Span{name, request, parent, now_us(), 0, {}});
    return spans_.size() - 1;
  }
  /// Closes span `i` and returns its duration in microseconds.
  double close(std::size_t i, std::string args = {}) {
    Span& s = spans_[i];
    s.end_us = now_us();
    s.args = std::move(args);
    const double us = s.end_us - s.start_us;
    busy_us_[s.name] += us;
    ++calls_[s.name];
    return us;
  }
  double mean_us(const std::string& name) const {
    const auto it = calls_.find(name);
    return it == calls_.end() ? 0.0 : get(busy_us_, name) / it->second;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, double> busy_us_;
  std::map<std::string, double> calls_;
};

/// Solver counters whose per-call deltas annotate each engine span.
constexpr const char* kCallCounters[] = {
    "do.iterations", "do.weighted.iterations", "lp.pivots", "oracle.calls",
    "oracle.nodes",  "engine.retries"};

}  // namespace

ReplayResult run_replay(const Workload& w, std::size_t limit, double budget_s,
                        const std::vector<Truth>& truth,
                        const std::string& cache_store) {
  using namespace defender;
  ReplayResult out;
  obs::MetricsRegistry registry;
  engine::EngineConfig config;
  config.metrics = &registry;

  std::unique_ptr<cache::SolveCache> solve_cache;
  if (w.cache) {
    std::vector<double> load_ms;
    for (int i = 0; i < kStoreLoads; ++i) {
      cache::CacheConfig cache_config;
      cache_config.capacity = kCacheEntries;
      cache_config.metrics = &registry;
      auto fresh = std::make_unique<cache::SolveCache>(cache_config);
      const Clock::time_point t0 = Clock::now();
      const Status loaded = cache::load_cache_file(cache_store, fresh.get());
      load_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (!loaded.ok())
        throw std::runtime_error("replay cannot load the cache store: " +
                                 loaded.message);
      solve_cache = std::move(fresh);
    }
    std::sort(load_ms.begin(), load_ms.end());
    out.metrics["io.cache_load_ms"] = load_ms[load_ms.size() / 2];
    out.metrics["io.cache_store_bytes"] =
        static_cast<double>(std::filesystem::file_size(cache_store));
    config.cache = solve_cache.get();
  }
  const engine::SolveEngine engine(config);
  std::unique_ptr<supervise::WorkerPool> pool;
  if (w.isolated) {
    supervise::PoolConfig pool_config;
    pool_config.engine = config;
    pool = std::make_unique<supervise::WorkerPool>(pool_config);
  }

  std::vector<obs::Counter*> counters;
  for (const char* name : kCallCounters)
    counters.push_back(&registry.counter(name));
  std::vector<std::uint64_t> before(counters.size());

  Recorder rec;
  double canon_nodes = 0;
  double ipc_us = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;
       i < limit &&
       std::chrono::duration<double>(Clock::now() - t0).count() < budget_s;
       ++i) {
    const StreamItem item = w.request(i);
    const std::string id = "r" + std::to_string(i);
    const std::string line = request_line(
        id, "c" + std::to_string(i % kConnections), item.fields);
    const std::size_t root = rec.open("request", i);
    const auto parent = static_cast<std::int64_t>(root);

    std::size_t span = rec.open("serve.parse", i, parent);
    const Solved<serve::Request> request = serve::try_parse_request(line);
    std::optional<engine::SolveJob> job;
    const Status built =
        request.ok() ? serve::to_job(request.result, &job) : request.status;
    rec.close(span);
    if (!built.ok())
      throw std::runtime_error("replay rejected its own request " + id +
                               ": " + built.message);

    if (w.cache) {
      span = rec.open("cache.canon", i, parent);
      const engine::CanonicalJobKey key = engine::canonical_key_for_job(*job);
      rec.close(span, "\"nodes\":" + std::to_string(key.form.search_nodes));
      canon_nodes += static_cast<double>(key.form.search_nodes);
      span = rec.open("cache.lookup", i, parent);
      const bool hit = solve_cache->lookup(key.key).has_value();
      rec.close(span, std::string("\"hit\":") + (hit ? "true" : "false"));
    }

    for (std::size_t c = 0; c < counters.size(); ++c)
      before[c] = counters[c]->value();
    span = rec.open("engine.run_one", i, parent);
    const engine::JobResult result = engine.run_one(*job, i, {});
    std::string deltas;
    for (std::size_t c = 0; c < counters.size(); ++c) {
      const std::uint64_t d = counters[c]->value() - before[c];
      if (d == 0) continue;
      if (!deltas.empty()) deltas += ',';
      deltas += util::json_string(kCallCounters[c]) + ":" + std::to_string(d);
    }
    const double run_us = rec.close(span, std::move(deltas));
    if (!same_truth(truth_of(result), truth[item.instance])) ++out.mismatched;

    if (pool != nullptr) {
      span = rec.open("supervise.run_one", i, parent);
      const engine::JobResult isolated = pool->run_one(*job, i, {});
      ipc_us += rec.close(span) - run_us;
      if (!same_truth(truth_of(isolated), truth[item.instance]))
        ++out.mismatched;
    }

    span = rec.open("serve.render", i, parent);
    const std::string rendered = serve::result_response(id, result);
    rec.close(span, "\"bytes\":" + std::to_string(rendered.size()));
    rec.close(root, "\"instance\":" + std::to_string(item.instance));
    ++out.replayed;
  }

  const auto n = static_cast<double>(out.replayed);
  Registry reg;
  for (const obs::MetricSnapshot& s : registry.snapshot()) {
    if (s.kind == obs::MetricSnapshot::Kind::kCounter)
      reg.counters[s.name] = static_cast<double>(s.count);
    if (s.kind == obs::MetricSnapshot::Kind::kHistogram) {
      reg.hist_count[s.name] = static_cast<double>(s.count);
      reg.hist_sum[s.name] = s.value;
    }
  }
  // Plain and weighted variants of a learning dynamic are one layer.
  const auto dynamics = [&](const std::string& prefix) {
    const double solves = get(reg.counters, prefix + ".solves") +
                          get(reg.counters, prefix + ".weighted.solves");
    const double rounds = get(reg.counters, prefix + ".rounds") +
                          get(reg.counters, prefix + ".weighted.rounds");
    const double ms = get(reg.hist_sum, prefix + ".solve_ms") +
                      get(reg.hist_sum, prefix + ".weighted.solve_ms");
    out.metrics[prefix + ".rounds_per_solve"] = ratio(rounds, solves);
    out.metrics[prefix + ".solve_ms"] = ratio(ms, solves);
  };
  dynamics("fp");
  dynamics("hedge");

  out.metrics["serve.parse_us"] = rec.mean_us("serve.parse");
  out.metrics["serve.render_us"] = rec.mean_us("serve.render");
  out.metrics["engine.run_one_us"] = rec.mean_us("engine.run_one");
  out.metrics["engine.retries_per_job"] =
      ratio(get(reg.counters, "engine.retries"), n);
  out.metrics["cache.canon_us"] = rec.mean_us("cache.canon");
  out.metrics["cache.canon_nodes"] = w.cache ? ratio(canon_nodes, n) : 0.0;
  out.metrics["cache.lookup_us"] = rec.mean_us("cache.lookup");
  out.metrics.try_emplace("io.cache_load_ms", 0.0);
  out.metrics.try_emplace("io.cache_store_bytes", 0.0);
  out.metrics["supervise.ipc_us"] = pool != nullptr ? ratio(ipc_us, n) : 0.0;
  out.spans = rec.take();
  return out;
}

void write_trace(const std::string& path, const std::string& meta,
                 const std::vector<Span>& spans) {
  std::ofstream file(path, std::ios::trunc);
  file << meta << '\n';
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    defender::util::JsonWriter line;
    line.num("span", static_cast<std::uint64_t>(i));
    line.raw("parent", std::to_string(s.parent));
    line.num("request", static_cast<std::uint64_t>(s.request));
    line.str("name", s.name);
    line.num("start_us", s.start_us);
    line.num("end_us", s.end_us);
    std::string text = line.object();
    if (!s.args.empty()) text.insert(text.size() - 1, "," + s.args);
    file << text << '\n';
  }
  file.flush();
  if (!file)
    throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace e2e
