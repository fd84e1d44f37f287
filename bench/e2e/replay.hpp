// The traced replay: the workload's stream replayed on one thread through
// the same public entry points the server calls, each call wrapped in a
// span recorded from driver code. No instrumentation lives in src/; solver
// counters come from an obs::MetricsRegistry handed in through
// EngineConfig, read before and after each call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "served.hpp"
#include "workloads.hpp"

namespace e2e {

/// One timed call. Spans of a request share `request`; `parent` indexes
/// the enclosing span in the same vector (-1 for the request's root).
struct Span {
  const char* name = "";
  std::size_t request = 0;
  std::int64_t parent = -1;
  double start_us = 0;
  double end_us = 0;
  /// Extra members, pre-rendered as `"key":value,...` (may be empty).
  std::string args;
};

struct ReplayResult {
  /// The replay-sourced per-layer metrics, by BENCHMARK.json name.
  std::map<std::string, double> metrics;
  std::size_t replayed = 0;
  /// Replayed results that differ from the truth (in-process or isolated).
  std::size_t mismatched = 0;
  std::vector<Span> spans;
};

/// Replays stream requests 0, 1, ... up to `limit` on the calling thread,
/// stopping once `budget_s` seconds have passed. `cache_store` is the
/// preloaded store a cache workload's server loads; it is loaded the same
/// way here.
ReplayResult run_replay(const Workload& w, std::size_t limit, double budget_s,
                        const std::vector<Truth>& truth,
                        const std::string& cache_store);

/// Writes `meta` (one JSON object) and then one JSON line per span.
void write_trace(const std::string& path, const std::string& meta,
                 const std::vector<Span>& spans);

}  // namespace e2e
