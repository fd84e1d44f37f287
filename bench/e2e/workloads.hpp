// The four traffic mixes of the end-to-end benchmark (README.md explains
// why each exists). A workload is pure data derived from --seed: the
// distinct instances whose in-process solves are the correct answers, the
// request stream over them, and how the server and the load loop are set
// up. Nothing here touches a socket or a solver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

/// Load-loop shape: open = sends on a schedule whatever the server does;
/// closed = each connection sends its next request when the previous
/// result is back.
enum class Loop { kOpen, kClosed };

/// One request of a stream: the solve members of the request line
/// (everything but "type", "id" and "client") and the index of the
/// distinct instance whose solve is the correct answer to it.
struct StreamItem {
  std::string fields;
  std::size_t instance = 0;
};

struct Workload {
  std::string name;
  bool tcp = false;
  Loop loop = Loop::kClosed;
  /// The server runs `--cache F --cache-size kCacheEntries`, preloaded with
  /// the store built from the most popular classes; results are solved on
  /// canonical forms.
  bool cache = false;
  /// The server runs `--isolate-workers`.
  bool isolated = false;
  /// Extra server flags (beyond the listener, --jobs and the two above).
  std::vector<std::string> server_flags;
  /// Solve members of one representative request per distinct instance.
  std::vector<std::string> instances;
  /// Distinct instances in the order the preloaded cache store is warmed
  /// (least popular first); empty unless `cache`.
  std::vector<std::size_t> preload_order;
  /// The i-th request of the stream (unbounded for a closed loop).
  std::function<StreamItem(std::size_t)> request;
  /// Open loop only: when request i is due (seconds from the loop start)
  /// and the connection that sends it.
  std::vector<double> due_s;
  std::vector<unsigned> due_conn;
};

inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kServerJobs = 2;
inline constexpr std::size_t kCacheEntries = 64;
inline constexpr double kWarmupSeconds = 2.0;

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds `name` for `seed`; `window_s` sizes the open-loop schedule.
/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double window_s);

/// `{"type":"solve","id":ID,"client":CLIENT,<fields>}`.
std::string request_line(const std::string& id, const std::string& client,
                         const std::string& fields);

}  // namespace e2e
