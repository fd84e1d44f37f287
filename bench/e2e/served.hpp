// The served run: a real defender_serve child process, the single-threaded
// poll loop that drives it over at most kConnections sockets, and the
// server-side counters (metrics snapshots, /proc CPU and peak RSS).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "engine/job.hpp"
#include "workloads.hpp"

namespace e2e {

/// What a served result must equal bit for bit: the in-process solve of
/// the request's distinct instance.
struct Truth {
  defender::StatusCode code = defender::StatusCode::kOk;
  double value = 0;
  double lower = 0;
  double upper = 0;
};

Truth truth_of(const defender::engine::JobResult& result);
/// Bitwise equality of every field (so -0.0 != 0.0 and NaN == same NaN).
bool same_truth(const Truth& a, const Truth& b);

/// A spawned defender_serve whose stdout is piped back. The destructor
/// kills and reaps a server that was not stopped.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` and blocks until the "listening" line. Throws
  /// std::runtime_error when the server exits or stays silent.
  void start(const std::vector<std::string>& argv);
  /// SIGTERM, read stdout to EOF, reap. Escalates to SIGKILL (server and
  /// its workers) after a grace period. Throws when the exit was unclean.
  void stop();

  pid_t pid() const { return pid_; }
  std::uint16_t tcp_port() const { return tcp_port_; }
  /// Seconds from spawn to the listening line.
  double setup_seconds() const { return setup_seconds_; }

 private:
  void kill_now();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  double setup_seconds_ = 0;
};

/// Counters and histogram (count, sum) pairs of one registry snapshot.
struct Registry {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum;
};

/// m[key], or 0 when absent.
double get(const std::map<std::string, double>& m, const std::string& key);
/// num / den, or 0 when den is not positive (a layer the run never used).
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// One request of the measurement window.
struct Outcome {
  double start_s = 0;     // due (open loop) or sent (closed loop)
  double latency_ms = 0;  // kFailedLatencyMs unless ok
  bool ok = false;
};

/// A failed request's latency: it misses every bound.
inline constexpr double kFailedLatencyMs = 1e9;

struct ServedResult {
  /// Every solve sent (warm-up and window), and the ones that failed:
  /// error responses, non-ok results, mismatches and missing results.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  std::size_t missing = 0;
  /// Requests due (open loop) or sent (closed loop) inside the window, in
  /// completion order.
  std::vector<Outcome> window;
  /// The window cut into one-second slices: their edges (seconds from the
  /// loop start, one more than slices), the results and errors received in
  /// each, and the server tree's CPU time in each.
  std::vector<double> slice_seconds;
  std::vector<std::size_t> slice_received;
  std::vector<double> slice_cpu_ms;
  /// Stream requests the loop issued, warm-up included.
  std::size_t issued = 0;
  double peak_rss_mb = 0;
  /// Open loop: the latest a due request went out, over the window.
  double late_max_ms = 0;
  /// CPU time of the load loop itself over the window: close to the window
  /// length would mean the driver, not the server, sets the pace.
  double driver_cpu_ms = 0;
  /// Server registry diffed over the window.
  Registry registry;
};

/// Drives `server` with the workload's stream for the warm-up plus
/// `window_s` seconds, checks every result against `truth`, and samples
/// the server's registry and /proc at the window edges. `unix_path` is
/// used when the workload is not TCP.
ServedResult run_load(const Workload& w, const ServerProcess& server,
                      const std::string& unix_path, double window_s,
                      const std::vector<Truth>& truth);

}  // namespace e2e
