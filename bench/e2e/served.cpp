#include "served.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "serve/protocol.hpp"

extern char** environ;

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using defender::serve::JsonValue;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kStartTimeoutSeconds = 20;
constexpr double kStopGraceSeconds = 15;
/// How long the loop waits for outstanding results after the window.
constexpr double kTailSeconds = 20;
/// Mismatches echoed to stderr before going quiet.
constexpr std::size_t kMismatchReports = 5;

std::runtime_error errno_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    std::ifstream in(std::string("/proc/") + entry->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    if (fields >> state >> ppid && ppid == parent)
      out.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(dir);
  return out;
}

/// CPU time of every thread of `pid`, from the per-task schedstat files
/// (nanosecond run time; utime+stime in /proc/<pid>/stat is the same
/// quantity rounded to 10 ms ticks).
double process_cpu_ms(pid_t pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return 0;
  double ns = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(task_dir + "/" + entry->d_name + "/schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  ::closedir(dir);
  return ns * 1e-6;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// CPU time and peak RSS summed over a set of processes.
struct ProcSample {
  double cpu_ms = 0;
  double peak_rss_mb = 0;
};

ProcSample sample(const std::vector<pid_t>& pids) {
  ProcSample s;
  for (const pid_t pid : pids) {
    s.cpu_ms += process_cpu_ms(pid);
    s.peak_rss_mb += vm_hwm_mb(pid);
  }
  return s;
}

std::vector<pid_t> process_tree(pid_t root) {
  std::vector<pid_t> pids = children_of(root);
  pids.insert(pids.begin(), root);
  return pids;
}

Registry parse_registry(const JsonValue& metrics) {
  Registry r;
  if (const JsonValue* counters = metrics.find("counters"))
    for (const auto& [name, v] : counters->members)
      if (v.kind == JsonValue::Kind::kNumber) r.counters[name] = v.number;
  if (const JsonValue* histograms = metrics.find("histograms"))
    for (const auto& [name, h] : histograms->members) {
      const JsonValue* count = h.find("count");
      const JsonValue* sum = h.find("sum");
      if (count != nullptr && count->kind == JsonValue::Kind::kNumber)
        r.hist_count[name] = count->number;
      if (sum != nullptr && sum->kind == JsonValue::Kind::kNumber)
        r.hist_sum[name] = sum->number;
    }
  return r;
}

/// `end - start` for every counter and histogram present in `end`.
Registry diff(const Registry& start, const Registry& end) {
  const auto sub = [](const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
    std::map<std::string, double> out;
    for (const auto& [name, v] : b) out[name] = v - get(a, name);
    return out;
  };
  return Registry{sub(start.counters, end.counters),
                  sub(start.hist_count, end.hist_count),
                  sub(start.hist_sum, end.hist_sum)};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool number_is(const JsonValue* v, double expected) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
         same_bits(v->number, expected);
}

bool result_matches(const JsonValue& result, const Truth& truth) {
  const JsonValue* status = result.find("status");
  return status != nullptr && status->kind == JsonValue::Kind::kString &&
         status->string == defender::to_string(truth.code) &&
         number_is(result.find("value"), truth.value) &&
         number_is(result.find("lower"), truth.lower) &&
         number_is(result.find("upper"), truth.upper);
}

/// An owned, non-blocking client socket with its line buffers.
struct Conn {
  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  bool open = false;
  std::string client;
  std::string rbuf;
  std::string wbuf;
};

void connect_conn(Conn* conn, bool tcp, std::uint16_t port,
                  const std::string& unix_path) {
  conn->fd = ::socket(tcp ? AF_INET : AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) throw errno_error("socket");
  int rc = 0;
  if (tcp) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    rc = ::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } else {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("unix socket path too long: " + unix_path);
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    rc = ::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  }
  if (rc != 0) throw errno_error("connect");
  if (::fcntl(conn->fd, F_SETFL, O_NONBLOCK) != 0) throw errno_error("fcntl");
  conn->open = true;
}

}  // namespace

Truth truth_of(const defender::engine::JobResult& result) {
  return Truth{result.status.code, result.value, result.lower_bound,
               result.upper_bound};
}

bool same_truth(const Truth& a, const Truth& b) {
  return a.code == b.code && same_bits(a.value, b.value) &&
         same_bits(a.lower, b.lower) && same_bits(a.upper, b.upper);
}

// ---- ServerProcess ----

ServerProcess::~ServerProcess() { kill_now(); }

void ServerProcess::kill_now() {
  if (pid_ > 0) {
    for (const pid_t child : children_of(pid_)) ::kill(child, SIGKILL);
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void ServerProcess::start(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw errno_error("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    kill_now();
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }

  std::string buf;
  std::string line;
  while (true) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.find("listening") != std::string::npos) break;
      continue;
    }
    const double left = kStartTimeoutSeconds - seconds_since(t0);
    if (left <= 0) {
      kill_now();
      throw std::runtime_error("server never reported listening");
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      kill_now();
      throw std::runtime_error("server exited before listening");
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  setup_seconds_ = seconds_since(t0);
  const std::size_t at = line.find("tcp=");
  if (at != std::string::npos)
    tcp_port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + at + 4));
}

void ServerProcess::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  // Read stdout to EOF so the exiting server never blocks on a full pipe.
  bool eof = false;
  while (!eof && seconds_since(t0) < kStopGraceSeconds) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0 || (n < 0 && errno != EINTR)) eof = true;
  }
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         seconds_since(t0) < kStopGraceSeconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  if (done != pid_) {
    kill_now();
    throw std::runtime_error("server did not exit after SIGTERM");
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("server exited uncleanly (wait status " +
                             std::to_string(status) + ")");
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// ---- The load loop ----

ServedResult run_load(const Workload& w, const ServerProcess& server,
                      const std::string& unix_path, double window_s,
                      const std::vector<Truth>& truth) {
  ServedResult out;
  std::vector<Conn> conns(kConnections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    connect_conn(&conns[c], w.tcp, server.tcp_port(), unix_path);
    conns[c].client = "c" + std::to_string(c);
  }
  // Workers are forked before the listening line, so the tree is final.
  const std::vector<pid_t> tree = process_tree(server.pid());

  struct Pending {
    std::size_t instance = 0;
    std::size_t conn = 0;
    double start_s = 0;  // due time (open loop) or send time (closed)
    bool in_window = false;
  };
  std::unordered_map<std::string, Pending> pending;
  std::optional<Registry> reg_start, reg_end;
  const double window_begin = kWarmupSeconds;
  const double window_end = kWarmupSeconds + window_s;
  // Slice edges: one per second from the window start, the last at its end.
  std::vector<double> edges;
  for (double e = window_begin; e < window_end; e += 1.0) edges.push_back(e);
  edges.push_back(window_end);
  std::vector<double> edge_cpu_ms;
  double driver_start_ms = 0;
  out.slice_received.assign(edges.size() - 1, 0);
  const bool open_loop = w.loop == Loop::kOpen;
  std::size_t next = 0;
  const Clock::time_point t0 = Clock::now();
  const auto now_s = [&] { return seconds_since(t0); };

  const auto fail_conn = [&](Conn& conn) {
    conn.open = false;
    conn.wbuf.clear();
  };
  const auto flush = [&](Conn& conn) {
    while (conn.open && !conn.wbuf.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.wbuf.data(), conn.wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.wbuf.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        fail_conn(conn);
      }
    }
  };
  const auto queue = [&](Conn& conn, const std::string& line) {
    conn.wbuf += line;
    conn.wbuf += '\n';
    flush(conn);
  };
  const auto send_solve = [&](std::size_t c, double start_s) {
    const std::size_t i = next++;
    const StreamItem item = w.request(i);
    const std::string id = "r" + std::to_string(i);
    const bool in_window = start_s >= window_begin && start_s < window_end;
    pending.emplace(id, Pending{item.instance, c, start_s, in_window});
    ++out.attempted;
    queue(conns[c], request_line(id, conns[c].client, item.fields));
  };
  const auto complete = [&](const std::string& id, bool ok, bool mismatch) {
    const auto it = pending.find(id);
    if (it == pending.end()) return;
    const Pending p = it->second;
    pending.erase(it);
    const double t = now_s();
    if (t >= window_begin && t < window_end)
      ++out.slice_received[static_cast<std::size_t>(
          std::upper_bound(edges.begin(), edges.end(), t) - edges.begin() - 1)];
    if (!ok) ++out.failed;
    if (mismatch) ++out.mismatched;
    if (p.in_window)
      out.window.push_back(
          Outcome{p.start_s, ok ? (t - p.start_s) * 1e3 : kFailedLatencyMs, ok});
    if (!open_loop && t < window_end && conns[p.conn].open)
      send_solve(p.conn, t);
  };
  const auto on_line = [&](const std::string& line) {
    const defender::Solved<JsonValue> doc = defender::serve::parse_json(line);
    if (!doc.ok())
      throw std::runtime_error("unparseable server line: " +
                               line.substr(0, 200));
    const JsonValue* type = doc.result.find("type");
    const JsonValue* id = doc.result.find("id");
    if (type == nullptr || id == nullptr) return;
    if (type->string == "metrics") {
      const JsonValue* metrics = doc.result.find("metrics");
      if (metrics == nullptr) return;
      (id->string == "m0" ? reg_start : reg_end) = parse_registry(*metrics);
    } else if (type->string == "result") {
      const auto it = pending.find(id->string);
      const JsonValue* result = doc.result.find("result");
      if (it == pending.end() || result == nullptr) return;
      const Truth& expected = truth[it->second.instance];
      const bool match = result_matches(*result, expected);
      if (!match && out.mismatched < kMismatchReports)
        std::cerr << "defender_e2e: mismatch on instance "
                  << it->second.instance << ": " << line.substr(0, 300)
                  << '\n';
      complete(id->string, match && expected.code == defender::StatusCode::kOk,
               !match);
    } else if (type->string == "error") {
      complete(id->string, false, false);
    }
  };
  const auto read_conn = [&](Conn& conn) {
    char chunk[1 << 16];
    while (conn.open) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.rbuf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl; (nl = conn.rbuf.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1)
          on_line(conn.rbuf.substr(start, nl - start));
        conn.rbuf.erase(0, start);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        fail_conn(conn);
      }
    }
  };
  const auto metrics_request = [](const char* id) {
    return std::string("{\"type\":\"metrics\",\"id\":\"") + id +
           "\",\"client\":\"c0\"}";
  };

  if (!open_loop)
    for (std::size_t c = 0; c < conns.size(); ++c) send_solve(c, 0.0);
  std::vector<pollfd> fds(conns.size());
  while (true) {
    const double t = now_s();
    if (open_loop)
      for (; next < w.due_s.size() && w.due_s[next] <= t;) {
        const double due = w.due_s[next];
        if (due >= window_begin && due < window_end)
          out.late_max_ms = std::max(out.late_max_ms, (t - due) * 1e3);
        send_solve(w.due_conn[next], due);
      }
    if (edge_cpu_ms.size() < edges.size() && t >= edges[edge_cpu_ms.size()]) {
      edge_cpu_ms.push_back(sample(tree).cpu_ms);
      if (edge_cpu_ms.size() == 1) {
        driver_start_ms = process_cpu_ms(::getpid());
        queue(conns[0], metrics_request("m0"));
      } else if (edge_cpu_ms.size() == edges.size()) {
        out.driver_cpu_ms = process_cpu_ms(::getpid()) - driver_start_ms;
        queue(conns[0], metrics_request("m1"));
      }
    }
    const bool ended = edge_cpu_ms.size() == edges.size();
    if (ended && pending.empty() && reg_end.has_value()) break;
    if (t >= window_end + kTailSeconds) break;
    if (std::none_of(conns.begin(), conns.end(),
                     [](const Conn& conn) { return conn.open; }))
      break;

    double wait = window_end + kTailSeconds - t;
    if (!ended) wait = std::min(wait, edges[edge_cpu_ms.size()] - t);
    if (open_loop && next < w.due_s.size())
      wait = std::min(wait, w.due_s[next] - t);
    wait = std::max(wait, 0.0);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].open ? conns[c].fd : -1;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].wbuf.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw errno_error("ppoll");
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents & POLLOUT) flush(conns[c]);
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(conns[c]);
    }
  }

  // Whatever never came back is missing: a failure at infinite latency.
  for (const auto& [id, p] : pending) {
    (void)id;
    ++out.failed;
    ++out.missing;
    if (p.in_window)
      out.window.push_back(Outcome{p.start_s, kFailedLatencyMs, false});
  }
  if (!reg_start.has_value() || !reg_end.has_value())
    throw std::runtime_error("server never answered a metrics snapshot");
  out.registry = diff(*reg_start, *reg_end);
  for (std::size_t k = 0; k + 1 < edge_cpu_ms.size(); ++k)
    out.slice_cpu_ms.push_back(edge_cpu_ms[k + 1] - edge_cpu_ms[k]);
  out.slice_seconds.assign(edges.begin(), edges.end());
  out.peak_rss_mb = sample(tree).peak_rss_mb;
  out.issued = next;
  return out;
}

}  // namespace e2e
