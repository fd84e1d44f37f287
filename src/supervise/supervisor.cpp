#include "supervise/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "supervise/wire.hpp"
#include "supervise/worker.hpp"

namespace defender::supervise {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double weight_upper_bound(const std::vector<double>& weights) {
  double ub = 1.0;
  for (double w : weights)
    if (w > ub) ub = w;
  return ub;
}

/// One submitted job and its recovery state. Callers block on `done`;
/// everything else is supervisor-thread-only after submission.
struct Pending {
  const engine::SolveJob* job = nullptr;
  std::size_t job_index = 0;

  // External hooks (run_one path).
  CancelToken* external_cancel = nullptr;

  /// Checkpoint text to resume the next dispatch from: the caller's
  /// hooks.resume initially, then the worker's last streamed checkpoint.
  std::string resume_text;
  bool streamed_resume = false;

  std::uint64_t next_dispatch = 0;
  std::uint64_t active_dispatch = 0;
  std::size_t kills = 0;
  bool watchdog_sent = false;
  bool external_sent = false;
  bool has_watchdog = false;
  Clock::time_point watchdog_deadline{};

  // Completion (guarded by Impl::mu).
  bool done = false;
  engine::JobResult result;
  std::string result_checkpoint_text;
};

using PendingPtr = std::shared_ptr<Pending>;

}  // namespace

struct WorkerPool::Impl {
  PoolConfig config;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingPtr> submit_queue;
  bool stop = false;

  mutable std::mutex pids_mu;
  std::vector<pid_t> pids;

  std::atomic<std::size_t> restarts{0};
  std::atomic<std::size_t> quarantined{0};
  std::atomic<std::size_t> hb_misses{0};
  std::atomic<std::size_t> streamed{0};
  std::atomic<std::size_t> resumed{0};

  int wake_fds[2] = {-1, -1};
  std::thread loop;

  struct Worker {
    pid_t pid = -1;
    int job_fd = -1;
    int result_fd = -1;
    int control_fd = -1;
    FrameReader reader;
    bool alive = false;
    PendingPtr current;
    Clock::time_point last_heartbeat{};
    bool term_sent = false;
    Clock::time_point term_deadline{};
    double backoff_ms = 0;
    bool restart_pending = false;
    Clock::time_point restart_at{};
  };
  // Supervisor-thread-only.
  std::vector<Worker> workers;
  std::deque<PendingPtr> ready;

  explicit Impl(const PoolConfig& cfg) : config(cfg) {
    // Worker death during a pipe write must surface as EPIPE, never a
    // process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    if (::pipe2(wake_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
      wake_fds[0] = wake_fds[1] = -1;
    }
    workers.resize(config.workers);
    loop = std::thread([this] { loop_main(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    wake();
    if (loop.joinable()) loop.join();
    if (wake_fds[0] >= 0) ::close(wake_fds[0]);
    if (wake_fds[1] >= 0) ::close(wake_fds[1]);
  }

  void wake() {
    if (wake_fds[1] < 0) return;
    const char b = 'w';
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wake_fds[1], &b, 1);
  }

  void submit(PendingPtr p) {
    {
      std::lock_guard<std::mutex> lock(mu);
      submit_queue.push_back(std::move(p));
    }
    wake();
  }

  void await(const PendingPtr& p) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return p->done; });
  }

  void set_workers_alive_gauge() {
    if (config.metrics == nullptr) return;
    std::size_t alive = 0;
    for (const Worker& w : workers)
      if (w.alive) ++alive;
    config.metrics->gauge("supervise.workers_alive")
        .set(static_cast<double>(alive));
  }

  void record_pids() {
    std::lock_guard<std::mutex> lock(pids_mu);
    pids.clear();
    for (const Worker& w : workers)
      if (w.alive) pids.push_back(w.pid);
  }

  // -------------------------------------------------------------------
  // Worker lifecycle (supervisor thread).

  bool spawn(Worker& w) {
    int job_pipe[2], result_pipe[2], control_pipe[2];
    if (::pipe2(job_pipe, O_CLOEXEC) != 0) return false;
    if (::pipe2(result_pipe, O_CLOEXEC) != 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      return false;
    }
    if (::pipe2(control_pipe, O_CLOEXEC) != 0) {
      ::close(job_pipe[0]);
      ::close(job_pipe[1]);
      ::close(result_pipe[0]);
      ::close(result_pipe[1]);
      return false;
    }

    // Render argv BEFORE fork: between fork and exec only async-signal-
    // safe calls are allowed in a multithreaded parent.
    const std::string fd_job = std::to_string(job_pipe[0]);
    const std::string fd_result = std::to_string(result_pipe[1]);
    const std::string fd_control = std::to_string(control_pipe[0]);
    const std::string hb_ms = std::to_string(std::max<long>(
        1, static_cast<long>(config.heartbeat_interval_seconds * 1000.0)));
    char arg0[] = "defender-worker";
    char* child_argv[7];
    child_argv[0] = arg0;
    child_argv[1] = const_cast<char*>(kWorkerSentinel);
    child_argv[2] = const_cast<char*>(fd_job.c_str());
    child_argv[3] = const_cast<char*>(fd_result.c_str());
    child_argv[4] = const_cast<char*>(fd_control.c_str());
    child_argv[5] = const_cast<char*>(hb_ms.c_str());
    child_argv[6] = nullptr;

    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: un-CLOEXEC its three pipe ends, then re-exec this binary;
      // worker_trampoline picks the sentinel up at the top of main.
      ::fcntl(job_pipe[0], F_SETFD, 0);
      ::fcntl(result_pipe[1], F_SETFD, 0);
      ::fcntl(control_pipe[0], F_SETFD, 0);
      ::execv("/proc/self/exe", child_argv);
      ::_exit(127);
    }

    // Parent: drop the child's ends immediately. A leaked write end in a
    // sibling would suppress the EOF that is our crash detector.
    ::close(job_pipe[0]);
    ::close(result_pipe[1]);
    ::close(control_pipe[0]);
    if (pid < 0) {
      ::close(job_pipe[1]);
      ::close(result_pipe[0]);
      ::close(control_pipe[1]);
      return false;
    }
    w.pid = pid;
    w.job_fd = job_pipe[1];
    w.result_fd = result_pipe[0];
    w.control_fd = control_pipe[1];
    w.reader = FrameReader{};
    w.alive = true;
    w.current = nullptr;
    w.last_heartbeat = Clock::now();
    w.term_sent = false;
    w.restart_pending = false;
    if (w.backoff_ms <= 0) w.backoff_ms = config.restart_backoff_ms;
    set_workers_alive_gauge();
    record_pids();
    return true;
  }

  void close_worker_fds(Worker& w) {
    if (w.job_fd >= 0) ::close(w.job_fd);
    if (w.result_fd >= 0) ::close(w.result_fd);
    if (w.control_fd >= 0) ::close(w.control_fd);
    w.job_fd = w.result_fd = w.control_fd = -1;
  }

  /// EOF / error on a worker's result pipe: the process is dead or
  /// moments from it. Reap it, attribute the in-flight job a kill, and
  /// schedule a backed-off restart.
  void worker_died(Worker& w) {
    int status = 0;
    (void)::waitpid(w.pid, &status, 0);
    close_worker_fds(w);
    w.alive = false;
    set_workers_alive_gauge();
    record_pids();

    if (w.current != nullptr) {
      PendingPtr job = std::move(w.current);
      w.current = nullptr;
      ++job->kills;
      if (job->kills >= config.max_job_crashes) {
        quarantine(job);
      } else {
        // Back to the front of the queue: a recovering job should meet
        // its quarantine verdict before fresh work piles on.
        ready.push_front(std::move(job));
      }
    }

    restarts.fetch_add(1, std::memory_order_relaxed);
    if (config.metrics != nullptr)
      config.metrics->counter("supervise.restarts").add(1);
    w.restart_pending = true;
    w.restart_at = Clock::now() + seconds_to_duration(w.backoff_ms / 1000.0);
    w.backoff_ms = std::min(w.backoff_ms * 2, config.restart_backoff_cap_ms);
  }

  // -------------------------------------------------------------------
  // Job completion paths.

  void complete(const PendingPtr& job, engine::JobResult result,
                std::string checkpoint_text) {
    std::lock_guard<std::mutex> lock(mu);
    job->result = std::move(result);
    job->result_checkpoint_text = std::move(checkpoint_text);
    job->done = true;
    cv.notify_all();
  }

  void quarantine(const PendingPtr& job) {
    quarantined.fetch_add(1, std::memory_order_relaxed);
    if (config.metrics != nullptr)
      config.metrics->counter("supervise.quarantined_jobs").add(1);
    engine::JobResult r;
    r.job_index = job->job_index;
    r.solver = job->job->solver;
    const double ub = weight_upper_bound(job->job->weights);
    r.status = Status::make(
        StatusCode::kWorkerCrashed,
        "worker killed " + std::to_string(job->kills) +
            " time(s) running this job; quarantined without a result");
    r.lower_bound = 0;
    r.upper_bound = ub;
    r.value = ub / 2;
    complete(job, std::move(r), {});
  }

  void complete_cancelled_unqueued(const PendingPtr& job) {
    engine::JobResult r;
    r.job_index = job->job_index;
    r.solver = job->job->solver;
    const double ub = weight_upper_bound(job->job->weights);
    r.status = Status::make(StatusCode::kCancelled,
                            "cancelled before dispatch to a worker");
    r.lower_bound = 0;
    r.upper_bound = ub;
    r.value = ub / 2;
    complete(job, std::move(r), {});
  }

  // -------------------------------------------------------------------
  // Dispatch.

  void dispatch(Worker& w, PendingPtr job) {
    JobFrame frame = frame_from_job(*job->job, job->job_index, config.engine);
    frame.dispatch = job->next_dispatch;
    frame.stream_interval_seconds = config.stream_interval_seconds;
    frame.checkpoint_text = job->resume_text;
    if (!frame.checkpoint_text.empty() && job->streamed_resume) {
      resumed.fetch_add(1, std::memory_order_relaxed);
    }
    if (!write_frame(w.job_fd, kJobFormat, to_text(frame))) {
      // The worker died under us; its EOF is already in flight. Requeue
      // WITHOUT attributing a kill — this death was not the job's doing.
      ready.push_front(std::move(job));
      return;
    }
    job->active_dispatch = job->next_dispatch;
    ++job->next_dispatch;
    job->watchdog_sent = false;
    job->external_sent = false;
    if (job->job->watchdog_seconds > 0) {
      job->has_watchdog = true;
      job->watchdog_deadline =
          Clock::now() + seconds_to_duration(job->job->watchdog_seconds);
    } else {
      job->has_watchdog = false;
    }
    w.current = std::move(job);
  }

  void send_cancel(Worker& w, const PendingPtr& job, CancelReason reason) {
    CancelFrame cancel;
    cancel.job_index = job->job_index;
    cancel.dispatch = job->active_dispatch;
    cancel.reason = reason;
    // A failed write means the worker is dead; the EOF path recovers.
    (void)write_frame(w.control_fd, kCancelFormat, to_text(cancel));
  }

  // -------------------------------------------------------------------
  // Frame handling.

  void handle_frame(Worker& w, const FrameReader::Frame& frame) {
    w.last_heartbeat = Clock::now();
    w.term_sent = false;
    if (frame.format == kHeartbeatFormat || frame.format == kHelloFormat)
      return;
    if (frame.format == kCheckpointFormat) {
      Solved<CheckpointFrame> ckpt = try_parse_checkpoint_frame(frame.payload);
      if (!ckpt.ok() || w.current == nullptr) return;
      if (ckpt.result.job_index != w.current->job_index ||
          ckpt.result.dispatch != w.current->active_dispatch)
        return;
      w.current->resume_text = std::move(ckpt.result.checkpoint_text);
      w.current->streamed_resume = true;
      streamed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (frame.format == kResultFormat) {
      Solved<ResultFrame> result = try_parse_result_frame(frame.payload);
      // A sealed frame that does not parse is as garbled as an unknown
      // kind: kill the worker, and the crash path re-dispatches the job
      // or quarantines it after max_job_crashes.
      if (!result.ok()) {
        kill_worker(w);
        return;
      }
      if (w.current == nullptr) return;
      if (result.result.job_index != w.current->job_index ||
          result.result.dispatch != w.current->active_dispatch)
        return;
      PendingPtr job = std::move(w.current);
      w.current = nullptr;
      w.backoff_ms = config.restart_backoff_ms;  // proof of health
      engine::JobResult r = std::move(result.result.result);
      r.job_index = job->job_index;
      if (job->watchdog_sent && r.status.code == StatusCode::kCancelled)
        r.watchdog_killed = true;
      complete(job, std::move(r), std::move(result.result.checkpoint_text));
      return;
    }
    // Unknown frame kind from a worker we built ourselves: treat the
    // stream as garbage.
    kill_worker(w);
  }

  void kill_worker(Worker& w) {
    if (w.alive && w.pid > 0) (void)::kill(w.pid, SIGKILL);
  }

  // -------------------------------------------------------------------
  // Event loop.

  void loop_main() {
    for (Worker& w : workers) {
      if (!spawn(w)) {
        w.restart_pending = true;
        w.restart_at =
            Clock::now() + seconds_to_duration(
                               (w.backoff_ms > 0 ? w.backoff_ms
                                                 : config.restart_backoff_ms) /
                               1000.0);
      }
    }

    char buf[65536];
    for (;;) {
      // 1. Pull in submissions; decide shutdown.
      {
        std::lock_guard<std::mutex> lock(mu);
        while (!submit_queue.empty()) {
          ready.push_back(std::move(submit_queue.front()));
          submit_queue.pop_front();
        }
        if (stop && ready.empty()) {
          bool busy = false;
          for (const Worker& w : workers)
            if (w.current != nullptr) busy = true;
          if (!busy) break;
        }
      }

      // 2. External cancels for still-queued jobs.
      for (auto it = ready.begin(); it != ready.end();) {
        const PendingPtr& job = *it;
        if (job->external_cancel != nullptr &&
            job->external_cancel->cancelled()) {
          complete_cancelled_unqueued(job);
          it = ready.erase(it);
        } else {
          ++it;
        }
      }

      // 3. Hand ready jobs to idle workers.
      for (Worker& w : workers) {
        if (ready.empty()) break;
        if (!w.alive || w.current != nullptr) continue;
        PendingPtr job = std::move(ready.front());
        ready.pop_front();
        dispatch(w, std::move(job));
      }

      // 4. Poll.
      std::vector<struct pollfd> fds;
      fds.reserve(workers.size() + 1);
      if (wake_fds[0] >= 0)
        fds.push_back({wake_fds[0], POLLIN, 0});
      std::vector<std::size_t> fd_worker;
      fd_worker.reserve(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!workers[i].alive) continue;
        fds.push_back({workers[i].result_fd, POLLIN, 0});
        fd_worker.push_back(i);
      }
      const int timeout_ms = compute_timeout_ms();
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0 && errno != EINTR) {
        // poll() itself failing is unrecoverable; avoid a hot spin.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }

      std::size_t fd_index = 0;
      if (wake_fds[0] >= 0) {
        if ((fds[0].revents & POLLIN) != 0) {
          while (::read(wake_fds[0], buf, sizeof(buf)) > 0) {
          }
        }
        fd_index = 1;
      }

      // 5. Worker pipe events.
      for (std::size_t k = 0; k < fd_worker.size(); ++k) {
        Worker& w = workers[fd_worker[k]];
        const short revents = fds[fd_index + k].revents;
        if (revents == 0) continue;
        bool died = false;
        if ((revents & POLLIN) != 0) {
          const ssize_t n = ::read(w.result_fd, buf, sizeof(buf));
          if (n == 0) {
            died = true;
          } else if (n < 0) {
            if (errno != EINTR && errno != EAGAIN) died = true;
          } else {
            w.reader.feed(buf, static_cast<std::size_t>(n));
            FrameReader::Frame frame;
            std::string error;
            FrameReader::Next next;
            while ((next = w.reader.next(&frame, &error)) ==
                   FrameReader::Next::kFrame) {
              handle_frame(w, frame);
              if (!w.alive) break;
            }
            if (next == FrameReader::Next::kCorrupt && w.alive) {
              // Torn or garbled frame: the worker is not trustworthy.
              // Kill it; the EOF path attributes the in-flight job.
              std::fprintf(stderr,
                           "defender-supervisor: worker %ld stream corrupt "
                           "(%s); killing\n",
                           static_cast<long>(w.pid), error.c_str());
              kill_worker(w);
            }
          }
        }
        if (!died && (revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
          // Drain any final buffered frames before declaring death.
          for (;;) {
            const ssize_t n = ::read(w.result_fd, buf, sizeof(buf));
            if (n <= 0) break;
            w.reader.feed(buf, static_cast<std::size_t>(n));
            FrameReader::Frame frame;
            std::string error;
            while (w.reader.next(&frame, &error) ==
                   FrameReader::Next::kFrame) {
              handle_frame(w, frame);
            }
          }
          died = true;
        }
        if (died && w.alive) worker_died(w);
      }

      // 6. Deadlines.
      const Clock::time_point now = Clock::now();
      const Clock::duration hb_timeout =
          seconds_to_duration(config.heartbeat_timeout_seconds);
      for (Worker& w : workers) {
        if (!w.alive) {
          if (w.restart_pending && now >= w.restart_at) {
            if (!spawn(w)) {
              w.restart_at =
                  now + seconds_to_duration(w.backoff_ms / 1000.0);
              w.backoff_ms =
                  std::min(w.backoff_ms * 2, config.restart_backoff_cap_ms);
            }
          }
          continue;
        }
        if (now - w.last_heartbeat > hb_timeout) {
          if (!w.term_sent) {
            hb_misses.fetch_add(1, std::memory_order_relaxed);
            if (config.metrics != nullptr)
              config.metrics->counter("supervise.heartbeat_misses").add(1);
            (void)::kill(w.pid, SIGTERM);
            w.term_sent = true;
            w.term_deadline =
                now + seconds_to_duration(config.term_grace_seconds);
          } else if (now >= w.term_deadline) {
            (void)::kill(w.pid, SIGKILL);
            // Death lands as EOF on the result pipe next iteration.
            w.term_deadline = now + seconds_to_duration(1.0);
          }
        }
        if (w.current != nullptr) {
          PendingPtr& job = w.current;
          if (job->has_watchdog && !job->watchdog_sent &&
              now >= job->watchdog_deadline) {
            job->watchdog_sent = true;
            send_cancel(w, job, CancelReason::kWatchdog);
          }
          if (job->external_cancel != nullptr && !job->external_sent &&
              job->external_cancel->cancelled()) {
            job->external_sent = true;
            send_cancel(w, job, CancelReason::kExternal);
          }
        }
      }
    }

    shutdown_workers();
  }

  int compute_timeout_ms() {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + std::chrono::milliseconds(250);
    bool want_token_poll = false;
    for (const Worker& w : workers) {
      if (!w.alive) {
        if (w.restart_pending && w.restart_at < wake) wake = w.restart_at;
        continue;
      }
      const Clock::time_point hb_deadline =
          w.last_heartbeat +
          seconds_to_duration(config.heartbeat_timeout_seconds);
      if (!w.term_sent && hb_deadline < wake) wake = hb_deadline;
      if (w.term_sent && w.term_deadline < wake) wake = w.term_deadline;
      if (w.current != nullptr) {
        const PendingPtr& job = w.current;
        if (job->has_watchdog && !job->watchdog_sent &&
            job->watchdog_deadline < wake)
          wake = job->watchdog_deadline;
        if (job->external_cancel != nullptr && !job->external_sent)
          want_token_poll = true;
      }
    }
    for (const PendingPtr& job : ready)
      if (job->external_cancel != nullptr) want_token_poll = true;
    if (want_token_poll) {
      const Clock::time_point token_poll =
          now + std::chrono::milliseconds(20);
      if (token_poll < wake) wake = token_poll;
    }
    if (wake <= now) return 0;
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(wake - now)
            .count();
    return static_cast<int>(std::min<long long>(ms + 1, 250));
  }

  void shutdown_workers() {
    // EOF on the job pipe is the clean-shutdown signal.
    for (Worker& w : workers) {
      if (!w.alive) continue;
      if (w.job_fd >= 0) {
        ::close(w.job_fd);
        w.job_fd = -1;
      }
    }
    const Clock::time_point deadline =
        Clock::now() + seconds_to_duration(
                           std::max(1.0, config.term_grace_seconds));
    for (Worker& w : workers) {
      if (!w.alive) continue;
      for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid || (r < 0 && errno == ECHILD)) break;
        if (Clock::now() >= deadline) {
          (void)::kill(w.pid, SIGKILL);
          (void)::waitpid(w.pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      close_worker_fds(w);
      w.alive = false;
    }
    set_workers_alive_gauge();
    record_pids();
  }
};

WorkerPool::WorkerPool(PoolConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.heartbeat_interval_seconds <= 0)
    config_.heartbeat_interval_seconds = 0.05;
  if (config_.heartbeat_timeout_seconds <
      config_.heartbeat_interval_seconds * 2)
    config_.heartbeat_timeout_seconds =
        config_.heartbeat_interval_seconds * 2;
  if (config_.max_job_crashes == 0) config_.max_job_crashes = 1;
  impl_ = std::make_unique<Impl>(config_);
}

WorkerPool::~WorkerPool() = default;

SupervisedReport WorkerPool::run(const std::vector<engine::SolveJob>& jobs) {
  const std::size_t restarts0 = impl_->restarts.load();
  const std::size_t quarantined0 = impl_->quarantined.load();
  const std::size_t misses0 = impl_->hb_misses.load();
  const std::size_t streamed0 = impl_->streamed.load();
  const std::size_t resumed0 = impl_->resumed.load();
  const Clock::time_point start = Clock::now();

  std::vector<PendingPtr> pendings;
  pendings.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto p = std::make_shared<Pending>();
    p->job = &jobs[i];
    p->job_index = i;
    pendings.push_back(p);
    impl_->submit(std::move(p));
  }
  for (const PendingPtr& p : pendings) impl_->await(p);

  SupervisedReport report;
  report.batch.results.reserve(jobs.size());
  for (const PendingPtr& p : pendings)
    report.batch.results.push_back(std::move(p->result));
  for (const engine::JobResult& r : report.batch.results) {
    if (r.ok())
      ++report.batch.completed;
    else
      ++report.batch.degraded;
    if (!r.attempts.empty()) report.batch.retries += r.attempts.size() - 1;
    if (r.faults_injected > 0) ++report.batch.faulted_jobs;
    if (r.watchdog_killed) ++report.batch.deadline_kills;
  }
  report.batch.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.worker_restarts = impl_->restarts.load() - restarts0;
  report.quarantined_jobs = impl_->quarantined.load() - quarantined0;
  report.heartbeat_misses = impl_->hb_misses.load() - misses0;
  report.checkpoints_streamed = impl_->streamed.load() - streamed0;
  report.resumed_dispatches = impl_->resumed.load() - resumed0;
  return report;
}

engine::JobResult WorkerPool::run_one(const engine::SolveJob& job,
                                      std::size_t job_index,
                                      const engine::JobRunHooks& hooks) {
  auto p = std::make_shared<Pending>();
  p->job = &job;
  p->job_index = job_index;
  p->external_cancel = hooks.cancel;
  if (hooks.resume != nullptr) p->resume_text = core::to_text(*hooks.resume);
  impl_->submit(p);
  impl_->await(p);
  if (hooks.capture != nullptr && hooks.captured != nullptr &&
      !p->result_checkpoint_text.empty()) {
    Solved<core::SolverCheckpoint> parsed =
        core::try_parse_checkpoint(p->result_checkpoint_text);
    if (parsed.ok()) {
      *hooks.capture = std::move(parsed.result);
      *hooks.captured = true;
    }
  }
  return std::move(p->result);
}

std::vector<pid_t> WorkerPool::worker_pids() const {
  std::lock_guard<std::mutex> lock(impl_->pids_mu);
  return impl_->pids;
}

std::size_t WorkerPool::worker_restarts() const {
  return impl_->restarts.load();
}
std::size_t WorkerPool::quarantined_jobs() const {
  return impl_->quarantined.load();
}
std::size_t WorkerPool::heartbeat_misses() const {
  return impl_->hb_misses.load();
}
std::size_t WorkerPool::checkpoints_streamed() const {
  return impl_->streamed.load();
}

}  // namespace defender::supervise
