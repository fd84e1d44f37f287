// Cooperative cancellation for budgeted solves.
//
// A CancelToken is a thread-safe latch: any thread (an engine watchdog, a
// signal handler, a caller that lost interest) calls request_cancel(), and
// the solver observes it at its budget-check sites and returns best-so-far
// bounds with StatusCode::kCancelled. Cancellation composes with the
// checkpoint layer: a solver given SolveOptions::capture writes a
// core::SolverCheckpoint on the cancelled exit path exactly as it does on
// budget exhaustion, so a cancelled solve can later resume where it
// stopped.
//
// Tokens are polled, never waited on. The solvers call `poll()` once per
// outer iteration (next to the iteration/deadline checks) and the cheaper
// flag read `cancelled()` from inner loops (simplex pivot batches, oracle
// node batches), so an asynchronous request lands within one pivot/node
// batch while the outer-loop poll count stays a deterministic function of
// the iteration sequence.
//
// For deterministic tests and fault drills, `cancel_after_polls(n)` arms a
// countdown that fires the latch on exactly the n-th outer-loop poll —
// independent of wall-clock timing, so "cancel the double oracle at
// iteration 7" is replayable bit-for-bit. `cancel_after_reads(n)` is its
// inner-loop twin: it fires on the n-th `cancelled()` read, so a test can
// land a cancel inside any pivot or node batch without a second thread.
#pragma once

#include <atomic>
#include <cstdint>

namespace defender {

/// Thread-safe cooperative cancellation latch with optional deterministic
/// poll and read countdowns. Once set, the latch stays set; tokens are
/// single-use (one per solve attempt).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Safe to call from any thread, any number of
  /// times; the first call wins and the rest are no-ops.
  void request_cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True once cancellation was requested (or a countdown fired). Cheap
  /// enough for inner loops: two atomic loads while no read countdown is
  /// armed; the armed path stays out of line so it adds no code there.
  bool cancelled() const {
    if (read_countdown_.load(std::memory_order_acquire) != 0) [[unlikely]]
      return count_read();
    return latched();
  }

  /// Arms a deterministic countdown: the n-th call to poll() (1-based)
  /// fires the latch. n == 0 disarms. Countdowns make cancellation
  /// replayable in tests without any timing dependence.
  void cancel_after_polls(std::uint64_t n) {
    countdown_.store(n, std::memory_order_release);
  }

  /// Arms a deterministic countdown on the inner-loop reads: the n-th call
  /// to cancelled() (1-based) fires the latch and returns true. poll()
  /// does not count as a read. n == 0 disarms.
  void cancel_after_reads(std::uint64_t n) {
    read_countdown_.store(n, std::memory_order_release);
  }

  /// Outer-loop poll site: decrements an armed countdown and returns the
  /// latch state. Solvers call this exactly once per outer iteration so the
  /// countdown maps 1:1 onto iterations.
  bool poll() {
    polls_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t armed = countdown_.load(std::memory_order_acquire);
    if (armed != 0 &&
        countdown_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      request_cancel();
    }
    return latched();
  }

  /// Total poll() calls observed (all threads). Diagnostic only.
  std::uint64_t polls() const {
    return polls_.load(std::memory_order_relaxed);
  }

 private:
  bool latched() const { return cancelled_.load(std::memory_order_acquire); }

  /// The armed read countdown: fires the latch on the read that takes it
  /// to zero.
  [[gnu::noinline, gnu::cold]] bool count_read() const {
    if (read_countdown_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      cancelled_.store(true, std::memory_order_release);
    return latched();
  }

  // Mutable: a read countdown fires the latch from the const read site.
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> countdown_{0};
  std::atomic<std::uint64_t> polls_{0};
  mutable std::atomic<std::uint64_t> read_countdown_{0};
};

}  // namespace defender
