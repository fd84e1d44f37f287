// The shared monotonic time source: budget meters, traces, metrics and
// the experiment harness all read it.
//
// Before this header existed every timing consumer owned its own
// steady-clock epoch: BudgetMeter carried its own stopwatch, the simplex
// pivot loop another, and any ad-hoc span timing would have added a third.
// Epochs that differ by construction order make cross-referencing
// impossible — a `Status::elapsed_seconds` of 0.8s and a trace span of
// 0.8s could still describe different intervals. obs::Clock fixes a single
// process-wide epoch (first use) and hands out microsecond ticks against
// it, so budget meters, tracer spans, and metric timestamps are all points
// on the same axis and can be compared or subtracted directly.
//
// Monotonicity is enforced, not assumed: now_micros() never hands out a
// tick below one it already handed out, and the duration helpers clamp
// negative deltas to zero — so span durations and Status::elapsed_seconds
// can never go negative even under clock skew. Skew can be *injected*
// (inject_skew_micros) by the fault layer to prove exactly that: backward
// skew is absorbed by the clamp (counted in skew_clamps()), forward skew
// starves wall-clock deadlines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace defender::obs {

/// Process-wide steady clock with a shared epoch. All observability
/// timestamps (trace events, span durations, budget-meter elapsed times)
/// are microsecond counts from this one epoch.
class Clock {
 public:
  /// Microseconds since the process-wide epoch.
  using Micros = std::uint64_t;

  /// Current tick. Monotonic by construction: a reading that would fall
  /// below an earlier one (skewed underlying clock, injected skew) is
  /// clamped to the latest tick handed out, and the clamp is counted.
  static Micros now_micros() {
    const std::int64_t skewed =
        raw_micros() + skew_us_.load(std::memory_order_relaxed);
    const Micros candidate =
        skewed > 0 ? static_cast<Micros>(skewed) : Micros{0};
    Micros prev = last_.load(std::memory_order_relaxed);
    while (candidate > prev) {
      if (last_.compare_exchange_weak(prev, candidate,
                                      std::memory_order_relaxed))
        return candidate;
    }
    // Ties are the normal sub-microsecond case; only a strictly backward
    // reading counts as an absorbed skew event.
    if (candidate < prev)
      skew_clamps_.fetch_add(1, std::memory_order_relaxed);
    return prev;
  }

  /// Seconds elapsed since `start` (a tick previously read from this
  /// clock). Never negative.
  static double seconds_since(Micros start) {
    const Micros now = now_micros();
    return now <= start ? 0.0 : static_cast<double>(now - start) * 1e-6;
  }

  /// Seconds between two ticks of this clock. Never negative.
  static double seconds_between(Micros start, Micros end) {
    return end <= start ? 0.0 : static_cast<double>(end - start) * 1e-6;
  }

  /// Shifts every subsequent raw reading by `delta_us` (negative = the
  /// clock appears to run backwards). Fault-injection hook: the monotonic
  /// clamp above is what keeps the rest of the system sound under it.
  static void inject_skew_micros(std::int64_t delta_us) {
    skew_us_.fetch_add(delta_us, std::memory_order_relaxed);
  }

  /// How many strictly-backward readings the monotonic clamp absorbed —
  /// the metric the non-monotonicity guard promises.
  static std::uint64_t skew_clamps() {
    return skew_clamps_.load(std::memory_order_relaxed);
  }

 private:
  static std::int64_t raw_micros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch())
        .count();
  }

  static std::chrono::steady_clock::time_point epoch() {
    static const std::chrono::steady_clock::time_point e =
        std::chrono::steady_clock::now();
    return e;
  }

  inline static std::atomic<Micros> last_{0};
  inline static std::atomic<std::int64_t> skew_us_{0};
  inline static std::atomic<std::uint64_t> skew_clamps_{0};
};

}  // namespace defender::obs
