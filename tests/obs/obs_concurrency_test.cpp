// Concurrency safety of the observability layer: a Tracer + JsonlSink and a
// shared ConvergenceRecorder hammered from 8 threads must produce exact,
// untorn output — every JSONL line valid, every event accounted for, every
// sample intact — and the null-obs solve path must stay bit-identical when
// solves run concurrently (the engine runs one solve per worker against
// shared sinks, so this is the contract its batch isolation stands on).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/budget.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "graph/generators.hpp"
#include "json_check.hpp"
#include "obs/context.hpp"
#include "obs/convergence.hpp"
#include "obs/trace.hpp"

namespace defender::obs {
namespace {

constexpr std::size_t kThreads = 8;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Barrier-starts `kThreads` threads running `fn(thread_index)`.
void run_threads(void (*fn)(std::size_t, void*), void* arg) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t, arg);
    });
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
}

TEST(TracerConcurrency, InterleavedThreadsProduceExactValidJsonl) {
  std::ostringstream out;
  JsonlSink sink(out);
  Tracer tracer(&sink);

  constexpr std::size_t kSpansPerThread = 40;
  struct Ctx {
    Tracer* tracer;
  } ctx{&tracer};
  run_threads(
      [](std::size_t t, void* arg) {
        Tracer& tr = *static_cast<Ctx*>(arg)->tracer;
        for (std::size_t i = 0; i < kSpansPerThread; ++i) {
          Span s = tr.span("engine.job",
                           {TraceArg::of("thread", std::uint64_t(t)),
                            TraceArg::of("i", std::uint64_t(i))});
          tr.instant("engine.event",
                     {TraceArg::of("text", std::string("quote \" nl \n"))});
          s.arg("gap", 1.0 / static_cast<double>(i + 1));
          s.end();
        }
      },
      &ctx);
  tracer.flush();

  // Exact accounting: each span is 2 events plus 1 instant, no line lost.
  const auto lines = lines_of(out.str());
  const std::size_t expected = kThreads * kSpansPerThread * 3;
  ASSERT_EQ(lines.size(), expected);
  EXPECT_EQ(tracer.events_emitted(), expected);

  // No torn lines: every line parses as one standalone JSON object, and
  // the sequence numbers are exactly {0, ..., expected-1}.
  std::set<std::string> seqs;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
    const std::size_t pos = line.find("\"seq\":");
    ASSERT_NE(pos, std::string::npos) << line;
    std::size_t end = pos + 6;
    while (end < line.size() && std::isdigit(line[end]) != 0) ++end;
    seqs.insert(line.substr(pos + 6, end - pos - 6));
  }
  EXPECT_EQ(seqs.size(), expected);
}

TEST(ConvergenceRecorderConcurrency, SharedRecorderLosesAndTearsNothing) {
  ConvergenceRecorder recorder;
  constexpr std::size_t kSamplesPerThread = 500;

  struct Ctx {
    ConvergenceRecorder* recorder;
  } ctx{&recorder};
  run_threads(
      [](std::size_t t, void* arg) {
        ConvergenceRecorder& rec = *static_cast<Ctx*>(arg)->recorder;
        for (std::size_t i = 0; i < kSamplesPerThread; ++i) {
          IterationSample s;
          s.iteration = i;
          // Tear detector: all fields encode (t, i); a torn write mixes
          // two samples and breaks the redundancy below.
          s.lower = static_cast<double>(t);
          s.upper = static_cast<double>(t) + 1.0;
          s.gap = static_cast<double>(i);
          s.defender_support = t;
          s.attacker_support = i;
          rec.record(s);
        }
      },
      &ctx);

  const auto samples = recorder.snapshot();
  ASSERT_EQ(samples.size(), kThreads * kSamplesPerThread);
  std::vector<std::size_t> per_thread(kThreads, 0);
  for (const IterationSample& s : samples) {
    ASSERT_LT(s.defender_support, kThreads);
    EXPECT_EQ(s.lower, static_cast<double>(s.defender_support));
    EXPECT_EQ(s.upper, static_cast<double>(s.defender_support) + 1.0);
    EXPECT_EQ(s.iteration, s.attacker_support);
    EXPECT_EQ(s.gap, static_cast<double>(s.attacker_support));
    ++per_thread[s.defender_support];
  }
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(per_thread[t], kSamplesPerThread) << "thread " << t;
}

TEST(ConvergenceRecorderConcurrency, SnapshotIsConsistentMidRun) {
  ConvergenceRecorder recorder;
  std::atomic<bool> done{false};

  std::thread writer([&]() {
    for (std::size_t i = 0; i < 20'000; ++i) {
      IterationSample s;
      s.iteration = i;
      s.lower = static_cast<double>(i);
      s.upper = static_cast<double>(i);
      recorder.record(s);
    }
    done.store(true, std::memory_order_release);
  });

  // Every mid-run snapshot must be an intact prefix-consistent copy:
  // sizes never shrink, every sample internally coherent.
  std::size_t last_size = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto snap = recorder.snapshot();
    ASSERT_GE(snap.size(), last_size);
    last_size = snap.size();
    for (const IterationSample& s : snap) {
      ASSERT_EQ(s.lower, static_cast<double>(s.iteration));
      ASSERT_EQ(s.upper, s.lower);
    }
  }
  writer.join();
  EXPECT_EQ(recorder.snapshot().size(), 20'000u);
}

TEST(NullObsConcurrency, ConcurrentNullObsSolvesStayBitIdentical) {
  // The zero-cost promise under concurrency: solves running on 8 threads
  // with obs == nullptr are bit-identical to the same solves run serially.
  const graph::Graph g = graph::petersen_graph();
  const core::TupleGame game(g, 3, 1);
  const auto serial = core::solve_double_oracle(
      game, {.budget = SolveBudget::iterations(200)});

  struct Ctx {
    const core::TupleGame* game;
    std::vector<Solved<core::DoubleOracleResult>>* results;
  };
  std::vector<Solved<core::DoubleOracleResult>> results(kThreads);
  Ctx ctx{&game, &results};
  run_threads(
      [](std::size_t t, void* arg) {
        Ctx& c = *static_cast<Ctx*>(arg);
        (*c.results)[t] = core::solve_double_oracle(
            *c.game, {.budget = SolveBudget::iterations(200)});
      },
      &ctx);

  for (const auto& r : results) {
    EXPECT_EQ(r.status.code, serial.status.code);
    EXPECT_EQ(r.result.value, serial.result.value);
    EXPECT_EQ(r.result.lower_bound, serial.result.lower_bound);
    EXPECT_EQ(r.result.upper_bound, serial.result.upper_bound);
    EXPECT_EQ(r.result.iterations, serial.result.iterations);
  }
}

}  // namespace
}  // namespace defender::obs
