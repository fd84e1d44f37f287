// Custom gtest main for the supervise suites: these binaries HOST pool
// workers (the supervisor re-execs /proc/self/exe), so the worker
// trampoline must run before anything else — including gtest's own
// argument parsing, which would reject the sentinel argv. The test-only
// fake worker (fake_worker.hpp) gets the first look.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "fake_worker.hpp"
#include "supervise/wire.hpp"
#include "supervise/worker.hpp"

namespace defender::supervise::test {
namespace {

/// No-op unless argv carries the worker sentinel and the environment asks
/// for a fake worker; then runs it and never returns.
void fake_worker_trampoline(int argc, char** argv) {
  if (argc < 6 || std::strcmp(argv[1], kWorkerSentinel) != 0) return;
  const char* mode = std::getenv(kFakeWorkerEnv);
  if (mode == nullptr || std::strcmp(mode, kBadResultWorker) != 0) return;
  const int job_fd = std::atoi(argv[2]);
  const int result_fd = std::atoi(argv[3]);
  const int heartbeat_ms = std::max(1, std::atoi(argv[5]));
  std::signal(SIGPIPE, SIG_IGN);

  // One writer at a time, so heartbeat and result frames never interleave.
  static std::mutex write_mu;
  const auto send = [result_fd](const char* format,
                                const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!write_frame(result_fd, format, payload)) std::_Exit(0);
  };
  HelloFrame hello;
  hello.pid = static_cast<std::int64_t>(::getpid());
  send(kHelloFormat, to_text(hello));
  std::thread([send, heartbeat_ms] {
    HeartbeatFrame beat;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
      ++beat.sequence;
      send(kHeartbeatFormat, to_text(beat));
    }
  }).detach();  // the process exits via _Exit; nothing to join

  FrameReader reader;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(job_fd, buf, sizeof(buf));
    if (n <= 0) std::_Exit(0);  // EOF on the job pipe: shutdown
    reader.feed(buf, static_cast<std::size_t>(n));
    FrameReader::Frame frame;
    while (reader.next(&frame, nullptr) == FrameReader::Next::kFrame)
      if (frame.format == kJobFormat)
        send(kResultFormat, "this payload is not a result frame\n");
  }
}

}  // namespace
}  // namespace defender::supervise::test

int main(int argc, char** argv) {
  defender::supervise::test::fake_worker_trampoline(argc, argv);
  defender::supervise::worker_trampoline(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
