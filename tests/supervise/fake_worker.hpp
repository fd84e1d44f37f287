// Test-only fake pool worker, hosted by supervise_test_main.cpp.
//
// The supervisor spawns workers by re-exec'ing the test binary with the
// worker sentinel argv and the parent's environment. When that
// environment carries kFakeWorkerEnv = kBadResultWorker, the child does
// not run the real worker loop: it heartbeats like a healthy worker but
// answers every job with a checksummed "supervise-result" frame whose
// payload does not parse. Tests set the variable before constructing a
// pool and clear it after destroying it.
#pragma once

namespace defender::supervise::test {

inline constexpr char kFakeWorkerEnv[] = "DEFENDER_TEST_FAKE_WORKER";
inline constexpr char kBadResultWorker[] = "bad-result";

}  // namespace defender::supervise::test
