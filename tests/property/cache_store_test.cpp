// The "defender-cache v1" persistent store: a golden-file pin of the
// serialization (so accidental format drift is loud), plus hostile-input
// parsing with exact 1-based line numbers (hardened-parse discipline,
// PR 1 / docs/CACHE.md).
//
// Regenerating the golden after an INTENTIONAL format change:
//   DEFENDER_REGEN_GOLDEN=1 ./cache_store_test
#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "graph/graph.hpp"

namespace defender::cache {
namespace {

const char* golden_path() {
  return DEFENDER_TEST_DATA_DIR "/cache_v1.golden.txt";
}

// Two handcrafted entries covering every optional block: entry A is
// unweighted with a checkpoint and no profiles, entry B is weighted with
// profiles and no checkpoint. Edge lists are hand-written (the golden
// pins the FORMAT, not the canonical labeling algorithm).
std::vector<CachedSolve> golden_entries() {
  CachedSolve a;
  a.n = 4;
  a.k = 2;
  a.num_attackers = 1;
  a.exact_form = true;
  a.solver = "double-oracle";
  a.tolerance = 1e-9;
  a.max_iterations = 60;
  a.edges = {{0, 1}, {0, 2}, {1, 3}};
  a.message = "converged";
  a.iterations = 9;
  a.residual = 0.0;
  a.value = a.lower = a.upper = 0.25;
  a.attempt_value = a.attempt_lower = a.attempt_upper = 0.25;
  a.checkpoint_text = "defender-checkpoint v1\nkind double-oracle\n";

  CachedSolve b;
  b.n = 4;
  b.k = 2;
  b.num_attackers = 2;
  b.exact_form = true;
  b.solver = "weighted-double-oracle";
  b.tolerance = 1e-6;
  b.max_iterations = 200;
  b.wall_clock_seconds = 1.5;
  b.oracle_node_budget = 5000;
  b.edges = {{0, 1}, {1, 2}, {2, 3}};
  b.weights = {2.0, 1.5, 1.5, 1.0};
  b.message = "converged after oracle silence";
  b.iterations = 12;
  b.residual = 1e-7;
  b.value = b.lower = b.upper = 0.375;
  b.attempt_value = b.attempt_lower = b.attempt_upper = 0.375;
  b.has_profiles = true;
  b.defender_support = {{0, 2}, {1, 2}};
  b.defender_probs = {0.625, 0.375};
  b.attacker_support = {0, 3};
  b.attacker_probs = {0.5, 0.5};

  return {a, b};
}

// SolveCache owns a mutex and cannot move; callers pass one in.
void fill_golden(SolveCache& cache) {
  for (const CachedSolve& e : golden_entries()) cache.store(key_from_entry(e), e);
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CacheGolden, SerializationMatchesGoldenByteForByte) {
  SolveCache cache;
  fill_golden(cache);
  const std::string text = cache.to_text();
  if (std::getenv("DEFENDER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }
  EXPECT_EQ(text, read_file(golden_path()));
}

TEST(CacheGolden, GoldenReloadsAndReserializesIdentically) {
  const std::string golden = read_file(golden_path());
  SolveCache cache;
  const Status merged = cache.merge_text(golden);
  ASSERT_TRUE(merged.ok()) << merged.describe();
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.to_text(), golden);

  // The original keys hit the reloaded cache, payloads intact.
  for (const CachedSolve& e : golden_entries()) {
    const std::optional<CachedSolve> hit = cache.lookup(key_from_entry(e));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->solver, e.solver);
    EXPECT_EQ(hit->value, e.value);
    EXPECT_EQ(hit->weights, e.weights);
    EXPECT_EQ(hit->defender_probs, e.defender_probs);
    EXPECT_EQ(hit->checkpoint_text, e.checkpoint_text);
  }
}

TEST(CacheGolden, KeyTextIsStable) {
  // The key text is hashed on every lookup; a reloaded store only hits if
  // its entries rebuild these bytes exactly.
  const CacheKey key = key_from_entry(golden_entries()[1]);
  EXPECT_EQ(key.structural,
            "board 4 3 2 2 1 weighted-double-oracle\n"
            "edges 0 1 1 2 2 3\n"
            "weights 4 2 1.5 1.5 1\n");
  EXPECT_EQ(key.params, "params 9.9999999999999995e-07 200 1.5 5000\n");
}

TEST(CacheGolden, SubnormalPayloadRoundTrips) {
  CachedSolve e = golden_entries()[1];
  e.residual = 4.9406564584124654e-324;
  e.weights[3] = 2.2250738585072009e-308;
  SolveCache cache;
  cache.store(key_from_entry(e), e);
  ASSERT_EQ(cache.size(), 1u);
  SolveCache reloaded;
  const Status merged = reloaded.merge_text(cache.to_text());
  ASSERT_TRUE(merged.ok()) << merged.describe();
  const std::optional<CachedSolve> hit = reloaded.lookup(key_from_entry(e));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->residual, e.residual);
  EXPECT_EQ(hit->weights, e.weights);
  EXPECT_EQ(reloaded.to_text(), cache.to_text());
}

// A minimal valid single-entry store, line-numbered for the hostile tests:
//  1 defender-cache v1      6 params ...     11 value ...
//  2 entries 1              7 edges ...      12 attempt ...
//  3 entry                  8 weights 0      13 profiles 0
//  4 board 3 2 1 1 1        9 status 5 0     14 checkpoint 0
//  5 solver double-oracle  10 message ok     15 end
std::vector<std::string> base_lines() {
  return {
      "defender-cache v1", "entries 1",     "entry",
      "board 3 2 1 1 1",   "solver double-oracle",
      "params 1e-09 60 0 0", "edges 0 1 1 2", "weights 0",
      "status 5 0",        "message ok",    "value 0.5 0.5 0.5",
      "attempt 0.5 0.5 0.5", "profiles 0",  "checkpoint 0",
      "end",
  };
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) {
    text += l;
    text += '\n';
  }
  return text;
}

void expect_rejected(const std::string& text, std::size_t line,
                     const std::string& what) {
  SolveCache cache;
  const Status status = cache.merge_text(text);
  EXPECT_EQ(status.code, StatusCode::kInvalidInput);
  EXPECT_NE(status.message.find("cache line " + std::to_string(line)),
            std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find(what), std::string::npos) << status.message;
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheParsing, AcceptsTheMinimalValidStore) {
  SolveCache cache;
  const Status merged = cache.merge_text(join(base_lines()));
  ASSERT_TRUE(merged.ok()) << merged.describe();
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheParsing, RejectsHostileInputWithExactLineNumbers) {
  expect_rejected("", 1, "empty input");
  expect_rejected("defender-cache v2\nentries 0\n", 1,
                  "unsupported cache version 2");
  expect_rejected("defender-cache vX\n", 1, "malformed version");
  expect_rejected("checkpoint v1\n", 1, "missing 'defender-cache v1' header");
  // Declared counts beyond the allocation cap are refused up front.
  expect_rejected("defender-cache v1\nentries 1000001\n", 2,
                  "expected 'entries <count>'");
  expect_rejected("defender-cache v1\nentries 1\n", 3,
                  "missing 'entry' marker");

  std::vector<std::string> lines = base_lines();
  lines[6] = "edges 1 0 1 2";  // u >= v: not a normalized canonical edge
  expect_rejected(join(lines), 7, "malformed canonical edge list");

  lines = base_lines();
  lines[6] = "edges 0 1 1 3";  // endpoint out of range for n = 3
  expect_rejected(join(lines), 7, "malformed canonical edge list");

  lines = base_lines();
  lines[7] = "weights 2 1 1";  // n = 3 but two weights
  expect_rejected(join(lines), 8, "weights must be empty or one per vertex");

  lines = base_lines();
  lines[10] = "value nan 0.5 0.5";  // non-finite payloads never load
  expect_rejected(join(lines), 11, "expected 'value <v> <lower> <upper>'");

  lines = base_lines();
  // Declares more checkpoint lines than the block has: the raw reader
  // swallows the "end" trailer as checkpoint payload and hits EOF.
  lines[13] = "checkpoint 3";
  expect_rejected(join(lines), 16, "truncated checkpoint block");

  lines = base_lines();
  lines.pop_back();  // drop the end trailer
  expect_rejected(join(lines), 15, "missing 'end' trailer");
}

TEST(CacheParsing, KeepsEarlierEntriesWhenALaterOneIsMalformed) {
  std::vector<std::string> lines = base_lines();
  lines[1] = "entries 2";
  lines.push_back("entry");
  lines.push_back("board not-a-number");
  SolveCache cache;
  const Status status = cache.merge_text(join(lines));
  EXPECT_EQ(status.code, StatusCode::kInvalidInput);
  EXPECT_EQ(cache.size(), 1u);  // the valid first entry survives
}

TEST(CacheParsing, MessageLineRoundTripsVerbatim) {
  std::vector<std::string> lines = base_lines();
  lines[9] = "message iteration limit: gap 3.2e-04 > tol  (degraded)";
  SolveCache cache;
  ASSERT_TRUE(cache.merge_text(join(lines)).ok());
  EXPECT_NE(cache.to_text().find(lines[9]), std::string::npos);
}

}  // namespace
}  // namespace defender::cache
