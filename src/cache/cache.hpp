// Canonical-form solve cache with warm starts.
//
// SolveCache memoizes equilibrium solves keyed by CANONICAL form
// (canonical.hpp): the canonically relabeled edge list plus every
// parameter the result depends on — k, ν, vertex weights (in canonical
// order), solver kind, tolerance, and the per-attempt budget. Two boards
// that are isomorphic (respecting weights) under the same parameters
// share a key, so a batch that sweeps a graph family pays for each
// isomorphism class once.
//
// Correctness before speed:
//
//   Collision guard   lookups bucket by 64-bit FNV-1a hash but ALWAYS
//                     re-compare the full key text; a hash collision is
//                     counted (cache.collisions) and treated as a miss,
//                     never served. CacheConfig::hash_mask can fold the
//                     hash space down to force collisions in tests (and
//                     doubles as the sharding hook in ROADMAP.md).
//   Transport         cached strategy profiles live in canonical labels;
//                     transport() maps them back through the probe's
//                     permutation and rebuilds validated distributions —
//                     a tampered persistent store degrades to
//                     kInvalidInput, never a crash or a wrong profile.
//   Store gating      callers only store clean results (the engine gates
//                     on single-attempt kOk with no faults injected —
//                     docs/CACHE.md); the cache additionally rejects
//                     entries with non-finite payloads.
//
// Warm starts: a lookup that misses on (tolerance, budget) but matches
// the structural key (board + weights + k + ν + solver) can fetch the
// stored solver checkpoint via warm_checkpoint() and resume through
// SolveOptions::resume instead of starting cold.
//
// The persistent text store ("defender-cache v1", docs/FORMATS.md) is
// written and read through the shared record codec (util/record.hpp):
// bit-exact doubles, capped counts, kInvalidInput with a 1-based line
// number, versions != 1 rejected.
//
// Thread safety: all members are safe to call concurrently; the engine's
// workers share one SolveCache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/canonical.hpp"
#include "core/budget.hpp"
#include "core/configuration.hpp"
#include "core/status.hpp"
#include "graph/graph.hpp"
#include "io/durable.hpp"
#include "obs/metrics.hpp"

namespace defender::cache {

/// Current persistent-store format version; merge_text rejects others.
inline constexpr std::uint32_t kCacheFormatVersion = 1;

/// Cap on any declared count in a persistent store, bounding what a
/// hostile header can make the parser pre-allocate.
inline constexpr std::size_t kMaxCacheParseEntries = 1'000'000;

/// Default LRU capacity (entries).
inline constexpr std::size_t kDefaultCacheCapacity = 4096;

/// A fully derived cache key. `structural` identifies the game up to
/// solver choice (canonical board, weights, k, ν, solver name); `params`
/// appends the solve parameters (tolerance, budget). Exact hits compare
/// structural + params; warm starts compare structural only.
struct CacheKey {
  std::string structural;
  std::string params;
  /// FNV-1a over structural + params, UNMASKED; the cache applies its
  /// configured hash_mask when bucketing.
  std::uint64_t hash = 0;

  std::string text() const { return structural + params; }
};

/// One cached solve, stored entirely in canonical labels.
struct CachedSolve {
  // -- Key components (the persistent store rebuilds keys from these). --
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t num_attackers = 0;
  bool exact_form = true;
  std::string solver;
  double tolerance = 0;
  std::size_t max_iterations = 0;
  double wall_clock_seconds = 0;
  std::uint64_t oracle_node_budget = 0;
  std::vector<graph::Edge> edges;    // canonical, sorted
  std::vector<double> weights;       // canonical order; empty if unweighted

  // -- Result payload (label-invariant scalars, verbatim). --
  std::string message;
  std::size_t iterations = 0;
  double residual = 0;
  /// Final JobResult fields (post envelope clamp).
  double value = 0;
  double lower = 0;
  double upper = 0;
  /// The single attempt's raw certified fields (pre clamp), so a hit
  /// reconstructs the attempt record bit-identically.
  double attempt_value = 0;
  double attempt_lower = 0;
  double attempt_upper = 0;

  // -- Strategy profiles in canonical labels (exact solvers only). --
  bool has_profiles = false;
  std::vector<core::Tuple> defender_support;  // canonical edge ids
  std::vector<double> defender_probs;
  std::vector<graph::Vertex> attacker_support;  // canonical vertices
  std::vector<double> attacker_probs;

  /// Solver checkpoint text (canonical labels) for warm starts; empty
  /// when the solver has none (kZeroSumLp).
  std::string checkpoint_text;
};

/// Cached profiles mapped back onto a probe's original labeling.
struct TransportedProfiles {
  core::TupleDistribution defender;
  core::VertexDistribution attacker;
};

/// Monotonic counters; also mirrored into obs metrics when configured.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  /// Lookups that met a bucket entry whose full key text differed —
  /// a hash collision (or folded-hash neighbour) that was refused.
  std::uint64_t collisions = 0;
  std::uint64_t transports = 0;
  std::uint64_t warm_hits = 0;
};

struct CacheConfig {
  std::size_t capacity = kDefaultCacheCapacity;
  /// Bucketing hash is (key.hash & hash_mask). All-ones (default) keeps
  /// the full 64-bit space; tests fold it (e.g. mask 0) to force every
  /// key into one bucket and exercise the collision guard.
  std::uint64_t hash_mask = ~std::uint64_t{0};
  /// Optional metrics sink: cache.hits / cache.misses / cache.stores /
  /// cache.evictions / cache.collisions / cache.transports counters.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Structural-key → checkpoint-text index snapshot, taken once at batch
/// start so warm starts never depend on mid-batch store order.
using WarmSnapshot = std::unordered_map<std::string, std::string>;

class SolveCache {
 public:
  explicit SolveCache(CacheConfig config = {});

  /// Builds the key for a solve of the canonically relabeled game.
  /// `canonical_weights` must already be in canonical vertex order
  /// (to_canonical_weights), or empty for unweighted solvers.
  static CacheKey make_key(const CanonicalForm& form,
                           std::span<const double> canonical_weights,
                           std::size_t k, std::size_t num_attackers,
                           std::string_view solver_name, double tolerance,
                           const SolveBudget& budget);

  /// Exact lookup: full key-text equality, LRU touch on hit.
  std::optional<CachedSolve> lookup(const CacheKey& key);

  /// Near-miss lookup: the most recently stored checkpoint text under the
  /// key's STRUCTURAL part, whatever its params. Empty optional when no
  /// structural twin (with a checkpoint) is cached.
  std::optional<std::string> warm_checkpoint(const CacheKey& key);

  /// Inserts or refreshes an entry. Entries with non-finite numeric
  /// payloads are rejected (defensively — the engine gates stores anyway).
  void store(const CacheKey& key, CachedSolve entry);

  /// Maps a cached entry's profiles back onto `original`'s labeling via
  /// the probe's canonical form. kInvalidInput when the entry carries no
  /// profiles or its payload does not form valid distributions on
  /// `original` (possible only with a tampered persistent store).
  Solved<TransportedProfiles> transport(const CachedSolve& entry,
                                        const CanonicalForm& probe_form,
                                        const graph::Graph& original);

  /// Snapshot of the warm-start index (engine batches take one at start
  /// so resume trajectories are worker-count invariant).
  WarmSnapshot warm_snapshot() const;

  /// Serializes every entry, least recently used first (so a reload
  /// reconstructs the same recency order).
  std::string to_text() const;

  /// Per-entry serialization for the record-framed durable store: one
  /// complete single-entry "defender-cache v1" document per entry, in the
  /// same LRU-first order as to_text(). Each record stands alone, so a
  /// torn store salvages its intact prefix entry by entry
  /// (docs/DURABILITY.md).
  std::vector<std::string> to_record_texts() const;

  /// Parses a persistent store and inserts every entry. Hardened:
  /// malformed input returns kInvalidInput with the offending 1-based
  /// line number and leaves already-merged entries in place.
  Status merge_text(const std::string& text);

  std::size_t size() const;
  std::size_t capacity() const { return config_.capacity; }
  CacheStats stats() const;

 private:
  struct Entry {
    std::string structural;
    std::string params;
    std::uint64_t masked_hash = 0;
    CachedSolve solve;
  };
  using EntryList = std::list<Entry>;

  void store_locked(const CacheKey& key, CachedSolve entry);
  void evict_to_capacity_locked();
  void count(const char* name, std::uint64_t* slot);

  CacheConfig config_;
  mutable std::mutex mu_;
  EntryList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::vector<EntryList::iterator>>
      buckets_;
  /// structural key -> owning entry with a non-empty checkpoint (most
  /// recently stored wins; erased when that entry is evicted).
  std::unordered_map<std::string, EntryList::iterator> warm_;
  CacheStats stats_;
};

/// Rebuilds a CacheKey from a stored entry's key components — the exact
/// same text make_key derives at probe time (bit-exact double round-trips
/// make this stable across save/load).
CacheKey key_from_entry(const CachedSolve& entry);

/// Envelope format tag for cache-store artifacts on disk.
inline constexpr std::string_view kCacheArtifactFormat = "defender-cache";

/// Durably persists the cache as a record-framed artifact (one record per
/// entry, CRC32C per record) published with the atomic dual-generation
/// protocol. kIoError names the path; the previous on-disk generation is
/// never damaged by a failed save.
Status save_cache_file(const std::string& path, const SolveCache& cache,
                       const io::AtomicWriteOptions& opts = {});

/// Loads a persistent store into `cache` with recovery: a torn or
/// bit-rotted current generation falls back to a complete `<path>.tmp` or
/// `<path>.prev` (quarantining the corrupt file), and when no complete
/// generation survives, the intact record prefix is salvaged. Legacy
/// unwrapped "defender-cache v1" files read through transparently.
/// Already-merged entries stay merged on a non-kOk return, matching
/// merge_text.
Status load_cache_file(const std::string& path, SolveCache* cache,
                       io::LoadReport* report = nullptr);

}  // namespace defender::cache
