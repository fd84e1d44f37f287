#include "cache/cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/record.hpp"

namespace defender::cache {

namespace {

std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 14695981039346656037ull) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The shared key-text builder: make_key and key_from_entry MUST agree
/// byte for byte, so both funnel through this.
CacheKey build_key(std::size_t n, std::size_t m, std::size_t k,
                   std::size_t num_attackers, bool exact,
                   std::string_view solver_name,
                   std::span<const graph::Edge> edges,
                   std::span<const double> weights, double tolerance,
                   std::size_t max_iterations, double wall_clock_seconds,
                   std::uint64_t oracle_node_budget) {
  CacheKey key;
  util::RecordWriter st;
  st.line("board", n, m, k, num_attackers, exact, solver_name).open("edges");
  for (const graph::Edge& e : edges) st.add(e.u, e.v);
  st.close().list("weights", weights);
  key.structural = st.take();
  key.params = util::RecordWriter()
                   .line("params", tolerance, max_iterations,
                         wall_clock_seconds, oracle_node_budget)
                   .take();

  key.hash = fnv1a(key.params, fnv1a(key.structural));
  return key;
}

bool finite_payload(const CachedSolve& e) {
  const double scalars[] = {e.tolerance,     e.wall_clock_seconds,
                            e.residual,      e.value,
                            e.lower,         e.upper,
                            e.attempt_value, e.attempt_lower,
                            e.attempt_upper};
  for (double v : scalars)
    if (!std::isfinite(v)) return false;
  for (double w : e.weights)
    if (!std::isfinite(w)) return false;
  for (double p : e.defender_probs)
    if (!std::isfinite(p)) return false;
  for (double p : e.attacker_probs)
    if (!std::isfinite(p)) return false;
  return true;
}

}  // namespace

CacheKey key_from_entry(const CachedSolve& e) {
  return build_key(e.n, e.edges.size(), e.k, e.num_attackers, e.exact_form,
                   e.solver, e.edges, e.weights, e.tolerance,
                   e.max_iterations, e.wall_clock_seconds,
                   e.oracle_node_budget);
}

SolveCache::SolveCache(CacheConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
}

CacheKey SolveCache::make_key(const CanonicalForm& form,
                              std::span<const double> canonical_weights,
                              std::size_t k, std::size_t num_attackers,
                              std::string_view solver_name, double tolerance,
                              const SolveBudget& budget) {
  return build_key(form.n, form.edges.size(), k, num_attackers, form.exact,
                   solver_name, form.edges, canonical_weights, tolerance,
                   budget.max_iterations, budget.wall_clock_seconds,
                   budget.oracle_node_budget);
}

void SolveCache::count(const char* name, std::uint64_t* slot) {
  ++*slot;
  if (config_.metrics != nullptr) config_.metrics->counter(name).add(1);
}

std::optional<CachedSolve> SolveCache::lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t h = key.hash & config_.hash_mask;
  auto bucket = buckets_.find(h);
  bool collided = false;
  if (bucket != buckets_.end()) {
    for (EntryList::iterator it : bucket->second) {
      if (it->structural == key.structural && it->params == key.params) {
        lru_.splice(lru_.begin(), lru_, it);
        if (collided) count("cache.collisions", &stats_.collisions);
        count("cache.hits", &stats_.hits);
        return it->solve;
      }
      collided = true;
    }
  }
  if (collided) count("cache.collisions", &stats_.collisions);
  count("cache.misses", &stats_.misses);
  return std::nullopt;
}

std::optional<std::string> SolveCache::warm_checkpoint(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = warm_.find(key.structural);
  if (it == warm_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  count("cache.warm_hits", &stats_.warm_hits);
  return it->second->solve.checkpoint_text;
}

void SolveCache::store(const CacheKey& key, CachedSolve entry) {
  if (!finite_payload(entry)) return;
  std::lock_guard<std::mutex> lock(mu_);
  store_locked(key, std::move(entry));
}

void SolveCache::store_locked(const CacheKey& key, CachedSolve entry) {
  const std::uint64_t h = key.hash & config_.hash_mask;
  std::vector<EntryList::iterator>& bucket = buckets_[h];
  for (EntryList::iterator it : bucket) {
    if (it->structural == key.structural && it->params == key.params) {
      // Refresh in place (same key re-stored after, e.g., a reload).
      it->solve = std::move(entry);
      lru_.splice(lru_.begin(), lru_, it);
      if (!it->solve.checkpoint_text.empty()) warm_[key.structural] = it;
      count("cache.stores", &stats_.stores);
      return;
    }
  }
  lru_.push_front(Entry{key.structural, key.params, h, std::move(entry)});
  const EntryList::iterator it = lru_.begin();
  bucket.push_back(it);
  if (!it->solve.checkpoint_text.empty()) warm_[key.structural] = it;
  count("cache.stores", &stats_.stores);
  evict_to_capacity_locked();
}

void SolveCache::evict_to_capacity_locked() {
  while (lru_.size() > config_.capacity) {
    const EntryList::iterator victim = std::prev(lru_.end());
    auto bucket = buckets_.find(victim->masked_hash);
    if (bucket != buckets_.end()) {
      std::vector<EntryList::iterator>& vec = bucket->second;
      vec.erase(std::remove(vec.begin(), vec.end(), victim), vec.end());
      if (vec.empty()) buckets_.erase(bucket);
    }
    auto warm = warm_.find(victim->structural);
    if (warm != warm_.end() && warm->second == victim) warm_.erase(warm);
    lru_.erase(victim);
    count("cache.evictions", &stats_.evictions);
  }
}

Solved<TransportedProfiles> SolveCache::transport(
    const CachedSolve& entry, const CanonicalForm& probe_form,
    const graph::Graph& original) {
  Solved<TransportedProfiles> out;
  const auto fail = [&](const std::string& what) {
    out.status = Status::make(StatusCode::kInvalidInput,
                              "cache transport: " + what);
    return out;
  };
  if (!entry.has_profiles) return fail("entry carries no strategy profiles");
  if (probe_form.n != entry.n || probe_form.edges.size() != entry.edges.size())
    return fail("probe form does not match the entry's canonical form");

  // Canonical edge id -> original edge id, through the probe's inverse
  // labeling. Every canonical edge must exist on `original` (guaranteed
  // when the key matched; checked anyway so a tampered store degrades).
  std::vector<graph::EdgeId> edge_map(entry.edges.size());
  for (std::size_t e = 0; e < entry.edges.size(); ++e) {
    const graph::Edge ce = entry.edges[e];
    if (ce.u >= probe_form.n || ce.v >= probe_form.n)
      return fail("canonical edge endpoint out of range");
    const std::optional<graph::EdgeId> id = original.edge_id(
        probe_form.from_canonical[ce.u], probe_form.from_canonical[ce.v]);
    if (!id.has_value())
      return fail("canonical edge missing on the original board");
    edge_map[e] = *id;
  }

  try {
    std::vector<core::Tuple> tuples;
    tuples.reserve(entry.defender_support.size());
    for (const core::Tuple& t : entry.defender_support) {
      core::Tuple mapped;
      mapped.reserve(t.size());
      for (graph::EdgeId e : t) {
        if (e >= edge_map.size())
          return fail("defender tuple references an out-of-range edge");
        mapped.push_back(edge_map[e]);
      }
      std::sort(mapped.begin(), mapped.end());
      tuples.push_back(std::move(mapped));
    }

    std::vector<std::pair<graph::Vertex, double>> att;
    att.reserve(entry.attacker_support.size());
    for (std::size_t i = 0; i < entry.attacker_support.size(); ++i) {
      const graph::Vertex c = entry.attacker_support[i];
      if (c >= probe_form.n)
        return fail("attacker support vertex out of range");
      att.emplace_back(probe_form.from_canonical[c],
                       entry.attacker_probs[i]);
    }
    std::sort(att.begin(), att.end());
    std::vector<graph::Vertex> support;
    std::vector<double> probs;
    support.reserve(att.size());
    probs.reserve(att.size());
    for (const auto& [v, p] : att) {
      support.push_back(v);
      probs.push_back(p);
    }

    // Distribution constructors validate (distinct support, probabilities
    // summing to 1); a corrupted payload throws and lands in catch below.
    out.result.defender =
        core::TupleDistribution(std::move(tuples), entry.defender_probs);
    out.result.attacker =
        core::VertexDistribution(std::move(support), std::move(probs));
  } catch (const std::exception& e) {
    return fail(std::string("invalid cached profile: ") + e.what());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    count("cache.transports", &stats_.transports);
  }
  out.status = Status::make_ok();
  return out;
}

WarmSnapshot SolveCache::warm_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  WarmSnapshot snap;
  snap.reserve(warm_.size());
  for (const auto& [structural, it] : warm_)
    snap.emplace(structural, it->solve.checkpoint_text);
  return snap;
}

std::size_t SolveCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

CacheStats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

/// The per-entry block shared by to_text (one multi-entry document) and
/// to_record_texts (one single-entry document per record) — the two MUST
/// serialize an entry byte-identically or the durable store would not
/// round-trip against merge_text.
void append_entry_block(util::RecordWriter& w, const CachedSolve& e) {
  w.line("entry")
      .line("board", e.n, e.edges.size(), e.k, e.num_attackers, e.exact_form)
      .line("solver", e.solver)
      .line("params", e.tolerance, e.max_iterations, e.wall_clock_seconds,
            e.oracle_node_budget)
      .open("edges");
  for (const graph::Edge& edge : e.edges) w.add(edge.u, edge.v);
  w.close()
      .list("weights", e.weights)
      .line("status", e.iterations, e.residual)
      .line("message", e.message)
      .line("value", e.value, e.lower, e.upper)
      .line("attempt", e.attempt_value, e.attempt_lower, e.attempt_upper)
      .line("profiles", e.has_profiles);
  if (e.has_profiles) {
    w.open("defender", e.defender_support.size());
    for (double p : e.defender_probs) w.add(p);
    w.close();
    for (const core::Tuple& t : e.defender_support) w.list("tuple", t);
    w.open("attacker", e.attacker_support.size());
    for (std::size_t i = 0; i < e.attacker_support.size(); ++i)
      w.add(e.attacker_support[i], e.attacker_probs[i]);
    w.close();
  }
  w.block("checkpoint", e.checkpoint_text).line("end");
}

/// Reads one "entry" ... "end" block written by append_entry_block.
bool read_entry(util::RecordReader& r, CachedSolve& e) {
  constexpr std::size_t kCap = kMaxCacheParseEntries;
  constexpr std::size_t kMaxIters =
      std::numeric_limits<std::size_t>::max() / 4;
  std::size_t m = 0;
  if (!(r.line("entry", "missing 'entry' marker") &&
        r.line("board <n> <m> <k> <nu> <exact>") && r.count(&e.n, kCap) &&
        r.count(&m, kCap) && r.count(&e.k, kCap) &&
        r.count(&e.num_attackers, kCap) && r.flag(&e.exact_form) &&
        r.line("solver <name>") && r.word(&e.solver) &&
        r.line("params <tol> <iters> <wall> <nodes>") &&
        r.number(&e.tolerance) && r.count(&e.max_iterations, kMaxIters) &&
        r.number(&e.wall_clock_seconds) &&
        r.count(&e.oracle_node_budget,
                std::numeric_limits<std::uint64_t>::max()) &&
        r.line("edges <u> <v> ...")))
    return false;
  e.edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    graph::Vertex u = 0, v = 0;
    if (!r.count(&u, kCap) || !r.count(&v, kCap)) return false;
    if (u >= v || v >= e.n) return r.fail("malformed canonical edge list");
    e.edges.push_back(graph::Edge{u, v});
  }
  if (!(r.line("weights <count> <w...>") && r.list(&e.weights, kCap)))
    return false;
  if (!e.weights.empty() && e.weights.size() != e.n)
    return r.fail("weights must be empty or one per vertex");
  if (!(r.line("status <iterations> <residual>") &&
        r.count(&e.iterations, kMaxIters) && r.number(&e.residual) &&
        r.line("message <text>") && r.rest(&e.message) &&
        r.line("value <v> <lower> <upper>") && r.number(&e.value) &&
        r.number(&e.lower) && r.number(&e.upper) &&
        r.line("attempt <v> <lower> <upper>") &&
        r.number(&e.attempt_value) && r.number(&e.attempt_lower) &&
        r.number(&e.attempt_upper) && r.line("profiles <0|1>") &&
        r.flag(&e.has_profiles)))
    return false;
  if (e.has_profiles) {
    std::size_t count = 0;
    if (!(r.line("defender <count> <p...>") &&
          r.list(&e.defender_probs, kCap)))
      return false;
    e.defender_support.resize(e.defender_probs.size());
    for (core::Tuple& t : e.defender_support)
      if (!(r.line("tuple <size> <edges...>", "truncated defender support") &&
            r.list(&t, kCap)))
        return false;
    if (!(r.line("attacker <count> <v> <p> ...") && r.count(&count, kCap)))
      return false;
    for (std::size_t i = 0; i < count; ++i) {
      graph::Vertex v = 0;
      double p = 0;
      if (!r.count(&v, kCap) || !r.number(&p)) return false;
      e.attacker_support.push_back(v);
      e.attacker_probs.push_back(p);
    }
  }
  return r.block("checkpoint <line-count>", kCap, &e.checkpoint_text) &&
         r.end();
}

}  // namespace

std::string SolveCache::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::RecordWriter w;
  w.header("defender-cache", kCacheFormatVersion).line("entries", lru_.size());
  // Least recently used first: merge_text stores in file order, so the
  // last (most recent) entry ends up at the LRU front again.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
    append_entry_block(w, it->solve);
  return w.take();
}

std::vector<std::string> SolveCache::to_record_texts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> records;
  records.reserve(lru_.size());
  // Same LRU-first order as to_text: replaying the records through
  // merge_text reconstructs the same recency order, and a torn tail
  // costs the most recently used entries last-written, never the whole
  // store.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    util::RecordWriter w;
    w.header("defender-cache", kCacheFormatVersion).line("entries", 1);
    append_entry_block(w, it->solve);
    records.push_back(w.take());
  }
  return records;
}

Status SolveCache::merge_text(const std::string& text) {
  util::RecordReader r(text, "cache");
  std::size_t declared = 0;
  if (!(r.header("defender-cache", kCacheFormatVersion) &&
        r.line("entries <count>") &&
        r.count(&declared, kMaxCacheParseEntries)))
    return r.status();
  for (std::size_t i = 0; i < declared; ++i) {
    CachedSolve e;
    if (!read_entry(r, e)) return r.status();
    const CacheKey key = key_from_entry(e);
    std::lock_guard<std::mutex> lock(mu_);
    store_locked(key, std::move(e));
  }
  return Status::make_ok();
}

Status save_cache_file(const std::string& path, const SolveCache& cache,
                       const io::AtomicWriteOptions& opts) {
  return io::save_record_artifact(path, kCacheArtifactFormat,
                                  cache.to_record_texts(), opts);
}

Status load_cache_file(const std::string& path, SolveCache* cache,
                       io::LoadReport* report) {
  io::LoadOptions load;
  // Probe each record with the real parser (into a scratch cache) before
  // accepting it: a record whose checksum verifies but whose content the
  // store parser rejects truncates the candidate there, the same as a
  // torn tail.
  load.validate = [](const std::string& record) {
    SolveCache probe(CacheConfig{.capacity = kMaxCacheParseEntries});
    return probe.merge_text(record);
  };
  Solved<std::vector<std::string>> records =
      io::load_record_artifact(path, kCacheArtifactFormat, load, report);
  if (!records.ok()) return records.status;
  for (const std::string& record : records.result) {
    const Status merged = cache->merge_text(record);
    if (!merged.ok()) return merged;
  }
  return Status::make_ok();
}

}  // namespace defender::cache
