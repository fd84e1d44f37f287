// Versioned checkpoint/resume for the budgeted iterative solvers.
//
// Budget exhaustion (PR 1) degrades a solve gracefully — but the
// best-so-far answer was terminal: there was no way to *continue* the solve
// later with more budget. A SolverCheckpoint captures the full loop state
// of the five iterative solver families:
//
//   double oracle (both variants)   working sets + certified bracket
//   fictitious play (both variants) attacker/defender empirical histories
//   Hedge                           log-weights + running strategy sums
//
// Each solver fills SolveOptions::capture (core/budget.hpp) on EVERY exit
// path (budget exhaustion, deadline, cancel, convergence, stall), and
// continues from SolveOptions::resume when one is given.
// All five loops are deterministic functions of this state, so
// kill-at-iteration-i + resume reproduces the uninterrupted trajectory
// exactly: same final status, equal-or-tighter certified bracket (asserted
// by tests/fault/checkpoint_test).
//
// The text format ("defender-checkpoint v1", docs/FORMATS.md) is written
// and read through the shared record codec (util/record.hpp): bit-exact
// doubles, capped counts, kInvalidInput with a 1-based line number, and
// unknown versions rejected, never crashed on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/configuration.hpp"
#include "core/status.hpp"
#include "graph/graph.hpp"
#include "io/durable.hpp"

namespace defender::core {

/// Current checkpoint format version. try_parse_checkpoint rejects any
/// other version with kInvalidInput.
inline constexpr std::uint32_t kSolverCheckpointVersion = 1;

/// Cap on any declared element count in a checkpoint, bounding what a
/// hostile header can make the parser pre-allocate.
inline constexpr std::size_t kMaxCheckpointEntries = 1'000'000;

/// Which solver family a checkpoint belongs to; resuming with the wrong
/// family is rejected as kInvalidInput.
enum class SolverKind {
  kDoubleOracle,
  kWeightedDoubleOracle,
  kFictitiousPlay,
  kWeightedFictitiousPlay,
  kHedge,
};

inline constexpr SolverKind kAllSolverKinds[] = {
    SolverKind::kDoubleOracle,        SolverKind::kWeightedDoubleOracle,
    SolverKind::kFictitiousPlay,      SolverKind::kWeightedFictitiousPlay,
    SolverKind::kHedge,
};

/// Stable name of a solver kind (used in checkpoint files).
constexpr const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDoubleOracle: return "double-oracle";
    case SolverKind::kWeightedDoubleOracle: return "weighted-double-oracle";
    case SolverKind::kFictitiousPlay: return "fictitious-play";
    case SolverKind::kWeightedFictitiousPlay:
      return "weighted-fictitious-play";
    case SolverKind::kHedge: return "hedge";
  }
  return "unknown";
}

/// Parses a kind name produced by to_string; false on an unknown name.
bool try_parse_solver_kind(std::string_view name, SolverKind* out);

/// Complete loop state of one budgeted iterative solve, sufficient to
/// resume it deterministically. Per-solver field mapping:
///
///   double oracle       tuples/vertices = working sets,
///                       best_lower/best_upper = certified bracket
///   fictitious play     attacker_history = attacker vertex counts,
///                       defender_history = defender cover counts
///   Hedge               attacker_history = log-weights,
///                       defender_history = coverage sums,
///                       average_history = attacker strategy sums,
///                       horizon = the round horizon fixing eta
struct SolverCheckpoint {
  std::uint32_t version = kSolverCheckpointVersion;
  SolverKind solver = SolverKind::kDoubleOracle;
  /// Game shape, validated on resume.
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t k = 0;
  /// Cumulative outer iterations/rounds completed across all segments.
  std::size_t iterations = 0;
  /// Hedge's round horizon (fixes the learning rate); 0 for other solvers.
  std::size_t horizon = 0;
  /// Next geometric bound-checkpoint round (learning dynamics); 0 unused.
  std::size_t next_checkpoint = 0;
  /// Best certified bracket so far (double oracle) or last trace bounds.
  double best_lower = 0;
  double best_upper = 0;
  /// Whether any oracle call was truncated so far.
  bool any_truncated = false;
  /// Double-oracle working sets.
  std::vector<Tuple> tuples;
  std::vector<graph::Vertex> vertices;
  /// Learning-dynamics state vectors (see mapping above).
  std::vector<double> attacker_history;
  std::vector<double> defender_history;
  std::vector<double> average_history;
};

/// Serializes a checkpoint to its line-oriented text form.
std::string to_text(const SolverCheckpoint& checkpoint);

/// Hardened parse of to_text() output. Unknown versions, malformed or
/// oversized counts, non-finite state, and truncated input all come back
/// as kInvalidInput with the offending line number — never a crash.
Solved<SolverCheckpoint> try_parse_checkpoint(const std::string& text);

/// Envelope format tag for checkpoint artifacts on disk.
inline constexpr std::string_view kCheckpointArtifactFormat =
    "defender-checkpoint";

/// Durably persists a checkpoint: CRC32C envelope + atomic dual-generation
/// write (docs/DURABILITY.md). kIoError names the path on any failure —
/// the previous on-disk generation is never damaged.
Status save_checkpoint_file(const std::string& path,
                            const SolverCheckpoint& checkpoint,
                            const io::AtomicWriteOptions& opts = {});

/// Loads a checkpoint with recovery: corrupt current generations are
/// quarantined to `<path>.corrupt` and the load falls back to a complete
/// `<path>.tmp` or `<path>.prev`; legacy unwrapped checkpoint files read
/// through transparently. `report` (optional) receives the recovery story.
Solved<SolverCheckpoint> load_checkpoint_file(const std::string& path,
                                              io::LoadReport* report =
                                                  nullptr);

}  // namespace defender::core
