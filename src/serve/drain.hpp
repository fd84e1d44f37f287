// The "defender-drain v1" manifest: every admitted-but-unfinished job of
// a draining defender_serve process, serialized so a fresh process can
// resume the batch bit-identically (docs/SERVE.md).
//
// Each entry carries the job's protocol-level spec (enough to rebuild the
// SolveJob from scratch) plus, for jobs that were cancelled mid-first-
// attempt by the drain deadline, the solver checkpoint to continue from —
// embedded verbatim as a counted block of "defender-checkpoint v1" lines.
// Jobs without a checkpoint (still queued, or not truthfully capturable)
// simply re-run fresh; the engine's determinism contract makes either
// path produce the same JobResult.
//
// Written and read through the shared record codec (util/record.hpp,
// docs/FORMATS.md), like checkpoints and the cache store: bit-exact
// doubles, capped counts, kInvalidInput with a 1-based line number, an
// explicit "end" trailer, and unknown versions rejected — never crashed on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "io/durable.hpp"
#include "serve/protocol.hpp"

namespace defender::serve {

inline constexpr std::uint32_t kDrainManifestVersion = 1;
/// Caps what a hostile manifest can make the parser pre-allocate.
inline constexpr std::size_t kMaxDrainJobs = 100'000;
inline constexpr std::size_t kMaxDrainCheckpointLines = 2'100'000;

/// One unfinished job: who asked for it, its engine-visible index, the
/// solve spec, and the optional resume checkpoint.
struct DrainedJob {
  std::string client;
  std::string request_id;
  /// The job index the service assigned at admission. Preserved across
  /// restart so the resumed JobResult (whose JSON embeds it) is
  /// bit-identical to the uninterrupted run's.
  std::size_t job_index = 0;
  /// The original solve request (type is always kSolve).
  Request spec;
  /// Verbatim "defender-checkpoint v1" text; empty = re-run fresh.
  std::string checkpoint_text;
};

struct DrainManifest {
  std::uint32_t version = kDrainManifestVersion;
  std::vector<DrainedJob> jobs;
};

/// Serializes a manifest to its line-oriented text form.
std::string to_text(const DrainManifest& manifest);

/// Hardened parse of to_text() output. Every embedded checkpoint block is
/// validated with core::try_parse_checkpoint at parse time, so a manifest
/// that parses kOk is fully resumable.
Solved<DrainManifest> try_parse_drain_manifest(const std::string& text);

/// Envelope format tag for drain-manifest artifacts on disk.
inline constexpr std::string_view kDrainArtifactFormat = "defender-drain";

/// Durably persists a manifest: CRC32C envelope + atomic dual-generation
/// write, so a crash mid-drain can never leave a torn manifest as the
/// only copy of the batch's unfinished jobs (docs/DURABILITY.md).
Status save_drain_manifest_file(const std::string& path,
                                const DrainManifest& manifest,
                                const io::AtomicWriteOptions& opts = {});

/// Loads a manifest with recovery (quarantine, temp adoption, `.prev`
/// fallback) and transparent legacy read-through of unwrapped files.
Solved<DrainManifest> load_drain_manifest_file(const std::string& path,
                                               io::LoadReport* report =
                                                   nullptr);

}  // namespace defender::serve
