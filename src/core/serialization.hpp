// Text serialization of mixed configurations.
//
// Lets users persist an equilibrium computed by A_tuple (or any other
// pipeline) and reload it later for verification, simulation, or
// deployment — the configurational analogue of graph/io. The format is
// line-oriented and human-diffable:
//
//   defender-configuration v1
//   game <n> <m> <k> <nu>
//   attacker <i> <support size> {<vertex> <prob>}...
//   defender <support size>
//   tuple <prob> <edge>...          (one line per support tuple)
//
// The shared record codec (util/record.hpp, docs/FORMATS.md) writes and
// reads it: probabilities round-trip bit for bit, counts are capped
// before any allocation (no silent wrap of "-1"), and errors carry the
// 1-based line number. try_from_text / try_read_configuration report
// failures as a structured defender::Status (kInvalidInput) instead of
// throwing.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "core/status.hpp"

namespace defender::core {

/// Cap on a declared defender support size, bounding what a hostile
/// "defender <count>" line can make the parser pre-allocate. (A valid
/// attacker support is already capped by n.)
inline constexpr std::size_t kMaxSerializedTuples = 1'000'000;

/// Serializes `config` (validated against `game`).
std::string to_text(const TupleGame& game, const MixedConfiguration& config);

/// Parses a configuration and validates it against `game`; throws
/// ContractViolation on malformed input or game mismatch.
MixedConfiguration from_text(const TupleGame& game, const std::string& text);

/// Non-throwing variant: malformed input, game mismatch, oversized
/// declared supports, and invalid distributions all come back as
/// kInvalidInput with the offending line number in the message.
Solved<MixedConfiguration> try_from_text(const TupleGame& game,
                                         const std::string& text);

/// Stream variants.
void write_configuration(std::ostream& os, const TupleGame& game,
                         const MixedConfiguration& config);
MixedConfiguration read_configuration(std::istream& is,
                                      const TupleGame& game);
Solved<MixedConfiguration> try_read_configuration(std::istream& is,
                                                  const TupleGame& game);

}  // namespace defender::core
