#include "core/checkpoint.hpp"

#include <limits>

#include "util/record.hpp"

namespace defender::core {

bool try_parse_solver_kind(std::string_view name, SolverKind* out) {
  for (SolverKind kind : kAllSolverKinds) {
    if (name == to_string(kind)) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

std::string to_text(const SolverCheckpoint& cp) {
  util::RecordWriter w;
  w.header("defender-checkpoint", cp.version)
      .line("solver", to_string(cp.solver))
      .line("game", cp.n, cp.m, cp.k)
      .line("progress", cp.iterations, cp.horizon, cp.next_checkpoint,
            cp.any_truncated)
      .line("bracket", cp.best_lower, cp.best_upper)
      .line("tuples", cp.tuples.size());
  for (const Tuple& t : cp.tuples) w.list("tuple", t);
  w.list("vertices", cp.vertices)
      .list("attacker", cp.attacker_history)
      .list("defender", cp.defender_history)
      .list("average", cp.average_history)
      .line("end");
  return w.take();
}

Solved<SolverCheckpoint> try_parse_checkpoint(const std::string& text) {
  constexpr std::size_t kMax = kMaxCheckpointEntries;
  constexpr std::size_t kMaxProgress =
      std::numeric_limits<std::size_t>::max() / 4;
  return util::read_record<SolverCheckpoint>(
      text, "checkpoint", [](util::RecordReader& r, SolverCheckpoint& cp) {
        std::size_t tuples = 0;
        if (!(r.header("defender-checkpoint", kSolverCheckpointVersion) &&
              r.line("solver <kind>") &&
              r.name(&cp.solver, try_parse_solver_kind) &&
              r.line("game <n> <m> <k>") && r.count(&cp.n, kMax) &&
              r.count(&cp.m, kMax) && r.count(&cp.k, kMax) &&
              r.line("progress <iterations> <horizon> <next> <truncated>") &&
              r.count(&cp.iterations, kMaxProgress) &&
              r.count(&cp.horizon, kMaxProgress) &&
              r.count(&cp.next_checkpoint, kMaxProgress) &&
              r.flag(&cp.any_truncated) &&
              r.line("bracket <lower> <upper>") &&
              r.number(&cp.best_lower) && r.number(&cp.best_upper) &&
              r.line("tuples <count>") && r.count(&tuples, kMax)))
          return false;
        cp.tuples.reserve(tuples);
        for (std::size_t i = 0; i < tuples; ++i) {
          if (!r.line("tuple <size> <edges...>") ||
              !r.list(&cp.tuples.emplace_back(), kMax))
            return false;
        }
        return r.line("vertices <count> <v...>") &&
               r.list(&cp.vertices, kMax) &&
               r.line("attacker <count> <x...>") &&
               r.list(&cp.attacker_history, kMax) &&
               r.line("defender <count> <x...>") &&
               r.list(&cp.defender_history, kMax) &&
               r.line("average <count> <x...>") &&
               r.list(&cp.average_history, kMax) && r.end();
      });
}

Status save_checkpoint_file(const std::string& path,
                            const SolverCheckpoint& checkpoint,
                            const io::AtomicWriteOptions& opts) {
  return io::save_artifact(path, kCheckpointArtifactFormat,
                           to_text(checkpoint), opts);
}

Solved<SolverCheckpoint> load_checkpoint_file(const std::string& path,
                                              io::LoadReport* report) {
  io::LoadOptions load;
  // The probe parse doubles as the acceptance test: a candidate file only
  // counts as a loadable generation if the real checkpoint parser takes
  // it, so corruption that slips past the envelope (legacy files, a bit
  // flip landing in the header) still cannot be returned.
  load.validate = [](const std::string& payload) {
    return try_parse_checkpoint(payload).status;
  };
  Solved<std::string> payload =
      io::load_artifact(path, kCheckpointArtifactFormat, load, report);
  if (!payload.ok()) {
    Solved<SolverCheckpoint> out;
    out.status = payload.status;
    return out;
  }
  return try_parse_checkpoint(payload.result);
}

}  // namespace defender::core
