#include "serve/drain.hpp"

#include <algorithm>
#include <limits>

#include "core/checkpoint.hpp"
#include "util/record.hpp"

namespace defender::serve {

std::string to_text(const DrainManifest& manifest) {
  util::RecordWriter w;
  w.header("defender-drain", manifest.version)
      .line("jobs", manifest.jobs.size());
  for (const DrainedJob& j : manifest.jobs) {
    w.line("job", j.job_index, j.client, j.request_id)
        .line("spec", engine::to_string(j.spec.solver), j.spec.n, j.spec.k,
              j.spec.attackers, j.spec.tolerance, j.spec.max_iterations,
              j.spec.wall_clock_seconds, j.spec.oracle_node_budget)
        .open("edges", j.spec.edges.size());
    for (const auto& [u, v] : j.spec.edges) w.add(u, v);
    w.close()
        .list("weights", j.spec.weights)
        .block("checkpoint", j.checkpoint_text);
  }
  w.line("end");
  return w.take();
}

namespace {

bool read_job(util::RecordReader& r, DrainedJob& job) {
  constexpr std::size_t kMaxIndex =
      std::numeric_limits<std::size_t>::max() / 4;
  Request& spec = job.spec;
  spec.type = RequestType::kSolve;
  std::size_t edges = 0;
  if (!(r.line("job <index> <client> <request-id>", "truncated job list") &&
        r.count(&job.job_index, kMaxIndex) && r.word(&job.client) &&
        r.word(&job.request_id)))
    return false;
  if (!valid_id(job.client) || !valid_id(job.request_id))
    return r.fail("malformed client or request id");
  spec.client = job.client;
  spec.id = job.request_id;
  if (!(r.line("spec <solver> <n> <k> <attackers> <tolerance> <iters> "
               "<wall> <oracle>") &&
        r.name(&spec.solver, engine::try_parse_job_solver) &&
        r.count(&spec.n, kMaxRequestVertices) && r.check(spec.n > 0) &&
        r.count(&spec.k, kMaxRequestEdges) && r.check(spec.k > 0) &&
        r.count(&spec.attackers, kMaxRequestAttackers) &&
        r.check(spec.attackers > 0) && r.number(&spec.tolerance) &&
        r.check(spec.tolerance >= 0) &&
        r.count(&spec.max_iterations, kMaxIndex) &&
        r.number(&spec.wall_clock_seconds) &&
        r.check(spec.wall_clock_seconds >= 0) &&
        r.count(&spec.oracle_node_budget, kMaxIndex) &&
        r.line("edges <count> <u v>...") &&
        r.count(&edges, kMaxRequestEdges)))
    return false;
  for (std::size_t i = 0; i < edges; ++i) {
    std::size_t u = 0, v = 0;
    if (!r.count(&u, spec.n - 1) || !r.count(&v, spec.n - 1) ||
        !r.check(u != v))
      return false;
    spec.edges.emplace_back(u, v);
  }
  if (spec.edges.empty()) return r.fail("job has no edges");
  if (!(r.line("weights <count> <w>...") &&
        r.list(&spec.weights, kMaxRequestVertices)))
    return false;
  for (const double w : spec.weights)
    if (!r.check(w >= 0)) return false;
  if (engine::is_weighted(spec.solver) && spec.weights.size() != spec.n)
    return r.fail("weighted job needs exactly n weights");
  if (!engine::is_weighted(spec.solver) && !spec.weights.empty())
    return r.fail("unweighted job carries weights");

  if (!r.block("checkpoint <line-count>", kMaxDrainCheckpointLines,
               &job.checkpoint_text))
    return false;
  const std::string& block = job.checkpoint_text;
  if (block.empty()) return true;
  // The block's first line: "checkpoint line K" inside the message is
  // manifest line first_line + K - 1.
  const std::size_t first_line =
      r.line_no() + 1 -
      static_cast<std::size_t>(std::count(block.begin(), block.end(), '\n'));
  const Solved<core::SolverCheckpoint> parsed =
      core::try_parse_checkpoint(block);
  if (!parsed.ok())
    return r.fail_at(first_line, "embedded checkpoint rejected: " +
                                     parsed.status.message);
  if (spec.solver == engine::JobSolver::kZeroSumLp)
    return r.fail_at(first_line,
                     "zero-sum-lp jobs cannot carry a checkpoint");
  return true;
}

}  // namespace

Solved<DrainManifest> try_parse_drain_manifest(const std::string& text) {
  return util::read_record<DrainManifest>(
      text, "drain manifest", [](util::RecordReader& r, DrainManifest& m) {
        std::size_t jobs = 0;
        if (!(r.header("defender-drain", kDrainManifestVersion) &&
              r.line("jobs <count>") && r.count(&jobs, kMaxDrainJobs)))
          return false;
        m.jobs.reserve(jobs);
        for (std::size_t i = 0; i < jobs; ++i)
          if (!read_job(r, m.jobs.emplace_back())) return false;
        return r.end();
      });
}

Status save_drain_manifest_file(const std::string& path,
                                const DrainManifest& manifest,
                                const io::AtomicWriteOptions& opts) {
  return io::save_artifact(path, kDrainArtifactFormat, to_text(manifest),
                           opts);
}

Solved<DrainManifest> load_drain_manifest_file(const std::string& path,
                                               io::LoadReport* report) {
  io::LoadOptions load;
  // A candidate only counts as loadable if the real manifest parser (which
  // also validates every embedded checkpoint) accepts it.
  load.validate = [](const std::string& payload) {
    return try_parse_drain_manifest(payload).status;
  };
  Solved<std::string> payload =
      io::load_artifact(path, kDrainArtifactFormat, load, report);
  if (!payload.ok()) {
    Solved<DrainManifest> out;
    out.status = payload.status;
    return out;
  }
  return try_parse_drain_manifest(payload.result);
}

}  // namespace defender::serve
