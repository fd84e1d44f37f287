#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "util/json_writer.hpp"
#include "util/random.hpp"

namespace e2e {
namespace {

using defender::engine::JobSolver;
using defender::graph::Edge;
using defender::graph::Vertex;
using defender::util::Rng;

/// An explicit board plus the solve parameters of one request.
struct Spec {
  std::size_t n = 0;
  std::vector<Edge> edges;
  std::vector<double> weights;  // empty unless the solver is weighted
  std::size_t k = 1;
  JobSolver solver = JobSolver::kDoubleOracle;
  double tolerance = 1e-9;
  std::size_t iters = 0;  // 0 = no iteration budget
};

// Learning dynamics run to a loose gap so they finish in a few ms; hedge's
// iteration budget doubles as its horizon and must be set.
constexpr double kLooseGap = 0.05;
constexpr std::size_t kHedgeHorizon = 2000;
constexpr std::size_t kAttackers = 2;

Spec make_spec(const defender::graph::Graph& g, std::size_t k,
               JobSolver solver) {
  Spec s;
  s.n = g.num_vertices();
  s.edges.assign(g.edges().begin(), g.edges().end());
  s.k = std::min(k, s.edges.size());
  s.solver = solver;
  if (solver == JobSolver::kFictitiousPlay ||
      solver == JobSolver::kWeightedFictitiousPlay ||
      solver == JobSolver::kHedge)
    s.tolerance = kLooseGap;
  if (solver == JobSolver::kHedge) s.iters = kHedgeHorizon;
  return s;
}

void add_weights(Spec* s, Rng& rng) {
  if (!defender::engine::is_weighted(s->solver)) return;
  s->weights.resize(s->n);
  for (double& w : s->weights) w = 1.0 + static_cast<double>(rng.below(4));
}

/// The same board under a uniformly random vertex relabeling, with edge
/// order and orientation shuffled and the weights carried along.
Spec relabel(const Spec& s, Rng& rng) {
  std::vector<Vertex> perm(s.n);
  std::iota(perm.begin(), perm.end(), Vertex{0});
  defender::util::shuffle(perm, rng);
  Spec out = s;
  for (Edge& e : out.edges) {
    e = Edge{perm[e.u], perm[e.v]};
    if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
  }
  defender::util::shuffle(out.edges, rng);
  for (std::size_t v = 0; v < s.weights.size(); ++v)
    out.weights[perm[v]] = s.weights[v];
  return out;
}

std::string fields(const Spec& s) {
  std::string out = "\"solver\":\"";
  out += defender::engine::to_string(s.solver);
  out += "\",\"n\":" + std::to_string(s.n) + ",\"k\":" + std::to_string(s.k) +
         ",\"attackers\":" + std::to_string(kAttackers) + ",\"edges\":[";
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    if (i != 0) out += ',';
    out += '[' + std::to_string(s.edges[i].u) + ',' +
           std::to_string(s.edges[i].v) + ']';
  }
  out += ']';
  if (!s.weights.empty()) {
    out += ",\"weights\":[";
    for (std::size_t i = 0; i < s.weights.size(); ++i) {
      if (i != 0) out += ',';
      out += defender::util::json_number(s.weights[i]);
    }
    out += ']';
  }
  out += ",\"tolerance\":" + defender::util::json_number(s.tolerance);
  if (s.iters != 0) out += ",\"iters\":" + std::to_string(s.iters);
  return out;
}

/// Closed-loop board families are drawn from fixed catalogue seeds, so
/// every run of a workload solves the same boards and has the same cost
/// profile: relabeling a board changes its solver trajectory, which moved
/// the catalogue's mean cost by up to 6 % and its p99 cost by up to 30 %
/// from seed to seed. --seed draws what varies per run: the request order,
/// the isomorph-zipf relabelings and draws, and the tiny boards and their
/// arrival times.
constexpr std::uint64_t kSolveHeavyCatalogue = 0x50f7e4a1c0ffee01ULL;
constexpr std::uint64_t kIsomorphCatalogue = 0x150a0c1a55e5ULL;
constexpr std::uint64_t kMixedCatalogue = 0x313ed15017a7edULL;

/// A closed-loop stream that cycles the catalogue in a seeded order.
void cycle_catalogue(Workload* w, const std::vector<Spec>& catalogue,
                     std::uint64_t seed) {
  for (const Spec& s : catalogue) w->instances.push_back(fields(s));
  auto order = std::make_shared<std::vector<std::size_t>>(catalogue.size());
  std::iota(order->begin(), order->end(), std::size_t{0});
  Rng rng(seed);
  defender::util::shuffle(*order, rng);
  auto instances = std::make_shared<const std::vector<std::string>>(w->instances);
  w->request = [order, instances](std::size_t i) {
    const std::size_t instance = (*order)[i % order->size()];
    return StreamItem{(*instances)[instance], instance};
  };
}

// tiny-tcp-open: Poisson arrivals of distinct small boards over TCP.
constexpr double kTinyRate = 200.0;

Workload tiny_tcp_open(std::uint64_t seed, double window_s) {
  Workload w;
  w.name = "tiny-tcp-open";
  w.tcp = true;
  w.loop = Loop::kOpen;
  // A host stall must not turn into per-client quota rejections: open-loop
  // clients keep sending while results are late.
  w.server_flags = {"--max-inflight", "64"};
  Rng rng(seed);
  // A Poisson process conditioned on its count in every second: exactly
  // rate uniform arrivals per second, so every one-second slice of every
  // run offers the same load.
  const double end = kWarmupSeconds + window_s;
  for (double second = 0; second < end; second += 1.0) {
    const double length = std::min(1.0, end - second);
    std::vector<double> at(static_cast<std::size_t>(kTinyRate * length + 0.5));
    for (double& t : at) t = second + length * rng.uniform01();
    std::sort(at.begin(), at.end());
    w.due_s.insert(w.due_s.end(), at.begin(), at.end());
  }
  for (std::size_t i = 0; i < w.due_s.size(); ++i) {
    w.due_conn.push_back(static_cast<unsigned>(rng.below(kConnections)));
    const std::uint64_t pick = rng.below(20);
    const JobSolver solver = pick == 0   ? JobSolver::kZeroSumLp
                             : pick == 1 ? JobSolver::kHedge
                                         : JobSolver::kDoubleOracle;
    // The exact LP enumerates E^k: keep its boards and k small.
    const bool lp = solver == JobSolver::kZeroSumLp;
    const std::size_t n = 6 + rng.below(lp ? 4 : 7);
    const std::size_t k = 1 + rng.below(lp ? 2 : 3);
    w.instances.push_back(
        fields(make_spec(defender::graph::random_connected(n, 0.3, rng), k,
                         solver)));
  }
  auto instances = std::make_shared<const std::vector<std::string>>(w.instances);
  w.request = [instances](std::size_t i) {
    return StreamItem{(*instances)[i], i};
  };
  return w;
}

// Boards per closed-loop catalogue family: enough that no single board
// carries 1% of the traffic, so p99 is not pinned to one board's cost.
constexpr std::size_t kFamilyBoards = 64;

// solve-heavy: medium boards, double oracle only, over a Unix socket.
Workload solve_heavy(std::uint64_t seed) {
  Workload w;
  w.name = "solve-heavy";
  std::vector<Spec> catalogue;
  Rng cat(kSolveHeavyCatalogue);
  // Grids enter under catalogue relabelings: the same shape, 64 different
  // solver trajectories.
  const Spec grid66 = make_spec(defender::graph::grid_graph(6, 6), 6,
                                JobSolver::kDoubleOracle);
  const Spec grid56 = make_spec(defender::graph::grid_graph(5, 6), 5,
                                JobSolver::kDoubleOracle);
  for (std::size_t i = 0; i < kFamilyBoards; ++i)
    catalogue.push_back(relabel(grid66, cat));
  for (std::size_t i = 0; i < kFamilyBoards; ++i)
    catalogue.push_back(relabel(grid56, cat));
  for (std::size_t i = 0; i < kFamilyBoards; ++i)
    catalogue.push_back(make_spec(
        defender::graph::random_connected(24 + i % 16, 0.1, cat), 4 + i % 3,
        JobSolver::kDoubleOracle));
  cycle_catalogue(&w, catalogue, seed);
  return w;
}

// isomorph-zipf: Zipf(1.0) popularity over isomorphism classes, every
// request a fresh relabeling, against a small preloaded cache.
constexpr std::size_t kClasses = 256;

Workload isomorph_zipf(std::uint64_t seed) {
  Workload w;
  w.name = "isomorph-zipf";
  w.cache = true;
  auto classes = std::make_shared<std::vector<Spec>>();
  Rng cat(kIsomorphCatalogue);
  for (std::size_t c = 0; c < kClasses; ++c) {
    Spec s = make_spec(defender::graph::random_connected(12 + c % 19, 0.15, cat),
                       2 + c % 3,
                       c % 2 == 0 ? JobSolver::kDoubleOracle
                                  : JobSolver::kWeightedDoubleOracle);
    add_weights(&s, cat);
    w.instances.push_back(fields(s));
    classes->push_back(std::move(s));
  }
  // Class c has popularity rank c + 1.
  auto cdf = std::make_shared<std::vector<double>>();
  double total = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    total += 1.0 / static_cast<double>(c + 1);
    cdf->push_back(total);
  }
  for (std::size_t c = kClasses; c-- > 0;) w.preload_order.push_back(c);
  w.request = [classes, cdf, seed](std::size_t i) {
    Rng rng(defender::engine::derive_job_seed(seed, i));
    const double u = rng.uniform01() * cdf->back();
    const std::size_t c = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::upper_bound(cdf->begin(), cdf->end(), u) - cdf->begin()),
        kClasses - 1);
    return StreamItem{fields(relabel((*classes)[c], rng)), c};
  };
  return w;
}

// mixed-isolated: small boards cycling all six solvers through the
// supervised worker processes.
Workload mixed_isolated(std::uint64_t seed) {
  Workload w;
  w.name = "mixed-isolated";
  w.isolated = true;
  std::vector<Spec> catalogue;
  Rng cat(kMixedCatalogue);
  for (std::size_t b = 0; b < 4 * kFamilyBoards; ++b) {
    const JobSolver solver = defender::engine::kAllJobSolvers[b % 6];
    const std::size_t step = b / 6;
    const std::size_t n =
        solver == JobSolver::kZeroSumLp ? 8 + step % 3 : 8 + step % 9;
    Spec s = make_spec(defender::graph::random_connected(n, 0.25, cat),
                       1 + step % 2, solver);
    add_weights(&s, cat);
    catalogue.push_back(std::move(s));
  }
  cycle_catalogue(&w, catalogue, seed);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "tiny-tcp-open", "solve-heavy", "isomorph-zipf", "mixed-isolated"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double window_s) {
  if (name == "tiny-tcp-open") return tiny_tcp_open(seed, window_s);
  if (name == "solve-heavy") return solve_heavy(seed);
  if (name == "isomorph-zipf") return isomorph_zipf(seed);
  if (name == "mixed-isolated") return mixed_isolated(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string request_line(const std::string& id, const std::string& client,
                         const std::string& fields) {
  return "{\"type\":\"solve\",\"id\":\"" + id + "\",\"client\":\"" + client +
         "\"," + fields + "}";
}

}  // namespace e2e
