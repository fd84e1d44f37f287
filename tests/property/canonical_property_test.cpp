// Metamorphic properties of the canonical-form cache (docs/CACHE.md).
//
// For a random board G and a random permutation π, solving G and solving
// π(G) must be indistinguishable:
//
//   * canonical_form(G) and canonical_form(π(G)) produce the SAME
//     canonical edge list, so the derived cache keys are equal;
//   * the equilibrium values agree to 1e-9;
//   * a profile cached from solving G, transported through π(G)'s
//     canonical form, is a valid equilibrium on π(G)'s labeling
//     (best-response regret within tolerance).
//
// Together with the collision guard these are the cache's whole
// correctness story: a hit can only ever return what a fresh solve of the
// probe would have returned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "cache/canonical.hpp"
#include "core/best_response.hpp"
#include "core/budget.hpp"
#include "core/configuration.hpp"
#include "core/double_oracle.hpp"
#include "core/game.hpp"
#include "core/payoff.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/operations.hpp"
#include "util/random.hpp"

namespace defender::cache {
namespace {

// A small zoo mixing rigid and highly symmetric boards — symmetry is where
// naive canonical labeling blows up and where permutation bugs hide.
graph::Graph random_board(util::Rng& rng) {
  switch (rng.below(10)) {
    case 0: return graph::path_graph(4 + rng.below(6));
    case 1: return graph::cycle_graph(4 + rng.below(6));
    case 2: return graph::complete_graph(4 + rng.below(3));
    case 3: return graph::complete_bipartite(2 + rng.below(3), 2 + rng.below(4));
    case 4: return graph::grid_graph(2 + rng.below(2), 3 + rng.below(2));
    case 5: return graph::wheel_graph(4 + rng.below(4));
    case 6: return graph::star_graph(3 + rng.below(6));
    case 7: return graph::ladder_graph(3 + rng.below(3));
    case 8: return graph::random_tree(5 + rng.below(6), rng);
    default: return graph::random_connected(6 + rng.below(4), 0.4, rng);
  }
}

std::vector<graph::Vertex> random_permutation(std::size_t n, util::Rng& rng) {
  std::vector<graph::Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), graph::Vertex{0});
  util::shuffle(perm, rng);
  return perm;
}

// Sorted canonical edge list as comparable pairs.
std::vector<std::pair<graph::Vertex, graph::Vertex>> edge_pairs(
    const std::vector<graph::Edge>& edges) {
  std::vector<std::pair<graph::Vertex, graph::Vertex>> pairs;
  pairs.reserve(edges.size());
  for (const graph::Edge& e : edges) pairs.emplace_back(e.u, e.v);
  return pairs;
}

TEST(CanonicalFormProperty, LabelingIsABijectionThatRelabelsTheEdgeList) {
  util::Rng rng(0xCAFE01);
  for (int trial = 0; trial < 50; ++trial) {
    const graph::Graph g = random_board(rng);
    const CanonicalForm form = canonical_form(g);
    ASSERT_EQ(form.n, g.num_vertices());
    ASSERT_EQ(form.edges.size(), g.num_edges());
    ASSERT_TRUE(form.exact);

    // to_canonical / from_canonical are mutually inverse bijections.
    std::vector<bool> seen(form.n, false);
    for (graph::Vertex v = 0; v < form.n; ++v) {
      const graph::Vertex c = form.to_canonical[v];
      ASSERT_LT(c, form.n);
      EXPECT_FALSE(seen[c]);
      seen[c] = true;
      EXPECT_EQ(form.from_canonical[c], v);
    }

    // form.edges is exactly the original edge list pushed through the
    // labeling (normalized and sorted).
    std::vector<std::pair<graph::Vertex, graph::Vertex>> relabeled;
    for (const graph::Edge& e : g.edges()) {
      graph::Vertex u = form.to_canonical[e.u];
      graph::Vertex v = form.to_canonical[e.v];
      if (u > v) std::swap(u, v);
      relabeled.emplace_back(u, v);
    }
    std::sort(relabeled.begin(), relabeled.end());
    EXPECT_EQ(relabeled, edge_pairs(form.edges));
  }
}

TEST(CanonicalFormProperty, KeyIsInvariantUnderRandomPermutations) {
  util::Rng rng(0xCAFE02);
  const SolveBudget budget = SolveBudget::iterations(60);
  for (int trial = 0; trial < 300; ++trial) {
    const graph::Graph g = random_board(rng);
    const std::size_t n = g.num_vertices();
    const std::vector<graph::Vertex> perm = random_permutation(n, rng);
    const graph::Graph pg = graph::permute(g, perm);

    const bool weighted = trial % 3 == 0;
    std::vector<double> w, pw;
    std::vector<std::uint32_t> colors, pcolors;
    if (weighted) {
      w.resize(n);
      pw.resize(n);
      // Few distinct values so weight classes are non-trivial cells.
      for (std::size_t v = 0; v < n; ++v) w[v] = 1.0 + rng.below(3) * 0.5;
      for (std::size_t v = 0; v < n; ++v) pw[perm[v]] = w[v];
      colors = weight_color_classes(w);
      pcolors = weight_color_classes(pw);
    }

    const CanonicalForm fg = canonical_form(g, colors);
    const CanonicalForm fp = canonical_form(pg, pcolors);
    ASSERT_TRUE(fg.exact) << "trial " << trial;
    ASSERT_TRUE(fp.exact) << "trial " << trial;
    EXPECT_EQ(edge_pairs(fg.edges), edge_pairs(fp.edges)) << "trial " << trial;

    const std::vector<double> cw =
        weighted ? to_canonical_weights(fg, w) : std::vector<double>{};
    const std::vector<double> cpw =
        weighted ? to_canonical_weights(fp, pw) : std::vector<double>{};
    EXPECT_EQ(cw, cpw) << "trial " << trial;

    const CacheKey kg = SolveCache::make_key(
        fg, cw, 2, 1, weighted ? "weighted-double-oracle" : "double-oracle",
        1e-9, budget);
    const CacheKey kp = SolveCache::make_key(
        fp, cpw, 2, 1, weighted ? "weighted-double-oracle" : "double-oracle",
        1e-9, budget);
    EXPECT_EQ(kg.structural, kp.structural) << "trial " << trial;
    EXPECT_EQ(kg.params, kp.params) << "trial " << trial;
    EXPECT_EQ(kg.hash, kp.hash) << "trial " << trial;
  }
}

TEST(CanonicalFormProperty, KeySeparatesBoardsParametersAndWeights) {
  const SolveBudget budget = SolveBudget::iterations(60);
  const graph::Graph path = graph::path_graph(6);
  const graph::Graph cycle = graph::cycle_graph(6);
  const CanonicalForm fpath = canonical_form(path);
  const CanonicalForm fcycle = canonical_form(cycle);

  const CacheKey base =
      SolveCache::make_key(fpath, {}, 2, 1, "double-oracle", 1e-9, budget);
  EXPECT_NE(base.structural,
            SolveCache::make_key(fcycle, {}, 2, 1, "double-oracle", 1e-9,
                                 budget)
                .structural);
  EXPECT_NE(base.structural,
            SolveCache::make_key(fpath, {}, 3, 1, "double-oracle", 1e-9, budget)
                .structural);
  EXPECT_NE(base.structural,
            SolveCache::make_key(fpath, {}, 2, 2, "double-oracle", 1e-9, budget)
                .structural);
  EXPECT_NE(base.structural,
            SolveCache::make_key(fpath, {}, 2, 1, "fictitious-play", 1e-9,
                                 budget)
                .structural);
  // Same structure, different params: structural equal, params differ —
  // exactly the warm-start near-miss shape.
  const CacheKey loose =
      SolveCache::make_key(fpath, {}, 2, 1, "double-oracle", 1e-2, budget);
  EXPECT_EQ(base.structural, loose.structural);
  EXPECT_NE(base.params, loose.params);
  // Weights are part of the structural key.
  std::vector<double> w(path.num_vertices(), 1.0);
  w[0] = 2.0;
  const std::vector<double> cw = to_canonical_weights(fpath, w);
  EXPECT_NE(base.structural,
            SolveCache::make_key(fpath, cw, 2, 1, "double-oracle", 1e-9, budget)
                .structural);
}

TEST(SolveProperty, EquilibriumValueAgreesUnderPermutation) {
  util::Rng rng(0xCAFE03);
  const SolveBudget budget = SolveBudget::iterations(500);
  for (int trial = 0; trial < 100; ++trial) {
    const graph::Graph g = random_board(rng);
    const std::vector<graph::Vertex> perm =
        random_permutation(g.num_vertices(), rng);
    const graph::Graph pg = graph::permute(g, perm);

    const core::TupleGame game(g, 2, 1);
    const core::TupleGame pgame(pg, 2, 1);
    const SolveOptions opts{.budget = budget, .tolerance = 1e-10};
    const auto a = core::solve_double_oracle(game, opts);
    const auto b = core::solve_double_oracle(pgame, opts);
    ASSERT_TRUE(a.ok()) << "trial " << trial << ": " << a.status.describe();
    ASSERT_TRUE(b.ok()) << "trial " << trial << ": " << b.status.describe();
    EXPECT_NEAR(a.result.value, b.result.value, 1e-9) << "trial " << trial;
  }
}

// Best-response regret of a symmetric profile (attacker mix, defender mix)
// on `game`: how much either side could gain by deviating. A profile is an
// equilibrium within ε iff both regrets are <= ε.
struct Regret {
  double defender = 0;
  double attacker = 0;
};

Regret profile_regret(const core::TupleGame& game,
                      const core::VertexDistribution& attacker,
                      const core::TupleDistribution& defender) {
  const core::MixedConfiguration config =
      core::symmetric_configuration(game, attacker, defender);
  core::validate(game, config);
  const std::vector<double> masses = core::vertex_mass(game, config);
  const std::vector<double> hit = core::hit_probabilities(game, config);
  Regret r;
  r.defender = core::best_tuple(game, masses).mass -
               core::defender_profit(game, config);
  r.attacker = (1.0 - *std::min_element(hit.begin(), hit.end())) -
               core::attacker_profit(game, config, 0);
  return r;
}

// Solves G through the engine (which populates the cache), probes with
// π(G), and checks the transported profile is an equilibrium ON π(G).
void check_transport_equilibrium(engine::JobSolver solver,
                                 std::uint64_t seed, int trials) {
  util::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const graph::Graph g = random_board(rng);
    if (solver == engine::JobSolver::kZeroSumLp && g.num_edges() > 14)
      continue;  // keep the exact-LP enumeration tiny
    const std::vector<graph::Vertex> perm =
        random_permutation(g.num_vertices(), rng);
    const graph::Graph pg = graph::permute(g, perm);

    SolveCache cache;
    engine::EngineConfig config;
    config.cache = &cache;
    engine::SolveEngine engine(config);
    engine::SolveJob job{core::TupleGame(g, 2, 1)};
    job.solver = solver;
    job.tolerance = 1e-9;
    job.budget = SolveBudget::iterations(500);
    const engine::BatchReport report = engine.run({job});
    ASSERT_TRUE(report.results.at(0).ok())
        << "trial " << trial << ": " << report.results.at(0).status.describe();
    ASSERT_EQ(cache.stats().stores, 1u) << "trial " << trial;

    engine::SolveJob probe{core::TupleGame(pg, 2, 1)};
    probe.solver = solver;
    probe.tolerance = 1e-9;
    probe.budget = SolveBudget::iterations(500);
    const engine::CanonicalJobKey probe_key =
        engine::canonical_key_for_job(probe);
    std::optional<CachedSolve> hit = cache.lookup(probe_key.key);
    ASSERT_TRUE(hit.has_value()) << "trial " << trial;
    ASSERT_TRUE(hit->has_profiles) << "trial " << trial;

    const Solved<TransportedProfiles> transported =
        cache.transport(*hit, probe_key.form, pg);
    ASSERT_TRUE(transported.ok())
        << "trial " << trial << ": " << transported.status.describe();

    // 1e-6 leaves headroom over the 1e-9 solve tolerance for the
    // restricted simplex's numerical floor; transport itself is exact.
    const Regret regret =
        profile_regret(probe.game, transported.result.attacker,
                       transported.result.defender);
    EXPECT_LE(regret.defender, 1e-6) << "trial " << trial;
    EXPECT_LE(regret.attacker, 1e-6) << "trial " << trial;

    // The transported value must match the cached one: the profile's
    // defender profit equals the hit probability value scaled by ν = 1.
    EXPECT_NEAR(hit->value, report.results.at(0).value, 0) << "trial " << trial;
  }
}

TEST(TransportProperty, DoubleOracleProfileIsEquilibriumAfterTransport) {
  check_transport_equilibrium(engine::JobSolver::kDoubleOracle, 0xCAFE04, 100);
}

TEST(TransportProperty, ZeroSumLpProfileIsEquilibriumAfterTransport) {
  check_transport_equilibrium(engine::JobSolver::kZeroSumLp, 0xCAFE05, 20);
}

}  // namespace
}  // namespace defender::cache
