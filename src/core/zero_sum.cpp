#include "core/zero_sum.hpp"

#include "core/weighted.hpp"
#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {

lp::Matrix coverage_matrix(const TupleGame& game) {
  const std::uint64_t rows = game.num_tuples();
  DEF_REQUIRE(rows <= kMaxLpTuples,
              "coverage matrix limited to kMaxLpTuples defender strategies");
  const graph::Graph& g = game.graph();
  lp::Matrix a(static_cast<std::size_t>(rows), g.num_vertices());
  std::size_t row = 0;
  util::for_each_combination(
      g.num_edges(), game.k(), [&](const std::vector<std::size_t>& combo) {
        for (std::size_t id : combo) {
          const graph::Edge& e = g.edge(static_cast<graph::EdgeId>(id));
          a.at(row, e.u) = 1.0;
          a.at(row, e.v) = 1.0;
        }
        ++row;
        return true;
      });
  DEF_ENSURE(row == rows, "tuple enumeration count mismatch");
  return a;
}

Tuple tuple_at_rank(const TupleGame& game, std::uint64_t rank) {
  const auto combo =
      util::combination_unrank(rank, game.graph().num_edges(), game.k());
  Tuple t(combo.begin(), combo.end());
  return t;
}

Solved<lp::MatrixGameSolution> solve_zero_sum(const TupleGame& game,
                                              const SolveOptions& opts) {
  if (game.num_tuples() > kMaxLpTuples) {
    Solved<lp::MatrixGameSolution> out;
    out.status = Status::make(
        StatusCode::kInvalidInput,
        "E^k holds " + std::to_string(game.num_tuples()) +
            " tuples, above the enumeration cap of " +
            std::to_string(kMaxLpTuples) +
            "; use the double-oracle solver for this instance");
    return out;
  }
  // Hit game: row player = defender (maximizes coverage probability),
  // column player = attacker (minimizes it). The damage game flips the
  // roles: the attacker maximizes damage over rows.
  return lp::solve_matrix_game(opts.weights.empty()
                                   ? coverage_matrix(game)
                                   : damage_matrix(game, opts.weights),
                               opts.budget, opts.obs, opts.fault);
}

MixedConfiguration to_configuration(const TupleGame& game,
                                    const lp::MatrixGameSolution& solution,
                                    double prob_floor) {
  DEF_REQUIRE(solution.col_strategy.size() == game.graph().num_vertices(),
              "attacker strategy length must match the vertex count");
  graph::VertexSet vp_support;
  std::vector<double> vp_probs;
  double vp_sum = 0;
  for (graph::Vertex v = 0; v < solution.col_strategy.size(); ++v) {
    if (solution.col_strategy[v] <= prob_floor) continue;
    vp_support.push_back(v);
    vp_probs.push_back(solution.col_strategy[v]);
    vp_sum += solution.col_strategy[v];
  }
  for (double& p : vp_probs) p /= vp_sum;

  std::vector<Tuple> tuples;
  std::vector<double> tp_probs;
  double tp_sum = 0;
  for (std::size_t r = 0; r < solution.row_strategy.size(); ++r) {
    if (solution.row_strategy[r] <= prob_floor) continue;
    tuples.push_back(tuple_at_rank(game, r));
    tp_probs.push_back(solution.row_strategy[r]);
    tp_sum += solution.row_strategy[r];
  }
  for (double& p : tp_probs) p /= tp_sum;

  return symmetric_configuration(
      game, VertexDistribution(std::move(vp_support), std::move(vp_probs)),
      TupleDistribution(std::move(tuples), std::move(tp_probs)));
}

}  // namespace defender::core
