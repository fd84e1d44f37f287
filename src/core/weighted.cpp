#include "core/weighted.hpp"

#include "core/payoff.hpp"
#include "core/zero_sum.hpp"
#include "util/assert.hpp"
#include "util/combinatorics.hpp"

namespace defender::core {

void validate_weights(const TupleGame& game,
                      std::span<const double> weights) {
  DEF_REQUIRE(weights.size() == game.graph().num_vertices(),
              "one damage weight per vertex is required");
  for (double w : weights)
    DEF_REQUIRE(w > 0, "damage weights must be strictly positive");
}

lp::Matrix damage_matrix(const TupleGame& game,
                         std::span<const double> weights) {
  validate_weights(game, weights);
  // Start from the coverage matrix (tuples x vertices) and flip it into
  // damage form (vertices x tuples).
  const lp::Matrix coverage = coverage_matrix(game);
  lp::Matrix damage(coverage.cols(), coverage.rows());
  for (std::size_t t = 0; t < coverage.rows(); ++t)
    for (std::size_t v = 0; v < coverage.cols(); ++v)
      damage.at(v, t) = weights[v] * (1.0 - coverage.at(t, v));
  return damage;
}

double expected_damage(const TupleGame& game,
                       const MixedConfiguration& config,
                       std::span<const double> weights) {
  validate_weights(game, weights);
  const std::vector<double> mass = vertex_mass(game, config);
  const std::vector<double> hit = hit_probabilities(game, config);
  double damage = 0;
  for (graph::Vertex v = 0; v < mass.size(); ++v)
    damage += weights[v] * mass[v] * (1.0 - hit[v]);
  return damage;
}

}  // namespace defender::core
