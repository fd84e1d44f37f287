#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/atuple.hpp"
#include "core/payoff.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"

namespace defender::core {
namespace {

TupleGame c6_game() { return TupleGame(graph::cycle_graph(6), 2, 3); }

MixedConfiguration sample_config(const TupleGame& game) {
  const auto result = a_tuple_bipartite(game);
  EXPECT_TRUE(result.has_value());
  return result->configuration;
}

TEST(Serialization, RoundTripsExactly) {
  const TupleGame game = c6_game();
  const MixedConfiguration original = sample_config(game);
  const MixedConfiguration restored =
      from_text(game, to_text(game, original));
  // Payoff-relevant state must survive bit-exactly.
  EXPECT_EQ(vertex_mass(game, original), vertex_mass(game, restored));
  EXPECT_EQ(hit_probabilities(game, original),
            hit_probabilities(game, restored));
  EXPECT_DOUBLE_EQ(defender_profit(game, original),
                   defender_profit(game, restored));
  EXPECT_EQ(restored.defender.support().size(),
            original.defender.support().size());
}

TEST(Serialization, HeaderAndGameLineArePresent) {
  const TupleGame game = c6_game();
  const std::string text = to_text(game, sample_config(game));
  EXPECT_EQ(text.rfind("defender-configuration v1\n", 0), 0u);
  EXPECT_NE(text.find("game 6 6 2 3"), std::string::npos);
}

TEST(Serialization, RejectsWrongHeader) {
  const TupleGame game = c6_game();
  EXPECT_THROW(from_text(game, "bogus v9\n"), ContractViolation);
  EXPECT_THROW(from_text(game, ""), ContractViolation);
}

TEST(Serialization, RejectsGameMismatch) {
  const TupleGame game = c6_game();
  const std::string text = to_text(game, sample_config(game));
  const TupleGame other(graph::cycle_graph(8), 2, 3);
  EXPECT_THROW(from_text(other, text), ContractViolation);
  const TupleGame other_k(graph::cycle_graph(6), 3, 3);
  EXPECT_THROW(from_text(other_k, text), ContractViolation);
}

TEST(Serialization, RejectsTruncatedBody) {
  const TupleGame game = c6_game();
  std::string text = to_text(game, sample_config(game));
  text.resize(text.size() / 2);
  EXPECT_THROW(from_text(game, text), ContractViolation);
}

TEST(Serialization, RejectsCorruptedProbabilities) {
  const TupleGame game = c6_game();
  std::string text = to_text(game, sample_config(game));
  // Break normalization: double one tuple probability.
  const auto pos = text.find("tuple 0.3");
  if (pos != std::string::npos) {
    text.replace(pos, 9, "tuple 0.9");
    EXPECT_THROW(from_text(game, text), ContractViolation);
  }
}

TEST(Serialization, HandlesHeterogeneousAttackers) {
  const TupleGame game(graph::path_graph(4), 1, 2);
  MixedConfiguration config{
      {VertexDistribution({0}, {1.0}), VertexDistribution({1, 3}, {0.25, 0.75})},
      TupleDistribution({{0}, {2}}, {0.5, 0.5})};
  const MixedConfiguration restored = from_text(game, to_text(game, config));
  EXPECT_DOUBLE_EQ(restored.attackers[1].prob(3), 0.75);
  EXPECT_DOUBLE_EQ(restored.attackers[1].prob(1), 0.25);
  EXPECT_DOUBLE_EQ(restored.attackers[0].prob(0), 1.0);
}

TEST(Serialization, GoldenSnapshotIsStable) {
  // Hand-built so the pinned bytes do not move with A_tuple: 1/3 pins the
  // 17-digit probabilities, attacker 1 a non-uniform support.
  const TupleGame game = c6_game();
  const MixedConfiguration config{
      {VertexDistribution::uniform({0, 2, 4}),
       VertexDistribution({1, 3}, {0.25, 0.75}), VertexDistribution({5}, {1.0})},
      TupleDistribution::uniform({make_tuple(game, {0, 3}),
                                  make_tuple(game, {1, 4}),
                                  make_tuple(game, {2, 5})})};
  const std::string path = std::string(DEFENDER_TEST_DATA_DIR) +
                           "/configuration_v1.golden.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  const std::string golden = os.str();

  EXPECT_EQ(to_text(game, config), golden);
  const Solved<MixedConfiguration> parsed = try_from_text(game, golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status.to_string();
  EXPECT_EQ(to_text(game, parsed.result), golden);
}

}  // namespace
}  // namespace defender::core
