#include "core/serialization.hpp"

#include <cstdint>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/record.hpp"

namespace defender::core {

void write_configuration(std::ostream& os, const TupleGame& game,
                         const MixedConfiguration& config) {
  os << to_text(game, config);
}

std::string to_text(const TupleGame& game, const MixedConfiguration& config) {
  validate(game, config);
  util::RecordWriter w;
  w.header("defender-configuration", 1)
      .line("game", game.graph().num_vertices(), game.graph().num_edges(),
            game.k(), game.num_attackers());
  for (std::size_t i = 0; i < config.attackers.size(); ++i) {
    const VertexDistribution& d = config.attackers[i];
    w.open("attacker", i, d.support().size());
    for (std::size_t j = 0; j < d.support().size(); ++j)
      w.add(d.support()[j], d.probs()[j]);
    w.close();
  }
  w.line("defender", config.defender.support().size());
  for (std::size_t j = 0; j < config.defender.support().size(); ++j) {
    w.open("tuple", config.defender.probs()[j]);
    for (graph::EdgeId e : config.defender.support()[j]) w.add(e);
    w.close();
  }
  return w.take();
}

namespace {

/// Reads a token as an id in [0, bound), failing with `what '<token>' is
/// not in [0, bound)`.
template <typename T>
bool read_id(util::RecordReader& r, std::uint64_t bound, const char* what,
             T* out) {
  std::string_view token;
  if (!r.token(&token)) return false;
  if (util::parse_count(token, bound > 0 ? bound - 1 : 0, out)) return true;
  return r.fail(std::string(what) + " '" + std::string(token) +
                "' is not in [0, " + std::to_string(bound) + ")");
}

/// Reads a probability: a finite double in [0, 1] (with a hair of slack
/// for 17-digit round-trips).
bool read_prob(util::RecordReader& r, double* out) {
  std::string_view token;
  if (!r.token(&token)) return false;
  if (util::parse_finite(token, out) && *out >= 0 && *out <= 1 + 1e-12)
    return true;
  return r.fail("probability '" + std::string(token) + "' is not in [0, 1]");
}

bool read_configuration(util::RecordReader& r, const TupleGame& game,
                        MixedConfiguration& out) {
  const std::uint64_t n = game.graph().num_vertices();
  const std::uint64_t m = game.graph().num_edges();
  const std::size_t k = game.k();
  const std::size_t nu = game.num_attackers();
  std::uint64_t shape[4] = {};
  if (!r.header("defender-configuration", 1) ||
      !r.line("game <n> <m> <k> <nu>", "missing game line"))
    return false;
  for (std::uint64_t& v : shape)
    if (!r.count(&v, UINT32_MAX)) return false;
  if (shape[0] != n || shape[1] != m || shape[2] != k || shape[3] != nu)
    return r.fail("configuration was written for a different game instance");

  std::vector<VertexDistribution> attackers;
  attackers.reserve(nu);
  for (std::size_t i = 0; i < nu; ++i) {
    std::uint64_t index = 0, size = 0;
    if (!r.line("attacker <i> <size <= n> {<vertex> <prob>}...") ||
        !r.count(&index, nu - 1) || !r.check(index == i) ||
        !r.count(&size, n))
      return false;
    graph::VertexSet support(static_cast<std::size_t>(size));
    std::vector<double> probs(static_cast<std::size_t>(size));
    for (std::size_t j = 0; j < size; ++j)
      if (!read_id(r, n, "vertex", &support[j]) || !read_prob(r, &probs[j]))
        return false;
    try {
      attackers.emplace_back(std::move(support), std::move(probs));
    } catch (const ContractViolation& e) {
      return r.fail(e.what());
    }
  }

  std::uint64_t tuples = 0;
  if (!r.line("defender <count>") ||
      !r.count(&tuples, kMaxSerializedTuples))
    return false;
  if (tuples == 0) return r.fail("defender support must be nonempty");
  std::vector<Tuple> support;
  std::vector<double> probs(static_cast<std::size_t>(tuples));
  support.reserve(static_cast<std::size_t>(tuples));
  for (double& p : probs) {
    Tuple edges(k);
    if (!r.line("tuple <prob> <edge>...", "truncated defender support") ||
        !read_prob(r, &p))
      return false;
    for (graph::EdgeId& e : edges)
      if (!read_id(r, m, "edge id", &e)) return false;
    try {
      support.push_back(make_tuple(game, std::move(edges)));
    } catch (const ContractViolation& e) {
      return r.fail(e.what());
    }
  }
  if (!r.done()) return false;
  if (r.next()) return r.fail("trailing garbage after the defender support");

  try {
    out = MixedConfiguration{
        std::move(attackers),
        TupleDistribution(std::move(support), std::move(probs))};
    validate(game, out);
  } catch (const ContractViolation& e) {
    return r.fail(e.what());
  }
  return true;
}

}  // namespace

Solved<MixedConfiguration> try_from_text(const TupleGame& game,
                                         const std::string& text) {
  return util::read_record<MixedConfiguration>(
      text, "", [&game](util::RecordReader& r, MixedConfiguration& out) {
        return read_configuration(r, game, out);
      });
}

Solved<MixedConfiguration> try_read_configuration(std::istream& is,
                                                  const TupleGame& game) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return try_from_text(game, buffer.str());
}

MixedConfiguration read_configuration(std::istream& is,
                                      const TupleGame& game) {
  return std::move(try_read_configuration(is, game)).value_or_throw();
}

MixedConfiguration from_text(const TupleGame& game, const std::string& text) {
  return std::move(try_from_text(game, text)).value_or_throw();
}

}  // namespace defender::core
