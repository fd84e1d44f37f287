// Shared helpers for the experiment harness (bench/).
//
// Every bench binary is one experiment from DESIGN.md's index: it prints
// the paper claim, the measured rows, and an explicit agreement verdict so
// EXPERIMENTS.md can quote the output verbatim.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/clock.hpp"
#include "util/json_writer.hpp"
#include "util/random.hpp"

namespace defender::bench {

/// A named board for family sweeps.
struct Board {
  std::string name;
  graph::Graph g;
};

/// The standard bipartite board family used across experiments.
inline std::vector<Board> bipartite_boards() {
  util::Rng rng(2006);
  return {
      {"path P12", graph::path_graph(12)},
      {"cycle C12", graph::cycle_graph(12)},
      {"star S10", graph::star_graph(10)},
      {"grid 4x5", graph::grid_graph(4, 5)},
      {"hypercube Q4", graph::hypercube_graph(4)},
      {"ladder L6", graph::ladder_graph(6)},
      {"tree n=14", graph::random_tree(14, rng)},
      {"K_{4,8}", graph::complete_bipartite(4, 8)},
      {"bip 6x8 p=.3", graph::random_bipartite(6, 8, 0.3, rng)},
  };
}

/// The general (not necessarily bipartite) board family.
inline std::vector<Board> general_boards() {
  util::Rng rng(1907);
  return {
      {"path P9", graph::path_graph(9)},
      {"cycle C9", graph::cycle_graph(9)},
      {"star S7", graph::star_graph(7)},
      {"wheel W6", graph::wheel_graph(6)},
      {"K6", graph::complete_graph(6)},
      {"Petersen", graph::petersen_graph()},
      {"gnp n=10 p=.3", graph::gnp_graph(10, 0.3, rng)},
      {"tree n=10", graph::random_tree(10, rng)},
  };
}

/// Prints the experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "==============================================================="
               "=\n"
            << id << '\n'
            << "Claim: " << claim << '\n'
            << "==============================================================="
               "=\n\n";
}

/// Prints the final verdict line parsed by EXPERIMENTS.md.
inline void verdict(bool ok, const std::string& summary) {
  std::cout << "\nVERDICT: " << (ok ? "AGREES" : "DISAGREES") << " — "
            << summary << "\n\n";
}

/// One machine-readable result line per experiment case, alongside (never
/// replacing) the human tables. Emitted to stdout as
///
///   BENCH_JSON {"experiment":"E17","case":"grid 4x5","n":20,...}
///
/// so `grep '^BENCH_JSON '` extracts a JSONL stream from any bench log.
/// Keys are inserted in call order; rendering delegates to the repo-wide
/// util::JsonWriter (NaN/Inf become null, strings are escaped), so bench
/// lines, job reports, and serve responses share one formatting rule.
class JsonLine {
 public:
  JsonLine(const std::string& experiment, const std::string& case_name) {
    str("experiment", experiment);
    str("case", case_name);
  }

  JsonLine& str(const std::string& key, const std::string& value) {
    writer_.str(key, value);
    return *this;
  }
  JsonLine& num(const std::string& key, double value) {
    writer_.num(key, value);
    return *this;
  }
  JsonLine& num(const std::string& key, std::uint64_t value) {
    writer_.num(key, value);
    return *this;
  }
  JsonLine& num(const std::string& key, int value) {
    writer_.num(key, value);
    return *this;
  }
  JsonLine& boolean(const std::string& key, bool value) {
    writer_.boolean(key, value);
    return *this;
  }

  /// Writes the line and a trailing newline. One emit per case.
  void emit(std::ostream& os = std::cout) const {
    os << "BENCH_JSON " << writer_.object() << "\n";
  }

 private:
  util::JsonWriter writer_;
};

/// Starts a per-case wall clock; pair with `case_line` below.
inline obs::Clock::Micros case_clock() { return obs::Clock::now_micros(); }

/// Milliseconds since `started` (a case_clock() tick).
inline double millis_since(obs::Clock::Micros started) {
  return obs::Clock::seconds_since(started) * 1e3;
}

/// A JsonLine pre-filled with the shared schema every experiment reports:
/// board shape (n, m, k) and the case wall time since `started`.
inline JsonLine case_line(const std::string& experiment,
                          const std::string& case_name, const graph::Graph& g,
                          std::size_t k, obs::Clock::Micros started) {
  JsonLine line(experiment, case_name);
  line.num("n", g.num_vertices())
      .num("m", g.num_edges())
      .num("k", k)
      .num("wall_ms", obs::Clock::seconds_since(started) * 1e3);
  return line;
}

}  // namespace defender::bench
