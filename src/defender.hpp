// Umbrella header: the entire defender library in one include.
//
//   #include "defender.hpp"
//
// Fine-grained headers remain available for compile-time-sensitive users;
// this header exists so examples, tools, and quick experiments can pull in
// the whole public API at once.
#pragma once

// Substrate: utilities.
#include "util/assert.hpp"          // IWYU pragma: export
#include "util/chart.hpp"           // IWYU pragma: export
#include "util/combinatorics.hpp"   // IWYU pragma: export
#include "util/random.hpp"          // IWYU pragma: export
#include "util/stats.hpp"           // IWYU pragma: export
#include "util/table.hpp"           // IWYU pragma: export

// Substrate: deterministic fault injection (chaos testing).
#include "fault/fault.hpp"          // IWYU pragma: export

// Substrate: graphs.
#include "graph/enumeration.hpp"    // IWYU pragma: export
#include "graph/generators.hpp"     // IWYU pragma: export
#include "graph/graph.hpp"          // IWYU pragma: export
#include "graph/hamiltonian.hpp"    // IWYU pragma: export
#include "graph/io.hpp"             // IWYU pragma: export
#include "graph/operations.hpp"     // IWYU pragma: export
#include "graph/properties.hpp"     // IWYU pragma: export
#include "graph/subgraph.hpp"       // IWYU pragma: export
#include "graph/traversal.hpp"      // IWYU pragma: export

// Substrate: matchings.
#include "matching/blossom.hpp"        // IWYU pragma: export
#include "matching/brute_force.hpp"    // IWYU pragma: export
#include "matching/edge_cover.hpp"     // IWYU pragma: export
#include "matching/greedy.hpp"         // IWYU pragma: export
#include "matching/hopcroft_karp.hpp"  // IWYU pragma: export
#include "matching/konig.hpp"          // IWYU pragma: export
#include "matching/matching.hpp"       // IWYU pragma: export

// Substrate: linear programming.
#include "lp/brute_force.hpp"   // IWYU pragma: export
#include "lp/dense_matrix.hpp"  // IWYU pragma: export
#include "lp/matrix_game.hpp"   // IWYU pragma: export
#include "lp/simplex.hpp"       // IWYU pragma: export

// Core: the paper and its extensions.
#include "core/analytics.hpp"            // IWYU pragma: export
#include "core/atuple.hpp"               // IWYU pragma: export
#include "core/best_response.hpp"        // IWYU pragma: export
#include "core/characterization.hpp"     // IWYU pragma: export
#include "core/checkpoint.hpp"           // IWYU pragma: export
#include "core/configuration.hpp"        // IWYU pragma: export
#include "core/double_oracle.hpp"        // IWYU pragma: export
#include "core/expander_partition.hpp"   // IWYU pragma: export
#include "core/game.hpp"                 // IWYU pragma: export
#include "core/k_matching.hpp"           // IWYU pragma: export
#include "core/matching_ne.hpp"          // IWYU pragma: export
#include "core/path_model.hpp"           // IWYU pragma: export
#include "core/payoff.hpp"               // IWYU pragma: export
#include "core/perfect_matching_ne.hpp"  // IWYU pragma: export
#include "core/pure_ne.hpp"              // IWYU pragma: export
#include "core/reduction.hpp"            // IWYU pragma: export
#include "core/regular_ne.hpp"           // IWYU pragma: export
#include "core/serialization.hpp"        // IWYU pragma: export
#include "core/vertex_model.hpp"         // IWYU pragma: export
#include "core/weighted.hpp"             // IWYU pragma: export
#include "core/zero_sum.hpp"             // IWYU pragma: export

// Simulation.
#include "sim/fictitious_play.hpp"        // IWYU pragma: export
#include "sim/multiplicative_weights.hpp"  // IWYU pragma: export
#include "sim/tournament.hpp"             // IWYU pragma: export
#include "sim/playout.hpp"          // IWYU pragma: export
#include "sim/sampling.hpp"         // IWYU pragma: export

// Engine: resilient batch solving (pool, watchdog, retry ladder).
#include "engine/engine.hpp"  // IWYU pragma: export
#include "engine/job.hpp"     // IWYU pragma: export
#include "engine/retry.hpp"   // IWYU pragma: export
