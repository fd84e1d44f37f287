#include "graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/record.hpp"

namespace defender::graph {

std::string to_dot(const Graph& g, const DotOptions& options) {
  VertexSet hv = options.highlight_vertices;
  normalize(hv);
  std::vector<char> he(g.num_edges(), 0);
  for (EdgeId id : options.highlight_edges) {
    DEF_REQUIRE(id < g.num_edges(), "highlighted edge out of range");
    he[id] = 1;
  }
  std::ostringstream os;
  os << "graph " << options.name << " {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    os << "  " << v;
    if (contains(hv, v)) os << " [style=filled, fillcolor=lightblue]";
    os << ";\n";
  }
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    os << "  " << e.u << " -- " << e.v;
    if (he[id]) os << " [penwidth=3]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) os << e.u << ' ' << e.v << '\n';
  return os.str();
}

namespace {

/// A whitespace-delimited token with the 1-based line it starts on.
struct Token {
  std::string_view text;
  std::size_t line = 0;
};

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
               c == '\f') {
      ++i;
    } else {
      const std::size_t start = i;
      while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
             text[i] != '\n' && text[i] != '\r' && text[i] != '\v' &&
             text[i] != '\f')
        ++i;
      tokens.push_back(Token{text.substr(start, i - start), line});
    }
  }
  return tokens;
}

Solved<Graph> parse_failure(std::size_t line, std::string what) {
  Solved<Graph> out;
  out.status = Status::make(
      StatusCode::kInvalidInput,
      "line " + std::to_string(line) + ": " + std::move(what));
  return out;
}

}  // namespace

Solved<Graph> try_parse_edge_list(const std::string& text) {
  const std::vector<Token> tokens = tokenize(text);
  if (tokens.empty())
    return parse_failure(1, "empty input; expected an 'n m' header");
  if (tokens.size() < 2)
    return parse_failure(tokens[0].line,
                         "header must be 'n m' (two counts)");

  std::uint64_t n = 0, m = 0;
  if (!util::parse_count(tokens[0].text, kMaxParseVertices, &n))
    return parse_failure(tokens[0].line,
                         "vertex count '" + std::string(tokens[0].text) +
                             "' is not an integer in [0, " +
                             std::to_string(kMaxParseVertices) + "]");
  if (!util::parse_count(tokens[1].text, kMaxParseEdges, &m))
    return parse_failure(tokens[1].line,
                         "edge count '" + std::string(tokens[1].text) +
                             "' is not an integer in [0, " +
                             std::to_string(kMaxParseEdges) + "]");
  // A simple graph on n vertices has at most n(n-1)/2 edges; reject
  // headers promising more before allocating anything. n is capped above,
  // so the product cannot overflow 64 bits.
  if (n > 0 && m > n * (n - 1) / 2)
    return parse_failure(tokens[1].line,
                         "edge count " + std::to_string(m) +
                             " exceeds the simple-graph maximum n(n-1)/2 = " +
                             std::to_string(n * (n - 1) / 2));
  if (n == 0)
    return parse_failure(tokens[0].line, "the header declares 0 vertices");
  if (tokens.size() < 2 + 2 * m) {
    const Token& last = tokens.back();
    return parse_failure(last.line,
                         "edge list ended before all edges were read (" +
                             std::to_string((tokens.size() - 2) / 2) +
                             " of " + std::to_string(m) + " edges)");
  }
  if (tokens.size() > 2 + 2 * m)
    return parse_failure(tokens[2 + 2 * m].line,
                         "trailing garbage after the declared " +
                             std::to_string(m) + " edges");

  GraphBuilder b(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    const Token& tu = tokens[2 + 2 * i];
    const Token& tv = tokens[3 + 2 * i];
    std::uint64_t u = 0, v = 0;
    if (!util::parse_count(tu.text, n > 0 ? n - 1 : 0, &u))
      return parse_failure(tu.line, "endpoint '" + std::string(tu.text) +
                                        "' is not a vertex in [0, " +
                                        std::to_string(n) + ")");
    if (!util::parse_count(tv.text, n > 0 ? n - 1 : 0, &v))
      return parse_failure(tv.line, "endpoint '" + std::string(tv.text) +
                                        "' is not a vertex in [0, " +
                                        std::to_string(n) + ")");
    if (u == v)
      return parse_failure(tu.line,
                           "self-loop at vertex " + std::to_string(u));
    b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }

  Solved<Graph> out;
  out.result = b.build();
  out.status = Status::make_ok();
  return out;
}

Solved<Graph> try_parse_edge_list(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return try_parse_edge_list(buffer.str());
}

Graph parse_edge_list(std::istream& in) {
  return std::move(try_parse_edge_list(in)).value_or_throw();
}

Graph parse_edge_list(const std::string& text) {
  return std::move(try_parse_edge_list(text)).value_or_throw();
}

}  // namespace defender::graph
