#include "graph/dimacs.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aflow::graph {

namespace {

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

const char* skip_ws(const char* p, const char* end) {
  while (p != end && is_ws(*p)) ++p;
  return p;
}

// Every numeric field is a whole whitespace-delimited token: "1s", "2.5" as
// a node id, or "7x" are malformed, not silently cut short.
bool parse_i64(const char*& p, const char* end, std::int64_t& out) {
  p = skip_ws(p, end);
  const auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc() || (next != end && !is_ws(*next))) return false;
  p = next;
  return true;
}

// A capacity token is a finite decimal number: the character filter keeps
// strtod away from "inf", "nan" and hex floats. The line buffer is
// NUL-terminated and the token ends at whitespace or the line end, so
// strtod's unbounded scan stays inside it; from_chars for doubles is still
// spotty across the toolchains CI builds with.
bool parse_cap(const char*& p, const char* end, double& out) {
  const char* tok = skip_ws(p, end);
  const char* tok_end = tok;
  while (tok_end != end && !is_ws(*tok_end)) {
    const char c = *tok_end++;
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-'))
      return false;
  }
  char* next = nullptr;
  errno = 0;
  out = std::strtod(tok, &next);
  if (tok == tok_end || next != tok_end || errno == ERANGE ||
      !std::isfinite(out))
    return false;
  p = tok_end;
  return true;
}

// Beyond this many declared arcs the edge array grows on demand instead of
// being reserved up front, so a corrupt problem line cannot demand an
// arbitrary allocation before a single arc is read.
constexpr std::int64_t kMaxReservedArcs = std::int64_t{1} << 26;

struct ParsedDimacs {
  int n = -1;
  int source = -1;
  int sink = -1;
  std::vector<Edge> edges;
};

/// The one DIMACS parser. `who` prefixes every error message; problem lines
/// declaring more than `max_arcs` arcs are refused before any arc is read.
ParsedDimacs parse_dimacs(std::istream& in, const char* who,
                          std::int64_t max_arcs) {
  std::string line;
  std::int64_t n = -1, m = -1, arcs_seen = 0;
  long long lineno = 0;
  ParsedDimacs out;

  // Every parse error names the offending 1-based line so a truncated or
  // corrupted multi-gigabyte file can be diagnosed without a binary search.
  const auto fail = [&](const std::string& what) -> void {
    throw std::runtime_error(std::string(who) + ": " + what + " at line " +
                             std::to_string(lineno));
  };

  while (std::getline(in, line)) {
    ++lineno;
    const char* p = line.c_str();
    const char* end = p + line.size();
    p = skip_ws(p, end);
    if (p == end) continue;
    const char kind = *p++;
    switch (kind) {
      case 'c':
        break;
      case 'p': {
        if (n != -1) fail("duplicate problem line");
        p = skip_ws(p, end);
        if (end - p < 4 || p[0] != 'm' || p[1] != 'a' || p[2] != 'x' ||
            !is_ws(p[3]))
          fail("expected 'p max N M'");
        p += 3;
        if (!parse_i64(p, end, n) || !parse_i64(p, end, m) || n < 0 || m < 0)
          fail("expected 'p max N M'");
        if (n < 2) fail("need at least 2 nodes (source and sink)");
        if (n >= std::numeric_limits<int>::max())
          fail("node count " + std::to_string(n) +
               " exceeds the int vertex index");
        if (m > max_arcs)
          fail(std::to_string(m) +
               " arcs exceeds the in-memory FlowNetwork's int edge index; "
               "use read_dimacs_stream for instances of this size");
        out.edges.reserve(
            static_cast<size_t>(std::min(m, kMaxReservedArcs)));
        break;
      }
      case 'n': {
        if (n < 0) fail("node line before problem line");
        std::int64_t v = 0;
        if (!parse_i64(p, end, v)) fail("malformed node line");
        if (v < 1 || v > n)
          fail("node id " + std::to_string(v) + " outside [1, " +
               std::to_string(n) + "]");
        p = skip_ws(p, end);
        if (p == end) fail("malformed node line");
        if (*p != 's' && *p != 't') fail("node role must be 's' or 't'");
        int& terminal = *p == 's' ? out.source : out.sink;
        if (terminal != -1)
          fail(*p == 's' ? "duplicate source" : "duplicate sink");
        terminal = static_cast<int>(v - 1);
        break;
      }
      case 'a': {
        std::int64_t u = 0, v = 0;
        double c = 0.0;
        if (!parse_i64(p, end, u) || !parse_i64(p, end, v) ||
            skip_ws(p, end) == end)
          fail("malformed arc line (truncated mid-line?)");
        if (!parse_cap(p, end, c))
          fail("capacity is not a finite decimal number");
        if (n < 0) fail("arc line before problem line");
        if (u < 1 || u > n || v < 1 || v > n)
          fail("arc endpoint out of range");
        ++arcs_seen;
        // Self loops carry no s-t flow and zero-capacity arcs are no-ops:
        // both are dropped, but still count against the declared total.
        if (u == v || c <= 0.0) break;
        out.edges.push_back(
            {static_cast<int>(u - 1), static_cast<int>(v - 1), c});
        break;
      }
      default:
        fail("unknown line kind '" + std::string(1, kind) + "'");
    }
  }
  if (in.bad())
    fail("stream read error (I/O failure mid-file)");
  if (n < 0)
    throw std::runtime_error(std::string(who) + ": missing problem line");
  if (out.source < 0 || out.sink < 0)
    fail("missing source or sink designator");
  if (out.source == out.sink)
    fail("source and sink designate the same node " +
         std::to_string(out.source + 1));
  // The declared-vs-seen reconciliation is what catches a file truncated at
  // a line boundary (every surviving line parses; arcs are just missing).
  if (arcs_seen != m)
    throw std::runtime_error(
        std::string(who) + ": problem line declares " + std::to_string(m) +
        " arcs but the file contains " + std::to_string(arcs_seen) +
        " (input truncated after line " + std::to_string(lineno) + "?)");
  out.n = static_cast<int>(n);
  return out;
}

} // namespace

FlowNetwork read_dimacs(std::istream& in) {
  ParsedDimacs p = parse_dimacs(in, "read_dimacs",
                                std::numeric_limits<int>::max() - 1);
  return FlowNetwork(p.n, p.source, p.sink, std::move(p.edges));
}

FlowNetwork read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_dimacs_file: cannot open " + path);
  return read_dimacs(in);
}

CsrGraph read_dimacs_stream(std::istream& in) {
  ParsedDimacs p = parse_dimacs(in, "read_dimacs_stream",
                                std::numeric_limits<std::int64_t>::max());
  return CsrGraph(p.n, p.source, p.sink, std::move(p.edges));
}

CsrGraph read_dimacs_stream_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("read_dimacs_stream_file: cannot open " + path);
  return read_dimacs_stream(in);
}

void write_dimacs(std::ostream& out, const FlowNetwork& net) {
  // Capacities are doubles: max_digits10 keeps a write -> read round trip
  // bit-exact (the default 6 significant digits corrupt anything >= 1e6 or
  // with a fine fractional part).
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "c analogflow DIMACS max-flow export\n";
  out << "p max " << net.num_vertices() << ' ' << net.num_edges() << '\n';
  out << "n " << net.source() + 1 << " s\n";
  out << "n " << net.sink() + 1 << " t\n";
  for (const Edge& e : net.edges())
    out << "a " << e.from + 1 << ' ' << e.to + 1 << ' ' << e.capacity << '\n';
  out.precision(old_precision);
}

void write_dimacs_file(const std::string& path, const FlowNetwork& net) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_dimacs_file: cannot open " + path);
  write_dimacs(out, net);
}

} // namespace aflow::graph
