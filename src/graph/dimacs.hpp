// DIMACS max-flow format I/O ("p max", "n", "a" lines), the de-facto
// interchange format for max-flow benchmarks. Vertices are 1-based on disk
// and 0-based in memory.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"
#include "graph/network.hpp"

namespace aflow::graph {

/// Parses a DIMACS max-flow problem into a FlowNetwork. One parser serves
/// both readers below: a single pass over a reused line buffer with
/// std::from_chars field parsing, filling one graph::Edge array. Throws
/// std::runtime_error naming the offending line on malformed input (missing
/// or duplicate problem line, node or arc ids outside [1, N], duplicate
/// node designators, non-numeric or non-finite capacities, declared arc
/// count not matching the a-lines seen, ...). Self loops and non-positive
/// capacities are dropped, but still count towards the declared arc count.
/// read_dimacs refuses instances with >= 2^31 arcs — those only fit the
/// streaming CSR path (read_dimacs_stream).
FlowNetwork read_dimacs(std::istream& in);
FlowNetwork read_dimacs_file(const std::string& path);

/// The same parse, returned as the compact CsrGraph view with 64-bit arc
/// counts, so a million-node instance never pays the per-vertex
/// adjacency-vector tax.
CsrGraph read_dimacs_stream(std::istream& in);
CsrGraph read_dimacs_stream_file(const std::string& path);

/// Writes `net` in DIMACS max-flow format.
void write_dimacs(std::ostream& out, const FlowNetwork& net);
void write_dimacs_file(const std::string& path, const FlowNetwork& net);

} // namespace aflow::graph
