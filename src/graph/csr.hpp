// Compact immutable edge-list view of a flow network — the large-instance
// representation of the sharded solve path (DESIGN.md "Sharded solve", the
// streaming graph layer).
//
// A CsrGraph keeps only the terminals and the same graph::Edge array a
// FlowNetwork holds (16 bytes per edge, 64-bit edge counts), so a
// million-node instance streams from disk into a predictable, compact
// footprint. Neither model stores adjacency: consumers that need incidence
// build the one graph::Incidence over the edge array (flow::detail::Residual
// holds one), and the sharded solver's region subproblems are slices of
// this array gathered inside each worker. The view is immutable by
// contract: build it once (from a stream or a FlowNetwork) and share it
// read-only.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/network.hpp"

namespace aflow::graph {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Adopts an edge list. Validates the terminals and every edge (endpoint
  /// range, no self loops, positive capacity); throws std::invalid_argument
  /// on malformed input.
  CsrGraph(int num_vertices, int source, int sink, std::vector<Edge> edges);

  /// Snapshot of an in-memory FlowNetwork (edge order preserved).
  static CsrGraph from_network(const FlowNetwork& net);

  int num_vertices() const { return num_vertices_; }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(edges_.size());
  }
  int source() const { return source_; }
  int sink() const { return sink_; }

  const Edge& edge(std::int64_t e) const {
    return edges_[static_cast<size_t>(e)];
  }
  std::span<const Edge> edges() const { return edges_; }

  /// Sum of capacities leaving `source()` / entering `sink()` — the trivial
  /// max-flow upper bound pair.
  double source_out_capacity() const;
  double sink_in_capacity() const;

 private:
  int num_vertices_ = 0;
  int source_ = 0;
  int sink_ = 0;
  std::vector<Edge> edges_;
};

/// Verifies that `edge_flow` is a feasible s-t flow of value `flow_value`
/// over `edges`: capacity bounds, conservation at every ordinary vertex,
/// and the net source outflow, all to within `tol`. Returns an empty string
/// when valid, otherwise a description of the first violation. The one
/// feasibility check behind both check_csr_flow and flow::check_flow.
std::string check_edge_flow(int num_vertices, int source, int sink,
                            std::span<const Edge> edges,
                            std::span<const double> edge_flow,
                            double flow_value, double tol = 1e-9);

/// check_edge_flow on a CsrGraph, so huge sharded solves can be validated
/// without materialising a FlowNetwork.
std::string check_csr_flow(const CsrGraph& g, std::span<const double> edge_flow,
                           double flow_value, double tol = 1e-9);

} // namespace aflow::graph
