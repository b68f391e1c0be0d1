#include "graph/csr.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace aflow::graph {

CsrGraph::CsrGraph(int num_vertices, int source, int sink,
                   std::vector<Edge> edges)
    : num_vertices_(num_vertices), source_(source), sink_(sink),
      edges_(std::move(edges)) {
  check_terminals(num_vertices_, source_, sink_, "CsrGraph");
  for (const Edge& e : edges_) check_edge(e, num_vertices_, "CsrGraph");
}

CsrGraph CsrGraph::from_network(const FlowNetwork& net) {
  const auto edges = net.edges();
  return CsrGraph(net.num_vertices(), net.source(), net.sink(),
                  std::vector<Edge>(edges.begin(), edges.end()));
}

double CsrGraph::source_out_capacity() const {
  double total = 0.0;
  for (const Edge& e : edges_)
    if (e.from == source_) total += e.capacity;
  return total;
}

double CsrGraph::sink_in_capacity() const {
  double total = 0.0;
  for (const Edge& e : edges_)
    if (e.to == sink_) total += e.capacity;
  return total;
}

std::string check_edge_flow(int num_vertices, int source, int sink,
                            std::span<const Edge> edges,
                            std::span<const double> edge_flow,
                            double flow_value, double tol) {
  if (edge_flow.size() != edges.size())
    return "edge_flow has " + std::to_string(edge_flow.size()) +
           " entries for " + std::to_string(edges.size()) + " edges";
  // One accumulator pass over the edge list instead of n incidence walks:
  // cheaper, and touches each flow entry once.
  std::vector<double> net_out(static_cast<size_t>(num_vertices), 0.0);
  for (size_t e = 0; e < edges.size(); ++e) {
    const double f = edge_flow[e];
    if (f < -tol)
      return "edge " + std::to_string(e) + ": negative flow " +
             std::to_string(f);
    if (f > edges[e].capacity + tol)
      return "edge " + std::to_string(e) + ": flow " + std::to_string(f) +
             " exceeds capacity " + std::to_string(edges[e].capacity);
    net_out[static_cast<size_t>(edges[e].from)] += f;
    net_out[static_cast<size_t>(edges[e].to)] -= f;
  }
  for (int v = 0; v < num_vertices; ++v) {
    if (v == source || v == sink) continue;
    if (std::abs(net_out[static_cast<size_t>(v)]) > tol)
      return "vertex " + std::to_string(v) + ": conservation violated by " +
             std::to_string(net_out[static_cast<size_t>(v)]);
  }
  if (std::abs(net_out[static_cast<size_t>(source)] - flow_value) > tol)
    return "source outflow " +
           std::to_string(net_out[static_cast<size_t>(source)]) +
           " != claimed value " + std::to_string(flow_value);
  return {};
}

std::string check_csr_flow(const CsrGraph& g, std::span<const double> edge_flow,
                           double flow_value, double tol) {
  return check_edge_flow(g.num_vertices(), g.source(), g.sink(), g.edges(),
                         edge_flow, flow_value, tol);
}

} // namespace aflow::graph
