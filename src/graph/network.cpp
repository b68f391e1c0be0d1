#include "graph/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace aflow::graph {

void check_terminals(int num_vertices, int source, int sink, const char* who) {
  if (num_vertices < 2)
    throw std::invalid_argument(std::string(who) +
                                ": need at least source and sink");
  if (source < 0 || source >= num_vertices || sink < 0 || sink >= num_vertices)
    throw std::invalid_argument(std::string(who) +
                                ": source/sink out of range");
  if (source == sink)
    throw std::invalid_argument(std::string(who) +
                                ": source must differ from sink");
}

void check_edge(const Edge& e, int num_vertices, const char* who) {
  if (e.from < 0 || e.from >= num_vertices || e.to < 0 ||
      e.to >= num_vertices)
    throw std::invalid_argument(std::string(who) + ": vertex out of range");
  if (e.from == e.to)
    throw std::invalid_argument(std::string(who) +
                                ": self loops not supported");
  if (!(e.capacity > 0.0))
    throw std::invalid_argument(std::string(who) +
                                ": capacity must be positive");
}

FlowNetwork::FlowNetwork(int num_vertices, int source, int sink)
    : num_vertices_(num_vertices), source_(source), sink_(sink) {
  check_terminals(num_vertices, source, sink, "FlowNetwork");
}

FlowNetwork::FlowNetwork(int num_vertices, int source, int sink,
                         std::vector<Edge> edges)
    : FlowNetwork(num_vertices, source, sink) {
  // num_edges() narrows edges_.size() to int.
  if (edges.size() > static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "FlowNetwork: edge count exceeds the int index limit; "
        "instances of this size belong in graph::CsrGraph");
  for (const Edge& e : edges) check_edge(e, num_vertices_, "FlowNetwork");
  edges_ = std::move(edges);
}

int FlowNetwork::add_edge(int from, int to, double capacity) {
  check_edge({from, to, capacity}, num_vertices_, "FlowNetwork::add_edge");
  // num_edges() narrows edges_.size() to int; refuse the edge that would
  // make that cast wrap instead of silently corrupting every index after it.
  if (edges_.size() >=
      static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "FlowNetwork::add_edge: edge count at the int index limit; "
        "instances of this size belong in graph::CsrGraph");
  edges_.push_back({from, to, capacity});
  return num_edges() - 1;
}

void FlowNetwork::set_capacity(int e, double capacity) {
  if (e < 0 || e >= num_edges())
    throw std::invalid_argument("FlowNetwork::set_capacity: edge out of range");
  if (!(capacity > 0.0))
    throw std::invalid_argument(
        "FlowNetwork::set_capacity: capacity must be positive");
  edges_[e].capacity = capacity;
}

double FlowNetwork::max_capacity() const {
  double c = 0.0;
  for (const Edge& e : edges_) c = std::max(c, e.capacity);
  return c;
}

void FlowNetwork::validate() const {
  check_terminals(num_vertices_, source_, sink_, "FlowNetwork");
  for (const Edge& e : edges_) check_edge(e, num_vertices_, "FlowNetwork");
}

Incidence::Incidence(int num_vertices, std::span<const Edge> edges) {
  const size_t m = edges.size();
  if (2 * m >= static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "Incidence: 2m arcs exceed the int arc index; instances are capped "
        "below 2^30 edges");
  start_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    start_[static_cast<size_t>(e.from) + 1]++;
    start_[static_cast<size_t>(e.to) + 1]++;
  }
  for (int v = 0; v < num_vertices; ++v) start_[v + 1] += start_[v];
  arcs_.resize(2 * m);
  std::vector<int> cursor(start_.begin(), start_.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    arcs_[cursor[edges[e].from]++] = static_cast<int>(2 * e);
    arcs_[cursor[edges[e].to]++] = static_cast<int>(2 * e + 1);
  }
}

std::vector<char> reachable_from(const FlowNetwork& net, int start) {
  const Incidence inc(net);
  std::vector<char> seen(net.num_vertices(), 0);
  std::queue<int> q;
  q.push(start);
  seen[start] = 1;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int a : inc.arcs(v)) {
      if (a & 1) continue; // in-edge
      const int u = net.edge(a >> 1).to;
      if (!seen[u]) { seen[u] = 1; q.push(u); }
    }
  }
  return seen;
}

FlowNetwork paper_example_fig5() {
  // Vertices: 0 = s, 1 = n1, 2 = n2, 3 = n3, 4 = t.
  //
  // Topology reconstructed from the paper's quantitative claims: the exact
  // max flow is 2 (Fig. 8), Vx1 settles at 2 V, and Vx3/Vx4 saturate at
  // their 1 V capacities (Sec. 2.4) — which pins x3 as the n2->n3 edge:
  //        s --x1(3)--> n1 --x2(2)--> n2 --x5(2)--> t
  //                                   n2 --x3(1)--> n3 --x4(1)--> t
  FlowNetwork net(5, 0, 4);
  net.add_edge(0, 1, 3.0); // x1: s  -> n1
  net.add_edge(1, 2, 2.0); // x2: n1 -> n2
  net.add_edge(2, 3, 1.0); // x3: n2 -> n3
  net.add_edge(3, 4, 1.0); // x4: n3 -> t
  net.add_edge(2, 4, 2.0); // x5: n2 -> t
  return net;
}

FlowNetwork paper_example_fig15(double inf_cap) {
  // Vertices: 0 = s, 1 = n1, 2 = n2, 3 = n3, 4 = t.
  FlowNetwork net(5, 0, 4);
  net.add_edge(0, 1, 4.0);     // x1: s  -> n1
  net.add_edge(1, 2, 1.0);     // x2: n1 -> n2
  net.add_edge(1, 3, 4.0);     // x3: n1 -> n3
  net.add_edge(2, 4, inf_cap); // n2 -> t, "infinite"
  net.add_edge(3, 4, inf_cap); // n3 -> t, "infinite"
  return net;
}

} // namespace aflow::graph
