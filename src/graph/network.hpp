// Directed flow networks: the problem representation shared by the classical
// CPU solvers (`flow`) and the analog substrate (`analog`).
//
// Capacities are doubles so that quantised/analog solutions can be expressed
// in the same type, but all generators emit integral capacities as in the
// paper ("assign each edge e a nonzero integral capacity").
#pragma once

#include <span>
#include <string>
#include <vector>

namespace aflow::graph {

struct Edge {
  int from = 0;
  int to = 0;
  double capacity = 0.0;
};

/// Instance validation shared by FlowNetwork and CsrGraph; each throws
/// std::invalid_argument with a message prefixed by `who`.
/// check_terminals: at least two vertices, source and sink in range and
/// distinct. check_edge: both endpoints in [0, num_vertices), no self loop,
/// a positive capacity.
void check_terminals(int num_vertices, int source, int sink, const char* who);
void check_edge(const Edge& e, int num_vertices, const char* who);

/// A directed graph with distinguished source/sink and edge capacities.
/// Parallel edges are allowed; self-loops are rejected (they cannot carry
/// s-t flow and the crossbar has no diagonal widgets for them).
class FlowNetwork {
 public:
  FlowNetwork() = default;
  FlowNetwork(int num_vertices, int source, int sink);
  /// Adopts a whole edge list (edge order preserved), with the same checks
  /// as add_edge per edge.
  FlowNetwork(int num_vertices, int source, int sink, std::vector<Edge> edges);

  /// Adds a directed edge and returns its index.
  int add_edge(int from, int to, double capacity);

  /// Reprograms one edge's capacity in place — the serving reconfiguration
  /// primitive (topology, and therefore the substrate's MNA pattern under
  /// dedicated level sources, is unchanged). Throws std::invalid_argument
  /// on a bad index or non-positive capacity.
  void set_capacity(int e, double capacity);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int source() const { return source_; }
  int sink() const { return sink_; }

  const Edge& edge(int e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  /// Edge indices leaving / entering `v`.
  std::span<const int> out_edges(int v) const { return out_[v]; }
  std::span<const int> in_edges(int v) const { return in_[v]; }

  int out_degree(int v) const { return static_cast<int>(out_[v].size()); }
  int in_degree(int v) const { return static_cast<int>(in_[v].size()); }
  /// Degree counting both directions (the paper's N = j + k per vertex).
  int degree(int v) const { return out_degree(v) + in_degree(v); }

  double max_capacity() const;

  /// True if every vertex lies on some s-t path (relevant for substrate
  /// sizing: other vertices map to unused crossbar columns).
  bool vertex_on_st_path(int v) const;

  /// Throws std::invalid_argument when the instance is malformed
  /// (bad source/sink, non-positive capacity, self loop).
  void validate() const;

  /// Returns a copy with `capacity -> f(capacity)` applied to every edge.
  template <typename F>
  FlowNetwork transform_capacities(F&& f) const {
    FlowNetwork out(num_vertices_, source_, sink_);
    for (const Edge& e : edges_) out.add_edge(e.from, e.to, f(e.capacity));
    return out;
  }

 private:
  int num_vertices_ = 0;
  int source_ = 0;
  int sink_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
};

/// Vertices reachable from `start` following edge direction.
std::vector<char> reachable_from(const FlowNetwork& net, int start);
/// Vertices that can reach `target` following edge direction.
std::vector<char> reaches_to(const FlowNetwork& net, int target);

/// The Fig. 5a example instance from the paper: 4 vertices s,n1..n3,t with
/// edges x1..x5 of capacities 3,2,1,1,2 and max flow 2.
FlowNetwork paper_example_fig5();

/// The Fig. 15a quasi-static example: maximize x1 s.t. x1 = x2 + x3,
/// capacities 4,1,4 (the two "infinite" edges are given `inf_cap`).
FlowNetwork paper_example_fig15(double inf_cap = 1e3);

} // namespace aflow::graph
