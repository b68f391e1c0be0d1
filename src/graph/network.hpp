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

  double max_capacity() const;

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
};

/// The incident arcs of every vertex of an edge list, in CSR form: the one
/// incidence structure behind the residual solvers, the cut readout, the
/// mapper's conservation columns and the BFS helpers (the digital image of
/// the paper's Fig. 2, where each vertex column wires up its incident
/// edges). Arc 2e is edge e leaving `from`, arc 2e+1 is edge e entering
/// `to`; arcs(v) lists v's arcs in edge order, so its even arcs are v's
/// out-edges ascending and its odd arcs its in-edges ascending. Two flat
/// arrays, built in two O(m) passes with no per-vertex allocation. Throws
/// std::length_error when 2m overflows the int arc index (instances of
/// 2^30 edges and more).
class Incidence {
 public:
  Incidence(int num_vertices, std::span<const Edge> edges);
  explicit Incidence(const FlowNetwork& net)
      : Incidence(net.num_vertices(), net.edges()) {}

  std::span<const int> arcs(int v) const {
    return {arcs_.data() + start_[v],
            static_cast<size_t>(start_[v + 1] - start_[v])};
  }

 private:
  std::vector<int> start_; // num_vertices + 1 offsets into arcs_
  std::vector<int> arcs_;
};

/// Vertices reachable from `start` following edge direction.
std::vector<char> reachable_from(const FlowNetwork& net, int start);

/// The Fig. 5a example instance from the paper: 4 vertices s,n1..n3,t with
/// edges x1..x5 of capacities 3,2,1,1,2 and max flow 2.
FlowNetwork paper_example_fig5();

/// The Fig. 15a quasi-static example: maximize x1 s.t. x1 = x2 + x3,
/// capacities 4,1,4 (the two "infinite" edges are given `inf_cap`).
FlowNetwork paper_example_fig15(double inf_cap = 1e3);

} // namespace aflow::graph
