#include <algorithm>
#include <queue>

#include "flow/maxflow.hpp"
#include "graph/csr.hpp"

namespace aflow::flow {

MinCutResult min_cut_from_flow(const graph::FlowNetwork& net,
                               const MaxFlowResult& flow) {
  const int n = net.num_vertices();
  MinCutResult cut;
  cut.side.assign(n, 0);

  // Saturation tolerance, relative to the instance's capacity scale: at
  // capacities >= 1e9 the rounding dust a solver leaves on a saturated
  // arc exceeds any absolute threshold, and a BFS that crosses one such
  // arc walks past the true cut (clamped below by the historical absolute
  // value so small instances behave exactly as before).
  constexpr double kEpsAbs = 1e-9;
  double scale = 1.0;
  for (int e = 0; e < net.num_edges(); ++e)
    scale = std::max(scale, net.edge(e).capacity);
  const double eps = kEpsAbs * scale;

  // BFS in the residual graph from the source: an out-edge with slack, or
  // an in-edge carrying flow, leads on.
  const graph::Incidence inc(net);
  std::queue<int> q;
  q.push(net.source());
  cut.side[net.source()] = 1;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int a : inc.arcs(v)) {
      const int e = a >> 1;
      const auto& edge = net.edge(e);
      const bool out = !(a & 1);
      const int u = out ? edge.to : edge.from;
      const double slack =
          out ? edge.capacity - flow.edge_flow[e] : flow.edge_flow[e];
      if (!cut.side[u] && slack > eps) {
        cut.side[u] = 1;
        q.push(u);
      }
    }
  }

  for (int e = 0; e < net.num_edges(); ++e) {
    const auto& edge = net.edge(e);
    if (cut.side[edge.from] && !cut.side[edge.to]) {
      cut.cut_edges.push_back(e);
      cut.cut_value += edge.capacity;
    }
  }
  return cut;
}

std::string check_flow(const graph::FlowNetwork& net, const MaxFlowResult& result,
                       double tol) {
  return graph::check_edge_flow(net.num_vertices(), net.source(), net.sink(),
                                net.edges(), result.edge_flow,
                                result.flow_value, tol);
}

} // namespace aflow::flow
