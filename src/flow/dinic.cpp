#include <algorithm>
#include <limits>
#include <queue>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

/// Blocking-flow augmenter over an externally owned residual, so the cold
/// solve (fresh residual) and the incremental delta path (carried residual,
/// flow/delta.hpp) share one implementation.
class DinicSolver {
 public:
  DinicSolver(detail::Residual& r, int s, int t,
              const util::CancelToken& cancel)
      : r_(r), s_(s), t_(t), cancel_(cancel), level_(r.n), it_(r.n) {}

  double augment(long long& ops) {
    double added = 0.0;
    // One cancellation check per BFS phase: at most n phases, each a full
    // blocking flow, so the check granularity matches the unit of real work.
    while (cancel_.check(), bfs_levels()) {
      std::fill(it_.begin(), it_.end(), 0);
      for (;;) {
        const double pushed = dfs(s_, std::numeric_limits<double>::infinity());
        if (pushed <= 0.0) break;
        added += pushed;
        ops++;
      }
    }
    return added;
  }

 private:
  bool bfs_levels() {
    std::fill(level_.begin(), level_.end(), -1);
    level_[s_] = 0;
    std::queue<int> q;
    q.push(s_);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (int arc : r_.arcs(v)) {
        const int u = r_.head[arc];
        if (level_[u] == -1 && r_.cap[arc] > 0.0) {
          level_[u] = level_[v] + 1;
          q.push(u);
        }
      }
    }
    return level_[t_] >= 0;
  }

  double dfs(int v, double limit) {
    if (v == t_) return limit;
    const std::span<const int> arcs = r_.arcs(v);
    for (int& i = it_[v]; i < static_cast<int>(arcs.size()); ++i) {
      const int arc = arcs[i];
      const int u = r_.head[arc];
      if (r_.cap[arc] <= 0.0 || level_[u] != level_[v] + 1) continue;
      const double pushed = dfs(u, std::min(limit, r_.cap[arc]));
      if (pushed > 0.0) {
        r_.cap[arc] -= pushed;
        r_.cap[r_.rev(arc)] += pushed;
        return pushed;
      }
    }
    level_[v] = -1;
    return 0.0;
  }

  detail::Residual& r_;
  int s_, t_;
  util::CancelToken cancel_;
  std::vector<int> level_;
  std::vector<int> it_;
};

} // namespace

namespace detail {

double dinic_augment(Residual& r, int s, int t, long long& ops,
                     const util::CancelToken& cancel) {
  return DinicSolver(r, s, t, cancel).augment(ops);
}

} // namespace detail

MaxFlowResult dinic(const graph::FlowNetwork& net,
                    const util::CancelToken& cancel) {
  detail::Residual r(net.num_vertices(), net.edges());
  MaxFlowResult result;
  result.flow_value = detail::dinic_augment(r, net.source(), net.sink(),
                                            result.operations, cancel);
  result.edge_flow = r.edge_flows(net.edges());
  return result;
}

} // namespace aflow::flow
