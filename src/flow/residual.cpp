#include "flow/residual.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace aflow::flow::detail {

Residual::Residual(int n, std::span<const graph::Edge> edges,
                   std::span<const double> prior)
    : inc(n, edges), n(n) {
  const size_t m = edges.size();
  if (!prior.empty() && prior.size() != m)
    throw std::invalid_argument("Residual: prior flow is not one per edge");
  cap.resize(2 * m);
  head.resize(2 * m);
  for (size_t e = 0; e < m; ++e) {
    const graph::Edge& edge = edges[e];
    const double f =
        prior.empty() ? 0.0 : std::clamp(prior[e], 0.0, edge.capacity);
    cap[2 * e] = edge.capacity - f;
    cap[2 * e + 1] = f;
    head[2 * e] = edge.to;
    head[2 * e + 1] = edge.from;
  }
}

std::vector<double> Residual::edge_flows(
    std::span<const graph::Edge> edges) const {
  std::vector<double> flows(edges.size());
  for (size_t e = 0; e < edges.size(); ++e)
    flows[e] = edges[e].capacity - cap[2 * e];
  return flows;
}

double Residual::flow_value_at(std::span<const graph::Edge> edges,
                               int s) const {
  // arcs(s) lists s's incident edges in edge order: even arcs are its
  // out-edges, odd ones its in-edges.
  double value = 0.0;
  for (int a : arcs(s))
    if (!(a & 1))
      value += edges[static_cast<size_t>(a >> 1)].capacity - cap[a];
  for (int a : arcs(s))
    if (a & 1)
      value -= edges[static_cast<size_t>(a >> 1)].capacity - cap[a ^ 1];
  return value;
}

std::vector<double> Residual::imbalances() const {
  std::vector<double> im(static_cast<size_t>(n), 0.0);
  const size_t m = cap.size() / 2;
  for (size_t e = 0; e < m; ++e) {
    const double f = cap[2 * e + 1];
    im[static_cast<size_t>(head[2 * e])] += f;     // edge head gains inflow
    im[static_cast<size_t>(head[2 * e + 1])] -= f; // edge tail pays outflow
  }
  return im;
}

namespace {

/// Imbalances below this are float dust, not repair work: digital priors
/// carry integral flows, so genuine violations are >= 1 capacity unit.
/// At capacities >= 1e9 the rounding dust of carried flows exceeds any
/// absolute threshold, so the repair's epsilon follows the largest residual
/// capacity — at push-relabel's own excess threshold (1e-11 x scale), never
/// coarser, since imbalance the repair leaves behind is imbalance no later
/// augmentation removes — with the absolute value as its floor.
constexpr double kImbalanceEps = 1e-9;
constexpr double kImbalanceRelEps = 1e-11;

double repair_eps(const Residual& r) {
  double scale = 1.0;
  for (const double c : r.cap) scale = std::max(scale, c);
  return std::max(kImbalanceEps, kImbalanceRelEps * scale);
}

/// Shortest-path repair pusher over a carried residual. Both directions
/// terminate by flow decomposition of the carried pseudo-flow: a surplus
/// node's extra inflow is reversible back to the source, a deficit node's
/// extra outflow is reversible back from the sink.
class ConservationRepair {
 public:
  ConservationRepair(Residual& r, int s, int t, ArcTouchLog* touched)
      : r_(r), s_(s), t_(t), eps_(repair_eps(r)), im_(r.imbalances()),
        parent_arc_(r.n, -1), seen_(r.n, 0),
        touched_(touched) {
    if (touched_) arc_logged_.assign(r.cap.size(), 0);
  }

  /// All excesses drain before any deficit fills: once no excess nodes
  /// remain, decomposing the carried pseudo-flow shows every deficit node's
  /// surplus outflow reaches the sink, so the reverse search in fill_deficit
  /// always finds a terminal supplier.
  bool run(long long& ops, const util::CancelToken& cancel) {
    for (int v = 0; v < r_.n; ++v) {
      if (v == s_ || v == t_) continue;
      while (im_[v] > eps_) {
        cancel.check();
        if (!drain_excess(v)) return false;
        ops++;
      }
    }
    for (int v = 0; v < r_.n; ++v) {
      if (v == s_ || v == t_) continue;
      while (im_[v] < -eps_) {
        cancel.check();
        if (!fill_deficit(v)) return false;
        ops++;
      }
    }
    return true;
  }

 private:
  bool is_deficit(int v) const {
    return v != s_ && v != t_ && im_[v] < -eps_;
  }

  /// Moves `amount` across `arc`, logging both directions' pre-push
  /// capacities on first touch when a touch log is attached.
  void push_arc(int arc, double amount) {
    if (touched_) {
      for (const int a : {arc, r_.rev(arc)}) {
        if (!arc_logged_[static_cast<size_t>(a)]) {
          arc_logged_[static_cast<size_t>(a)] = 1;
          touched_->emplace_back(a, r_.cap[static_cast<size_t>(a)]);
        }
      }
    }
    r_.cap[static_cast<size_t>(arc)] -= amount;
    r_.cap[static_cast<size_t>(r_.rev(arc))] += amount;
  }

  /// BFS forward from `v` to the nearest of {s, t, any deficit vertex};
  /// pushes the bottleneck (capped by both imbalances) along the path.
  bool drain_excess(int v) {
    ++stamp_;
    std::queue<int> q;
    q.push(v);
    seen_[v] = stamp_;
    int target = -1;
    while (!q.empty() && target < 0) {
      const int x = q.front();
      q.pop();
      for (int arc : r_.arcs(x)) {
        // Dust-capacity arcs (rounding residue of earlier pushes) are
        // saturated for repair purposes: routing through one would cap the
        // push at float noise and stall the repair.
        const int u = r_.head[arc];
        if (seen_[u] == stamp_ || r_.cap[arc] <= eps_) continue;
        seen_[u] = stamp_;
        parent_arc_[u] = arc;
        if (u == s_ || u == t_ || is_deficit(u)) {
          target = u;
          break;
        }
        q.push(u);
      }
    }
    if (target < 0) return false;

    double amount = im_[v];
    if (is_deficit(target)) amount = std::min(amount, -im_[target]);
    for (int x = target; x != v; x = r_.head[r_.rev(parent_arc_[x])])
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = target; x != v; x = r_.head[r_.rev(parent_arc_[x])])
      push_arc(parent_arc_[x], amount);
    im_[v] -= amount;
    if (target != s_ && target != t_) im_[target] += amount;
    return true;
  }

  /// BFS backward from `v` to the nearest of {s, t} (all surplus vertices
  /// are drained before any fill runs, so only terminals can supply);
  /// pushes the bottleneck along the found u -> ... -> v residual path.
  bool fill_deficit(int v) {
    ++stamp_;
    std::queue<int> q;
    q.push(v);
    seen_[v] = stamp_;
    int source_node = -1;
    while (!q.empty() && source_node < 0) {
      const int x = q.front();
      q.pop();
      for (int arc : r_.arcs(x)) {
        // Predecessor u = head[arc] supplies x through the arc's reverse
        // (u -> x), which must have residual capacity above the dust
        // threshold (see drain_excess).
        const int u = r_.head[arc];
        if (seen_[u] == stamp_ || r_.cap[r_.rev(arc)] <= eps_)
          continue;
        seen_[u] = stamp_;
        parent_arc_[u] = r_.rev(arc); // the u -> x residual arc
        if (u == s_ || u == t_) {
          source_node = u;
          break;
        }
        q.push(u);
      }
    }
    if (source_node < 0) return false;

    double amount = -im_[v];
    for (int x = source_node; x != v; x = r_.head[parent_arc_[x]])
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = source_node; x != v; x = r_.head[parent_arc_[x]])
      push_arc(parent_arc_[x], amount);
    im_[v] += amount;
    return true;
  }

  Residual& r_;
  int s_, t_;
  double eps_;
  std::vector<double> im_;
  std::vector<int> parent_arc_;
  std::vector<int> seen_; // visit stamps: seen_[u] == stamp_ means visited
  ArcTouchLog* touched_;
  std::vector<char> arc_logged_; // per-arc "already in the touch log" flag
  int stamp_ = 0;
};

/// Phase repair of a sharded stitch: the excesses drain into {s, t, open
/// deficits} as one multiple-source multiple-sink flow problem, Dinic
/// style. A phase is one BFS from the targets over the residual, stopped
/// once every pending vertex has a label, then blocking pushes from each
/// pending vertex along level-decreasing arcs with per-vertex cursors. A
/// phase leaves no level-decreasing path from a pending vertex to an open
/// target, and its pushes only open level-increasing arcs, so a vertex that
/// stays pending has a strictly higher label next phase: at most n phases,
/// each O(m) plus its path pushes. Then the deficits fill from {s, t} the
/// same way, walking the residual backwards. Forward arcs of edges entering
/// s or leaving t are closed: draining into s over an edge that enters it
/// could leave a negative source carry, and the stitch carries no flow on
/// those edges, so the decomposition argument of ConservationRepair needs
/// none of them.
class StitchRepair {
 public:
  StitchRepair(Residual& r, int s, int t)
      : r_(r), s_(s), t_(t), eps_(repair_eps(r)), im_(r.imbalances()),
        level_(r.n), cursor_(r.n) {}

  bool run(long long& ops, const util::CancelToken& cancel) {
    return phases(/*fill=*/false, ops, cancel) &&
           phases(/*fill=*/true, ops, cancel);
  }

 private:
  /// Residual arc `a` can carry repair flow: above the dust threshold (see
  /// ConservationRepair::drain_excess) and not a closed terminal arc.
  bool usable(int a) const {
    return r_.cap[a] > eps_ &&
           ((a & 1) || (r_.head[a] != s_ && r_.head[a ^ 1] != t_));
  }

  /// The residual arc a walk along incidence arc `w` pushes flow over:
  /// draining walks with the flow, filling walks against it.
  int flow_arc(int w) const { return fill_ ? r_.rev(w) : w; }

  /// Imbalance still to move at `v` (excess when draining, deficit when
  /// filling).
  double pending(int v) const { return fill_ ? -im_[v] : im_[v]; }

  bool is_target(int x) const {
    return x == s_ || x == t_ || (!fill_ && im_[x] < -eps_);
  }

  bool phases(bool fill, long long& ops, const util::CancelToken& cancel) {
    fill_ = fill;
    std::vector<int> sources;
    for (int v = 0; v < r_.n; ++v)
      if (v != s_ && v != t_ && pending(v) > eps_) sources.push_back(v);
    while (!sources.empty()) {
      cancel.check();
      if (!label(sources)) return false;
      std::fill(cursor_.begin(), cursor_.end(), 0);
      for (const int v : sources)
        while (pending(v) > eps_ && push_path(v)) ops++;
      std::erase_if(sources, [&](int v) { return pending(v) <= eps_; });
    }
    return true;
  }

  /// BFS from the targets against the walk direction; false when a source
  /// cannot reach any target.
  bool label(std::span<const int> sources) {
    std::fill(level_.begin(), level_.end(), -1);
    queue_.clear();
    for (int v = 0; v < r_.n; ++v)
      if (is_target(v)) {
        level_[v] = 0;
        queue_.push_back(v);
      }
    size_t unlabelled = sources.size();
    for (size_t qi = 0; qi < queue_.size() && unlabelled > 0; ++qi) {
      const int x = queue_[qi];
      for (const int a : r_.arcs(x)) {
        const int u = r_.head[a];
        if (level_[u] >= 0 || !usable(flow_arc(r_.rev(a)))) continue;
        level_[u] = level_[x] + 1;
        queue_.push_back(u);
        if (pending(u) > eps_) --unlabelled;
      }
    }
    return unlabelled == 0;
  }

  /// Walks from `v` down the levels to a target, retiring dead ends, and
  /// pushes the bottleneck (capped by both imbalances) along the path.
  bool push_path(int v) {
    path_.clear();
    int x = v;
    while (!is_target(x)) {
      // A filled deficit keeps level 0 but leads nowhere.
      if (level_[x] > 0) {
        const std::span<const int> arcs = r_.arcs(x);
        int& i = cursor_[x];
        while (i < static_cast<int>(arcs.size()) &&
               (level_[r_.head[arcs[i]]] != level_[x] - 1 ||
                !usable(flow_arc(arcs[i]))))
          ++i;
        if (i < static_cast<int>(arcs.size())) {
          path_.push_back(arcs[i]);
          x = r_.head[arcs[i]];
          continue;
        }
      }
      level_[x] = -1; // dead end for the rest of the phase
      if (path_.empty()) return false;
      x = r_.head[r_.rev(path_.back())];
      path_.pop_back();
    }
    double amount = pending(v);
    if (x != s_ && x != t_) amount = std::min(amount, -im_[x]);
    for (const int w : path_) amount = std::min(amount, r_.cap[flow_arc(w)]);
    for (const int w : path_) {
      r_.cap[flow_arc(w)] -= amount;
      r_.cap[r_.rev(flow_arc(w))] += amount;
    }
    im_[v] += fill_ ? amount : -amount;
    if (x != s_ && x != t_) im_[x] += amount;
    return true;
  }

  Residual& r_;
  int s_, t_;
  double eps_;
  bool fill_ = false;
  std::vector<double> im_;
  std::vector<int> level_;  // BFS distance to a target; -1 unlabelled/dead
  std::vector<int> cursor_; // per-vertex next incidence arc to try
  std::vector<int> queue_;
  std::vector<int> path_; // incidence arcs walked from the source
};

} // namespace

bool repair_stitch(Residual& r, int s, int t, long long& ops,
                   const util::CancelToken& cancel) {
  return StitchRepair(r, s, t).run(ops, cancel);
}

bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         const util::CancelToken& cancel) {
  return ConservationRepair(r, s, t, nullptr).run(ops, cancel);
}

bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         ArcTouchLog& touched,
                         const util::CancelToken& cancel) {
  return ConservationRepair(r, s, t, &touched).run(ops, cancel);
}

} // namespace aflow::flow::detail
