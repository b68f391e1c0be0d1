#include "flow/delta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

/// Fraction of the edge set beyond which a push-relabel delta restart
/// takes the cold flood instead of the slack-bounded warm restart — the
/// trust-region-style threshold of the analog delta path: when a quarter
/// of the edges changed, the "affected region" is most of the instance
/// and bounding the injection buys nothing over the flood.
constexpr double kWarmEditFraction = 0.25;

/// Per-arc excess cap for the slack-bounded warm restart: the total
/// residual capacity of the arcs the edit (plus its conservation repair)
/// newly opened — closed (or dust) before, open now. Every augmenting
/// path of the edited network crosses such an arc: a path whose every
/// residual capacity is unchanged was available against the prior, and
/// the prior was maximal. Each unit of extra flow consumes a unit of
/// newly-opened capacity, so the augmentable value — and with it any
/// maximum flow's extra entry through any one source arc — is bounded by
/// this sum (full argument in DESIGN.md "Incremental re-solve: the delta
/// path"). A garbage prior breaks the bound, not correctness: the warm
/// restart's maximality certificate escalates to the flood.
double warm_injection_budget(const CapacityDelta& delta,
                             const MaxFlowResult& prior,
                             const detail::Residual& r,
                             const detail::ArcTouchLog& touched,
                             double eps) {
  // Pre-edit residual capacity per changed arc. The repair log carries
  // the pre-repair value of every arc it moved flow across; edited edges
  // override it with the true pre-edit residual reconstructed from the
  // composed (first-old, last-new) edit and the prior flow, because the
  // clamp in the carry constructor already changed those arcs before the
  // repair ran.
  std::unordered_map<int, double> before;
  before.reserve(touched.size() + 2 * delta.edits.size());
  for (const auto& [arc, pre] : touched) before.emplace(arc, pre);
  for (const CapacityEdit& e : delta.composed()) {
    const int fwd = 2 * e.edge;
    if (e.edge < 0 ||
        2 * static_cast<size_t>(e.edge) + 1 >= r.cap.size())
      continue; // stale edit against another topology: nothing to bound
    if (e.old_capacity < 0.0) {
      // Unmeasured edit: conservatively count both arcs as newly opened.
      before[fwd] = 0.0;
      before[fwd + 1] = 0.0;
    } else {
      const double f_old = prior.edge_flow[e.edge];
      before[fwd] = e.old_capacity - f_old;
      before[fwd + 1] = f_old;
    }
  }

  double budget = 0.0;
  for (const auto& [arc, pre] : before) {
    const double now = r.cap[static_cast<size_t>(arc)];
    if (pre <= eps && now > eps) budget += now;
  }
  return budget;
}

/// Second, usually tighter bound on the same quantity, from the cut side:
/// the prior's min cut is still a cut, so the new maximum value is at most
/// prior_value + the sum of positive capacity deltas (only increases can
/// raise a cut's capacity, whichever edited edges it crosses); and some
/// maximum flow differs from the repaired carry by s->t paths alone
/// (difference cycles cancel without changing value or feasibility), so
/// the augmentable value is that ceiling minus the carried value. The two
/// bounds fail independently — slack_budget blows up when the repair
/// rewires long paths, cut_budget when a decrease drains much carried
/// flow — so the warm restart takes the min.
double warm_cut_budget(const CapacityDelta& delta,
                       const MaxFlowResult& prior, double carried_value,
                       double eps) {
  double raised = 0.0;
  for (const CapacityEdit& e : delta.composed()) {
    if (e.old_capacity < 0.0) // unmeasured edit: no ceiling from this side
      return std::numeric_limits<double>::infinity();
    raised += std::max(0.0, e.capacity - e.old_capacity);
  }
  // eps of headroom so rounding in the carried value cannot shave a real
  // unit off the budget (an undershoot is correct but escalates).
  return std::max(0.0, prior.flow_value + raised - carried_value) + eps;
}

MaxFlowResult solve_delta_impl(const graph::FlowNetwork& net,
                               const CapacityDelta& delta,
                               const MaxFlowResult& prior,
                               bool use_push_relabel,
                               const util::CancelToken& cancel) {
  const auto scratch = [&](bool fallback) {
    MaxFlowResult r =
        use_push_relabel ? push_relabel(net, cancel) : dinic(net, cancel);
    r.metrics.delta_fallbacks = fallback ? 1 : 0;
    r.metrics.edges_touched = delta.distinct_edges();
    return r;
  };
  if (!delta_prior_usable(net, prior)) return scratch(/*fallback=*/true);

  detail::Residual r(net.num_vertices(), net.edges(), prior.edge_flow);
  MaxFlowResult result;
  if (use_push_relabel) {
    // The repair's touch log is what prices the warm restart: arcs whose
    // residual the repair changed are "opened slack" exactly like edited
    // arcs, so the budget covers repair-induced reroutes too (a decrease
    // that forces the repair to drain flow suboptimally leaves its
    // re-augmentable slack in the log).
    detail::ArcTouchLog touched;
    if (!detail::repair_conservation(r, net.source(), net.sink(),
                                     result.operations, touched, cancel))
      return scratch(/*fallback=*/true);
    const bool warm =
        delta.distinct_edges() <=
        std::max(1.0, kWarmEditFraction * net.num_edges());
    if (warm) {
      // The restart's dust threshold (matches push_relabel_augment's
      // capacity-relative excess_eps).
      double scale = 1.0;
      for (const double c : r.cap) scale = std::max(scale, c);
      const double eps = 1e-11 * scale;
      const detail::PushRelabelWarm plan{std::min(
          warm_injection_budget(delta, prior, r, touched, eps),
          warm_cut_budget(delta, prior,
                          r.flow_value_at(net.edges(), net.source()), eps))};
      result.operations += detail::push_relabel_augment(
          r, net.source(), net.sink(), cancel, &result.metrics, &plan);
    } else {
      result.operations += detail::push_relabel_augment(
          r, net.source(), net.sink(), cancel, &result.metrics);
    }
  } else {
    // The nearest-target conservation repair (flow/residual.hpp) drains
    // the carry's imbalances; a false return means a numerically
    // degenerate prior.
    if (!detail::repair_conservation(r, net.source(), net.sink(),
                                     result.operations, cancel))
      return scratch(/*fallback=*/true);
    detail::dinic_augment(r, net.source(), net.sink(), result.operations,
                          cancel);
  }

  result.flow_value = r.flow_value_at(net.edges(), net.source());
  result.edge_flow = r.edge_flows(net.edges());
  result.metrics.delta_solves = 1;
  result.metrics.edges_touched = delta.distinct_edges();
  return result;
}

} // namespace

int CapacityDelta::distinct_edges() const {
  std::unordered_set<int> edges;
  edges.reserve(edits.size());
  for (const CapacityEdit& e : edits) edges.insert(e.edge);
  return static_cast<int>(edges.size());
}

void CapacityDelta::apply(graph::FlowNetwork& net) {
  // All-or-nothing: validate every edit before mutating anything, so a bad
  // trailing edit cannot leave the network half-edited or clobber the
  // old_capacity fields recorded for the edits before it. The rules mirror
  // FlowNetwork::set_capacity exactly (index in range, capacity strictly
  // positive and therefore not NaN).
  for (const CapacityEdit& e : edits) {
    if (e.edge < 0 || e.edge >= net.num_edges())
      throw std::invalid_argument("CapacityDelta: edge index " +
                                  std::to_string(e.edge) + " out of range");
    if (!(e.capacity > 0.0))
      throw std::invalid_argument("CapacityDelta: capacity for edge " +
                                  std::to_string(e.edge) +
                                  " must be positive");
  }
  for (CapacityEdit& e : edits) {
    e.old_capacity = net.edge(e.edge).capacity;
    net.set_capacity(e.edge, e.capacity);
  }
}

std::vector<CapacityEdit> CapacityDelta::composed() const {
  std::vector<CapacityEdit> out;
  out.reserve(edits.size());
  std::unordered_map<int, size_t> slot; // edge -> index in out
  slot.reserve(edits.size());
  for (const CapacityEdit& e : edits) {
    const auto [it, fresh] = slot.emplace(e.edge, out.size());
    if (fresh)
      out.push_back(e); // first edit keeps the first old_capacity
    else
      out[it->second].capacity = e.capacity; // last new capacity wins
  }
  return out;
}

double CapacityDelta::max_relative_change() const {
  double worst = 0.0;
  for (const CapacityEdit& e : composed()) {
    if (e.old_capacity < 0.0)
      return std::numeric_limits<double>::infinity();
    worst = std::max(worst, std::abs(e.capacity - e.old_capacity) /
                                std::max(e.old_capacity, 1.0));
  }
  return worst;
}

CapacityDelta delta_between(const graph::FlowNetwork& before,
                            const graph::FlowNetwork& after) {
  if (before.num_vertices() != after.num_vertices() ||
      before.num_edges() != after.num_edges() ||
      before.source() != after.source() || before.sink() != after.sink())
    throw std::invalid_argument(
        "delta_between: instances differ in topology, not just capacities");
  CapacityDelta d;
  for (int e = 0; e < before.num_edges(); ++e) {
    const graph::Edge& a = before.edge(e);
    const graph::Edge& b = after.edge(e);
    if (a.from != b.from || a.to != b.to)
      throw std::invalid_argument(
          "delta_between: edge " + std::to_string(e) + " endpoints differ");
    if (a.capacity != b.capacity)
      d.edits.push_back({e, b.capacity, a.capacity});
  }
  return d;
}

bool delta_prior_usable(const graph::FlowNetwork& net,
                        const MaxFlowResult& prior) {
  if (static_cast<int>(prior.edge_flow.size()) != net.num_edges())
    return false;
  for (const double f : prior.edge_flow)
    if (!std::isfinite(f)) return false;
  return true;
}

MaxFlowResult dinic_delta(const graph::FlowNetwork& net,
                          const CapacityDelta& delta,
                          const MaxFlowResult& prior,
                          const util::CancelToken& cancel) {
  return solve_delta_impl(net, delta, prior, /*use_push_relabel=*/false,
                          cancel);
}

MaxFlowResult push_relabel_delta(const graph::FlowNetwork& net,
                                 const CapacityDelta& delta,
                                 const MaxFlowResult& prior,
                                 const util::CancelToken& cancel) {
  return solve_delta_impl(net, delta, prior, /*use_push_relabel=*/true,
                          cancel);
}

} // namespace aflow::flow
