// Shared residual-graph representation for the augmenting-path and
// push-relabel solvers: forward/backward arc pairs in a flat array, with
// arc i^1 the reverse of arc i.
#pragma once

#include <span>
#include <vector>

#include "flow/maxflow.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::flow::detail {

struct Residual {
  /// Builds the residual of the edge list `edges` over `n` vertices. With an
  /// empty `prior` it carries the zero flow; otherwise `prior` holds one
  /// flow per edge, clamped into [0, capacity], so a flow that an edit made
  /// infeasible enters as a capacity-feasible pseudo-flow whose
  /// conservation violations the repair below then drains — the carry-over
  /// seam of the incremental re-solve path (flow/delta.hpp) and of the
  /// sharded stitch. Both graph models hand over their edge arrays
  /// (FlowNetwork::edges(), graph::CsrGraph::edges()), and a sharded region
  /// hands over its slice of one. Throws std::length_error when 2m
  /// overflows the int arc index (graph::Incidence), and
  /// std::invalid_argument when a non-empty `prior` is not one per edge.
  Residual(int n, std::span<const graph::Edge> edges,
           std::span<const double> prior = {});

  /// Incident arcs per vertex; arcs 2e / 2e+1 are the forward / reverse
  /// pair of input edge e. Building it allocates nothing per vertex, which
  /// matters because the build is the fixed cost of every delta re-solve
  /// (flow/delta.hpp).
  graph::Incidence inc;
  /// Residual capacity per arc.
  std::vector<double> cap;
  std::vector<int> head; // arc -> target vertex
  int n = 0;

  int rev(int arc) const { return arc ^ 1; }

  /// Arcs leaving `v` (forward arcs of v's out-edges plus reverse arcs of
  /// its in-edges), in edge order.
  std::span<const int> arcs(int v) const { return inc.arcs(v); }

  /// Extracts per-input-edge flow (forward capacity consumed) for the edge
  /// list the residual was built from. Reading capacity - cap[2e] rather
  /// than the reverse arc keeps every flow inside [0, capacity] exactly:
  /// augmentation preserves cap[2e] + cap[2e+1] = capacity only up to
  /// rounding on fractional capacities.
  std::vector<double> edge_flows(std::span<const graph::Edge> edges) const;

  /// Flow value currently carried: net flow out of `s` (forward consumption
  /// of s's out-edges, then minus that of its in-edges, each in edge order).
  double flow_value_at(std::span<const graph::Edge> edges, int s) const;

  /// Conservation surplus (inflow - outflow) per vertex under the carried
  /// flow; source/sink entries are reported but are not repair targets.
  std::vector<double> imbalances() const;
};

/// Restores conservation at every ordinary vertex of a capacity-feasible
/// pseudo-flow held in `r`, by shortest-path pushes over the residual: every
/// excess drains to {s, t, nearest deficit}, then every deficit fills from a
/// terminal. Termination follows from flow decomposition of the carried
/// pseudo-flow (DESIGN.md "Incremental re-solve: the delta path"). Counts
/// one op per push into `ops`; returns false when no progress is possible
/// (numerically degenerate carry), in which case the caller should discard
/// the carry and solve from scratch. Each push is its own nearest-target
/// search, which suits the delta re-solve path: an edit leaves a handful of
/// imbalances next to their targets.
/// The entry points below take an optional util::CancelToken and check it
/// at their natural phase boundaries (one repair push or stitch phase, one
/// Dinic BFS phase, every ~1k push-relabel queue pops); a tripped token
/// unwinds with util::CancelledError. The default token never cancels and
/// costs one null test per check.
bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         const util::CancelToken& cancel = {});

/// Pre-repair residual capacities of the arcs a repair pass mutated: one
/// (arc id, capacity before the first touch) entry per touched arc. The
/// delta path uses this to bound a push-relabel warm restart by the slack
/// the repair actually opened (see PushRelabelWarm below).
using ArcTouchLog = std::vector<std::pair<int, double>>;

/// As repair_conservation above, additionally recording every arc whose
/// residual capacity the repair changed into `touched` (appended; each arc
/// at most once, with its pre-repair capacity).
bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         ArcTouchLog& touched,
                         const util::CancelToken& cancel = {});

/// The sharded-solve boundary stitch's repair (core/sharded_solver.hpp),
/// whose min-matched cut-arc flows leave hundreds of imbalances along the
/// region boundaries, far from their targets. Same contract as
/// repair_conservation (one op per push, false on a degenerate carry), but
/// the pushes run in phases: one BFS from the targets per phase, then
/// blocking pushes down its levels (DESIGN.md "Sharded solve"). It adds no
/// flow to edges entering s or leaving t, so a carry without flow on them
/// repairs to a value that is never negative.
bool repair_stitch(Residual& r, int s, int t, long long& ops,
                   const util::CancelToken& cancel = {});

/// Augments the (feasible-flow) residual `r` to a maximum flow with Dinic
/// blocking flows; returns the flow value added and counts augmenting paths
/// into `ops`. Cold solves pass a fresh Residual (zero flow); the delta path
/// passes a repaired carry-over residual.
double dinic_augment(Residual& r, int s, int t, long long& ops,
                     const util::CancelToken& cancel = {});

/// Warm-restart plan for push_relabel_augment: instead of saturating every
/// live source-adjacent residual arc (the cold flood), seed
/// `injection_budget` units of excess at the source itself, labelled at its
/// true BFS height — equivalent to flooding one virtual super-source arc
/// s' -> s of that capacity. The discharge then chooses which source arcs
/// carry the new flow, so the total injection is O(budget), not O(total
/// source slack). The budget is a bound on the value still augmentable
/// after the edit (min of the newly-opened-slack sum and the raised-cut
/// ceiling — see flow/delta.cpp), so the capped entry still admits a
/// maximum flow; whatever it cannot route stays parked at s and is dropped
/// as the virtual excess it always was. A pass that parks its source
/// (h(s) >= n) is certified maximal by its own valid labeling; a
/// budget-exhausted pass is checked with an exact residual-reachability
/// BFS and escalates to the cold flood on failure
/// (SolveMetrics::warm_escalations), so correctness never depends on the
/// budget argument — only the restart cost does. DESIGN.md "Incremental
/// re-solve: the delta path" carries the full soundness argument.
struct PushRelabelWarm {
  double injection_budget = 0.0;
};

/// Runs FIFO push-relabel (gap heuristic, initial global relabel) from the
/// feasible flow currently held in `r`, leaving `r` a maximum flow; returns
/// pushes + relabels. A feasible flow is a preflow with no excess, so the
/// standard initialisation (saturate s-adjacent residual arcs, discharge)
/// is valid from any carried flow, not just the zero flow. Cold solves pass
/// no warm plan (full source flood); the delta path passes a PushRelabelWarm
/// whose budget is seeded as excess at the source. When `metrics` is
/// non-null the restart counters (injected_excess_arcs,
/// returned_excess_walks, phase2_fallbacks, warm_escalations) are added to
/// it.
long long push_relabel_augment(Residual& r, int s, int t,
                               const util::CancelToken& cancel = {},
                               SolveMetrics* metrics = nullptr,
                               const PushRelabelWarm* warm = nullptr);

} // namespace aflow::flow::detail
