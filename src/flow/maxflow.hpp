// Classical (digital) max-flow solvers.
//
// `push_relabel` (FIFO active list, gap heuristic, initial global relabel)
// is the paper's CPU baseline (Goldberg-Tarjan); `dinic` and `edmonds_karp`
// serve as independent cross-checks and alternative baselines. All solvers
// return per-edge flows so the analog solution can be compared edge-wise.
#pragma once

#include <vector>

#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::flow {

/// Optional backend telemetry for perf tracking (aflow bench --json, batch
/// reports). Classical solvers leave it zeroed; the analog backends fill it
/// from their DC/transient statistics.
struct SolveMetrics {
  long long iterations = 0;       // Newton/PWL iterations or transient solves
  long long full_factors = 0;     // factorisations incl. symbolic analysis
  long long refactors = 0;        // numeric-only fast-path factorisations
  long long prototype_refactors = 0; // refactors via cross-instance prototypes
  long long rhs_refreshes = 0;    // transient RHS-only incremental updates
  long long warm_iterations = 0;  // iterations in warm-started solves
  long long cold_iterations = 0;  // iterations in cold solves
  bool warm_started = false;      // result came from a warm-started solve
  // core::ReusePool traffic attributable to this solve (warm backends only):
  // one lookup per solve, so pool_hits + pool_misses == pool lookups.
  long long pool_hits = 0;
  long long pool_misses = 0;
  long long pool_evictions = 0;   // LRU entries evicted by this solve's store
  // Delta-path telemetry (ISolver::solve_delta): a solve entered through the
  // incremental entry either rode the delta fast path (delta_solves) or fell
  // back to a from-scratch/full-warm solve (delta_fallbacks) — exactly one of
  // the two per solve_delta call. edges_touched counts the distinct edited
  // edges the delta carried (whichever path ran).
  long long delta_solves = 0;
  long long delta_fallbacks = 0;
  long long edges_touched = 0;
  // Push-relabel restart telemetry (flow/push_relabel.cpp). A cold start
  // floods every live source arc (one injected_excess_arcs tick per arc);
  // a slack-bounded warm restart seeds its whole budget at the source —
  // one tick per pass — so injected_excess_arcs is the direct measure of
  // restart locality (near the step count on a warm stream, near the
  // source degree times the step count on a cold one).
  // returned_excess_walks counts phase-2 walks hauling unroutable excess
  // home; phase2_fallbacks counts engagements of the slow legacy discharge
  // fallback after a genuine (fresh-cursor) phase-2 dead end;
  // warm_escalations counts warm restarts whose max-flow certificate
  // failed, forcing a full flood continuation (correctness backstop).
  long long injected_excess_arcs = 0;
  long long returned_excess_walks = 0;
  long long phase2_fallbacks = 0;
  long long warm_escalations = 0;
  // Graceful-degradation ladder telemetry (DESIGN.md "Failure taxonomy and
  // the degradation ladder"): each counter records one fallback rung taken
  // on behalf of this solve, so every recovery is visible to clients
  // instead of silent.
  long long fallback_analog_digital = 0; // analog failure -> digital backend
  long long fallback_region_retries = 0; // sharded region solve re-attempts
  long long fallback_region_direct = 0;  // region solved by local direct rung
  long long fallback_pool_rebuilds = 0;  // corrupt pool entry dropped+rebuilt

  /// Accumulates another solve's counters (warm_started ORs). Every field
  /// is attributable to the request that produced it, so the same type
  /// serves both aggregation scopes of the serving layer: *per-session*
  /// (one connection's requests) and *shared-bank* (every session through
  /// one solver bank). The two scopes reconcile by construction — summing
  /// the per-session pool_* counters over all sessions of a bank yields
  /// the shared pool's own cumulative hit/miss/eviction statistics.
  SolveMetrics& operator+=(const SolveMetrics& m);
};

/// One named counter of SolveMetrics.
struct MetricCounter {
  const char* name;
  long long SolveMetrics::*field;
};

/// Every counter of SolveMetrics, in declaration order: the one list that
/// operator+=, the serve `metrics` objects and the `aflow bench --json`
/// report loop over (warm_started, a flag, is the only field outside it).
inline constexpr MetricCounter kMetricCounters[] = {
    {"iterations", &SolveMetrics::iterations},
    {"full_factors", &SolveMetrics::full_factors},
    {"refactors", &SolveMetrics::refactors},
    {"prototype_refactors", &SolveMetrics::prototype_refactors},
    {"rhs_refreshes", &SolveMetrics::rhs_refreshes},
    {"warm_iterations", &SolveMetrics::warm_iterations},
    {"cold_iterations", &SolveMetrics::cold_iterations},
    {"pool_hits", &SolveMetrics::pool_hits},
    {"pool_misses", &SolveMetrics::pool_misses},
    {"pool_evictions", &SolveMetrics::pool_evictions},
    {"delta_solves", &SolveMetrics::delta_solves},
    {"delta_fallbacks", &SolveMetrics::delta_fallbacks},
    {"edges_touched", &SolveMetrics::edges_touched},
    {"injected_excess_arcs", &SolveMetrics::injected_excess_arcs},
    {"returned_excess_walks", &SolveMetrics::returned_excess_walks},
    {"phase2_fallbacks", &SolveMetrics::phase2_fallbacks},
    {"warm_escalations", &SolveMetrics::warm_escalations},
    {"fallback_analog_digital", &SolveMetrics::fallback_analog_digital},
    {"fallback_region_retries", &SolveMetrics::fallback_region_retries},
    {"fallback_region_direct", &SolveMetrics::fallback_region_direct},
    {"fallback_pool_rebuilds", &SolveMetrics::fallback_pool_rebuilds},
};

inline SolveMetrics& SolveMetrics::operator+=(const SolveMetrics& m) {
  for (const MetricCounter& c : kMetricCounters) this->*c.field += m.*c.field;
  warm_started = warm_started || m.warm_started;
  return *this;
}

struct MaxFlowResult {
  double flow_value = 0.0;
  /// Flow assigned to each input edge, parallel to FlowNetwork::edges().
  std::vector<double> edge_flow;
  /// Algorithm-specific work counter (augmentations, pushes, ...), for the
  /// operation-count comparisons in the benchmarks.
  long long operations = 0;
  SolveMetrics metrics;
};

/// The optional CancelToken makes long solves cooperatively cancellable
/// (deadline or explicit flag; see util/cancel.hpp): a tripped token throws
/// util::CancelledError from the solver's next iteration boundary. The
/// default token never cancels.
MaxFlowResult edmonds_karp(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel = {});
MaxFlowResult dinic(const graph::FlowNetwork& net,
                    const util::CancelToken& cancel = {});
MaxFlowResult push_relabel(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel = {});

/// A minimum s-t cut extracted from a maximum flow.
struct MinCutResult {
  double cut_value = 0.0;
  /// side[v] == 1 iff v is on the source side of the cut.
  std::vector<char> side;
  /// Input-edge indices crossing the cut (source side -> sink side).
  std::vector<int> cut_edges;
};

/// Computes the min cut from a max flow via residual reachability.
MinCutResult min_cut_from_flow(const graph::FlowNetwork& net,
                               const MaxFlowResult& flow);

/// Verifies that `result` is a feasible flow on `net`: capacity bounds and
/// conservation hold to within `tol`, and flow_value matches the net
/// source outflow. Returns an empty string when valid, otherwise a
/// human-readable description of the first violation.
std::string check_flow(const graph::FlowNetwork& net, const MaxFlowResult& result,
                       double tol = 1e-9);

} // namespace aflow::flow
