#include "core/sharded_solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "arch/partition.hpp"
#include "core/batch_engine.hpp"
#include "flow/residual.hpp"
#include "util/fault_injector.hpp"

namespace aflow::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int local_id(const std::vector<int>& region_vertices, int v) {
  // Region vertex lists are ascending (partition_regions builds them by a
  // vertex-order sweep), so a binary search replaces the n-sized
  // global->local scratch array a million-vertex region build would
  // otherwise allocate per worker.
  const auto it =
      std::lower_bound(region_vertices.begin(), region_vertices.end(), v);
  return static_cast<int>(it - region_vertices.begin());
}

/// Exact refinement: a budgeted warm push-relabel from the feasible flow in
/// `r` (flow/residual.hpp PushRelabelWarm). `budget` is an upper bound on
/// the max flow minus the value `r` already carries, so it covers all the
/// flow still to add. Exactness does not rest on that argument: a pass
/// that parks its source carries its own maximality certificate, and any
/// other pass is checked by residual reachability and escalates to the
/// cold flood on failure (SolveMetrics::warm_escalations).
long long refine(flow::detail::Residual& r, int s, int t, double budget,
                 const CancelToken& cancel, flow::SolveMetrics& metrics) {
  const flow::detail::PushRelabelWarm plan{std::max(0.0, budget)};
  return flow::detail::push_relabel_augment(r, s, t, cancel, &metrics, &plan);
}

} // namespace

ShardedSolver::ShardedSolver(ShardOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1)
    throw std::invalid_argument("ShardedSolver: shards must be >= 1");
}

SolverCapabilities ShardedSolver::capabilities() const {
  SolverCapabilities caps;
  caps.sharded = true;
  return caps;
}

flow::MaxFlowResult ShardedSolver::solve(const graph::FlowNetwork& net,
                                         const CancelToken& cancel) const {
  return solve_csr(graph::CsrGraph::from_network(net), nullptr, cancel);
}

flow::MaxFlowResult ShardedSolver::solve_csr(const graph::CsrGraph& g,
                                             ShardReport* report,
                                             const CancelToken& cancel) const {
  const int n = g.num_vertices();
  const std::int64_t m = g.num_edges();
  const int s = g.source();
  const int t = g.sink();
  const int k = std::min(options_.shards, n);
  const std::span<const graph::Edge> edges = g.edges();
  const double source_out = g.source_out_capacity();
  const double sink_in = g.sink_in_capacity();
  const double trivial_bound = std::min(source_out, sink_in);

  ShardReport local_report;
  ShardReport& rep = report ? *report : local_report;
  rep = ShardReport{};

  flow::MaxFlowResult result;
  if (k < 2) {
    // Degenerate shard count: one region is just the direct residual solve.
    rep.regions = 1;
    rep.region_vertices = {n};
    rep.upper_bound = trivial_bound;
    const auto t0 = Clock::now();
    flow::detail::Residual r(n, edges);
    rep.refine_operations =
        refine(r, s, t, rep.upper_bound, cancel, result.metrics);
    rep.refine_seconds = seconds_since(t0);
    result.flow_value = r.flow_value_at(edges, s);
    result.edge_flow = r.edge_flows(edges);
    result.operations = rep.refine_operations;
    rep.flow_value = result.flow_value;
    rep.refined_added = result.flow_value;
    return result;
  }

  // --- Partition ---------------------------------------------------------
  cancel.check();
  const auto partition_t0 = Clock::now();
  arch::RegionPartitionOptions popt;
  popt.regions = k;
  popt.seed = options_.seed;
  const arch::RegionPartition part = arch::partition_regions(g, popt);
  rep.regions = part.num_regions;
  for (const auto& verts : part.vertices)
    rep.region_vertices.push_back(static_cast<int>(verts.size()));
  rep.cut_arcs = static_cast<std::int64_t>(part.cut_arcs.size());
  rep.cut_capacity = part.cut_capacity;

  // Pre-refinement optimality bound: contract every region to one vertex
  // (keeping the cut arcs) and max-flow the k-node quotient. Contraction
  // only removes conservation constraints, so its max flow dominates the
  // true one; the trivial terminal bound covers the s-and-t-in-one-region
  // case, where the quotient has no s-t separation to measure.
  rep.upper_bound = trivial_bound;
  if (part.region[s] != part.region[t] && !part.cut_arcs.empty()) {
    graph::FlowNetwork quotient(part.num_regions, part.region[s],
                                part.region[t]);
    for (const std::int64_t e : part.cut_arcs)
      quotient.add_edge(part.region[g.edge(e).from],
                        part.region[g.edge(e).to], g.edge(e).capacity);
    rep.upper_bound =
        std::min(rep.upper_bound, flow::dinic(quotient, cancel).flow_value);
  }
  rep.partition_seconds = seconds_since(partition_t0);
  cancel.check();

  // --- Parallel region solves -------------------------------------------
  // Region r's subproblem is a slice of the parent edge list plus a super
  // source S_r and super sink T_r, in this order: its internal edges
  // (ascending), its incoming cut arcs as S_r -> v (slot order), its
  // outgoing cut arcs as u -> T_r (slot order), then s and t, where
  // present, wired to S_r / T_r at the trivial-bound capacities. Every cut
  // arc is represented individually, so each region votes a flow for each
  // of its incident cut arcs. Edges entering s or leaving t are left out of
  // every slice: no s-t max flow needs them, and a region that routed flow
  // over them would hand the stitch a negative source carry. Their stitched
  // flow stays 0.
  const auto region_t0 = Clock::now();
  const auto kept = [&](const graph::Edge& e) {
    return e.to != s && e.from != t;
  };
  std::vector<std::vector<std::int64_t>> internal(
      static_cast<size_t>(part.num_regions));
  {
    std::vector<std::int64_t> count(static_cast<size_t>(part.num_regions), 0);
    for (const graph::Edge& e : edges) {
      const int r = part.region[e.from];
      if (r == part.region[e.to] && kept(e)) ++count[static_cast<size_t>(r)];
    }
    for (int r = 0; r < part.num_regions; ++r)
      internal[static_cast<size_t>(r)].reserve(
          static_cast<size_t>(count[static_cast<size_t>(r)]));
  }
  std::vector<std::vector<std::int64_t>> in_slots(
      static_cast<size_t>(part.num_regions)),
      out_slots(static_cast<size_t>(part.num_regions));
  for (std::int64_t e = 0; e < m; ++e) {
    const int ru = part.region[g.edge(e).from];
    if (ru == part.region[g.edge(e).to] && kept(g.edge(e)))
      internal[static_cast<size_t>(ru)].push_back(e);
  }
  for (size_t slot = 0; slot < part.cut_arcs.size(); ++slot) {
    const graph::Edge& e = g.edge(part.cut_arcs[slot]);
    if (!kept(e)) continue;
    out_slots[static_cast<size_t>(part.region[e.from])].push_back(
        static_cast<std::int64_t>(slot));
    in_slots[static_cast<size_t>(part.region[e.to])].push_back(
        static_cast<std::int64_t>(slot));
  }

  std::vector<double> flow(static_cast<size_t>(m), 0.0);
  std::vector<double> cut_out(part.cut_arcs.size(), 0.0);
  std::vector<double> cut_in(part.cut_arcs.size(), 0.0);
  std::vector<long long> region_ops(static_cast<size_t>(part.num_regions), 0);

  const double s_supply = std::max(source_out, 1.0);
  const double t_drain = std::max(sink_in, 1.0);

  // Gathers region r's slice, solves it (push-relabel, or Dinic on the
  // direct rung of the ladder below) and scatters its votes into the
  // global arrays. Regions own disjoint slots (a cut arc's tail vote
  // belongs to the tail region only, the head vote to the head region), so
  // concurrent workers never touch the same element. The slice and its
  // residual die with the call: at most one region per worker is alive.
  const auto solve_region = [&](int r, bool direct) {
    // Chaos battery: "shard.region:throw" / ":delay" faults the region
    // build, which the failure isolation below catches like any
    // region-solve failure — the ladder then retries.
    util::FaultInjector::instance().fire("shard.region", &cancel);
    const size_t ri = static_cast<size_t>(r);
    const auto& verts = part.vertices[ri];
    const int nr = static_cast<int>(verts.size()); // S_r = nr, T_r = nr + 1
    const auto local = [&](int v) { return local_id(verts, v); };
    std::vector<graph::Edge> slice;
    slice.reserve(internal[ri].size() + in_slots[ri].size() +
                  out_slots[ri].size() + 2);
    for (const std::int64_t e : internal[ri])
      slice.push_back({local(g.edge(e).from), local(g.edge(e).to),
                       g.edge(e).capacity});
    for (const std::int64_t slot : in_slots[ri]) {
      const graph::Edge& e = g.edge(part.cut_arcs[static_cast<size_t>(slot)]);
      slice.push_back({nr, local(e.to), e.capacity});
    }
    for (const std::int64_t slot : out_slots[ri]) {
      const graph::Edge& e = g.edge(part.cut_arcs[static_cast<size_t>(slot)]);
      slice.push_back({local(e.from), nr + 1, e.capacity});
    }
    if (part.region[s] == r) slice.push_back({nr, local(s), s_supply});
    if (part.region[t] == r) slice.push_back({local(t), nr + 1, t_drain});

    flow::detail::Residual rr(nr + 2, slice);
    long long ops = 0;
    if (direct)
      flow::detail::dinic_augment(rr, nr, nr + 1, ops, cancel);
    else
      ops = flow::detail::push_relabel_augment(rr, nr, nr + 1, cancel);

    size_t j = 0;
    const auto vote = [&] {
      const double f = slice[j].capacity - rr.cap[2 * j];
      ++j;
      return f;
    };
    for (const std::int64_t e : internal[ri])
      flow[static_cast<size_t>(e)] = vote();
    for (const std::int64_t slot : in_slots[ri])
      cut_in[static_cast<size_t>(slot)] = vote();
    for (const std::int64_t slot : out_slots[ri])
      cut_out[static_cast<size_t>(slot)] = vote();
    region_ops[ri] = ops;
  };

  // Workers claim regions from a shared counter; a failed region keeps its
  // error text for the ladder and never fails the others.
  std::vector<std::string> failure(static_cast<size_t>(part.num_regions));
  std::vector<char> failed(static_cast<size_t>(part.num_regions), 0);
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (int r = next.fetch_add(1); r < part.num_regions;
         r = next.fetch_add(1)) {
      try {
        cancel.check();
        solve_region(r, /*direct=*/false);
      } catch (const std::exception& e) {
        failed[static_cast<size_t>(r)] = 1;
        failure[static_cast<size_t>(r)] = e.what();
      }
    }
  };
  BatchOptions bo;
  bo.num_threads = options_.num_threads;
  bo.deterministic = options_.deterministic;
  rep.threads_used = BatchEngine(bo).resolve_threads(part.num_regions);
  if (rep.threads_used <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(rep.threads_used));
    for (int w = 0; w < rep.threads_used; ++w) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  // Degradation ladder, region rung: a failed region solve no longer fails
  // the whole sharded solve. Each failed region is re-solved with
  // push-relabel up to region_retries times, then directly with Dinic;
  // only when the direct rung fails too (or the solve is being cancelled)
  // does the failure propagate.
  for (int r = 0; r < part.num_regions; ++r) {
    if (!failed[static_cast<size_t>(r)]) continue;
    cancel.check(); // a cancelled solve must not burn retries
    bool recovered = false;
    for (int a = 0; a < options_.region_retries && !recovered; ++a) {
      ++rep.region_retries;
      try {
        solve_region(r, /*direct=*/false);
        recovered = true;
      } catch (const util::CancelledError&) {
        throw;
      } catch (const std::exception&) {
        // retry again, or fall through to the direct rung
      }
    }
    if (recovered) continue;
    ++rep.region_direct_solves;
    try {
      solve_region(r, /*direct=*/true);
    } catch (const util::CancelledError&) {
      throw;
    } catch (const std::exception& e) {
      throw std::runtime_error(
          "ShardedSolver: region " + std::to_string(r) + " solve failed: " +
          failure[static_cast<size_t>(r)] +
          " (direct re-solve also failed: " + e.what() + ")");
    }
  }
  for (const long long ops : region_ops) rep.region_operations += ops;
  rep.region_seconds = seconds_since(region_t0);
  cancel.check();

  // --- Stitch + conservation repair -------------------------------------
  // A cut arc carries the smaller of its two regions' votes: never above
  // capacity, and never more than either endpoint region routed. The
  // resulting pseudo-flow is capacity-feasible but violates conservation at
  // boundary vertices wherever the votes were clipped, which the phase
  // repair drains (flow/residual.hpp repair_stitch).
  const auto stitch_t0 = Clock::now();
  for (size_t slot = 0; slot < part.cut_arcs.size(); ++slot)
    flow[static_cast<size_t>(part.cut_arcs[slot])] =
        std::min(cut_out[slot], cut_in[slot]);
  cut_out = std::vector<double>();
  cut_in = std::vector<double>();

  flow::detail::Residual r(n, edges, flow);
  flow = std::vector<double>();
  // Chaos battery: "shard.stitch:diverge" forges a failed repair.
  const bool repaired =
      !util::FaultInjector::instance().take(
          "shard.stitch", util::FaultInjector::Action::kDiverge) &&
      flow::detail::repair_stitch(r, s, t, rep.repair_operations, cancel);
  rep.stitched_value = repaired ? r.flow_value_at(edges, s) : -1.0;
  if (rep.stitched_value < 0.0) {
    // Degenerate stitch: the repair failed (a numerically degenerate
    // carry). Drop it entirely — exactness is untouched, refinement just
    // starts from zero flow (a direct solve).
    r = flow::detail::Residual(n, edges);
    rep.stitched_value = 0.0;
    rep.stitch_dropped = true;
  }
  rep.stitch_seconds = seconds_since(stitch_t0);

  // --- Exact refinement on the full residual -----------------------------
  const auto refine_t0 = Clock::now();
  rep.refine_operations = refine(r, s, t, rep.upper_bound - rep.stitched_value,
                                 cancel, result.metrics);
  rep.refine_seconds = seconds_since(refine_t0);

  result.flow_value = r.flow_value_at(edges, s);
  result.edge_flow = r.edge_flows(edges);
  result.operations =
      rep.region_operations + rep.repair_operations + rep.refine_operations;
  result.metrics.fallback_region_retries = rep.region_retries;
  result.metrics.fallback_region_direct = rep.region_direct_solves;
  rep.flow_value = result.flow_value;
  rep.refined_added = result.flow_value - rep.stitched_value;
  return result;
}

} // namespace aflow::core
