// Sharded solve of one huge instance (DESIGN.md "Sharded solve"):
// k-way region partition -> parallel push-relabel solves of per-region
// slices of the edge list -> boundary stitch -> conservation repair -> exact refinement
// on the full residual, with a valid optimality bound reported at every
// stage. The returned flow value is exactly the max flow: the refinement
// pass (a warm push-relabel budgeted by upper_bound - stitched_value, with
// a certificate-checked escalation) augments the stitched feasible flow to
// maximality regardless of how good the stitch was, so partition quality
// only moves work between the parallel region stage and the sequential
// refinement stage, never correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "graph/csr.hpp"

namespace aflow::core {

struct ShardOptions {
  /// Region count k; clamped to the vertex count. Below 2 the solve
  /// degenerates to a direct residual solve (no partition machinery).
  int shards = 4;
  /// Worker threads for region solves; 0 picks hardware concurrency.
  int num_threads = 0;
  /// In-order single-thread region solves (clean traces; results are
  /// bit-identical either way since regions write disjoint slots).
  bool deterministic = false;
  /// Partition seed (arch::partition_regions).
  std::uint64_t seed = 1;
  /// Degradation ladder, region rung: a failed (or fault-injected) region
  /// solve is retried with push-relabel up to this many times; if every
  /// retry fails too, the region is re-solved directly on the calling
  /// thread with Dinic. Both recoveries are reported
  /// (ShardReport::region_retries / region_direct_solves and the
  /// fallback_region_* SolveMetrics counters); only when the direct rung
  /// itself fails does the solve throw.
  int region_retries = 1;
};

/// Stage-by-stage telemetry of one sharded solve. upper_bound >= flow_value
/// >= stitched_value always; flow_value == the direct solver's value.
struct ShardReport {
  int regions = 0;
  std::vector<int> region_vertices; // per-region vertex counts
  std::int64_t cut_arcs = 0;
  double cut_capacity = 0.0;
  /// Pre-refinement optimality bound: min(trivial terminal bound, max flow
  /// of the region-contracted graph). Contraction only relaxes
  /// conservation, so this can never undershoot the true max flow.
  double upper_bound = 0.0;
  double stitched_value = 0.0; // feasible flow value after stitch + repair
  /// The stitch was unusable (repair failed, or it left a negative source
  /// carry) and was dropped: stitched_value is 0 and refinement ran from
  /// the zero flow with budget upper_bound.
  bool stitch_dropped = false;
  double refined_added = 0.0;  // flow added by the exact refinement pass
  double flow_value = 0.0;
  long long region_operations = 0;
  long long repair_operations = 0;
  long long refine_operations = 0; // pushes + relabels of the refinement
  double partition_seconds = 0.0;
  double region_seconds = 0.0;
  double stitch_seconds = 0.0;
  double refine_seconds = 0.0;
  int threads_used = 1;
  /// Degradation-ladder traffic (see ShardOptions::region_retries).
  int region_retries = 0;
  int region_direct_solves = 0;
};

class ShardedSolver final : public ISolver {
 public:
  explicit ShardedSolver(ShardOptions options = {});

  const std::string& name() const override { return name_; }
  SolverCapabilities capabilities() const override;

  using ISolver::solve;

  /// FlowNetwork entry (ISolver contract): snapshots into a CsrGraph and
  /// runs solve_csr. Edge order is preserved, so edge_flow lines up.
  flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                            const CancelToken& cancel) const override;

  /// The native huge-instance entry: solves a CSR view in place (streamed
  /// from disk via graph::read_dimacs_stream) without ever materialising
  /// the full FlowNetwork. `cancel` is checked at every stage boundary and
  /// threaded into the region solves, the conservation repair, and the
  /// refinement pass.
  flow::MaxFlowResult solve_csr(const graph::CsrGraph& g,
                                ShardReport* report = nullptr,
                                const CancelToken& cancel = {}) const;

  const ShardOptions& options() const { return options_; }

 private:
  std::string name_ = "sharded";
  ShardOptions options_;
};

} // namespace aflow::core
