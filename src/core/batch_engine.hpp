// BatchEngine: executes a batch of max-flow instances across a fixed pool of
// worker threads with per-instance timing and failure isolation. This is the
// serving seam of the roadmap: everything that needs "many instances, fast"
// (benches, the CLI, future sharding/async layers) goes through here.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/solver.hpp"
#include "graph/network.hpp"

namespace aflow::core {

struct BatchOptions {
  /// Registry name of the backend to run.
  std::string solver = "dinic";
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Run everything in-order on the calling thread (implies num_threads = 1).
  /// Results are identical either way — this exists so tests and debugging
  /// sessions get reproducible scheduling and clean stack traces.
  bool deterministic = false;
  /// Run flow::check_flow on every solution; a violation marks the instance
  /// failed instead of silently returning an infeasible flow.
  bool validate = false;
  /// Cooperative cancellation for the whole batch: checked at every
  /// work-item claim and threaded into each solve. A tripped token fails
  /// the remaining instances with a retryable cancelled/deadline outcome
  /// (the never-throws-per-instance contract holds; in-flight solves unwind
  /// at their own iteration boundaries).
  CancelToken cancel;
};

/// Outcome of one instance within a batch.
struct InstanceOutcome {
  int index = -1;      // position in the input batch
  bool ok = false;
  std::string error;   // set when !ok (exception text or validation failure)
  /// Structured classification of `error` (code / retryable / typed
  /// detail), captured at the catch site so the serving layer can report
  /// machine-readable failures. Meaningful only when !ok.
  ErrorInfo error_info;
  flow::MaxFlowResult result;
  double seconds = 0.0; // solve wall-clock for this instance
};

struct BatchReport {
  /// One entry per input instance, in input order.
  std::vector<InstanceOutcome> outcomes;
  double wall_seconds = 0.0;
  int threads_used = 1;
  int failed = 0;
  /// Sum of flow values over successful instances.
  double total_flow = 0.0;
  /// Backend telemetry summed over successful instances (zeros for
  /// backends that do not report it). metrics.warm_started is true when
  /// any instance warm-started; warm_started_instances counts them.
  flow::SolveMetrics metrics;
  int warm_started_instances = 0;
};

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  /// Solves every instance; never throws on per-instance failure (malformed
  /// instance, solver exception) — those surface as `ok == false` outcomes.
  /// Throws std::invalid_argument when the solver name is unknown.
  BatchReport run(const std::vector<graph::FlowNetwork>& instances) const;

  /// Like run(), but executes on caller-provided solver instances (worker
  /// `t` uses `workers[t]`; `workers.size()` bounds the thread count,
  /// further clamped by the usual resolve_threads rules) instead of
  /// creating fresh ones from the registry. This is the serving entry
  /// point: a long-running process (core::ServeEngine) keeps its solvers —
  /// and therefore their ReusePools and ordering caches — alive across
  /// calls, which is what lets a request stream warm-start against earlier
  /// requests. `options().solver` is informational only on this path.
  BatchReport run(const std::vector<graph::FlowNetwork>& instances,
                  std::span<const SolverPtr> workers) const;

  /// Like the worker-span overload, but fans the whole batch into ONE
  /// shared solver instance from up to `threads` concurrent workers. This
  /// leans on the ISolver contract (solve must be concurrency-safe on one
  /// instance) and is the multi-session serving path: every session of a
  /// core::ServeEngine bank drives the same solver, so cross-instance
  /// assets (la::OrderingCache, core::ReusePool) are shared by everyone
  /// rather than partitioned per worker.
  BatchReport run(const std::vector<graph::FlowNetwork>& instances,
                  const SolverPtr& shared_solver, int threads) const;

  /// Single-step delta entry: solves the post-edit `net` through
  /// solver->solve_delta(net, delta, prior) with the engine's usual timing,
  /// optional validation, and failure isolation, as a one-instance outcome
  /// (index 0; the caller re-indexes when threading a stream).
  InstanceOutcome run_delta(const graph::FlowNetwork& net,
                            const flow::CapacityDelta& delta,
                            const flow::MaxFlowResult& prior,
                            const SolverPtr& solver) const;

  /// Reconfiguration-stream entry: outcome 0 solves `base` from scratch;
  /// outcome k >= 1 applies deltas[k-1] to the running network and
  /// re-solves it with the previous successful result as the prior. A
  /// stream is inherently sequential (each step consumes its predecessor),
  /// so it runs on the calling thread regardless of num_threads; a failed
  /// step is isolated like any batch failure and the next step's prior is
  /// the last successful result (an unusable prior just rides the
  /// backend's from-scratch fallback). Delta traffic shows up in the
  /// report's summed metrics (delta_solves / delta_fallbacks /
  /// edges_touched).
  BatchReport run_delta(const graph::FlowNetwork& base,
                        std::span<const flow::CapacityDelta> deltas,
                        const SolverPtr& solver) const;

  const BatchOptions& options() const { return options_; }

  /// The thread count `run` will actually use for `n` instances.
  int resolve_threads(int n) const;

 private:
  BatchOptions options_;
};

} // namespace aflow::core
