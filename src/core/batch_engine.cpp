#include "core/batch_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.hpp"
#include "util/fault_injector.hpp"

namespace aflow::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The one outcome runner behind every entry point: cancellation check,
/// instance validation, `solve()`, the optional flow::check_flow audit and
/// error classification, timed into `out` (index left to the caller).
template <typename Solve>
void run_outcome(InstanceOutcome& out, const BatchOptions& options,
                 const graph::FlowNetwork& net, Solve&& solve) {
  const auto t0 = Clock::now();
  try {
    options.cancel.check();
    net.validate();
    out.result = solve();
    if (options.validate) {
      const std::string err = flow::check_flow(net, out.result);
      if (!err.empty()) throw std::runtime_error("infeasible flow: " + err);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.error_info = classify_error(e);
  }
  out.seconds = seconds_since(t0);
}

void aggregate_outcomes(BatchReport& report) {
  for (const InstanceOutcome& out : report.outcomes) {
    if (out.ok) {
      report.total_flow += out.result.flow_value;
      report.metrics += out.result.metrics;
      if (out.result.metrics.warm_started) ++report.warm_started_instances;
    } else {
      ++report.failed;
    }
  }
}
} // namespace

BatchEngine::BatchEngine(BatchOptions options) : options_(std::move(options)) {}

int BatchEngine::resolve_threads(int n) const {
  if (options_.deterministic) return 1;
  int threads = options_.num_threads;
  if (threads <= 0)
    threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, std::min(threads, std::max(1, n)));
}

BatchReport BatchEngine::run(
    const std::vector<graph::FlowNetwork>& instances) const {
  // Fail fast on an unknown solver before spinning up workers. Each worker
  // owns a solver instance, so backends never share state.
  const int threads =
      resolve_threads(static_cast<int>(instances.size()));
  std::vector<SolverPtr> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t)
    workers.push_back(SolverRegistry::instance().create(options_.solver));
  return run(instances, workers);
}

BatchReport BatchEngine::run(const std::vector<graph::FlowNetwork>& instances,
                             const SolverPtr& shared_solver,
                             int threads) const {
  if (!shared_solver)
    throw std::invalid_argument("BatchEngine::run: shared solver is null");
  const std::vector<SolverPtr> workers(
      static_cast<size_t>(std::max(1, threads)), shared_solver);
  return run(instances, workers);
}

BatchReport BatchEngine::run(const std::vector<graph::FlowNetwork>& instances,
                             std::span<const SolverPtr> workers) const {
  if (workers.empty())
    throw std::invalid_argument("BatchEngine::run: workers must be non-empty");
  BatchReport report;
  const int n = static_cast<int>(instances.size());
  report.outcomes.resize(n);
  report.threads_used = std::min(resolve_threads(n),
                                 std::max(1, static_cast<int>(workers.size())));

  const auto batch_t0 = Clock::now();

  // Work is claimed from a shared atomic counter, and every worker writes
  // only its claimed slots of the pre-sized outcome vector.
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    const SolverPtr& solver = workers[t];
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      InstanceOutcome& out = report.outcomes[i];
      out.index = i;
      run_outcome(out, options_, instances[i], [&] {
        util::FaultInjector::instance().fire("batch.solve", &options_.cancel);
        return solver->solve(instances[i], options_.cancel);
      });
    }
  };

  if (report.threads_used <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(report.threads_used);
    for (int t = 0; t < report.threads_used; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}

InstanceOutcome BatchEngine::run_delta(const graph::FlowNetwork& net,
                                       const flow::CapacityDelta& delta,
                                       const flow::MaxFlowResult& prior,
                                       const SolverPtr& solver) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_delta: solver is null");
  InstanceOutcome out;
  out.index = 0;
  run_outcome(out, options_, net, [&] {
    return solver->solve_delta(net, delta, prior, options_.cancel);
  });
  return out;
}

BatchReport BatchEngine::run_delta(const graph::FlowNetwork& base,
                                   std::span<const flow::CapacityDelta> deltas,
                                   const SolverPtr& solver) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_delta: solver is null");
  BatchReport report;
  report.threads_used = 1;
  const auto batch_t0 = Clock::now();

  graph::FlowNetwork net = base;
  flow::MaxFlowResult prior;

  InstanceOutcome first;
  first.index = 0;
  run_outcome(first, options_, net,
              [&] { return solver->solve(net, options_.cancel); });
  if (first.ok) prior = first.result;
  report.outcomes.push_back(std::move(first));

  for (size_t k = 0; k < deltas.size(); ++k) {
    InstanceOutcome out;
    try {
      flow::CapacityDelta d = deltas[k]; // apply() records old capacities
      d.apply(net);
      out = run_delta(net, d, prior, solver);
    } catch (const std::exception& e) {
      // A bad edit (index / capacity) fails this step. apply() is
      // all-or-nothing, so the network still holds the previous step's
      // state exactly and the stream continues from it.
      out.ok = false;
      out.error = e.what();
      out.error_info = classify_error(e);
    }
    out.index = static_cast<int>(k) + 1;
    if (out.ok) prior = out.result;
    report.outcomes.push_back(std::move(out));
  }

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}

} // namespace aflow::core
