// Workload edit_stream: two closed-loop TCP sessions reconfiguring and
// re-solving through the serving front (push_relabel on a grid, Dinic on a
// sparse R-MAT graph), 1% of edges edited per step.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <thread>

#include "core/batch_engine.hpp"
#include "core/registry.hpp"
#include "core/sharded_solver.hpp"
#include "graph/csr.hpp"
#include "flow/maxflow.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace af = aflow;

namespace {

constexpr double kEditFraction = 0.01;
/// Set-ups timed before the window, and as many again after it.
constexpr int kSetupRepeats = 10;
/// The window runs in this many segments, with a host probe reading
/// between any two; the sharded revisions are solved once after each.
constexpr int kSegments = 30;
/// Reference grid revisions timed by the sharded route, kShardStride steps
/// apart.
constexpr int kShardRevisions = 2;
constexpr long long kShardStride = 100;
/// rel_error samples the sharded stitch gap of the reference grid stream on
/// every kGapStride-th revision below kGapSteps.
constexpr long long kGapSteps = 500;
constexpr long long kGapStride = 10;

std::vector<SessionPlan> plans_for(const RunConfig& cfg) {
  const std::string grid_side = cfg.smoke ? "8" : "31";
  const std::string rmat_n = cfg.smoke ? "60" : "1000";
  std::vector<SessionPlan> plans;
  plans.push_back(make_plan(
      "grid", "grid:side=" + grid_side + ",seed=" +
                  std::to_string(derive_seed(cfg.seed, 11) % 1000000),
      "push_relabel", true));
  plans.push_back(make_plan(
      "rmat", "rmat_sparse:n=" + rmat_n + ",degree=8,seed=" +
                  std::to_string(derive_seed(cfg.seed, 12) % 1000000),
      "dinic", true));
  return plans;
}

std::vector<EditSource> sources_for(const RunConfig& cfg,
                                    const std::vector<SessionPlan>& plans) {
  std::vector<EditSource> out;
  for (size_t s = 0; s < plans.size(); ++s)
    out.emplace_back(plans[s], derive_seed(cfg.seed, 100 + s), kEditFraction,
                     EditKind::kDigital);
  return out;
}

/// Relative gap of the sharded route's stitched (pre-refinement) value to
/// the exact flow on `net`: the error of the approximate answer a sharded
/// solve reports before its exact refinement.
double stitch_gap(const af::graph::FlowNetwork& net) {
  af::core::ShardOptions so;
  so.shards = 4;
  so.deterministic = true;
  af::core::ShardReport rep;
  const double flow =
      af::core::ShardedSolver(so).solve_csr(af::graph::CsrGraph::from_network(net), &rep)
          .flow_value;
  return (flow - rep.stitched_value) / std::max(flow, 1e-12);
}

/// rel_error of the digital stream: the median stitch gap of 4-region
/// sharded solves over the reference seed's grid revisions (the sharded
/// route's approximate answer before its exact refinement).
double reference_stitch_gap(const RunConfig& cfg) {
  RunConfig ref = cfg;
  ref.seed = kReferenceSeed;
  const std::vector<SessionPlan> plans = plans_for(ref);
  EditSource steps = sources_for(ref, plans).front();
  af::graph::FlowNetwork net = plans.front().base;
  std::vector<double> gaps;
  const long long count = cfg.smoke ? 10 : kGapSteps;
  for (long long k = 0; k < count; ++k) {
    apply_step(steps.next(), net);
    if (k % kGapStride == 0) gaps.push_back(stitch_gap(net));
  }
  return median(gaps);
}

/// Replays every served step from scratch with push_relabel and checks the
/// served flow of each revision against it, and that the session's own
/// solver answered. The
/// revisions are split into contiguous chunks checked in parallel (outside
/// any timed window); each chunk regenerates the stream up to its first
/// step.
void verify_steps(const std::vector<SessionPlan>& plans, const FrontPass& pass,
                  const RunConfig& cfg, Result& res) {
  struct Chunk {
    size_t session;
    size_t begin, end;
    long long first_op;
    std::vector<std::string> failures;
  };
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<Chunk> chunks;
  long long op = 0;
  for (size_t s = 0; s < plans.size(); ++s) {
    const size_t n = pass.flows[s].size();
    const size_t per = std::max<size_t>(1, (n + threads - 1) / threads);
    for (size_t b = 0; b < n; b += per)
      chunks.push_back({s, b, std::min(n, b + per), op + static_cast<long long>(b), {}});
    op += static_cast<long long>(n);
  }
  auto check = [&](Chunk& c) {
    EditSource steps = sources_for(cfg, plans)[c.session];
    af::graph::FlowNetwork net = plans[c.session].base;
    for (size_t k = 0; k < c.end; ++k) {
      apply_step(steps.next(), net);
      if (k < c.begin) continue;
      double served = pass.flows[c.session][k];
      if (c.first_op + static_cast<long long>(k - c.begin) == cfg.corrupt_op) served += 1.0;
      const double exact = exact_flow(net);
      if (!same_flow(served, exact))
        c.failures.push_back(plans[c.session].label + " step " + std::to_string(k) +
                             ": served " + std::to_string(served) + " != exact " +
                             std::to_string(exact));
      if (!pass.native[c.session][k])
        c.failures.push_back(plans[c.session].label + " step " + std::to_string(k) +
                             ": answered by another solver");
    }
  };
  for (size_t next = 0; next < chunks.size(); next += threads) {
    std::vector<std::thread> pool;
    for (size_t c = next; c < std::min(chunks.size(), next + threads); ++c)
      pool.emplace_back(check, std::ref(chunks[c]));
    for (auto& t : pool) t.join();
  }
  for (Chunk& c : chunks)
    for (const auto& f : c.failures) res.fail(f);
}

void front_counters(LiveFront& live, Result& res, double& pauses, double& written) {
  const std::string stats = live.clients.front()->call("stats");
  res.check(response_ok(stats), "stats: " + stats.substr(0, 200));
  pauses = response_number(stats, "backpressure_pauses");
  written = response_number(stats, "responses_written");
}

void note_threads(Result& res, size_t sessions) {
  res.note("threads", "{\"front_io\":" + std::to_string(kFrontIoThreads) +
                          ",\"front_workers\":" + std::to_string(kFrontWorkers) +
                          ",\"client_connections\":" + std::to_string(sessions) +
                          ",\"generator_threads\":1,\"sharded_region_threads\":1}");
}

void untraced(const RunConfig& cfg, Result& res) {
  const std::vector<SessionPlan> plans = plans_for(cfg);
  const ShardedRevisions sharded = reference_revisions(cfg);
  const HostProbe probe;
  std::vector<double> setups;
  LiveFront live = open_front_timed(plans, kSetupRepeats, probe, res, setups);
  std::vector<EditSource> sources = sources_for(cfg, plans);
  StopRule stop;
  stop.seconds = cfg.seconds / kSegments;
  stop.min_steps = cfg.smoke ? 5 : 100;
  FrontPass pass;
  // Segment k (its steps, then the sharded revisions) lies between probe
  // readings k and k + 1.
  std::vector<double> p50s, rates, probes{probe.ms()};
  std::vector<std::vector<double>> sharded_ms;
  for (int k = 0; k < kSegments; ++k) {
    const Segment seg = run_segment(live, sources, stop, res, pass);
    p50s.push_back(seg.p50_ms);
    rates.push_back(seg.steps_per_s);
    sharded.solve_all(res, sharded_ms, static_cast<size_t>(k));
    probes.push_back(probe.ms());
  }
  // Read before the checks below, whose worker threads add allocator arenas.
  const double rss_mb = peak_rss_mb();
  live = LiveFront{};
  open_front_timed(plans, kSetupRepeats, probe, res, setups);
  verify_steps(plans, pass, cfg, res);

  std::vector<std::vector<double>> sharded_nominal;
  for (const auto& revision : sharded_ms)
    sharded_nominal.push_back(at_nominal(revision, probes, false));
  res.metric("setup_s", median(setups), "s");
  res.metric("op_ms_p50", median(at_nominal(p50s, probes, false)), "ms");
  res.metric("ops_per_s", median(at_nominal(rates, probes, true)), "1/s");
  res.metric("sharded_ms_p50", median_of_medians(sharded_nominal), "ms");
  res.metric("peak_rss_mb", rss_mb, "MB");
  res.metric("rel_error", reference_stitch_gap(cfg), "ratio");
  res.note("steps", "[" + std::to_string(pass.rtt_ms[0].size()) + "," +
                        std::to_string(pass.rtt_ms[1].size()) + "]");
  res.note("samples", "{\"segment_p50_ms\":" + json_array(p50s) +
                          ",\"segment_steps_per_s\":" + json_array(rates) +
                          ",\"sharded_ms\":" + json_array(sharded_ms) +
                          ",\"probe_ms\":" + json_array(probes) +
                          ",\"setup_s_nominal\":" + json_array(setups) + "}");
  note_threads(res, plans.size());
}

/// Per-step durations of one span name, keyed by step id.
std::map<long long, double> by_step(const Trace& trace, const std::string& name) {
  std::map<long long, double> out;
  for (const auto& [step, ms] : trace.durations(name)) out[step] += ms;
  return out;
}

/// The values of a step-keyed map, in step order.
std::vector<double> pooled_values(const std::map<long long, double>& by_step) {
  std::vector<double> out;
  for (const auto& [step, v] : by_step) out.push_back(v);
  return out;
}

/// p50 over steps of a[step] - b[step] (steps present in both).
double paired_self_p50(const std::map<long long, double>& a,
                       const std::map<long long, double>& b) {
  std::vector<double> d;
  for (const auto& [step, ms] : a) {
    const auto it = b.find(step);
    if (it != b.end()) d.push_back(ms - it->second);
  }
  return median(d);
}

void traced(const RunConfig& cfg, Result& res) {
  const std::vector<SessionPlan> plans = plans_for(cfg);
  Trace trace(true);
  // Layer 0, the front, traced: a closed-loop pass for 15% of the window;
  // the replays below take the rest of the run.
  LiveFront live = open_front(plans, res);
  std::vector<EditSource> sources = sources_for(cfg, plans);
  StopRule stop;
  stop.seconds = cfg.seconds * 0.15;
  stop.min_steps = cfg.smoke ? 5 : 100;
  FrontPass pass;
  run_front(live, sources, stop, res, trace, pass);
  double pauses = 0.0, written = 0.0;
  front_counters(live, res, pauses, written);
  live = LiveFront{};
  const TraceOverhead overhead =
      tracing_overhead(plans, pass, [&] { return sources_for(cfg, plans); }, res);
  verify_steps(plans, pass, cfg, res);

  // Layer 1: ServeSession::handle in process, same lines, no transport.
  const std::vector<long long> counts = step_counts(pass);
  replay_sessions(plans, sources_for(cfg, plans), counts, res, trace);

  // Layers 2 and 3: BatchEngine::run_delta (around CapacityDelta::apply),
  // then ISolver::solve_delta and a scratch ISolver::solve per revision.
  std::map<std::string, af::flow::SolveMetrics> delta_metrics;
  std::map<std::string, double> ops;
  std::map<std::string, long long> steps_of;
  std::map<std::string, std::vector<double>> speedups;
  for (size_t s = 0; s < plans.size(); ++s) {
    const SessionPlan& plan = plans[s];
    const af::core::SolverPtr solver =
        af::core::SolverRegistry::instance().create(plan.solver);
    af::core::BatchOptions bo;
    bo.solver = plan.solver;
    const af::core::BatchEngine engine(bo);

    af::graph::FlowNetwork net = plan.base;
    af::flow::MaxFlowResult prior = solver->solve(net);
    EditSource batch_steps = sources_for(cfg, plans)[s];
    const int root_b = trace.begin("batch.replay", -1);
    for (long long k = 0; k < counts[s]; ++k) {
      const long long id = step_id(static_cast<int>(s), k);
      const Step step = batch_steps.next();
      const int sp_apply = trace.begin("flow.delta.apply", id, root_b);
      const af::flow::CapacityDelta delta = apply_step(step, net);
      trace.end(sp_apply);
      const int sp = trace.begin("batch.run_delta", id, root_b);
      af::core::InstanceOutcome out = engine.run_delta(net, delta, prior, solver);
      trace.end(sp);
      res.check(out.ok, plan.label + " run_delta step " + std::to_string(k) + ": " + out.error);
      prior = std::move(out.result);
    }
    trace.end(root_b);

    net = plan.base;
    prior = solver->solve(net);
    EditSource solver_steps = sources_for(cfg, plans)[s];
    // Delta solves back to back, as the serve bank runs them; the scratch
    // solves follow in a pass of their own, so neither evicts the other's
    // working set between steps.
    std::vector<double> delta_flows;
    int root_s = trace.begin("solver.replay", -1);
    for (long long k = 0; k < counts[s]; ++k) {
      const af::flow::CapacityDelta delta = apply_step(solver_steps.next(), net);
      const int sp = trace.begin("solver.solve_delta", step_id(static_cast<int>(s), k), root_s);
      af::flow::MaxFlowResult r = solver->solve_delta(net, delta, prior);
      trace.end(sp);
      delta_flows.push_back(r.flow_value);
      delta_metrics[plan.solver] += r.metrics;
      ops[plan.solver] += static_cast<double>(r.operations);
      ++steps_of[plan.solver];
      prior = std::move(r);
    }
    trace.end(root_s);
    net = plan.base;
    EditSource scratch_steps = sources_for(cfg, plans)[s];
    root_s = trace.begin("solver.scratch_replay", -1);
    for (long long k = 0; k < counts[s]; ++k) {
      apply_step(scratch_steps.next(), net);
      const int sp = trace.begin("solver.scratch", step_id(static_cast<int>(s), k), root_s);
      const af::flow::MaxFlowResult scratch = solver->solve(net);
      trace.end(sp);
      const double exact =
          plan.solver == "push_relabel" ? scratch.flow_value : exact_flow(net);
      res.check(same_flow(delta_flows[static_cast<size_t>(k)], exact) &&
                    same_flow(scratch.flow_value, exact),
                plan.label + " solver delta step " + std::to_string(k));
    }
    trace.end(root_s);
    const auto delta_ms = by_step(trace, "solver.solve_delta");
    const auto scratch_ms = by_step(trace, "solver.scratch");
    for (const auto& [step, ms] : delta_ms)
      if (step / 1000000 == static_cast<long long>(s) && ms > 0.0)
        speedups[plan.solver].push_back(scratch_ms.at(step) / ms);
  }

  // Pair each step's spans across the layer replays into self times.
  const auto front = by_step(trace, "front.step");
  const auto reconf = by_step(trace, "session.reconfigure");
  const auto solve = by_step(trace, "session.solve");
  std::map<long long, double> handled = reconf;
  for (auto& [step, ms] : handled) ms += solve.count(step) ? solve.at(step) : 0.0;
  const auto run_delta = by_step(trace, "batch.run_delta");
  const auto solve_delta = by_step(trace, "solver.solve_delta");
  auto per_solver = [&](const std::string& span, size_t s) {
    std::vector<double> v;
    for (const auto& [step, ms] : by_step(trace, span))
      if (step / 1000000 == static_cast<long long>(s)) v.push_back(ms);
    return median(v);
  };
  auto per_step = [&](const std::string& solver, double total) {
    return total / static_cast<double>(std::max(1LL, steps_of[solver]));
  };
  af::flow::SolveMetrics all_delta = delta_metrics["push_relabel"];
  all_delta += delta_metrics["dinic"];
  const double engaged = static_cast<double>(all_delta.delta_solves) /
                         static_cast<double>(std::max(
                             1LL, all_delta.delta_solves + all_delta.delta_fallbacks));

  res.metric("core.serve_front.rtt_overhead_ms_p50", paired_self_p50(front, handled), "ms");
  res.metric("core.serve_session.reconfigure_ms_p50", median(pooled_values(reconf)), "ms");
  res.metric("core.serve_session.solve_ms_p50", median(pooled_values(solve)), "ms");
  res.metric("core.serve_session.solve_self_ms_p50", paired_self_p50(solve, run_delta), "ms");
  res.metric("core.batch_engine.run_delta_self_ms_p50",
             paired_self_p50(run_delta, solve_delta), "ms");
  res.metric("flow.delta.apply_ms_p50",
             median(pooled_values(by_step(trace, "flow.delta.apply"))), "ms");
  res.metric("flow.push_relabel.delta_ms_p50", per_solver("solver.solve_delta", 0), "ms");
  res.metric("flow.dinic.delta_ms_p50", per_solver("solver.solve_delta", 1), "ms");
  res.metric("flow.push_relabel.scratch_ms_p50", per_solver("solver.scratch", 0), "ms");
  res.metric("flow.dinic.scratch_ms_p50", per_solver("solver.scratch", 1), "ms");
  res.metric("flow.push_relabel.delta_speedup", median(speedups["push_relabel"]), "x");
  res.metric("flow.dinic.delta_speedup", median(speedups["dinic"]), "x");
  res.metric("flow.push_relabel.ops_per_step", per_step("push_relabel", ops["push_relabel"]), "count");
  res.metric("flow.dinic.ops_per_step", per_step("dinic", ops["dinic"]), "count");
  res.metric("flow.delta.edges_touched_per_step",
             static_cast<double>(all_delta.edges_touched) /
                 static_cast<double>(std::max(1LL, steps_of["push_relabel"] + steps_of["dinic"])),
             "count");
  const af::flow::SolveMetrics& pr = delta_metrics["push_relabel"];
  res.metric("flow.push_relabel.injected_excess_arcs_per_step",
             per_step("push_relabel", static_cast<double>(pr.injected_excess_arcs)), "count");
  res.metric("flow.push_relabel.returned_excess_walks_per_step",
             per_step("push_relabel", static_cast<double>(pr.returned_excess_walks)), "count");
  res.metric("flow.push_relabel.warm_escalations", static_cast<double>(pr.warm_escalations), "count");
  res.metric("flow.delta.engaged_share", engaged, "ratio");
  res.metric("util.json.solve_response_bytes",
             static_cast<double>(pass.solve_response_bytes) /
                 static_cast<double>(std::max(1LL, pass.solve_responses)),
             "bytes");
  res.metric("core.serve_front.backpressure_pauses", pauses, "count");
  res.metric("core.serve_front.responses_written", written, "count");
  res.metric("op_ms_p99", tail_p99(pass.rtt_ms), "ms");
  res.metric("trace.op_ms_p50_traced", overhead.traced_p50, "ms");
  res.metric("trace.op_ms_p50_untraced", overhead.untraced_p50, "ms");
  res.metric("trace.overhead_ms_p50", overhead.traced_p50 - overhead.untraced_p50, "ms");
  res.note("steps", "[" + std::to_string(pass.rtt_ms[0].size()) + "," +
                        std::to_string(pass.rtt_ms[1].size()) + "]");
  note_threads(res, plans.size());
  write_trace(cfg, trace, res);
}

} // namespace

ShardedRevisions reference_revisions(const RunConfig& cfg) {
  RunConfig ref = cfg;
  ref.seed = kReferenceSeed;
  const std::vector<SessionPlan> plans = plans_for(ref);
  return ShardedRevisions(plans.front(), sources_for(ref, plans).front(), kShardRevisions,
                          cfg.smoke ? 5 : kShardStride);
}

void run_edit_stream(const RunConfig& cfg, Result& res) {
  if (cfg.trace)
    traced(cfg, res);
  else
    untraced(cfg, res);
}

} // namespace perfbench
