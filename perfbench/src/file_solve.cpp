// Workload file_solve: gridflow DIMACS files written at set-up, each
// answered by two routes. Direct: read_dimacs_file -> push_relabel ->
// min_cut_from_flow -> check_flow. Sharded: read_dimacs_stream_file ->
// ShardedSolver::solve_csr (k = 4) -> check_csr_flow.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>

#include "arch/partition.hpp"
#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "flow/maxflow.hpp"
#include "graph/dimacs.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace af = aflow;

namespace {

constexpr size_t kFiles = 20;
/// Set-ups timed before the window, and as many again after it.
constexpr int kSetupRepeats = 3;
constexpr int kShards = 4;
struct Files {
  std::vector<std::string> paths;
  std::vector<double> megabytes;
};

std::string spec_of(const RunConfig& cfg, size_t i) {
  const std::string side = cfg.smoke ? "24" : "200";
  return "gridflow:height=" + side + ",width=" + side + ",cap=64,seed=" +
         std::to_string(derive_seed(cfg.seed, 200 + static_cast<std::uint64_t>(i)) % 1000000);
}

/// Writes every file `repeats` times, appending the seconds of each
/// complete write, at the nominal host speed, to `setup_s`.
Files write_files(const RunConfig& cfg, int repeats, const HostProbe& probe,
                  std::vector<double>& setup_s) {
  std::filesystem::create_directories(cfg.workdir);
  Files f;
  double before = probe.ms();
  for (int r = 0; r < repeats; ++r) {
    f = Files{};
    const std::int64_t t0 = now_ns();
    for (size_t i = 0; i < kFiles; ++i) {
      const std::string path = cfg.workdir + "/grid" + std::to_string(i) + ".dimacs";
      af::core::write_spec_dimacs(spec_of(cfg, i), path);
      f.paths.push_back(path);
    }
    const double ms = ms_between(t0, now_ns());
    const double after = probe.ms();
    setup_s.push_back(nominal_ms(ms, before, after) * 1e-3);
    before = after;
  }
  for (const auto& p : f.paths)
    f.megabytes.push_back(static_cast<double>(std::filesystem::file_size(p)) / 1e6);
  return f;
}

af::core::ShardOptions shard_options() {
  af::core::ShardOptions so;
  so.shards = kShards;
  so.num_threads = std::max(
      1, std::min(kShards, static_cast<int>(std::thread::hardware_concurrency())));
  return so;
}

/// One file through the direct route; spans go under `parent` when traced.
/// Only the answer's summary is kept, not its edge flows.
struct Direct {
  double flow_value = 0.0;
  long long operations = 0;
  double cut_value = 0.0;
  std::string check;
};
Direct direct_route(const std::string& path, Trace& trace, long long step, int parent) {
  Direct d;
  int sp = trace.begin("graph.dimacs.read", step, parent);
  const af::graph::FlowNetwork net = af::graph::read_dimacs_file(path);
  trace.end(sp);
  sp = trace.begin("flow.push_relabel", step, parent);
  const af::flow::MaxFlowResult flow = af::flow::push_relabel(net);
  trace.end(sp);
  d.flow_value = flow.flow_value;
  d.operations = flow.operations;
  sp = trace.begin("flow.mincut", step, parent);
  d.cut_value = af::flow::min_cut_from_flow(net, flow).cut_value;
  trace.end(sp);
  sp = trace.begin("flow.check_flow", step, parent);
  d.check = af::flow::check_flow(net, flow);
  trace.end(sp);
  return d;
}

struct Sharded {
  double flow_value = 0.0;
  af::core::ShardReport report;
  std::string check;
};
Sharded sharded_route(const std::string& path, Trace& trace, long long step, int parent,
                      bool with_partition_probe) {
  Sharded s;
  int sp = trace.begin("graph.dimacs.stream_read", step, parent);
  const af::graph::CsrGraph g = af::graph::read_dimacs_stream_file(path);
  trace.end(sp);
  if (with_partition_probe) {
    af::arch::RegionPartitionOptions po;
    po.regions = kShards;
    sp = trace.begin("arch.partition", step, parent);
    (void)af::arch::partition_regions(g, po);
    trace.end(sp);
  }
  const af::core::ShardedSolver solver(shard_options());
  sp = trace.begin("core.sharded.solve_csr", step, parent);
  const std::int64_t t0 = now_ns();
  const af::flow::MaxFlowResult flow = solver.solve_csr(g, &s.report);
  trace.end(sp);
  s.flow_value = flow.flow_value;
  // The solver's own stage clock, laid out as child spans.
  std::int64_t at = t0;
  const std::pair<const char*, double> stages[] = {
      {"core.sharded.partition", s.report.partition_seconds},
      {"core.sharded.regions", s.report.region_seconds},
      {"core.sharded.stitch", s.report.stitch_seconds},
      {"core.sharded.refine", s.report.refine_seconds}};
  for (const auto& [name, secs] : stages) {
    const std::int64_t len = static_cast<std::int64_t>(secs * 1e9);
    trace.add(name, step, sp, at, at + len);
    at += len;
  }
  sp = trace.begin("graph.csr.check", step, parent);
  s.check = af::graph::check_csr_flow(g, flow.edge_flow, flow.flow_value);
  trace.end(sp);
  return s;
}

/// The per-file correctness gate: every direct answer, the sharded answer
/// and the min-cut value agree, and every flow is feasible.
void check_answer(const std::vector<Direct>& direct, const Sharded& s,
                  const std::string& path, long long op, const RunConfig& cfg,
                  Result& res) {
  const Direct& d = direct.front();
  double sharded_value = s.flow_value;
  if (op == cfg.corrupt_op) sharded_value += 1.0;
  bool ok = same_flow(sharded_value, d.flow_value) &&
            same_flow(d.cut_value, d.flow_value) && s.check.empty();
  for (const Direct& again : direct)
    ok = ok && same_flow(again.flow_value, d.flow_value) && again.check.empty();
  res.check(ok, path + ": direct " + std::to_string(d.flow_value) + " sharded " +
                    std::to_string(sharded_value) + " cut " +
                    std::to_string(d.cut_value) + " " + d.check + " " + s.check);
}

/// rel_error of the file route: the stitch gap of the 4-region sharded solve
/// (its approximate answer before the exact refinement) on the reference
/// seed's first full-size file, built in memory.
double reference_stitch_gap(const RunConfig& cfg) {
  RunConfig ref = cfg;
  ref.seed = kReferenceSeed;
  ref.smoke = false;
  const af::graph::CsrGraph g =
      af::graph::CsrGraph::from_network(af::core::generate_batch(spec_of(ref, 0)).front());
  af::core::ShardOptions so = shard_options();
  so.deterministic = true;
  af::core::ShardReport rep;
  const double flow = af::core::ShardedSolver(so).solve_csr(g, &rep).flow_value;
  return (flow - rep.stitched_value) / std::max(flow, 1e-12);
}

void note_threads(Result& res) {
  res.note("threads", "{\"solver_threads\":1,\"sharded_region_threads\":" +
                          std::to_string(shard_options().num_threads) +
                          ",\"shards\":" + std::to_string(kShards) + "}");
}

void untraced(const RunConfig& cfg, Result& res) {
  const HostProbe probe;
  std::vector<double> setups;
  const Files files = write_files(cfg, kSetupRepeats, probe, setups);
  Trace off(false);
  // Per file: the times of its direct and of its sharded answers, raw and
  // at the nominal host speed (each answer lies between two probe
  // readings).
  std::vector<std::vector<double>> direct_ms(kFiles), sharded_ms(kFiles);
  std::vector<std::vector<double>> direct_nominal(kFiles), sharded_nominal(kFiles);
  std::vector<double> probes{probe.ms()};
  double answers_nominal_ms = 0.0;
  auto timed = [&](auto&& answer, std::vector<double>& raw, std::vector<double>& nominal) {
    const std::int64_t t0 = now_ns();
    answer();
    const double ms = ms_between(t0, now_ns());
    probes.push_back(probe.ms());
    raw.push_back(ms);
    nominal.push_back(nominal_ms(ms, probes[probes.size() - 2], probes.back()));
    answers_nominal_ms += nominal.back();
  };
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  // Whole rounds only, so every run sees the same mix of files; another
  // round starts while it would end closer to the deadline than this one.
  long long op = 0, answered = 0;
  std::int64_t round_ns = 0;
  while (op == 0 || now_ns() + round_ns / 2 < deadline) {
    const std::int64_t round_start = now_ns();
    for (size_t i = 0; i < kFiles; ++i, ++op) {
      Direct direct;
      Sharded sharded;
      timed([&] { direct = direct_route(files.paths[i], off, op, -1); }, direct_ms[i],
            direct_nominal[i]);
      ++answered;
      timed([&] { sharded = sharded_route(files.paths[i], off, op, -1, false); },
            sharded_ms[i], sharded_nominal[i]);
      check_answer({direct}, sharded, files.paths[i], op, cfg, res);
    }
    round_ns = now_ns() - round_start;
  }
  const double rss_mb = peak_rss_mb();
  write_files(cfg, kSetupRepeats, probe, setups);
  res.metric("setup_s", median(setups), "s");
  res.metric("op_ms_p50", median_of_medians(direct_nominal), "ms");
  // Direct answers per second of answering (direct and sharded), so the
  // probe readings between answers do not count.
  res.metric("ops_per_s", static_cast<double>(answered) / (answers_nominal_ms * 1e-3), "1/s");
  res.metric("sharded_ms_p50", median_of_medians(sharded_nominal), "ms");
  res.metric("peak_rss_mb", rss_mb, "MB");
  res.metric("rel_error", reference_stitch_gap(cfg), "ratio");
  res.note("files_answered", std::to_string(op));
  res.note("file_mb", std::to_string(mean(files.megabytes)));
  res.note("samples", "{\"direct_ms\":" + json_array(direct_ms) +
                          ",\"sharded_ms\":" + json_array(sharded_ms) +
                          ",\"probe_ms\":" + json_array(probes) +
                          ",\"setup_s_nominal\":" + json_array(setups) + "}");
  note_threads(res);
}

void traced(const RunConfig& cfg, Result& res) {
  const HostProbe probe;
  std::vector<double> setups;
  const Files files = write_files(cfg, 1, probe, setups);
  Trace trace(true);
  Trace off(false);
  std::vector<double> traced_ms, plain_ms, direct_rss, sharded_rss, stitched, region_ops,
      repair_ops, refine_ops, cut_arcs, threads, push_ops;
  const bool rss_ok = reset_peak_rss();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(cfg.seconds * 0.6e9);
  long long op = 0;
  for (int round = 0; round < 1 || now_ns() < deadline; ++round) {
    for (size_t i = 0; i < kFiles; ++i, ++op) {
      const std::string& path = files.paths[i];
      // The direct route untraced, then traced: the tracing overhead.
      std::int64_t t0 = now_ns();
      const Direct plain = direct_route(path, off, op, -1);
      plain_ms.push_back(ms_between(t0, now_ns()));

      reset_peak_rss();
      t0 = now_ns();
      int root = trace.begin("direct", op);
      const Direct d = direct_route(path, trace, op, root);
      trace.end(root);
      traced_ms.push_back(ms_between(t0, now_ns()));
      direct_rss.push_back(peak_rss_mb());
      push_ops.push_back(static_cast<double>(d.operations));

      reset_peak_rss();
      root = trace.begin("sharded", op);
      const Sharded s = sharded_route(path, trace, op, root, true);
      trace.end(root);
      sharded_rss.push_back(peak_rss_mb());
      check_answer({d, plain}, s, path, op, cfg, res);
      stitched.push_back(s.report.stitched_value / std::max(s.report.flow_value, 1e-12));
      region_ops.push_back(static_cast<double>(s.report.region_operations));
      repair_ops.push_back(static_cast<double>(s.report.repair_operations));
      refine_ops.push_back(static_cast<double>(s.report.refine_operations));
      cut_arcs.push_back(static_cast<double>(s.report.cut_arcs));
      threads.push_back(static_cast<double>(s.report.threads_used));
    }
  }
  auto p50 = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& [step, ms] : trace.durations(span)) v.push_back(ms);
    return median(v);
  };
  const double read_ms = p50("graph.dimacs.read");
  const double traced_p50 = median(traced_ms);
  const double plain_p50 = median(plain_ms);
  res.metric("graph.dimacs.read_ms_p50", read_ms, "ms");
  res.metric("graph.dimacs.read_mb_per_s", mean(files.megabytes) / (read_ms * 1e-3), "MB/s");
  res.metric("graph.dimacs.stream_read_ms_p50", p50("graph.dimacs.stream_read"), "ms");
  res.metric("flow.push_relabel.file_solve_ms_p50", p50("flow.push_relabel"), "ms");
  res.metric("flow.push_relabel.file_ops", median(push_ops), "count");
  res.metric("flow.mincut.ms_p50", p50("flow.mincut"), "ms");
  res.metric("flow.check_flow_ms_p50", p50("flow.check_flow"), "ms");
  res.metric("arch.partition.ms_p50", p50("arch.partition"), "ms");
  res.metric("core.sharded.partition_ms_p50", p50("core.sharded.partition"), "ms");
  res.metric("core.sharded.regions_ms_p50", p50("core.sharded.regions"), "ms");
  res.metric("core.sharded.stitch_ms_p50", p50("core.sharded.stitch"), "ms");
  res.metric("core.sharded.refine_ms_p50", p50("core.sharded.refine"), "ms");
  res.metric("core.sharded.stitched_share", median(stitched), "ratio");
  res.metric("core.sharded.region_ops", median(region_ops), "count");
  res.metric("core.sharded.repair_ops", median(repair_ops), "count");
  res.metric("core.sharded.refine_ops", median(refine_ops), "count");
  res.metric("core.sharded.cut_arcs", median(cut_arcs), "count");
  res.metric("core.sharded.threads_used", median(threads), "count");
  res.metric("graph.csr.check_ms_p50", p50("graph.csr.check"), "ms");
  res.metric("flow.direct.peak_rss_mb", rss_ok ? median(direct_rss) : 0.0, "MB");
  res.metric("core.sharded.peak_rss_mb", rss_ok ? median(sharded_rss) : 0.0, "MB");
  res.metric("op_ms_p99", quantile(plain_ms, 0.99), "ms");
  res.metric("trace.op_ms_p50_traced", traced_p50, "ms");
  res.metric("trace.op_ms_p50_untraced", plain_p50, "ms");
  res.metric("trace.overhead_ms_p50", traced_p50 - plain_p50, "ms");
  res.note("files_answered", std::to_string(traced_ms.size()));
  note_threads(res);
  write_trace(cfg, trace, res);
}

} // namespace

void run_file_solve(const RunConfig& cfg, Result& res) {
  if (cfg.trace)
    traced(cfg, res);
  else
    untraced(cfg, res);
}

} // namespace perfbench
