// Sharded-solve gate (core/sharded_solver.hpp), on the PR's headline
// scenario: one huge instance, solved in k regions with exact boundary
// refinement (see DESIGN.md "Sharded solve").
//
// The bench writes a gridflow instance to a DIMACS file, then runs two
// pipelines in one process:
//
//   sharded: stream the file into a CsrGraph edge list
//            (graph::read_dimacs_stream), partition into --shards regions,
//            solve their edge-list slices with push-relabel on --threads
//            workers, stitch + repair + refine;
//   direct:  read the file into a FlowNetwork (graph::read_dimacs: the same
//            parser and the same edge list) and solve it cold with
//            single-thread Dinic and with single-thread push-relabel.
//
// Asserts
//   (a) flow-value identity to 1e-9 and a feasible sharded flow
//       (graph::check_csr_flow),
//   (b) engagement: the partition produced --shards regions with a
//       non-empty cut manifest, and the pre-refinement bound brackets the
//       flow (upper_bound >= flow >= stitched_value >= 0),
//   (c) the parallel region-solve stage beats a whole single-thread direct
//       dinic by >= --min-speedup (default 2x): the region subproblems are
//       small enough that even their *sequential* sum undercuts the direct
//       solve, and the stage divides across the region workers. The
//       end-to-end speedup against the *faster* of the two direct backends
//       (push-relabel on grid families) is reported but not gated: with
//       the phase stitch repair it sits near parity on one host and varies
//       with the thread count and the host (see DESIGN.md "Sharded
//       solve"),
//   (d) peak RSS of the sharded pipeline <= --rss-budget-mb (default 384,
//       fitting the measured ~262 MB for the 1M-node grid with headroom —
//       while the direct pipeline's FlowNetwork + residual measure ~397 MB,
//       over the same budget). The sharded pipeline runs first, so its
//       VmHWM reading is uncontaminated; the direct pipeline then pushes
//       VmHWM past it, which the report surfaces as the in-memory path's
//       overhead. VmHWM is also recorded after every pipeline stage
//       (`vm_hwm_mb` in the JSON), beside the requested --threads, so a
//       reading can be traced to the stage that set it.
//
//   bench_sharded [--height 1000] [--width 1000] [--cap 64] [--seed 7]
//                 [--shards 8] [--threads 0]
//                 [--min-speedup 2.0] [--rss-budget-mb 384]
//                 [--dimacs FILE] [--smoke] [--json FILE]
//
// --smoke shrinks the grid and drops the wall-clock and RSS gates (CI
// machines are noisy and small) while keeping the value-identity,
// feasibility and engagement assertions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "core/sharded_solver.hpp"
#include "flow/maxflow.hpp"
#include "graph/csr.hpp"
#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "util/json.hpp"

using namespace aflow;

namespace {

/// Peak resident set (VmHWM) in MB, from /proc/self/status; 0 when the
/// proc interface is unavailable (non-Linux), which disables the RSS gate.
double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MB
  return 0.0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

} // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::arg_flag(argc, argv, "--smoke");
  const int height = bench::arg_int(argc, argv, "--height", smoke ? 120 : 1000);
  const int width = bench::arg_int(argc, argv, "--width", smoke ? 120 : 1000);
  const int cap = bench::arg_int(argc, argv, "--cap", 64);
  const int seed = bench::arg_int(argc, argv, "--seed", 7);
  const int shards = bench::arg_int(argc, argv, "--shards", smoke ? 4 : 8);
  const int threads = bench::arg_int(argc, argv, "--threads", 0);
  const double min_speedup =
      bench::arg_double(argc, argv, "--min-speedup", smoke ? 0.0 : 2.0);
  const double rss_budget_mb =
      bench::arg_double(argc, argv, "--rss-budget-mb", smoke ? 0.0 : 384.0);
  const std::string json_path = bench::arg_string(argc, argv, "--json", "");
  std::string dimacs = bench::arg_string(argc, argv, "--dimacs", "");
  const bool keep_dimacs = !dimacs.empty();
  if (dimacs.empty())
    dimacs = (std::filesystem::temp_directory_path() /
              "aflow_bench_sharded.dimacs")
                 .string();

  bench::banner("Sharded solve: k-way region decomposition with exact "
                "boundary refinement, streamed from disk");

  {
    std::ofstream out(dimacs);
    graph::write_gridflow_dimacs(out, height, width, cap,
                                 static_cast<std::uint64_t>(seed));
  }
  std::printf("instance: gridflow %dx%d cap=%d seed=%d -> %s (%.1f MB on "
              "disk)\n\n",
              height, width, cap, seed, dimacs.c_str(),
              static_cast<double>(std::filesystem::file_size(dimacs)) / 1e6);

  // --- Sharded pipeline first: its VmHWM reading is the gated one. -------
  core::ShardOptions opt;
  opt.shards = shards;
  opt.num_threads = threads;
  core::ShardReport rep;
  const auto sharded_t0 = std::chrono::steady_clock::now();
  const graph::CsrGraph g = graph::read_dimacs_stream_file(dimacs);
  const double stream_s = seconds_since(sharded_t0);
  const double rss_stream = peak_rss_mb();
  const auto solve_t0 = std::chrono::steady_clock::now();
  const flow::MaxFlowResult sharded =
      core::ShardedSolver(opt).solve_csr(g, &rep);
  const double sharded_s = seconds_since(solve_t0);
  const double rss_sharded = peak_rss_mb();

  std::printf("sharded   %d regions (push_relabel, %d threads): flow %.6g "
              "in %.3f s (+%.3f s streaming)\n",
              rep.regions, rep.threads_used,
              sharded.flow_value, sharded_s, stream_s);
  std::printf("          cut arcs %lld (cap %.6g), bound %.6g, stitched "
              "%.6g + refined %.6g\n",
              static_cast<long long>(rep.cut_arcs), rep.cut_capacity,
              rep.upper_bound, rep.stitched_value, rep.refined_added);
  std::printf("          stages: partition %.3f s, regions %.3f s, stitch "
              "%.3f s, refine %.3f s; peak RSS %.1f MB\n",
              rep.partition_seconds, rep.region_seconds, rep.stitch_seconds,
              rep.refine_seconds, rss_sharded);

  const std::string feasible =
      graph::check_csr_flow(g, sharded.edge_flow, sharded.flow_value,
                            1e-6 * std::max(1.0, sharded.flow_value));

  // --- Direct pipeline: the in-memory FlowNetwork baseline. --------------
  const auto direct_t0 = std::chrono::steady_clock::now();
  const graph::FlowNetwork net = graph::read_dimacs_file(dimacs);
  const double read_s = seconds_since(direct_t0);
  const double rss_direct_read = peak_rss_mb();
  const auto dinic_t0 = std::chrono::steady_clock::now();
  const flow::MaxFlowResult direct = flow::dinic(net);
  const double direct_s = seconds_since(dinic_t0);
  const double rss_direct_dinic = peak_rss_mb();
  const auto pr_t0 = std::chrono::steady_clock::now();
  const flow::MaxFlowResult direct_pr = flow::push_relabel(net);
  const double direct_pr_s = seconds_since(pr_t0);
  const double rss_direct = peak_rss_mb();

  std::printf("direct    single-thread dinic: flow %.6g in %.3f s (+%.3f s "
              "reading)\n",
              direct.flow_value, direct_s, read_s);
  std::printf("          single-thread push-relabel: flow %.6g in %.3f s; "
              "peak RSS %.1f MB (+%.1f over sharded)\n\n",
              direct_pr.flow_value, direct_pr_s, rss_direct,
              rss_direct - rss_sharded);

  const bool pr_fastest = direct_pr_s < direct_s;
  const std::string fastest = pr_fastest ? "push_relabel" : "dinic";
  const double fastest_s = pr_fastest ? direct_pr_s : direct_s;
  const double speedup = sharded_s > 0.0 ? fastest_s / sharded_s : 0.0;
  const double region_speedup =
      rep.region_seconds > 0.0 ? direct_s / rep.region_seconds : 0.0;
  const bool region_gated = !smoke;
  const bool rss_gated = !smoke && rss_budget_mb > 0.0 && rss_sharded > 0.0;

  bool ok = true;
  bool value_ok = true;
  const double scale = std::max(1.0, std::abs(direct.flow_value));
  for (const flow::MaxFlowResult* d : {&direct, &direct_pr}) {
    if (std::abs(sharded.flow_value - d->flow_value) <= 1e-9 * scale) continue;
    value_ok = false;
    std::fprintf(stderr, "FAIL: flow differs (%.17g sharded vs %.17g direct)\n",
                 sharded.flow_value, d->flow_value);
  }
  if (!feasible.empty()) {
    std::fprintf(stderr, "FAIL: sharded flow infeasible: %s\n",
                 feasible.c_str());
    value_ok = false;
  }
  ok = ok && value_ok;
  if (rep.regions != shards || rep.cut_arcs <= 0) {
    std::fprintf(stderr,
                 "FAIL: partition did not engage (%d regions, %lld cut arcs)\n",
                 rep.regions, static_cast<long long>(rep.cut_arcs));
    ok = false;
  }
  if (rep.upper_bound < sharded.flow_value - 1e-9 * scale ||
      rep.stitched_value < 0.0 ||
      sharded.flow_value < rep.stitched_value - 1e-9 * scale) {
    std::fprintf(stderr,
                 "FAIL: bound ordering violated (bound %.17g, flow %.17g, "
                 "stitched %.17g)\n",
                 rep.upper_bound, sharded.flow_value, rep.stitched_value);
    ok = false;
  }
  std::printf("region stage vs direct dinic: %.2fx (%d threads; gate "
              "%.2fx%s); end-to-end vs fastest direct (%s): %.2fx (reported, "
              "not gated)\n",
              region_speedup, rep.threads_used, min_speedup,
              region_gated ? "" : ", smoke: reported only", fastest.c_str(),
              speedup);
  if (region_gated && min_speedup > 0.0 && region_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: region-stage speedup %.2fx below gate %.2fx\n",
                 region_speedup, min_speedup);
    ok = false;
  }
  if (rss_gated && rss_sharded > rss_budget_mb) {
    std::fprintf(stderr, "FAIL: sharded peak RSS %.1f MB over budget %.1f MB\n",
                 rss_sharded, rss_budget_mb);
    ok = false;
  }

  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-bench-v1");
  j.field("bench", "sharded");
  j.field("smoke", smoke);
  j.field("height", height);
  j.field("width", width);
  j.field("vertices", g.num_vertices());
  j.field("edges", static_cast<long long>(g.num_edges()));
  j.field("shards", shards);
  j.field("region_solver", "push_relabel");
  j.field("threads", threads);
  j.field("threads_used", rep.threads_used);
  j.field("flow", sharded.flow_value);
  j.field("upper_bound", rep.upper_bound);
  j.field("stitched_value", rep.stitched_value);
  j.field("refined_added", rep.refined_added);
  j.field("cut_arcs", static_cast<long long>(rep.cut_arcs));
  j.field("cut_capacity", rep.cut_capacity);
  j.field("wall_s_stream", stream_s);
  j.field("wall_s_sharded", sharded_s);
  j.field("wall_s_partition", rep.partition_seconds);
  j.field("wall_s_regions", rep.region_seconds);
  j.field("wall_s_stitch", rep.stitch_seconds);
  j.field("wall_s_refine", rep.refine_seconds);
  j.field("wall_s_direct_read", read_s);
  j.field("wall_s_direct", direct_s);
  j.field("wall_s_direct_push_relabel", direct_pr_s);
  j.field("fastest_direct", fastest);
  j.field("speedup_vs_fastest_direct", speedup);
  j.field("rss_sharded_mb", rss_sharded);
  j.field("rss_direct_mb", rss_direct);
  // VmHWM after each stage, in run order: monotonic, so a stage's own
  // peak shows as a step over the reading before it.
  j.key("vm_hwm_mb").begin_object();
  j.field("stream", rss_stream);
  j.field("sharded", rss_sharded);
  j.field("direct_read", rss_direct_read);
  j.field("direct_dinic", rss_direct_dinic);
  j.field("direct_push_relabel", rss_direct);
  j.end_object();
  j.key("gates").begin_array();
  bench::json_gate(j, "sharded_value_identity", true, value_ok ? 1.0 : 0.0,
                   1.0);
  bench::json_gate(j, "sharded_regions_vs_direct", region_gated,
                   region_speedup, min_speedup);
  // RSS gate reuses the speedup record shape: "speedup" = budget / peak, so
  // pass means the sharded pipeline fit with headroom >= 1.
  bench::json_gate(j, "sharded_rss_budget", rss_gated,
                   rss_sharded > 0.0 ? rss_budget_mb / rss_sharded : 0.0, 1.0);
  j.end_array();
  j.end_object();
  if (!json_path.empty()) {
    util::write_json_file(json_path, j.str());
    std::printf("json: %s\n", json_path.c_str());
  }

  if (!keep_dimacs) std::filesystem::remove(dimacs);
  return ok ? 0 : 1;
}
