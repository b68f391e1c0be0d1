// Sharded solve: k-way decomposition + parallel region solves + exact
// refinement (core::ShardedSolver). The battery checks exactness against
// the direct solver across mixed generators and shard counts, the validity
// of the pre-refinement optimality bound, feasibility of the returned flow,
// registry/capability wiring, and the serve-protocol `solve --shards` path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/serve_engine.hpp"
#include "core/sharded_solver.hpp"
#include "flow/maxflow.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"
#include "util/fault_injector.hpp"

#include "fault_guard.hpp"

namespace core = aflow::core;
namespace flow = aflow::flow;
namespace graph = aflow::graph;
namespace util = aflow::util;

namespace {

std::vector<graph::FlowNetwork> mixed_instances() {
  std::vector<graph::FlowNetwork> nets;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    nets.push_back(graph::rmat(90, 420, {}, seed));
    nets.push_back(graph::uniform_random(80, 400, 32, seed));
    nets.push_back(graph::layered_random(5, 14, 4, 24, seed));
    nets.push_back(graph::gridflow(11, 9, 16, seed));
  }
  return nets;
}

} // namespace

// The acceptance battery: >= 50 (instance, k) pairs, identical max-flow
// value to the direct solver, feasible flow, and a bound that is valid
// before refinement ever runs. The budgeted warm refinement never needs its
// escalation: upper_bound - stitched_value always covers the flow still to
// add.
TEST(Sharded, MatchesDirectSolverAcrossGeneratorsAndShardCounts) {
  const auto nets = mixed_instances();
  int cases = 0;
  flow::SolveMetrics metrics;
  for (const auto& net : nets) {
    const double exact = flow::dinic(net).flow_value;
    for (int k : {2, 4, 8}) {
      core::ShardOptions opt;
      opt.shards = k;
      const core::ShardedSolver solver(opt);
      core::ShardReport rep;
      const flow::MaxFlowResult r =
          solver.solve_csr(graph::CsrGraph::from_network(net), &rep);
      const std::string label = "n=" + std::to_string(net.num_vertices()) +
                                " k=" + std::to_string(k);
      EXPECT_NEAR(r.flow_value, exact, 1e-9 * std::max(1.0, exact)) << label;
      EXPECT_GE(rep.upper_bound, r.flow_value - 1e-9) << label;
      EXPECT_GE(r.flow_value, rep.stitched_value - 1e-9) << label;
      EXPECT_GE(rep.stitched_value, 0.0) << label;
      EXPECT_NEAR(rep.flow_value, rep.stitched_value + rep.refined_added,
                  1e-9)
          << label;
      EXPECT_EQ(rep.regions, k) << label;
      int covered = 0;
      for (int c : rep.region_vertices) covered += c;
      EXPECT_EQ(covered, net.num_vertices()) << label;
      EXPECT_TRUE(flow::check_flow(net, r).empty()) << label;
      metrics += r.metrics;
      ++cases;
    }
  }
  EXPECT_GE(cases, 50);
  // The refinement's restart counters reach the sharded result.
  EXPECT_GT(metrics.injected_excess_arcs, 0);
  EXPECT_EQ(metrics.warm_escalations, 0);
}

// The stitch census: seven families, k in {2, 3, 4, 8}, seeds 1-15. Every
// stitch must survive its repair and refine to the exact value. The stitch
// repair must keep edges entering s and leaving t closed: a repair that
// drains excess into s over an edge entering it leaves a negative source
// carry, and three of these stitches (uniform(11,40,32) seed 1 k=4,
// uniform(80,400,32) seed 12 k=4/8) drop.
TEST(Sharded, StitchCensusDropsNothingAndIsExact) {
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const graph::FlowNetwork nets[] = {
        graph::gridflow(11, 9, 16, seed),
        graph::layered_random(5, 14, 4, 24, seed),
        graph::rmat(12, 40, {}, seed),
        graph::uniform_random(11, 40, 32, seed),
        graph::rmat(90, 420, {}, seed),
        graph::uniform_random(80, 400, 32, seed),
        graph::gridflow(31, 31, 16, seed),
    };
    for (const auto& net : nets) {
      const double exact = flow::dinic(net).flow_value;
      const graph::CsrGraph g = graph::CsrGraph::from_network(net);
      for (int k : {2, 3, 4, 8}) {
        core::ShardOptions opt;
        opt.shards = k;
        core::ShardReport rep;
        const flow::MaxFlowResult r =
            core::ShardedSolver(opt).solve_csr(g, &rep);
        const std::string label = "n=" + std::to_string(net.num_vertices()) +
                                  " seed=" + std::to_string(seed) +
                                  " k=" + std::to_string(k);
        EXPECT_FALSE(rep.stitch_dropped) << label;
        EXPECT_EQ(r.flow_value, exact) << label;
        EXPECT_TRUE(flow::check_flow(net, r).empty()) << label;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 420);
}

// A stitch the repair cannot use is dropped, and refinement runs from the
// zero flow with the whole upper bound as its budget. No known input
// drops its stitch, so the "shard.stitch" fault site forges the failed
// repair.
TEST(Sharded, DroppedStitchRefinesFromZeroExactly) {
  const auto net = graph::uniform_random(11, 40, 32, 1);
  const double exact = flow::dinic(net).flow_value;
  ASSERT_GT(exact, 0.0);
  core::ShardOptions opt;
  opt.shards = 4;
  core::ShardReport rep;
  const fault_test::FaultGuard guard("shard.stitch:diverge");
  const flow::MaxFlowResult r = core::ShardedSolver(opt).solve_csr(
      graph::CsrGraph::from_network(net), &rep);
  EXPECT_EQ(util::FaultInjector::instance().fired("shard.stitch"), 1);
  ASSERT_TRUE(rep.stitch_dropped);
  EXPECT_EQ(rep.stitched_value, 0.0);
  EXPECT_NEAR(r.flow_value, exact, 1e-9);
  EXPECT_NEAR(rep.refined_added, exact, 1e-9);
  EXPECT_TRUE(flow::check_flow(net, r).empty());
  EXPECT_EQ(r.metrics.warm_escalations, 0);
}

// Region slices leave out edges entering s and edges leaving t, so no
// region can route flow through the source and hand the stitch a negative
// source carry. This instance dropped its stitch when regions kept them.
TEST(Sharded, EdgesIntoSourceOrOutOfSinkDoNotDropTheStitch) {
  const auto net = graph::rmat(12, 40, {}, 9);
  bool into_source = false, out_of_sink = false;
  for (const auto& e : net.edges()) {
    into_source |= e.to == net.source();
    out_of_sink |= e.from == net.sink();
  }
  ASSERT_TRUE(into_source || out_of_sink);
  const double exact = flow::dinic(net).flow_value;
  core::ShardOptions opt;
  opt.shards = 2;
  core::ShardReport rep;
  const flow::MaxFlowResult r = core::ShardedSolver(opt).solve_csr(
      graph::CsrGraph::from_network(net), &rep);
  EXPECT_FALSE(rep.stitch_dropped);
  EXPECT_GT(rep.stitched_value, 0.0);
  EXPECT_NEAR(r.flow_value, exact, 1e-9);
  EXPECT_TRUE(flow::check_flow(net, r).empty());
}

// Capacities near 1e9 with fractional parts leave rounding dust far above
// any absolute epsilon; the warm refinement's certificate must still hold.
TEST(Sharded, ExactAtLargeCapacityScale) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto base = graph::gridflow(12, 10, 16, seed);
    graph::FlowNetwork net(base.num_vertices(), base.source(), base.sink());
    double max_cap = 0.0;
    for (const auto& e : base.edges()) {
      net.add_edge(e.from, e.to, e.capacity * 1.000000007e9 + 0.37);
      max_cap = std::max(max_cap, net.edges().back().capacity);
    }
    const double exact = flow::push_relabel(net).flow_value;
    for (int k : {2, 4}) {
      core::ShardOptions opt;
      opt.shards = k;
      core::ShardReport rep;
      const flow::MaxFlowResult r = core::ShardedSolver(opt).solve_csr(
          graph::CsrGraph::from_network(net), &rep);
      const std::string label =
          "seed=" + std::to_string(seed) + " k=" + std::to_string(k);
      EXPECT_NEAR(r.flow_value, exact, 1e-9 * exact) << label;
      EXPECT_GE(rep.upper_bound, r.flow_value - 1e-9 * exact) << label;
      // The stitch repair treats imbalances below 1e-11 x the largest
      // capacity as drained (flow/residual.cpp, push-relabel's own excess
      // threshold), so conservation holds to that capacity-relative
      // tolerance here, not to an absolute one.
      EXPECT_EQ(flow::check_flow(net, r, 1e-11 * max_cap), "") << label;
    }
  }
}

TEST(Sharded, RegisteredWithShardedCapability) {
  auto& reg = core::SolverRegistry::instance();
  ASSERT_TRUE(reg.contains("sharded"));
  const auto solver = reg.create("sharded");
  EXPECT_EQ(solver->name(), "sharded");
  EXPECT_TRUE(solver->capabilities().sharded);
  EXPECT_TRUE(solver->capabilities().exact);
  EXPECT_FALSE(solver->capabilities().analog);

  // The plain ISolver entry solves FlowNetwork instances like any backend.
  const auto net = graph::rmat(60, 260, {}, 3);
  EXPECT_NEAR(solver->solve(net).flow_value, flow::dinic(net).flow_value,
              1e-9);
}

TEST(Sharded, DeterministicAcrossRunsAndThreadCounts) {
  const auto net = graph::rmat(110, 520, {}, 7);
  const graph::CsrGraph g = graph::CsrGraph::from_network(net);
  core::ShardOptions a;
  a.shards = 4;
  a.num_threads = 1;
  core::ShardOptions b = a;
  b.num_threads = 0; // hardware concurrency
  core::ShardReport ra, rb;
  const flow::MaxFlowResult fa = core::ShardedSolver(a).solve_csr(g, &ra);
  const flow::MaxFlowResult fb = core::ShardedSolver(b).solve_csr(g, &rb);
  // Regions write disjoint slots and refinement is sequential, so the
  // result is bit-identical regardless of the worker schedule.
  EXPECT_EQ(fa.flow_value, fb.flow_value);
  ASSERT_EQ(fa.edge_flow.size(), fb.edge_flow.size());
  for (size_t e = 0; e < fa.edge_flow.size(); ++e)
    EXPECT_EQ(fa.edge_flow[e], fb.edge_flow[e]) << e;
  EXPECT_EQ(ra.region_vertices, rb.region_vertices);
  EXPECT_EQ(ra.cut_arcs, rb.cut_arcs);
  EXPECT_EQ(ra.stitched_value, rb.stitched_value);
}

TEST(Sharded, DegenerateShardCountsFallBackToDirectSolve) {
  const auto net = graph::rmat(50, 200, {}, 4);
  const double exact = flow::dinic(net).flow_value;
  const graph::CsrGraph g = graph::CsrGraph::from_network(net);

  core::ShardOptions one;
  one.shards = 1;
  core::ShardReport rep;
  const flow::MaxFlowResult r = core::ShardedSolver(one).solve_csr(g, &rep);
  EXPECT_NEAR(r.flow_value, exact, 1e-9);
  EXPECT_TRUE(flow::check_flow(net, r).empty());
  EXPECT_EQ(rep.regions, 1);
  // One region is the warm refinement alone, budgeted by the terminal bound.
  EXPECT_EQ(rep.stitched_value, 0.0);
  EXPECT_NEAR(rep.refined_added, exact, 1e-9);
  EXPECT_GE(rep.upper_bound, exact);
  EXPECT_EQ(r.operations, rep.refine_operations);
  EXPECT_EQ(r.metrics.warm_escalations, 0);

  // shards > n clamps to the vertex count instead of throwing.
  core::ShardOptions many;
  many.shards = 10 * net.num_vertices();
  EXPECT_NEAR(core::ShardedSolver(many).solve_csr(g).flow_value, exact, 1e-9);

  EXPECT_THROW(core::ShardedSolver(core::ShardOptions{.shards = 0}),
               std::invalid_argument);
}

TEST(Sharded, TinyAndDisconnectedInstances) {
  // Two vertices, one edge: every k degenerates sensibly.
  graph::FlowNetwork tiny(2, 0, 1);
  tiny.add_edge(0, 1, 3.0);
  core::ShardOptions opt;
  opt.shards = 8;
  EXPECT_NEAR(
      core::ShardedSolver(opt).solve_csr(graph::CsrGraph::from_network(tiny))
          .flow_value,
      3.0, 1e-12);

  // Disconnected terminals: zero flow, no crash at any stage.
  graph::FlowNetwork split(6, 0, 5);
  split.add_edge(0, 1, 2.0);
  split.add_edge(1, 2, 2.0);
  split.add_edge(3, 4, 2.0);
  split.add_edge(4, 5, 2.0);
  core::ShardOptions k3;
  k3.shards = 3;
  core::ShardReport rep;
  EXPECT_NEAR(
      core::ShardedSolver(k3).solve_csr(graph::CsrGraph::from_network(split),
                                        &rep)
          .flow_value,
      0.0, 1e-12);
  EXPECT_GE(rep.upper_bound, 0.0);
}

// Serve-protocol front: `solve --shards K` on the loaded instance matches
// the direct solve of the same revision and reports the shards object.
TEST(Sharded, ServeSolveShardsMatchesDirectPath) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_NE(engine.handle("load --spec grid:side=7,seed=4").find("\"ok\":true"),
            std::string::npos);

  const std::string direct = engine.handle("solve --solver dinic");
  ASSERT_NE(direct.find("\"ok\":true"), std::string::npos) << direct;
  const auto flow_of = [](const std::string& json) {
    const auto at = json.find("\"flow\":");
    return std::stod(json.substr(at + 7));
  };

  const std::string sharded = engine.handle("solve --shards 4");
  ASSERT_NE(sharded.find("\"ok\":true"), std::string::npos) << sharded;
  EXPECT_NE(sharded.find("\"solver\":\"sharded\""), std::string::npos)
      << sharded;
  EXPECT_NE(sharded.find("\"shards\":{"), std::string::npos) << sharded;
  EXPECT_NE(sharded.find("\"upper_bound\":"), std::string::npos) << sharded;
  EXPECT_NEAR(flow_of(sharded), flow_of(direct), 1e-9);
  // Regions always run push-relabel; the v1 field reports it.
  EXPECT_NE(sharded.find("\"region_solver\":\"push_relabel\""),
            std::string::npos)
      << sharded;

  // A stray --region-solver is ignored like any other unknown token.
  const std::string stray =
      engine.handle("solve --shards 4 --region-solver analog_dc");
  ASSERT_NE(stray.find("\"ok\":true"), std::string::npos) << stray;
  EXPECT_NE(stray.find("\"region_solver\":\"push_relabel\""),
            std::string::npos)
      << stray;
  EXPECT_NEAR(flow_of(stray), flow_of(direct), 1e-9);
}

