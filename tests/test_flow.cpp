// Classical max-flow solvers: known answers, feasibility, cross-agreement,
// and max-flow = min-cut duality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"
#include "graph/generators.hpp"

namespace flow = aflow::flow;
namespace graph = aflow::graph;

using Solver = flow::MaxFlowResult (*)(const graph::FlowNetwork&);

namespace {

// Wrapped in lambdas because the underlying entry points also take a
// defaulted CancelToken, which is part of the function-pointer type.
const std::vector<std::pair<const char*, Solver>> kSolvers = {
    {"edmonds_karp",
     [](const graph::FlowNetwork& g) { return flow::edmonds_karp(g); }},
    {"dinic", [](const graph::FlowNetwork& g) { return flow::dinic(g); }},
    {"push_relabel",
     [](const graph::FlowNetwork& g) { return flow::push_relabel(g); }},
};

} // namespace

TEST(MaxFlow, PaperFig5HasValue2) {
  const auto g = graph::paper_example_fig5();
  for (const auto& [name, solve] : kSolvers) {
    const auto r = solve(g);
    EXPECT_DOUBLE_EQ(r.flow_value, 2.0) << name;
    EXPECT_EQ(flow::check_flow(g, r), "") << name;
  }
}

TEST(MaxFlow, PaperFig15HasValue4) {
  const auto g = graph::paper_example_fig15();
  for (const auto& [name, solve] : kSolvers) {
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 4.0) << name;
  }
}

TEST(MaxFlow, SingleEdge) {
  graph::FlowNetwork g(2, 0, 1);
  g.add_edge(0, 1, 5.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 5.0) << name;
}

TEST(MaxFlow, DisconnectedIsZero) {
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(2, 3, 5.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 0.0) << name;
}

TEST(MaxFlow, ParallelEdgesAdd) {
  graph::FlowNetwork g(2, 0, 1);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 5.0) << name;
}

TEST(MaxFlow, BackEdgeRequiresResidualUndo) {
  // The classic instance where a greedy path must be partially undone via
  // the residual back edge.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 2.0) << name;
}

TEST(MaxFlow, EdgesIntoSourceAndOutOfSinkAreHarmless) {
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(3, 2, 5.0); // out of sink
  g.add_edge(2, 0, 5.0); // into source
  for (const auto& [name, solve] : kSolvers) {
    const auto r = solve(g);
    EXPECT_DOUBLE_EQ(r.flow_value, 2.0) << name;
    EXPECT_EQ(flow::check_flow(g, r), "") << name;
  }
}

class MaxFlowAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowAgreement, AllSolversAgreeAndAreFeasible) {
  const int seed = GetParam();
  const std::vector<graph::FlowNetwork> instances = {
      graph::rmat(48, 300, {}, seed),
      graph::rmat_sparse(64, seed),
      graph::layered_random(4, 6, 3, 12, seed),
      graph::uniform_random(40, 160, 9, seed),
  };
  for (const auto& g : instances) {
    const auto ek = flow::edmonds_karp(g);
    const auto di = flow::dinic(g);
    const auto pr = flow::push_relabel(g);
    EXPECT_NEAR(ek.flow_value, di.flow_value, 1e-9);
    EXPECT_NEAR(ek.flow_value, pr.flow_value, 1e-9);
    EXPECT_EQ(flow::check_flow(g, ek), "");
    EXPECT_EQ(flow::check_flow(g, di), "");
    EXPECT_EQ(flow::check_flow(g, pr), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowAgreement, ::testing::Range(1, 13));

class MinCutDuality : public ::testing::TestWithParam<int> {};

TEST_P(MinCutDuality, CutValueEqualsFlowValue) {
  const auto g = graph::rmat(56, 350, {}, GetParam());
  const auto r = flow::dinic(g);
  const auto cut = flow::min_cut_from_flow(g, r);
  EXPECT_NEAR(cut.cut_value, r.flow_value, 1e-9);
  EXPECT_TRUE(cut.side[g.source()]);
  EXPECT_FALSE(cut.side[g.sink()]);
  // Every cut edge is saturated.
  for (int e : cut.cut_edges)
    EXPECT_NEAR(r.edge_flow[e], g.edge(e).capacity, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutDuality, ::testing::Range(1, 9));

TEST(PushRelabel, ConservationAuditOnRandomInstances) {
  // Push-relabel terminates with a preflow; the returned edge_flow is only
  // a flow if every unit of stranded excess has been pushed back to the
  // source. This audit sweeps ~100 random instances — including sparse
  // ones with large source-side regions that cannot reach the sink, where
  // the gap heuristic lifts whole height levels past n — and asserts true
  // conservation at every non-terminal vertex plus value agreement with
  // Dinic's independent implementation.
  int audited = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    const graph::FlowNetwork nets[] = {
        graph::rmat_sparse(120, seed, 5.0), // stranded-excess-prone
        graph::rmat_dense(60, seed),
        graph::layered_random(6, 10, 3, 16, seed),
        graph::uniform_random(90, 360, 32, seed),
    };
    for (const auto& net : nets) {
      ++audited;
      const auto pr = flow::push_relabel(net);
      const auto dn = flow::dinic(net);
      EXPECT_EQ(flow::check_flow(net, pr), "")
          << "seed " << seed << ": push-relabel left a preflow (stranded "
             "excess) or violated a capacity";
      EXPECT_DOUBLE_EQ(pr.flow_value, dn.flow_value) << "seed " << seed;
    }
  }
  EXPECT_EQ(audited, 100);
}

TEST(CheckFlow, DetectsViolations) {
  const auto g = graph::paper_example_fig5();
  auto r = flow::dinic(g);
  ASSERT_EQ(flow::check_flow(g, r), "");

  auto bad = r;
  bad.edge_flow[0] = 100.0; // over capacity
  EXPECT_NE(flow::check_flow(g, bad), "");

  bad = r;
  bad.edge_flow[1] += 0.5; // conservation broken at n2
  EXPECT_NE(flow::check_flow(g, bad), "");

  bad = r;
  bad.flow_value += 1.0; // wrong value
  EXPECT_NE(flow::check_flow(g, bad), "");
}

TEST(Residual, EdgeFlowReadersAgreeOnIntegralCapacities) {
  // The residual reads edge e's flow as capacity - cap[2e]. Augmentation
  // moves the same amount across both arcs of a pair, so on integral
  // capacities that equals the reverse arc's residual cap[2e+1] exactly
  // (on fractional ones the two differ by rounding, which is why the
  // capacity-based reader is the one kept).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto net = graph::uniform_random(60, 400, 50, seed);
    for (const bool push_relabel : {false, true}) {
      flow::detail::Residual r(net.num_vertices(), net.edges());
      long long ops = 0;
      if (push_relabel)
        flow::detail::push_relabel_augment(r, net.source(), net.sink());
      else
        flow::detail::dinic_augment(r, net.source(), net.sink(), ops);
      const std::vector<double> flows = r.edge_flows(net.edges());
      double value = 0.0;
      for (int e = 0; e < net.num_edges(); ++e) {
        EXPECT_EQ(flows[e], r.cap[2 * static_cast<size_t>(e) + 1]) << e;
        if (net.edge(e).from == net.source()) value += flows[e];
        if (net.edge(e).to == net.source()) value -= flows[e];
      }
      EXPECT_EQ(r.flow_value_at(net.edges(), net.source()), value);
    }
  }
}

namespace {

/// A max flow of `net` with every edge flow moved by up to half its
/// capacity, as a prior the Residual clamps into a capacity-feasible
/// pseudo-flow that violates conservation nearly everywhere.
std::vector<double> perturbed_max_flow(const graph::FlowNetwork& net,
                                       std::uint64_t seed) {
  std::vector<double> f = flow::dinic(net).edge_flow;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> shift(-0.5, 0.5);
  for (int e = 0; e < net.num_edges(); ++e)
    f[static_cast<size_t>(e)] += shift(rng) * net.edge(e).capacity;
  return f;
}

} // namespace

// The sharded stitch's phase repair and the delta path's nearest-target
// repair take the same carries to feasible flows: both succeed, both leave
// every ordinary vertex within the repair threshold, and a push-relabel
// augment from either reaches the exact max flow.
TEST(Residual, StitchRepairAndNearestTargetRepairAgree) {
  std::vector<graph::FlowNetwork> nets;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    nets.push_back(graph::gridflow(20, 20, 16, seed));
    nets.push_back(graph::rmat(90, 420, {}, seed));
    nets.push_back(graph::uniform_random(80, 400, 32, seed));
  }
  {
    // 1e9-scale capacities with fractional parts (as in test_sharded's
    // ExactAtLargeCapacityScale): the threshold follows the scale.
    const auto base = graph::gridflow(12, 10, 16, 1);
    graph::FlowNetwork big(base.num_vertices(), base.source(), base.sink());
    for (const auto& e : base.edges())
      big.add_edge(e.from, e.to, e.capacity * 1.000000007e9 + 0.37);
    nets.push_back(big);
  }
  for (size_t i = 0; i < nets.size(); ++i) {
    const graph::FlowNetwork& net = nets[i];
    const double exact = flow::push_relabel(net).flow_value;
    const std::vector<double> prior = perturbed_max_flow(net, i + 1);
    for (const bool stitch : {false, true}) {
      const std::string label =
          "net " + std::to_string(i) + (stitch ? " stitch" : " nearest");
      flow::detail::Residual r(net.num_vertices(), net.edges(), prior);
      double scale = 1.0;
      for (const double c : r.cap) scale = std::max(scale, c);
      const double eps = std::max(1e-9, 1e-11 * scale);
      long long ops = 0;
      const bool ok = stitch ? flow::detail::repair_stitch(
                                   r, net.source(), net.sink(), ops)
                             : flow::detail::repair_conservation(
                                   r, net.source(), net.sink(), ops);
      ASSERT_TRUE(ok) << label;
      EXPECT_GT(ops, 0) << label;
      const std::vector<double> im = r.imbalances();
      for (int v = 0; v < net.num_vertices(); ++v) {
        if (v == net.source() || v == net.sink()) continue;
        EXPECT_LE(std::abs(im[static_cast<size_t>(v)]), eps)
            << label << " v=" << v;
      }
      flow::detail::push_relabel_augment(r, net.source(), net.sink());
      EXPECT_NEAR(r.flow_value_at(net.edges(), net.source()), exact,
                  1e-9 * std::max(1.0, exact))
          << label;
    }
  }
}
