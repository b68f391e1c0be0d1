// Delta-first solver API (flow/delta.hpp + ISolver::solve_delta): the
// incremental re-solves must be value-identical to from-scratch solves —
// max-flow value and min-cut value — on every edit shape (single edge,
// k-edge batch, decrease-below-flow, saturating increase), and the serving
// layer's reconfigure streams must replay to the same values with the
// delta path on or off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/registry.hpp"
#include "core/serve_engine.hpp"
#include "core/workload.hpp"
#include "flow/delta.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

namespace core = aflow::core;
namespace flow = aflow::flow;
namespace graph = aflow::graph;

namespace {

using DeltaFn = flow::MaxFlowResult (*)(const graph::FlowNetwork&,
                                        const flow::CapacityDelta&,
                                        const flow::MaxFlowResult&);

// Wrapped in lambdas because the underlying entry points also take a
// defaulted CancelToken, which is part of the function-pointer type.
const std::vector<std::pair<const char*, DeltaFn>> kDeltaSolvers = {
    {"dinic_delta",
     [](const graph::FlowNetwork& n, const flow::CapacityDelta& d,
        const flow::MaxFlowResult& p) { return flow::dinic_delta(n, d, p); }},
    {"push_relabel_delta",
     [](const graph::FlowNetwork& n, const flow::CapacityDelta& d,
        const flow::MaxFlowResult& p) {
       return flow::push_relabel_delta(n, d, p);
     }},
};

/// Asserts `r` is a maximum flow of `net`: feasible, and value-identical
/// (flow AND extracted min-cut value) to an independent scratch solve.
void expect_max_flow(const graph::FlowNetwork& net, const flow::MaxFlowResult& r,
                     const char* what) {
  EXPECT_EQ(flow::check_flow(net, r), "") << what;
  const flow::MaxFlowResult scratch = flow::edmonds_karp(net);
  EXPECT_NEAR(r.flow_value, scratch.flow_value, 1e-6) << what;
  const flow::MinCutResult cut = flow::min_cut_from_flow(net, r);
  EXPECT_NEAR(cut.cut_value, scratch.flow_value, 1e-6) << what;
}

flow::CapacityDelta edit_edges(graph::FlowNetwork& net,
                               const std::vector<std::pair<int, double>>& edits) {
  flow::CapacityDelta d;
  for (const auto& [e, c] : edits) d.edits.push_back({e, c, -1.0});
  d.apply(net);
  return d;
}

/// Indices of the edges leaving the source, ascending.
std::vector<int> source_out_edges(const graph::FlowNetwork& net) {
  std::vector<int> out;
  for (int e = 0; e < net.num_edges(); ++e)
    if (net.edge(e).from == net.source()) out.push_back(e);
  return out;
}

/// Minimal extractors for aflow-serve-v1 single-line JSON responses.
double json_double(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

bool json_bool(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  return at != std::string::npos &&
         json.compare(at + needle.size(), 4, "true") == 0;
}

} // namespace

TEST(CapacityDelta, ApplyRecordsOldCapacitiesAndValidates) {
  graph::FlowNetwork g(3, 0, 2);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 6.0);

  flow::CapacityDelta d;
  d.edits.push_back({1, 2.5, -1.0});
  EXPECT_EQ(d.max_relative_change(),
            std::numeric_limits<double>::infinity()); // unmeasured
  d.apply(g);
  EXPECT_DOUBLE_EQ(g.edge(1).capacity, 2.5);
  EXPECT_DOUBLE_EQ(d.edits[0].old_capacity, 6.0);
  EXPECT_NEAR(d.max_relative_change(), 3.5 / 6.0, 1e-12);
  EXPECT_EQ(d.distinct_edges(), 1);

  flow::CapacityDelta bad;
  bad.edits.push_back({7, 1.0, -1.0});
  EXPECT_THROW(bad.apply(g), std::invalid_argument);
}

TEST(CapacityDelta, ApplyIsAllOrNothingOnInvalidEdits) {
  // A bad *trailing* edit must not leave the network half-mutated: apply()
  // validates the whole batch before touching anything, so a failed apply
  // leaves both the instance and the edits' old_capacity bookkeeping
  // byte-identical to their pre-call state.
  graph::FlowNetwork g(3, 0, 2);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 6.0);

  flow::CapacityDelta bad_index;
  bad_index.edits.push_back({0, 9.0, -1.0}); // valid head...
  bad_index.edits.push_back({7, 1.0, -1.0}); // ...bad trailing index
  EXPECT_THROW(bad_index.apply(g), std::invalid_argument);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 4.0);
  EXPECT_DOUBLE_EQ(g.edge(1).capacity, 6.0);
  EXPECT_DOUBLE_EQ(bad_index.edits[0].old_capacity, -1.0); // never recorded

  flow::CapacityDelta bad_capacity;
  bad_capacity.edits.push_back({0, 9.0, -1.0});
  bad_capacity.edits.push_back({1, 0.0, -1.0}); // non-positive trailing cap
  EXPECT_THROW(bad_capacity.apply(g), std::invalid_argument);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 4.0);
  EXPECT_DOUBLE_EQ(g.edge(1).capacity, 6.0);
  EXPECT_DOUBLE_EQ(bad_capacity.edits[0].old_capacity, -1.0);

  // The same batch with the bad edit repaired applies cleanly.
  flow::CapacityDelta good;
  good.edits.push_back({0, 9.0, -1.0});
  good.edits.push_back({1, 2.0, -1.0});
  good.apply(g);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 9.0);
  EXPECT_DOUBLE_EQ(g.edge(1).capacity, 2.0);
}

TEST(CapacityDelta, ComposedFoldsDuplicateEditsFirstOldLastNew) {
  // Duplicate edits to one edge must compose per edge — first old
  // capacity, last new capacity — before any relative-change measurement.
  // Edge 0 round-trips 10 -> 30 -> 10 (composed change: none); measuring
  // the raw edit list instead would report |30-10|/10 = 2.0 and spuriously
  // blow any trust-region threshold.
  graph::FlowNetwork g(3, 0, 2);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 20.0);

  flow::CapacityDelta d;
  d.edits.push_back({0, 30.0, -1.0});
  d.edits.push_back({1, 24.0, -1.0});
  d.edits.push_back({0, 10.0, -1.0});
  d.apply(g);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 10.0);
  EXPECT_EQ(d.distinct_edges(), 2);

  const std::vector<flow::CapacityEdit> folded = d.composed();
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0].edge, 0);
  EXPECT_DOUBLE_EQ(folded[0].old_capacity, 10.0); // first old...
  EXPECT_DOUBLE_EQ(folded[0].capacity, 10.0);     // ...last new
  EXPECT_EQ(folded[1].edge, 1);
  EXPECT_DOUBLE_EQ(folded[1].old_capacity, 20.0);
  EXPECT_DOUBLE_EQ(folded[1].capacity, 24.0);

  // Worst relative change comes from edge 1 alone: 4/20.
  EXPECT_NEAR(d.max_relative_change(), 0.2, 1e-12);
}

TEST(CapacityDelta, DeltaBetweenDiffsCapacitiesAndRejectsTopologyChanges) {
  const graph::FlowNetwork before = graph::layered_random(3, 4, 2, 16, 7);
  graph::FlowNetwork after = before;
  after.set_capacity(0, after.edge(0).capacity + 3.0);
  after.set_capacity(2, 1.0);

  const flow::CapacityDelta d = flow::delta_between(before, after);
  ASSERT_EQ(d.edits.size(), 2u);
  EXPECT_EQ(d.edits[0].edge, 0);
  EXPECT_DOUBLE_EQ(d.edits[0].old_capacity, before.edge(0).capacity);
  EXPECT_EQ(d.edits[1].edge, 2);

  graph::FlowNetwork other(before.num_vertices() + 1, 0, 1);
  EXPECT_THROW(flow::delta_between(before, other), std::invalid_argument);
}

TEST(DeltaSolve, SingleEdgeEditsMatchScratch) {
  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const graph::FlowNetwork base = graph::uniform_random(40, 160, 32, seed);
      const flow::MaxFlowResult prior = flow::dinic(base);

      // Increase and decrease, one edge each.
      for (const double cap : {40.0, 1.0}) {
        graph::FlowNetwork edited = base;
        const int e = static_cast<int>(seed * 7) % base.num_edges();
        const flow::CapacityDelta d = edit_edges(edited, {{e, cap}});
        const flow::MaxFlowResult r = solve_delta(edited, d, prior);
        expect_max_flow(edited, r, name);
        EXPECT_EQ(r.metrics.delta_solves, 1) << name;
        EXPECT_EQ(r.metrics.delta_fallbacks, 0) << name;
        EXPECT_EQ(r.metrics.edges_touched, 1) << name;
      }
    }
  }
}

TEST(DeltaSolve, KEdgeBatchesMatchScratch) {
  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const graph::FlowNetwork base =
          graph::layered_random(4, 6, 3, 32, seed);
      const flow::MaxFlowResult prior = flow::push_relabel(base);

      std::mt19937_64 rng(seed * 1234567);
      graph::FlowNetwork edited = base;
      std::vector<std::pair<int, double>> edits;
      for (int k = 0; k < 6; ++k)
        edits.push_back({static_cast<int>(rng() % base.num_edges()),
                         1.0 + static_cast<double>(rng() % 40)});
      const flow::CapacityDelta d = edit_edges(edited, edits);
      const flow::MaxFlowResult r = solve_delta(edited, d, prior);
      expect_max_flow(edited, r, name);
      EXPECT_EQ(r.metrics.delta_solves, 1) << name;
      EXPECT_EQ(r.metrics.edges_touched, d.distinct_edges()) << name;
    }
  }
}

TEST(DeltaSolve, DecreaseBelowCarriedFlowRepairs) {
  // 0->1->3 carries 10, 0->2->3 carries 5; cutting 0->1 to 3 strands 7
  // units of carried flow that the repair must drain before re-augmenting.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 3, 10.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  const flow::MaxFlowResult prior = flow::dinic(g);
  ASSERT_DOUBLE_EQ(prior.flow_value, 15.0);

  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    graph::FlowNetwork edited = g;
    const flow::CapacityDelta d = edit_edges(edited, {{0, 3.0}});
    const flow::MaxFlowResult r = solve_delta(edited, d, prior);
    EXPECT_DOUBLE_EQ(r.flow_value, 8.0) << name;
    expect_max_flow(edited, r, name);
    EXPECT_EQ(r.metrics.delta_solves, 1) << name;
  }
}

TEST(DeltaSolve, SaturatingIncreaseReaugments) {
  // Widening the bottleneck opens fresh slack the re-augment must claim.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(2, 3, 10.0);
  const flow::MaxFlowResult prior = flow::push_relabel(g);
  ASSERT_DOUBLE_EQ(prior.flow_value, 2.0);

  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    graph::FlowNetwork edited = g;
    const flow::CapacityDelta d = edit_edges(edited, {{0, 8.0}});
    const flow::MaxFlowResult r = solve_delta(edited, d, prior);
    EXPECT_DOUBLE_EQ(r.flow_value, 8.0) << name;
    expect_max_flow(edited, r, name);
  }
}

TEST(DeltaSolve, DustDeadEndTakesCountedLegacyFallback) {
  // Dust-capacity feeders (below the restart's capacity-relative excess
  // epsilon) leave parked excess whose flow-carrying in-arcs are all dust:
  // the phase-2 return walk dead-ends even with freshly invalidated
  // cursors and must hand off to the legacy discharge fallback — counted
  // in phase2_fallbacks, never silent — which still produces a maximum
  // flow. Two feeders and a depth-2 tail make the dead end deterministic
  // (one feeder's worth of excess parks above n with only dust inflow).
  graph::FlowNetwork g(6, 0, 5);
  g.add_edge(0, 1, 9e-12); // dust feeders...
  g.add_edge(0, 2, 9e-12);
  g.add_edge(1, 3, 1.0); // ...into a wide junction (sets capacity scale 1)
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1e-12); // dust bottleneck at the sink

  const flow::MaxFlowResult r = flow::push_relabel(g);
  EXPECT_EQ(flow::check_flow(g, r), "");
  EXPECT_GE(r.metrics.phase2_fallbacks, 1);
  EXPECT_DOUBLE_EQ(r.flow_value, flow::dinic(g).flow_value);

  // The incremental path over the same dust instance stays correct too
  // (whatever mix of warm restart, escalation, and phase-2 fallback runs).
  graph::FlowNetwork edited = g;
  const flow::CapacityDelta d = edit_edges(edited, {{5, 3e-12}});
  const flow::MaxFlowResult w = flow::push_relabel_delta(edited, d, r);
  EXPECT_EQ(flow::check_flow(edited, w), "");
  EXPECT_NEAR(w.flow_value, flow::dinic(edited).flow_value, 1e-9);
}

TEST(DeltaSolve, SourceAdjacentDecreaseHeavyBatchesMatchScratch) {
  // Decrease-heavy batches concentrated on source-adjacent arcs are the
  // delta path's hardest repair shape: cutting source arcs strands carried
  // flow that the conservation repair must drain before re-augmenting, and
  // the push-relabel warm restart must price the repair's rerouting into
  // its budget (a clean stream escalates never, falls back never).
  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const graph::FlowNetwork base = graph::uniform_random(40, 160, 32, seed);
      const flow::MaxFlowResult prior = flow::push_relabel(base);

      const std::vector<int> src = source_out_edges(base);
      ASSERT_GE(src.size(), 2u);
      std::vector<std::pair<int, double>> edits;
      for (size_t i = 0; i < src.size() && i < 4; ++i)
        edits.push_back(
            {src[i], std::max(0.125 * base.edge(src[i]).capacity, 1e-3)});
      graph::FlowNetwork edited = base;
      const flow::CapacityDelta d = edit_edges(edited, edits);
      const flow::MaxFlowResult r = solve_delta(edited, d, prior);
      expect_max_flow(edited, r, name);
      EXPECT_EQ(r.metrics.delta_solves, 1) << name;
      EXPECT_EQ(r.metrics.delta_fallbacks, 0) << name;
      EXPECT_EQ(r.metrics.warm_escalations, 0) << name;
      EXPECT_EQ(r.metrics.phase2_fallbacks, 0) << name;
    }
  }
}

TEST(DeltaSolve, SourceAdjacentMixedBatchesMatchScratch) {
  // Mixed increase/decrease batches on the source frontier: increases open
  // fresh source slack (slack budget side) while simultaneous decreases
  // force repair reroutes (cut budget side) — the warm restart must stay
  // exact when both budget arguments are active in one step, across a
  // chained stream where each step's result seeds the next.
  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
      const graph::FlowNetwork base =
          graph::layered_random(4, 6, 3, 32, seed);
      graph::FlowNetwork current = base;
      flow::MaxFlowResult prior = flow::push_relabel(current);

      const std::vector<int> src = source_out_edges(base);
      ASSERT_GE(src.size(), 2u);
      for (int step = 0; step < 3; ++step) {
        std::vector<std::pair<int, double>> edits;
        for (size_t i = 0; i < src.size(); ++i) {
          const double cap = current.edge(src[i]).capacity;
          // Alternate per step which arcs grow and which shrink.
          const bool grow = (i + static_cast<size_t>(step)) % 2 == 0;
          edits.push_back({src[i], grow ? 2.0 * cap : 0.25 * cap});
        }
        graph::FlowNetwork edited = current;
        const flow::CapacityDelta d = edit_edges(edited, edits);
        const flow::MaxFlowResult r = solve_delta(edited, d, prior);
        expect_max_flow(edited, r, name);
        EXPECT_EQ(r.metrics.delta_solves, 1) << name << " step " << step;
        EXPECT_EQ(r.metrics.warm_escalations, 0) << name << " step " << step;
        EXPECT_EQ(r.metrics.phase2_fallbacks, 0) << name << " step " << step;
        current = std::move(edited);
        prior = r;
      }
    }
  }
}

TEST(DeltaSolve, UnusablePriorFallsBackToScratch) {
  const graph::FlowNetwork g = graph::layered_random(3, 4, 2, 16, 11);
  flow::MaxFlowResult bogus; // empty edge_flow: wrong shape
  for (const auto& [name, solve_delta] : kDeltaSolvers) {
    graph::FlowNetwork edited = g;
    const flow::CapacityDelta d = edit_edges(edited, {{0, 2.0}});
    const flow::MaxFlowResult r = solve_delta(edited, d, bogus);
    expect_max_flow(edited, r, name);
    EXPECT_EQ(r.metrics.delta_solves, 0) << name;
    EXPECT_EQ(r.metrics.delta_fallbacks, 1) << name;
  }
}

TEST(DeltaSolve, RegistryIncrementalBackendsMatchScratch) {
  // Every backend advertising SolverCapabilities::incremental must return
  // a scratch-identical flow value through solve_delta (exact backends to
  // solver tolerance; the near-ideal analog entries to substrate accuracy
  // — fig5 keeps the capacity range quantization-friendly).
  const graph::FlowNetwork base = graph::paper_example_fig5();
  bool any_incremental = false;
  for (const std::string& name : core::SolverRegistry::instance().names()) {
    const core::SolverPtr s = core::SolverRegistry::instance().create(name);
    if (!s->capabilities().incremental) continue;
    any_incremental = true;

    const flow::MaxFlowResult prior = s->solve(base);
    graph::FlowNetwork edited = base;
    const int e = 0;
    flow::CapacityDelta d =
        edit_edges(edited, {{e, base.edge(e).capacity + 1.0}});
    const flow::MaxFlowResult r = s->solve_delta(edited, d, prior);
    EXPECT_EQ(r.metrics.delta_solves + r.metrics.delta_fallbacks, 1) << name;

    const double exact = flow::dinic(edited).flow_value;
    const double tol = s->capabilities().exact ? 1e-6 : 0.05 * exact + 1e-6;
    EXPECT_NEAR(r.flow_value, exact, tol) << name;
  }
  EXPECT_TRUE(any_incremental);
  // The non-incremental baseline still answers through the default
  // (scratch) path, counted as a fallback.
  const core::SolverPtr ek = core::SolverRegistry::instance().create("edmonds_karp");
  EXPECT_FALSE(ek->capabilities().incremental);
  graph::FlowNetwork edited = base;
  flow::CapacityDelta d = edit_edges(edited, {{0, 9.0}});
  const flow::MaxFlowResult r = ek->solve_delta(edited, d, flow::dinic(base));
  EXPECT_EQ(r.metrics.delta_fallbacks, 1);
  EXPECT_NEAR(r.flow_value, flow::dinic(edited).flow_value, 1e-9);
}

TEST(DeltaSolve, AnalogLargeDeltaTakesTrustRegionFallback) {
  const core::SolverPtr s =
      core::SolverRegistry::instance().create("analog_dc_warm");
  ASSERT_TRUE(s->capabilities().incremental);
  const graph::FlowNetwork base = graph::paper_example_fig5();
  const flow::MaxFlowResult prior = s->solve(base);

  // 2x on one edge (relative change 1.0) blows delta_trust_relative (0.5):
  // full solve, counted as a fallback, still a valid answer.
  graph::FlowNetwork edited = base;
  flow::CapacityDelta d =
      edit_edges(edited, {{0, base.edge(0).capacity * 2.0}});
  const flow::MaxFlowResult r = s->solve_delta(edited, d, prior);
  EXPECT_EQ(r.metrics.delta_solves, 0);
  EXPECT_EQ(r.metrics.delta_fallbacks, 1);
  // The fallback is a full solve, so its value matches a fresh adapter's
  // cold answer on the edited instance (same substrate quantization).
  const core::SolverPtr cold =
      core::SolverRegistry::instance().create("analog_dc_warm");
  EXPECT_NEAR(r.flow_value, cold->solve(edited).flow_value, 1e-6);
}

TEST(BatchEngine, DeltaStreamMatchesSerialReplay) {
  // vary=K capacity variants share one topology: exactly the
  // reconfiguration-stream shape run_delta consumes.
  const std::vector<graph::FlowNetwork> instances =
      core::load_batch("grid:side=5,seed=3,vary=6");
  ASSERT_GE(instances.size(), 2u);
  std::vector<flow::CapacityDelta> deltas;
  for (size_t k = 1; k < instances.size(); ++k)
    deltas.push_back(flow::delta_between(instances[k - 1], instances[k]));

  core::BatchOptions bo;
  bo.solver = "push_relabel";
  bo.validate = true;
  bo.deterministic = true;
  const core::SolverPtr solver =
      core::SolverRegistry::instance().create(bo.solver);
  const core::BatchReport stream =
      core::BatchEngine(bo).run_delta(instances.front(), deltas, solver);
  const core::BatchReport replay = core::BatchEngine(bo).run(instances);

  ASSERT_EQ(stream.outcomes.size(), replay.outcomes.size());
  EXPECT_EQ(stream.failed, 0);
  for (size_t k = 0; k < stream.outcomes.size(); ++k) {
    ASSERT_TRUE(stream.outcomes[k].ok) << stream.outcomes[k].error;
    EXPECT_NEAR(stream.outcomes[k].result.flow_value,
                replay.outcomes[k].result.flow_value, 1e-6)
        << "instance " << k;
  }
  // Every post-base step rode the fast path, and the warm restarts were
  // clean: no budget-undershoot escalations to the cold flood, no phase-2
  // dead ends into the legacy discharge fallback.
  EXPECT_EQ(stream.metrics.delta_solves,
            static_cast<long long>(deltas.size()));
  EXPECT_EQ(stream.metrics.delta_fallbacks, 0);
  EXPECT_EQ(stream.metrics.warm_escalations, 0);
  EXPECT_EQ(stream.metrics.phase2_fallbacks, 0);
}

TEST(BatchEngine, DeltaStreamSurvivesBadEditMidStream) {
  // A malformed delta mid-stream fails its own step only. apply() is
  // all-or-nothing, so the engine's working instance still holds the
  // previous step's state exactly and the remaining deltas replay onto it
  // as if the bad one had never arrived.
  const std::vector<graph::FlowNetwork> instances =
      core::load_batch("grid:side=4,seed=5,vary=3");
  ASSERT_EQ(instances.size(), 3u);

  std::vector<flow::CapacityDelta> deltas;
  deltas.push_back(flow::delta_between(instances[0], instances[1]));
  flow::CapacityDelta bad;
  bad.edits.push_back({3, 2.5, -1.0});
  bad.edits.push_back({999999, 1.0, -1.0}); // out of range: step must fail
  deltas.push_back(bad);
  deltas.push_back(flow::delta_between(instances[1], instances[2]));

  core::BatchOptions bo;
  bo.solver = "push_relabel";
  bo.validate = true;
  bo.deterministic = true;
  const core::SolverPtr solver =
      core::SolverRegistry::instance().create(bo.solver);
  const core::BatchReport report =
      core::BatchEngine(bo).run_delta(instances.front(), deltas, solver);

  ASSERT_EQ(report.outcomes.size(), 4u);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_TRUE(report.outcomes[1].ok);
  EXPECT_FALSE(report.outcomes[2].ok);
  EXPECT_NE(report.outcomes[2].error.find("out of range"), std::string::npos)
      << report.outcomes[2].error;
  EXPECT_TRUE(report.outcomes[3].ok) << report.outcomes[3].error;
  EXPECT_EQ(report.failed, 1);

  // Steps 1 and 3 solved exactly instances[1] and instances[2]: the failed
  // step neither advanced nor half-mutated the stream state.
  EXPECT_NEAR(report.outcomes[1].result.flow_value,
              flow::dinic(instances[1]).flow_value, 1e-6);
  EXPECT_NEAR(report.outcomes[3].result.flow_value,
              flow::dinic(instances[2]).flow_value, 1e-6);
}

TEST(ServeDelta, ReconfigureStreamMatchesScratchReplay) {
  // The same session stream, once with delta routing and once with
  // --scratch forced, must report identical flow values — the serve-level
  // value-identity contract of the delta path.
  const auto run_stream = [](bool scratch) {
    core::ServeOptions opt;
    opt.deterministic = true;
    core::ServeEngine engine(opt);
    const std::string load = engine.handle("load --spec grid:side=5,seed=2");
    EXPECT_TRUE(json_bool(load, "ok")) << load;
    const int edges = static_cast<int>(json_double(load, "edges"));
    EXPECT_GT(edges, 8);

    std::vector<double> flows;
    std::vector<bool> delta_flags;
    for (int k = 0; k < 6; ++k) {
      if (k > 0) {
        const int e1 = (5 * k + 1) % edges;
        const int e2 = (11 * k + 3) % edges;
        const std::string reconf = engine.handle(
            "reconfigure --edits " + std::to_string(e1) + ":" +
            std::to_string(2.0 + k) + "," + std::to_string(e2) + ":1.5");
        EXPECT_TRUE(json_bool(reconf, "ok")) << reconf;
      }
      const std::string solve = engine.handle(
          std::string("solve --solver push_relabel --check") +
          (scratch ? " --scratch" : ""));
      EXPECT_TRUE(json_bool(solve, "ok")) << solve;
      flows.push_back(json_double(solve, "flow"));
      delta_flags.push_back(json_bool(solve, "delta"));
    }
    // First solve has no prior; afterwards the delta path engages unless
    // --scratch suppressed it.
    EXPECT_FALSE(delta_flags.front());
    for (size_t k = 1; k < delta_flags.size(); ++k)
      EXPECT_EQ(delta_flags[k], !scratch) << k;
    return flows;
  };

  const std::vector<double> with_delta = run_stream(false);
  const std::vector<double> with_scratch = run_stream(true);
  ASSERT_EQ(with_delta.size(), with_scratch.size());
  for (size_t k = 0; k < with_delta.size(); ++k)
    EXPECT_NEAR(with_delta[k], with_scratch[k], 1e-6) << "solve " << k;
}

TEST(ServeDelta, RequestSchemaAndDeprecationSurface) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  engine.handle("load --spec grid:side=4,seed=1");

  // Structured edits form. Fractional capacities guarantee both edits
  // differ from the integral generator capacities: edits_applied counts
  // edges whose capacity actually changed (delta_between normalization).
  const std::string edits = engine.handle("reconfigure --edits 0:3.25,1:2.75");
  EXPECT_TRUE(json_bool(edits, "ok")) << edits;
  EXPECT_EQ(json_double(edits, "edits_applied"), 2.0) << edits;

  // The single-edge alias is gone (its one-release deprecation window
  // closed): the request fails and the error points at the structured form.
  const std::string legacy = engine.handle("reconfigure --edge 0 --capacity 4.5");
  EXPECT_FALSE(json_bool(legacy, "ok")) << legacy;
  EXPECT_NE(legacy.find("removed"), std::string::npos) << legacy;
  EXPECT_NE(legacy.find("--edits"), std::string::npos) << legacy;

  // The no-op-arguments error must advertise the new form...
  const std::string noargs = engine.handle("reconfigure");
  EXPECT_FALSE(json_bool(noargs, "ok"));
  EXPECT_NE(noargs.find("--edits I:C[,I:C...]"), std::string::npos) << noargs;

  // ...malformed edit lists fail cleanly...
  const std::string badedit = engine.handle("reconfigure --edits nope");
  EXPECT_FALSE(json_bool(badedit, "ok"));
  EXPECT_NE(badedit.find("EDGE:CAPACITY"), std::string::npos) << badedit;

  // ...and the unknown-request help lists shutdown alongside quit.
  const std::string unknown = engine.handle("frobnicate");
  EXPECT_FALSE(json_bool(unknown, "ok"));
  EXPECT_NE(unknown.find("quit shutdown"), std::string::npos) << unknown;
}

TEST(ServeDelta, BatchDeltaStreamMatchesPlainBatch) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  engine.handle("load --spec grid:side=4,seed=1");

  const std::string spec = "grid:side=5,seed=3,vary=4";
  const std::string plain =
      engine.handle("batch --spec " + spec + " --solver dinic --check");
  const std::string delta =
      engine.handle("batch --spec " + spec + " --solver dinic --check --delta");
  EXPECT_TRUE(json_bool(plain, "ok")) << plain;
  EXPECT_TRUE(json_bool(delta, "ok")) << delta;
  EXPECT_FALSE(json_bool(plain, "delta"));
  EXPECT_TRUE(json_bool(delta, "delta"));
  EXPECT_EQ(json_double(plain, "failed"), 0.0) << plain;
  EXPECT_EQ(json_double(delta, "failed"), 0.0) << delta;
  EXPECT_NEAR(json_double(delta, "total_flow"), json_double(plain, "total_flow"),
              1e-6);
  EXPECT_GT(json_double(delta, "delta_solves"), 0.0) << delta;
}

TEST(ServeDelta, FailedReconfigureLeavesSessionStateUntouched) {
  // A reconfigure whose edit list fails validation (bad trailing index, or
  // a non-positive capacity) must leave the session exactly as it was:
  // same instance (same solve answer), same revision, no edit-log entry —
  // the serve-level face of CapacityDelta::apply being all-or-nothing.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  const std::string load = engine.handle("load --spec grid:side=4,seed=1");
  ASSERT_TRUE(json_bool(load, "ok")) << load;

  const std::string solve0 =
      engine.handle("solve --solver push_relabel --check");
  ASSERT_TRUE(json_bool(solve0, "ok")) << solve0;
  const double flow0 = json_double(solve0, "flow");
  const double rev0 = json_double(engine.handle("session"), "revision");

  const std::string bad_index =
      engine.handle("reconfigure --edits 0:5.5,999999:1.0");
  EXPECT_FALSE(json_bool(bad_index, "ok")) << bad_index;
  EXPECT_NE(bad_index.find("out of range"), std::string::npos) << bad_index;

  const std::string bad_cap =
      engine.handle("reconfigure --edits 0:5.5,1:-3.0");
  EXPECT_FALSE(json_bool(bad_cap, "ok")) << bad_cap;
  EXPECT_NE(bad_cap.find("must be positive"), std::string::npos) << bad_cap;

  // Revision log untouched, instance untouched: the re-solve rides the
  // (empty) delta path and reproduces the exact prior answer.
  EXPECT_DOUBLE_EQ(json_double(engine.handle("session"), "revision"), rev0);
  const std::string solve1 =
      engine.handle("solve --solver push_relabel --check");
  ASSERT_TRUE(json_bool(solve1, "ok")) << solve1;
  EXPECT_DOUBLE_EQ(json_double(solve1, "flow"), flow0);

  // And the session is not wedged: a valid reconfigure still advances.
  const std::string good = engine.handle("reconfigure --edits 0:5.5");
  EXPECT_TRUE(json_bool(good, "ok")) << good;
  EXPECT_DOUBLE_EQ(json_double(good, "revision"), rev0 + 1);
}

TEST(ServeDelta, SourceAdjacentReconfigureStreamMatchesScratchReplay) {
  // The decrease-heavy / mixed source-frontier battery, through the serve
  // reconfigure --edits route: the same stream with delta routing on and
  // off must report identical flows. Edge indices of the source's out-arcs
  // come from loading the same generator spec locally.
  const std::string spec = "grid:side=5,seed=7";
  const std::vector<graph::FlowNetwork> local = core::load_batch(spec);
  ASSERT_EQ(local.size(), 1u);
  const graph::FlowNetwork& net = local[0];
  const std::vector<int> src = source_out_edges(net);
  ASSERT_GE(src.size(), 2u);

  const auto run_stream = [&](bool scratch) {
    core::ServeOptions opt;
    opt.deterministic = true;
    core::ServeEngine engine(opt);
    const std::string load = engine.handle("load --spec " + spec);
    EXPECT_TRUE(json_bool(load, "ok")) << load;

    std::vector<double> flows;
    for (int k = 0; k < 5; ++k) {
      if (k > 0) {
        // Alternate squeezing and widening the source frontier, always
        // editing every source-adjacent arc in one batch.
        std::string edits;
        for (size_t i = 0; i < src.size(); ++i) {
          const double cap = net.edge(src[i]).capacity;
          const bool grow = (i + static_cast<size_t>(k)) % 2 == 0;
          if (!edits.empty()) edits += ",";
          edits += std::to_string(src[i]) + ":" +
                   std::to_string(grow ? 2.0 * cap + k : 0.25 * cap);
        }
        const std::string reconf = engine.handle("reconfigure --edits " + edits);
        EXPECT_TRUE(json_bool(reconf, "ok")) << reconf;
      }
      const std::string solve = engine.handle(
          std::string("solve --solver push_relabel --check") +
          (scratch ? " --scratch" : ""));
      EXPECT_TRUE(json_bool(solve, "ok")) << solve;
      flows.push_back(json_double(solve, "flow"));
      if (k > 0) {
        EXPECT_EQ(json_bool(solve, "delta"), !scratch) << "solve " << k;
      }
    }
    return flows;
  };

  const std::vector<double> with_delta = run_stream(false);
  const std::vector<double> with_scratch = run_stream(true);
  ASSERT_EQ(with_delta.size(), with_scratch.size());
  for (size_t k = 0; k < with_delta.size(); ++k)
    EXPECT_NEAR(with_delta[k], with_scratch[k], 1e-6) << "solve " << k;
}
