// Clustered island-style architectures (Sec. 6.2): FM partitioning,
// placement, channel routing, and the utilisation argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>

#include "arch/clustered.hpp"
#include "arch/partition.hpp"
#include "core/workload.hpp"
#include "graph/generators.hpp"

namespace arch = aflow::arch;
namespace graph = aflow::graph;

TEST(Partition, FmSeparatesTwoCliques) {
  // Two 4-cliques joined by one edge: optimal bipartition cuts exactly it.
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) {
      edges.emplace_back(a, b);
      edges.emplace_back(4 + a, 4 + b);
    }
  edges.emplace_back(0, 4);
  const auto r = arch::fm_bipartition(8, edges, 0.1, 3);
  EXPECT_EQ(r.cut_edges, 1);
  EXPECT_EQ(r.side[0], r.side[1]);
  EXPECT_EQ(r.side[0], r.side[3]);
  EXPECT_NE(r.side[0], r.side[4]);
}

TEST(Partition, FmRespectsBalance) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < 30; ++v) edges.emplace_back(0, v); // star
  const auto r = arch::fm_bipartition(30, edges, 0.1, 1);
  int left = 0;
  for (char s : r.side) left += s == 0;
  EXPECT_GE(left, 13);
  EXPECT_LE(left, 17);
}

TEST(Partition, IslandsRespectCapacity) {
  const auto g = graph::rmat_sparse(96, 5);
  const auto p = arch::partition_into_islands(g, 16, 5);
  std::vector<int> count(p.num_parts, 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(p.part[v], 0);
    ASSERT_LT(p.part[v], p.num_parts);
    count[p.part[v]]++;
  }
  for (int c : count) EXPECT_LE(c, 16);
  // Cut accounting is consistent.
  long long cut = 0;
  for (const auto& e : g.edges()) cut += p.part[e.from] != p.part[e.to];
  EXPECT_EQ(cut, p.cut_edges);
}

TEST(Partition, ClusteringBeatsRandomAssignment) {
  const auto g = graph::rmat_sparse(128, 9);
  const auto p = arch::partition_into_islands(g, 32, 9);
  // Random assignment into the same number of parts cuts ~ (1 - 1/parts)
  // of the edges; FM should do clearly better on a clustered R-MAT graph.
  const double random_cut =
      g.num_edges() * (1.0 - 1.0 / std::max(p.num_parts, 1));
  EXPECT_LT(static_cast<double>(p.cut_edges), 0.8 * random_cut);
}

TEST(Clustered, MappingIsConsistent) {
  const auto g = graph::rmat_sparse(128, 3);
  arch::ArchSpec spec;
  spec.island_capacity = 32;
  spec.channel_width = 1 << 20; // effectively unbounded: must route
  const auto m = arch::map_to_islands(g, spec, 3);

  EXPECT_TRUE(m.routed);
  EXPECT_EQ(m.intra_island_edges + m.inter_island_edges, g.num_edges());
  EXPECT_GT(m.islands, 1);
  EXPECT_GT(m.required_channel_width, 0);
  EXPECT_GE(m.total_wirelength, m.inter_island_edges); // >= 1 segment each
}

TEST(Clustered, UtilizationBeatsMonolithicOnSparseGraphs) {
  // The Sec. 6.2 motivation: a large sparse graph wastes a monolithic
  // n x n crossbar (utilisation ~ 1/n); islands recover utilisation.
  const auto g = graph::rmat_sparse(512, 7);
  arch::ArchSpec spec;
  spec.island_capacity = 32;
  const auto m = arch::map_to_islands(g, spec, 7);
  EXPECT_GT(m.clustered_utilization, 2.0 * m.monolithic_utilization);
}

TEST(Clustered, RoutingFailsWhenChannelTooNarrow) {
  const auto g = graph::rmat_sparse(128, 11);
  arch::ArchSpec spec;
  spec.island_capacity = 16;
  spec.channel_width = 1;
  const auto m = arch::map_to_islands(g, spec, 11);
  EXPECT_FALSE(m.routed);
  EXPECT_GT(m.required_channel_width, 1);
}

TEST(Clustered, Grid2DNeedsNoWiderChannelsThan1D) {
  // The Fig. 11 trade-off: 2-D routing spreads demand over many segments,
  // so its peak channel occupancy is at most the 1-D bundle's.
  const auto g = graph::rmat_sparse(192, 13);
  arch::ArchSpec d1;
  d1.island_capacity = 24;
  arch::ArchSpec d2 = d1;
  d2.style = arch::RoutingStyle::kGrid2D;
  d2.grid_columns = 3;
  const auto m1 = arch::map_to_islands(g, d1, 13);
  const auto m2 = arch::map_to_islands(g, d2, 13);
  EXPECT_LE(m2.required_channel_width, m1.required_channel_width);
}

TEST(Clustered, SingleIslandHasNoRouting) {
  const auto g = graph::rmat(20, 60, {}, 1);
  arch::ArchSpec spec;
  spec.island_capacity = 64; // whole graph fits
  const auto m = arch::map_to_islands(g, spec, 1);
  EXPECT_EQ(m.islands, 1);
  EXPECT_EQ(m.inter_island_edges, 0);
  EXPECT_EQ(m.required_channel_width, 0);
  EXPECT_TRUE(m.routed);
}

TEST(Clustered, RejectsBadSpecs) {
  const auto g = graph::rmat(20, 60, {}, 1);
  arch::ArchSpec bad;
  bad.island_capacity = 0;
  EXPECT_THROW(arch::map_to_islands(g, bad), std::invalid_argument);
  arch::ArchSpec bad2;
  bad2.style = arch::RoutingStyle::kGrid2D;
  bad2.grid_columns = 0;
  EXPECT_THROW(arch::map_to_islands(g, bad2), std::invalid_argument);
}

// ---- Seed-determinism and balance-tolerance pins (satellite battery) ----

TEST(Partition, FmIsSeedDeterministicOnLargerRandomGraphs) {
  // Two calls with identical (graph, tolerance, seed) must agree exactly:
  // downstream consumers (island mapping, sharded solve) rely on replayable
  // partitions.
  const auto g = graph::rmat_sparse(400, 21);
  std::vector<std::pair<int, int>> edges;
  for (const auto& e : g.edges()) edges.emplace_back(e.from, e.to);
  for (const std::uint64_t seed : {1ull, 7ull, 31ull}) {
    const auto a = arch::fm_bipartition(g.num_vertices(), edges, 0.1, seed);
    const auto b = arch::fm_bipartition(g.num_vertices(), edges, 0.1, seed);
    EXPECT_EQ(a.side, b.side) << "seed " << seed;
    EXPECT_EQ(a.cut_edges, b.cut_edges) << "seed " << seed;
  }
}

namespace {

/// Reference FM with the textbook O(n) scan per move: the highest-gain
/// unlocked vertex whose move keeps balance, lowest index on ties. Same
/// initial assignment, balance bound and pass limit as fm_bipartition.
arch::BipartitionResult naive_fm(int n,
                                 const std::vector<std::pair<int, int>>& edges,
                                 double tol, std::uint64_t seed) {
  std::vector<std::vector<int>> adj(n);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  int max_side = static_cast<int>(std::ceil(((n + 1) / 2) * (1.0 + tol)));
  max_side = std::min(std::max(max_side, n / 2 + 1), n);
  std::vector<char> side(n, 0);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  for (int i = 0; i < n; ++i) side[order[i]] = i % 2;

  arch::BipartitionResult out;
  while (out.passes < 12) {
    ++out.passes;
    std::vector<char> locked(n, 0);
    std::vector<int> gains(n, 0);
    std::array<int, 2> count{0, 0};
    for (int v = 0; v < n; ++v) {
      for (int u : adj[v]) gains[v] += side[u] != side[v] ? 1 : -1;
      count[side[v]]++;
    }
    std::vector<int> moved;
    long long delta = 0, best_delta = 0;
    size_t best_prefix = 0;
    for (int step = 0; step < n; ++step) {
      int pick = -1;
      for (int v = 0; v < n; ++v) {
        if (locked[v] || count[1 - side[v]] + 1 > max_side) continue;
        if (pick < 0 || gains[v] > gains[pick]) pick = v;
      }
      if (pick < 0) break;
      delta += gains[pick];
      count[side[pick]]--;
      side[pick] = 1 - side[pick];
      count[side[pick]]++;
      locked[pick] = 1;
      moved.push_back(pick);
      for (int u : adj[pick])
        if (!locked[u]) gains[u] += side[u] == side[pick] ? -2 : 2;
      gains[pick] = -gains[pick];
      if (delta > best_delta) {
        best_delta = delta;
        best_prefix = moved.size();
      }
    }
    for (size_t i = moved.size(); i-- > best_prefix;)
      side[moved[i]] = 1 - side[moved[i]];
    if (best_delta <= 0) break;
  }
  out.side = side;
  for (int v = 0; v < n; ++v)
    for (int u : adj[v])
      if (u > v && side[u] != side[v]) ++out.cut_edges;
  return out;
}

} // namespace

// The bucketed FM pass must make exactly the scan's picks, so every
// partition, and with it every sharded stitch, stays bit-identical.
TEST(Partition, FmMatchesNaiveScanReference) {
  std::vector<std::pair<std::string, graph::FlowNetwork>> nets;
  for (const std::uint64_t seed : {1ull, 5ull, 9ull, 23ull}) {
    nets.emplace_back("rmat_sparse", graph::rmat_sparse(300, seed));
    nets.emplace_back("uniform", graph::uniform_random(120, 700, 8, seed));
    // The serving workloads' stand-in shape: terminals wired to every pixel.
    nets.emplace_back("grid", aflow::core::generate_batch(
                                  "grid:side=12,seed=" + std::to_string(seed))
                                  .front());
    nets.emplace_back("gridflow", graph::gridflow(10, 14, 8, seed));
  }
  for (const auto& [name, g] : nets) {
    std::vector<std::pair<int, int>> edges;
    for (const auto& e : g.edges()) edges.emplace_back(e.from, e.to);
    for (const double tol : {0.0, 0.1, 0.3}) {
      for (const std::uint64_t seed : {1ull, 4ull, 17ull}) {
        const auto got = arch::fm_bipartition(g.num_vertices(), edges, tol,
                                              seed);
        const auto want = naive_fm(g.num_vertices(), edges, tol, seed);
        const std::string label = name + " n=" +
                                  std::to_string(g.num_vertices()) + " tol=" +
                                  std::to_string(tol) + " seed=" +
                                  std::to_string(seed);
        EXPECT_EQ(got.side, want.side) << label;
        EXPECT_EQ(got.cut_edges, want.cut_edges) << label;
        EXPECT_EQ(got.passes, want.passes) << label;
      }
    }
  }
}

TEST(Partition, FmHonorsBalanceToleranceOnLargerRandomGraphs) {
  const auto g = graph::rmat_sparse(500, 13);
  std::vector<std::pair<int, int>> edges;
  for (const auto& e : g.edges()) edges.emplace_back(e.from, e.to);
  const int n = g.num_vertices();
  for (const double tol : {0.05, 0.1, 0.3}) {
    for (const std::uint64_t seed : {2ull, 11ull}) {
      const auto r = arch::fm_bipartition(n, edges, tol, seed);
      // The documented bound: each side <= ceil(n/2)(1 + tol).
      const int cap =
          static_cast<int>(std::ceil(((n + 1) / 2) * (1.0 + tol)));
      int left = 0;
      for (char s : r.side) left += s == 0;
      EXPECT_LE(left, cap) << "tol " << tol << " seed " << seed;
      EXPECT_LE(n - left, cap) << "tol " << tol << " seed " << seed;
    }
  }
}

TEST(Partition, IslandsAreSeedDeterministicOnLargerRandomGraphs) {
  const auto g = graph::rmat_sparse(300, 17);
  const auto a = arch::partition_into_islands(g, 48, 9);
  const auto b = arch::partition_into_islands(g, 48, 9);
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.num_parts, b.num_parts);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

// ---- K-way region partitioner (sharded solve's decomposition) ----

TEST(Partition, RegionsCoverEveryVertexExactlyOnce) {
  const auto g = graph::rmat(220, 900, {}, 5);
  for (const int k : {2, 3, 4, 8}) {
    arch::RegionPartitionOptions opt;
    opt.regions = k;
    const auto p = arch::partition_regions(g, opt);
    ASSERT_EQ(p.num_regions, k);
    ASSERT_EQ(static_cast<int>(p.region.size()), g.num_vertices());
    std::vector<int> seen(g.num_vertices(), 0);
    for (int r = 0; r < k; ++r) {
      EXPECT_FALSE(p.vertices[r].empty()) << "region " << r;
      for (const int v : p.vertices[r]) {
        EXPECT_EQ(p.region[v], r);
        seen[v]++;
      }
      // Vertex lists are ascending (the sharded solver binary-searches
      // them for global->local mapping).
      EXPECT_TRUE(std::is_sorted(p.vertices[r].begin(), p.vertices[r].end()));
    }
    for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(seen[v], 1) << v;
  }
}

TEST(Partition, RegionCutManifestIsExact) {
  const auto g = graph::uniform_random(150, 700, 24, 3);
  arch::RegionPartitionOptions opt;
  opt.regions = 4;
  const auto p = arch::partition_regions(g, opt);

  std::vector<std::int64_t> expect_cut;
  double expect_capacity = 0.0;
  for (int e = 0; e < g.num_edges(); ++e)
    if (p.region[g.edge(e).from] != p.region[g.edge(e).to]) {
      expect_cut.push_back(e);
      expect_capacity += g.edge(e).capacity;
    }
  EXPECT_EQ(p.cut_arcs, expect_cut);
  EXPECT_NEAR(p.cut_capacity, expect_capacity, 1e-9);

  // Boundary lists are exactly the cut-arc endpoints, per region.
  std::vector<std::vector<int>> expect_boundary(4);
  std::vector<char> on_boundary(g.num_vertices(), 0);
  for (const std::int64_t e : p.cut_arcs) {
    on_boundary[g.edge(static_cast<int>(e)).from] = 1;
    on_boundary[g.edge(static_cast<int>(e)).to] = 1;
  }
  for (int v = 0; v < g.num_vertices(); ++v)
    if (on_boundary[v]) expect_boundary[p.region[v]].push_back(v);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.boundary[r], expect_boundary[r]);
}

TEST(Partition, RegionsAreDeterministicAndAgreeAcrossGraphViews) {
  const auto net = graph::rmat(260, 1100, {}, 8);
  const graph::CsrGraph csr = graph::CsrGraph::from_network(net);
  arch::RegionPartitionOptions opt;
  opt.regions = 6;
  opt.seed = 17;
  const auto a = arch::partition_regions(net, opt);
  const auto b = arch::partition_regions(net, opt);
  const auto c = arch::partition_regions(csr, opt);
  EXPECT_EQ(a.region, b.region);
  // The FlowNetwork and CsrGraph overloads walk identical edge lists, so
  // the result must not depend on which view the caller holds.
  EXPECT_EQ(a.region, c.region);
  EXPECT_EQ(a.cut_arcs, c.cut_arcs);
  EXPECT_EQ(a.boundary, c.boundary);
}

TEST(Partition, RegionsValidateArguments) {
  const auto g = graph::rmat(30, 120, {}, 2);
  arch::RegionPartitionOptions bad;
  bad.regions = 0;
  EXPECT_THROW(arch::partition_regions(g, bad), std::invalid_argument);
  bad.regions = g.num_vertices() + 1;
  EXPECT_THROW(arch::partition_regions(g, bad), std::invalid_argument);

  arch::RegionPartitionOptions one;
  one.regions = 1;
  const auto p = arch::partition_regions(g, one);
  EXPECT_EQ(p.num_regions, 1);
  EXPECT_TRUE(p.cut_arcs.empty());
  EXPECT_EQ(static_cast<int>(p.vertices[0].size()), g.num_vertices());
}

TEST(Partition, RegionsStayRoughlyBalanced) {
  // Recursive bisection with per-split tolerance 0.1 cannot produce a
  // pathological region; allow generous slack but pin the order of
  // magnitude so a regression to one-giant-region fails loudly.
  const auto g = graph::gridflow(40, 40, 8, 6);
  arch::RegionPartitionOptions opt;
  opt.regions = 8;
  const auto p = arch::partition_regions(g, opt);
  const int ideal = g.num_vertices() / 8;
  for (int r = 0; r < 8; ++r) {
    EXPECT_GE(static_cast<int>(p.vertices[r].size()), ideal / 3) << r;
    EXPECT_LE(static_cast<int>(p.vertices[r].size()), ideal * 3) << r;
  }
}
