// Flow networks, generators, DIMACS I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"

namespace graph = aflow::graph;

TEST(FlowNetwork, BasicConstruction) {
  graph::FlowNetwork net(4, 0, 3);
  const int e0 = net.add_edge(0, 1, 2.5);
  const int e1 = net.add_edge(1, 3, 1.0);
  EXPECT_EQ(e0, 0);
  EXPECT_EQ(e1, 1);
  EXPECT_EQ(net.num_edges(), 2);
  const auto count = [&](auto pred) {
    return std::count_if(net.edges().begin(), net.edges().end(), pred);
  };
  EXPECT_EQ(count([](const graph::Edge& e) { return e.from == 0; }), 1);
  EXPECT_EQ(count([](const graph::Edge& e) { return e.to == 3; }), 1);
  EXPECT_EQ(count([](const graph::Edge& e) { return e.from == 1 || e.to == 1; }),
            2);
  EXPECT_DOUBLE_EQ(net.max_capacity(), 2.5);
  net.validate();
}

TEST(FlowNetwork, RejectsMalformedInput) {
  EXPECT_THROW(graph::FlowNetwork(1, 0, 0), std::invalid_argument);
  EXPECT_THROW(graph::FlowNetwork(3, 1, 1), std::invalid_argument);
  EXPECT_THROW(graph::FlowNetwork(3, 0, 5), std::invalid_argument);
  graph::FlowNetwork net(3, 0, 2);
  EXPECT_THROW(net.add_edge(0, 0, 1.0), std::invalid_argument); // self loop
  EXPECT_THROW(net.add_edge(0, 1, 0.0), std::invalid_argument); // zero cap
  EXPECT_THROW(net.add_edge(0, 9, 1.0), std::invalid_argument); // range
}

TEST(FlowNetwork, Reachability) {
  graph::FlowNetwork net(4, 0, 3);
  net.add_edge(0, 1, 1.0);
  net.add_edge(1, 3, 1.0);
  // vertex 2 is isolated
  const auto fwd = graph::reachable_from(net, 0);
  EXPECT_TRUE(fwd[0] && fwd[1] && fwd[3]);
  EXPECT_FALSE(fwd[2]);

  // Incidence: arcs(v) lists v's arcs in edge order; its even arcs are v's
  // out-edges and its odd arcs its in-edges, each ascending — the order
  // Residual::flow_value_at sums in.
  const auto big = graph::rmat(50, 240, {}, 11);
  const graph::Incidence inc(big);
  for (int v = 0; v < big.num_vertices(); ++v) {
    std::vector<int> out, in, even, odd;
    for (int e = 0; e < big.num_edges(); ++e) {
      if (big.edge(e).from == v) out.push_back(e);
      if (big.edge(e).to == v) in.push_back(e);
    }
    const auto arcs = inc.arcs(v);
    EXPECT_TRUE(std::is_sorted(arcs.begin(), arcs.end())) << v;
    for (int a : arcs) ((a & 1) ? odd : even).push_back(a >> 1);
    EXPECT_EQ(even, out) << v;
    EXPECT_EQ(odd, in) << v;
  }
}

TEST(FlowNetwork, PaperExamples) {
  const auto fig5 = graph::paper_example_fig5();
  EXPECT_EQ(fig5.num_vertices(), 5);
  EXPECT_EQ(fig5.num_edges(), 5);
  EXPECT_DOUBLE_EQ(fig5.max_capacity(), 3.0);
  fig5.validate();

  const auto fig15 = graph::paper_example_fig15();
  EXPECT_EQ(fig15.num_edges(), 5);
  fig15.validate();
}

TEST(Generators, RmatRespectsSizeAndDeterminism) {
  const auto g1 = graph::rmat(64, 256, {}, 42);
  const auto g2 = graph::rmat(64, 256, {}, 42);
  EXPECT_EQ(g1.num_vertices(), 64);
  EXPECT_NEAR(g1.num_edges(), 256, 16); // dedup can fall slightly short
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  for (int e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).from, g2.edge(e).from);
    EXPECT_EQ(g1.edge(e).to, g2.edge(e).to);
    EXPECT_DOUBLE_EQ(g1.edge(e).capacity, g2.edge(e).capacity);
  }
  g1.validate();
  // Sink reachable from source by construction.
  EXPECT_TRUE(graph::reachable_from(g1, g1.source())[g1.sink()]);
}

TEST(Generators, RmatDenseAndSparseRegimes) {
  const auto dense = graph::rmat_dense(320, 1);
  const auto sparse = graph::rmat_sparse(320, 1);
  // Dense: ~8.68e-3 * n^2 = ~889 edges; sparse: ~8n = 2560.
  EXPECT_GT(dense.num_edges(), 700);
  EXPECT_LT(dense.num_edges(), 950);
  EXPECT_GT(sparse.num_edges(), 2200);
  EXPECT_LT(sparse.num_edges(), 2600);
}

TEST(Generators, RmatSkewsDegrees) {
  // With a = 0.57 the low-numbered vertices should accumulate more edges.
  const auto g = graph::rmat(256, 2048, {}, 7);
  long long low = 0, high = 0;
  for (const auto& e : g.edges()) {
    if (e.from < 128) ++low;
    else ++high;
  }
  EXPECT_GT(low, high);
}

TEST(Generators, GridCutGraphShape) {
  const int h = 3, w = 4;
  std::vector<double> src(h * w, 0.0), snk(h * w, 0.0);
  src[0] = 5.0;
  snk[11] = 5.0;
  const auto g = graph::grid_cut_graph(h, w, src, snk, 1.0);
  EXPECT_EQ(g.num_vertices(), h * w + 2);
  // Lattice arcs: 2*(h*(w-1) + (h-1)*w) = 2*(9+8) = 34, plus 2 terminal arcs.
  EXPECT_EQ(g.num_edges(), 36);
  g.validate();
}

TEST(Generators, LayeredRandomIsLayered) {
  const auto g = graph::layered_random(4, 5, 3, 10, 3);
  EXPECT_EQ(g.num_vertices(), 2 + 4 * 5);
  g.validate();
  for (const auto& e : g.edges()) {
    if (e.from == g.source() || e.to == g.sink()) continue;
    const int from_layer = (e.from - 1) / 5;
    const int to_layer = (e.to - 1) / 5;
    EXPECT_EQ(to_layer, from_layer + 1);
  }
}

TEST(Generators, UniformRandomConnectsTerminals) {
  const auto g = graph::uniform_random(30, 90, 20, 5);
  int source_out = 0, sink_in = 0;
  for (const auto& e : g.edges()) {
    source_out += e.from == g.source();
    sink_in += e.to == g.sink();
  }
  EXPECT_GE(source_out, 1);
  EXPECT_GE(sink_in, 1);
  g.validate();
}

TEST(Dimacs, RoundTrip) {
  const auto g = graph::paper_example_fig5();
  std::stringstream ss;
  graph::write_dimacs(ss, g);
  const auto g2 = graph::read_dimacs(ss);
  ASSERT_EQ(g2.num_vertices(), g.num_vertices());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.source(), g.source());
  EXPECT_EQ(g2.sink(), g.sink());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g2.edge(e).from, g.edge(e).from);
    EXPECT_EQ(g2.edge(e).to, g.edge(e).to);
    EXPECT_DOUBLE_EQ(g2.edge(e).capacity, g.edge(e).capacity);
  }
}

TEST(Dimacs, ParsesStandardInput) {
  std::stringstream ss(
      "c tiny example\n"
      "p max 3 2\n"
      "n 1 s\n"
      "n 3 t\n"
      "a 1 2 7\n"
      "a 2 3 4\n");
  const auto g = graph::read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 7.0);
}

TEST(Dimacs, RejectsMalformedInput) {
  {
    std::stringstream ss("a 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // no problem line
  }
  {
    std::stringstream ss("p max 3 1\nn 1 s\na 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // no sink
  }
  {
    std::stringstream ss("p max 3 1\nn 1 s\nn 2 t\nn 3 s\na 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // dup source
  }
  {
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 9 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // range
  }
}

TEST(Dimacs, RejectsDuplicateProblemLine) {
  // A second 'p' line silently overwriting n/m would reinterpret every
  // following arc; it must be an error.
  std::stringstream ss(
      "p max 3 2\n"
      "p max 5 2\n"
      "n 1 s\nn 3 t\n"
      "a 1 2 7\na 2 3 4\n");
  EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
}

TEST(Dimacs, RejectsSourceEqualsSink) {
  std::stringstream ss(
      "p max 3 1\n"
      "n 2 s\nn 2 t\n"
      "a 1 2 7\n");
  EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
}

TEST(Dimacs, RejectsArcCountMismatch) {
  { // fewer arcs than declared (truncated file)
    std::stringstream ss("p max 3 2\nn 1 s\nn 3 t\na 1 2 7\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
  { // more arcs than declared
    std::stringstream ss(
        "p max 3 1\nn 1 s\nn 3 t\na 1 2 7\na 2 3 4\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
}

TEST(Dimacs, RoundTripPreservesFullCapacityPrecision) {
  // Capacities >= 1e6 and with fine fractional parts lose digits at the
  // default 6-significant-digit stream precision; the writer must emit
  // max_digits10 so a write -> read round trip is bit-exact.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 1234567.0);
  g.add_edge(1, 2, 16777216.125);
  g.add_edge(2, 3, 0.30000000000000004); // 0.1 + 0.2: needs all 17 digits
  g.add_edge(0, 2, 9007199254740992.0);  // 2^53
  std::stringstream ss;
  graph::write_dimacs(ss, g);
  const auto g2 = graph::read_dimacs(ss);
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(g2.edge(e).capacity, g.edge(e).capacity)
        << "capacity corrupted on edge " << e;
}

TEST(Csr, RoundTripsThroughFlowNetwork) {
  const auto net = graph::rmat(50, 240, {}, 11);
  const graph::CsrGraph g = graph::CsrGraph::from_network(net);
  ASSERT_EQ(g.num_vertices(), net.num_vertices());
  ASSERT_EQ(g.num_edges(), net.num_edges());
  EXPECT_EQ(g.source(), net.source());
  EXPECT_EQ(g.sink(), net.sink());
  for (int e = 0; e < net.num_edges(); ++e) {
    EXPECT_EQ(g.edge(e).from, net.edge(e).from);
    EXPECT_EQ(g.edge(e).to, net.edge(e).to);
    EXPECT_DOUBLE_EQ(g.edge(e).capacity, net.edge(e).capacity);
  }
  double source_out = 0.0;
  for (const auto& e : net.edges())
    if (e.from == net.source()) source_out += e.capacity;
  EXPECT_DOUBLE_EQ(g.source_out_capacity(), source_out);
}

TEST(Csr, RejectsMalformedEdges) {
  EXPECT_THROW(graph::CsrGraph(3, 0, 2, {{0, 0, 1.0}}),
               std::invalid_argument); // self loop
  EXPECT_THROW(graph::CsrGraph(3, 0, 2, {{0, 1, 0.0}}),
               std::invalid_argument); // non-positive capacity
  EXPECT_THROW(graph::CsrGraph(3, 0, 2, {{0, 7, 1.0}}),
               std::invalid_argument); // endpoint out of range
  EXPECT_THROW(graph::CsrGraph(1, 0, 0, {}),
               std::invalid_argument); // source == sink
}

TEST(Dimacs, StreamReaderMatchesClassicReader) {
  const auto net = graph::uniform_random(60, 300, 40, 5);
  std::stringstream ss;
  graph::write_dimacs(ss, net);
  const std::string text = ss.str();

  std::stringstream classic_in(text), stream_in(text);
  const graph::FlowNetwork classic = graph::read_dimacs(classic_in);
  const graph::CsrGraph streamed = graph::read_dimacs_stream(stream_in);
  ASSERT_EQ(streamed.num_vertices(), classic.num_vertices());
  ASSERT_EQ(streamed.num_edges(), classic.num_edges());
  EXPECT_EQ(streamed.source(), classic.source());
  EXPECT_EQ(streamed.sink(), classic.sink());
  for (int e = 0; e < classic.num_edges(); ++e) {
    EXPECT_EQ(streamed.edge(e).from, classic.edge(e).from);
    EXPECT_EQ(streamed.edge(e).to, classic.edge(e).to);
    EXPECT_EQ(streamed.edge(e).capacity, classic.edge(e).capacity);
  }
}

TEST(Dimacs, StreamReaderSkipSemanticsMatchClassicReader) {
  // Self loops and non-positive capacities are dropped silently by both
  // readers, and both still require the declared arc count to match the
  // a-lines seen (not the arcs kept).
  const std::string text =
      "c skip semantics\n"
      "p max 4 4\n"
      "n 1 s\n"
      "n 4 t\n"
      "a 1 2 5\n"
      "a 2 2 9\n" // self loop: dropped
      "a 2 3 0\n" // zero capacity: dropped
      "a 3 4 6\n";
  std::stringstream classic_in(text), stream_in(text);
  const graph::FlowNetwork classic = graph::read_dimacs(classic_in);
  const graph::CsrGraph streamed = graph::read_dimacs_stream(stream_in);
  EXPECT_EQ(classic.num_edges(), 2);
  EXPECT_EQ(streamed.num_edges(), 2);
  EXPECT_EQ(streamed.edge(1).to, 3);
}

TEST(Dimacs, StreamReaderRejectsMalformedInput) {
  { // truncated: fewer a-lines than declared
    std::stringstream ss("p max 3 2\nn 1 s\nn 3 t\na 1 2 7\n");
    EXPECT_THROW(graph::read_dimacs_stream(ss), std::runtime_error);
  }
  { // arc endpoint out of range
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 9 3\n");
    EXPECT_THROW(graph::read_dimacs_stream(ss), std::runtime_error);
  }
  { // no problem line
    std::stringstream ss("a 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs_stream(ss), std::runtime_error);
  }
  { // garbage field
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 2 bogus\n");
    EXPECT_THROW(graph::read_dimacs_stream(ss), std::runtime_error);
  }
}

TEST(Dimacs, StreamReaderDiagnosesTruncatedInput) {
  { // truncated at a line boundary: the error must reconcile the declared
    // arc count against what was actually read, and name the last line, so
    // a cut-off multi-gigabyte transfer is diagnosable from the message.
    std::stringstream ss("p max 4 3\nn 1 s\nn 4 t\na 1 2 7\na 2 3 4\n");
    try {
      graph::read_dimacs_stream(ss);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("declares 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("contains 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    }
  }
  { // truncated mid-line: the arc line itself is incomplete; the error must
    // name the offending line number.
    std::stringstream ss("p max 4 3\nn 1 s\nn 4 t\na 1 2 7\na 2 3");
    try {
      graph::read_dimacs_stream(ss);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("malformed arc line"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    }
  }
}

TEST(Dimacs, ClassicReaderRefusesHugeArcCounts) {
  // >= 2^31 arcs cannot be held by FlowNetwork's int edge ids; the classic
  // reader must refuse up front (before consuming gigabytes) and point at
  // the streaming path.
  std::stringstream ss("p max 4 2147483648\nn 1 s\nn 4 t\n");
  try {
    graph::read_dimacs(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("read_dimacs_stream"),
              std::string::npos)
        << e.what();
  }
}

namespace {

/// Both readers must reject `text` with a std::runtime_error that names
/// 1-based line `line`.
void expect_rejected_at(const std::string& text, int line) {
  const std::string where = "line " + std::to_string(line);
  for (const bool stream : {false, true}) {
    std::stringstream ss(text);
    try {
      if (stream)
        graph::read_dimacs_stream(ss);
      else
        graph::read_dimacs(ss);
      ADD_FAILURE() << (stream ? "read_dimacs_stream" : "read_dimacs")
                    << " accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  }
}

} // namespace

TEST(Dimacs, RejectsNodeIdBeyondInt) {
  // 4294967297 = 2^32 + 1 once truncated to vertex 1.
  expect_rejected_at("p max 3 2\nn 4294967297 s\nn 3 t\na 1 2 7\na 2 3 4\n",
                     2);
}

TEST(Dimacs, RejectsNodeIdZero) {
  // Node 0 does not exist (ids are 1-based); it must not become an "unset"
  // source that a second source line then silently replaces.
  expect_rejected_at(
      "p max 3 2\nn 0 s\nn 1 s\nn 3 t\na 1 2 7\na 2 3 4\n", 2);
}

TEST(Dimacs, RejectsNodeIdAboveProblemSize) {
  expect_rejected_at("p max 3 2\nn 99 s\nn 3 t\na 1 2 7\na 2 3 4\n", 2);
}

TEST(Dimacs, RejectsInfiniteCapacity) {
  expect_rejected_at("p max 3 2\nn 1 s\nn 3 t\na 1 3 inf\na 2 3 4\n", 4);
}

TEST(Dimacs, RejectsNanCapacity) {
  expect_rejected_at("p max 3 2\nn 1 s\nn 3 t\na 1 3 nan\na 2 3 4\n", 4);
}

namespace {

/// One reader's verdict on a DIMACS text: the instance it returned, or that
/// it threw std::runtime_error. Any other exception is a finding.
struct ReadOutcome {
  bool ok = false;
  int n = 0, source = 0, sink = 0;
  std::vector<std::tuple<int, int, double>> edges;
  std::string other_exception;

  bool operator==(const ReadOutcome&) const = default;
};

template <typename Read>
ReadOutcome read_outcome(Read read, const std::string& text) {
  ReadOutcome out;
  std::stringstream ss(text);
  try {
    const auto g = read(ss);
    out.ok = true;
    out.n = g.num_vertices();
    out.source = g.source();
    out.sink = g.sink();
    for (const graph::Edge& e : g.edges())
      out.edges.emplace_back(e.from, e.to, e.capacity);
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    out.other_exception = e.what();
  }
  return out;
}

/// Feeds `text` to both readers: they must agree on the edge list, or both
/// throw std::runtime_error. Returns whether the text was accepted.
bool expect_readers_agree(const std::string& text) {
  const ReadOutcome net = read_outcome(
      [](std::istream& in) { return graph::read_dimacs(in); }, text);
  const ReadOutcome csr = read_outcome(
      [](std::istream& in) { return graph::read_dimacs_stream(in); }, text);
  EXPECT_EQ(net.other_exception, "") << text;
  EXPECT_EQ(csr.other_exception, "") << text;
  EXPECT_TRUE(net == csr) << "readers disagree on:\n" << text;
  return net.ok;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  for (std::string line; std::getline(ss, line);) lines.push_back(line + "\n");
  return lines;
}

} // namespace

TEST(Dimacs, ReadersAgreeOnByteMutations) {
  // Seeded and deterministic: a small instance, then a few thousand mutants
  // of 1-3 byte flips, truncations, duplicated and deleted lines each. Every
  // mutant must be read identically by both readers or rejected by both
  // with std::runtime_error — no other exception, no crash (this test also
  // runs under the sanitize preset).
  std::stringstream base_ss;
  base_ss << "c mutation corpus\n";
  graph::write_dimacs(base_ss, graph::uniform_random(8, 20, 9, 3));
  const std::string base = base_ss.str();
  for (const std::string known :
       {"p max 3 2\nn 4294967297 s\nn 3 t\na 1 2 7\na 2 3 4\n",
        "p max 3 2\nn 0 s\nn 1 s\nn 3 t\na 1 2 7\na 2 3 4\n",
        "p max 3 2\nn 99 s\nn 3 t\na 1 2 7\na 2 3 4\n",
        "p max 3 2\nn 1 s\nn 3 t\na 1 3 inf\na 2 3 4\n",
        "p max 3 2\nn 1 s\nn 3 t\na 1 3 nan\na 2 3 4\n"})
    expect_readers_agree(known);

  const std::string alphabet = "0123456789 \n\t\r-+.eExacnpst";
  std::mt19937_64 rng(20240607);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
  };
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < mutations && !text.empty(); ++k) {
      switch (pick(4)) {
        case 0: { // byte flip: a format character, NUL, or any byte
          const size_t r = pick(alphabet.size() + 2);
          text[pick(text.size())] =
              r < alphabet.size()    ? alphabet[r]
              : r == alphabet.size() ? '\0'
                                     : static_cast<char>(rng() & 0xff);
          break;
        }
        case 1: // truncation
          text.resize(pick(text.size()));
          break;
        default: { // duplicate or delete one line
          std::vector<std::string> lines = split_lines(text);
          const size_t at = pick(lines.size());
          if (lines.empty()) break;
          if (rng() & 1)
            lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
          else
            lines.erase(lines.begin() + static_cast<long>(at));
          text.clear();
          for (const std::string& l : lines) text += l;
        }
      }
    }
    (expect_readers_agree(text) ? accepted : rejected)++;
    if (HasFailure()) break; // one reported mutant is enough to debug
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Generators, GridflowIsDeterministicAndWellFormed) {
  const auto a = graph::gridflow(6, 9, 16, 3);
  const auto b = graph::gridflow(6, 9, 16, 3);
  const auto c = graph::gridflow(6, 9, 16, 4);
  const int h = 6, w = 9;
  EXPECT_EQ(a.num_vertices(), h * w + 2);
  EXPECT_EQ(a.num_edges(), 2 * h + h * (w - 1) + 2 * w * (h - 1));
  EXPECT_EQ(a.source(), h * w);
  EXPECT_EQ(a.sink(), h * w + 1);
  a.validate();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  bool differs = false;
  for (int e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).from, b.edge(e).from);
    EXPECT_DOUBLE_EQ(a.edge(e).capacity, b.edge(e).capacity);
    if (a.edge(e).capacity != c.edge(e).capacity) differs = true;
  }
  EXPECT_TRUE(differs) << "seed must matter";
}

TEST(Generators, GridflowDimacsRenditionIsEdgeForEdgeIdentical) {
  // The in-memory generator and the O(1)-memory DIMACS emitter share one
  // walk, so the two renditions must agree edge for edge — that identity is
  // what lets the sharded-solve battery compare the streamed path against
  // the in-memory path on "the same" instance.
  const auto net = graph::gridflow(7, 5, 12, 9);
  std::stringstream ss;
  graph::write_gridflow_dimacs(ss, 7, 5, 12, 9);
  const graph::CsrGraph streamed = graph::read_dimacs_stream(ss);
  ASSERT_EQ(streamed.num_vertices(), net.num_vertices());
  ASSERT_EQ(streamed.num_edges(), net.num_edges());
  EXPECT_EQ(streamed.source(), net.source());
  EXPECT_EQ(streamed.sink(), net.sink());
  for (int e = 0; e < net.num_edges(); ++e) {
    EXPECT_EQ(streamed.edge(e).from, net.edge(e).from) << e;
    EXPECT_EQ(streamed.edge(e).to, net.edge(e).to) << e;
    EXPECT_EQ(streamed.edge(e).capacity, net.edge(e).capacity) << e;
  }
}

TEST(Csr, CheckCsrFlowValidatesConservationAndCapacity) {
  graph::FlowNetwork net(4, 0, 3);
  net.add_edge(0, 1, 2.0);
  net.add_edge(1, 3, 2.0);
  net.add_edge(0, 2, 1.0);
  net.add_edge(2, 3, 1.0);
  const graph::CsrGraph g = graph::CsrGraph::from_network(net);

  const std::vector<double> good{2.0, 2.0, 1.0, 1.0};
  EXPECT_TRUE(graph::check_csr_flow(g, good, 3.0).empty());

  std::vector<double> over = good;
  over[0] = 2.5; // above capacity
  EXPECT_FALSE(graph::check_csr_flow(g, over, 3.5).empty());

  std::vector<double> leaky = good;
  leaky[1] = 1.0; // vertex 1 no longer conserves
  EXPECT_FALSE(graph::check_csr_flow(g, leaky, 2.0).empty());

  EXPECT_FALSE(graph::check_csr_flow(g, good, 2.0).empty()); // wrong value
  const std::vector<double> short_flow{1.0};
  EXPECT_FALSE(graph::check_csr_flow(g, short_flow, 1.0).empty()); // shape
}
