// ServeEngine: the line protocol, error robustness, the 100-request mixed
// stream acceptance (solves + reconfigurations in one persistent process),
// and the LRU pool bound under a byte budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "core/serve_engine.hpp"
#include "flow/maxflow.hpp"

namespace core = aflow::core;

namespace {

/// Minimal extractors for the single-line JSON responses (the repo has a
/// writer, not a parser; the schema is flat enough for key search).
long long json_ll(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

bool json_bool(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  return at != std::string::npos &&
         json.compare(at + needle.size(), 4, "true") == 0;
}

bool looks_like_json_object(const std::string& s) {
  return !s.empty() && s.front() == '{' && s.back() == '}' &&
         s.find('\n') == std::string::npos;
}

} // namespace

TEST(ServeEngine, ProtocolBasics) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_EQ(engine.handle(""), "");
  EXPECT_EQ(engine.handle("   "), "");
  EXPECT_EQ(engine.handle("# a comment line"), "");

  const std::string load = engine.handle("load --spec grid:side=4,seed=1");
  ASSERT_TRUE(looks_like_json_object(load)) << load;
  EXPECT_TRUE(json_bool(load, "ok")) << load;
  EXPECT_NE(load.find("\"schema\":\"aflow-serve-v1\""), std::string::npos);
  EXPECT_NE(load.find("\"request\":\"load\""), std::string::npos);

  const std::string solve = engine.handle("solve --solver dinic");
  EXPECT_TRUE(json_bool(solve, "ok")) << solve;
  EXPECT_GT(json_ll(solve, "flow"), 0);
  // Schedule-dependent fields live under the trailing telemetry object.
  EXPECT_NE(solve.find("\"telemetry\":{"), std::string::npos) << solve;

  const std::string stats = engine.handle("stats");
  EXPECT_TRUE(json_bool(stats, "ok")) << stats;
  EXPECT_NE(stats.find("\"solvers\":["), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"sessions\":{"), std::string::npos) << stats;

  EXPECT_FALSE(engine.done());
  const std::string quit = engine.handle("quit");
  EXPECT_TRUE(json_bool(quit, "ok")) << quit;
  EXPECT_TRUE(engine.done());
}

TEST(ServeEngine, MalformedRequestsNeverTerminateTheEngine) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  for (const char* bad : {
           "bogus",
           "solve",                          // nothing loaded yet
           "reconfigure --seed 1",           // nothing loaded yet
           "load --spec nonsense:kind=1",    // unknown generator
           "load",                           // missing arg
           "sweep --points 0",               // after load fails: no instance
           "batch --solver dinic",           // missing --spec
       }) {
    const std::string resp = engine.handle(bad);
    ASSERT_TRUE(looks_like_json_object(resp)) << resp;
    EXPECT_FALSE(json_bool(resp, "ok")) << bad << " -> " << resp;
    EXPECT_NE(resp.find("\"error\":"), std::string::npos) << resp;
    EXPECT_FALSE(engine.done());
  }

  // Unknown solver surfaces as an error response, then the engine recovers.
  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=2"), "ok"));
  EXPECT_FALSE(json_bool(engine.handle("solve --solver no_such"), "ok"));
  const std::string ok = engine.handle("solve --solver edmonds_karp");
  EXPECT_TRUE(json_bool(ok, "ok")) << ok;
}

TEST(ServeEngine, SessionViewCountsThisSessionsRequests) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  EXPECT_TRUE(json_bool(engine.handle("solve --solver dinic"), "ok"));
  const std::string view = engine.handle("session");
  EXPECT_TRUE(json_bool(view, "ok")) << view;
  EXPECT_EQ(json_ll(view, "requests"), 3);
  EXPECT_EQ(json_ll(view, "solves"), 1);
  EXPECT_EQ(json_ll(view, "failed"), 0);
  EXPECT_NE(view.find("\"solve_metrics\":{"), std::string::npos) << view;
  EXPECT_NE(view.find("\"instance\":{\"loaded\":true"), std::string::npos)
      << view;
}

TEST(ServeEngine, ShutdownEndsTheSessionAndFlagsTheEngine) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_FALSE(engine.shutdown_requested());
  const std::string resp = engine.handle("shutdown");
  EXPECT_TRUE(json_bool(resp, "ok")) << resp;
  EXPECT_TRUE(engine.done());
  EXPECT_TRUE(engine.shutdown_requested());
}

TEST(ServeEngine, MixedHundredRequestStreamWithBoundedPool) {
  // The ISSUE 4 acceptance stream: 100 mixed requests (solves,
  // reconfigurations, sweeps, min-cuts, topology switches) through one
  // process, every response a valid single-line JSON document, with every
  // ReusePool bounded by a 1-byte budget (so each topology switch must
  // evict) and the eviction counters visible in the stats response.
  core::ServeOptions opt;
  opt.deterministic = true;
  opt.pool_byte_budget = 1;
  core::ServeEngine engine(opt);

  std::vector<std::string> script;
  script.push_back("load --spec grid:side=5,seed=1");
  int side = 4;
  while (script.size() < 97) {
    const size_t i = script.size();
    if (i % 24 == 0) {
      // Topology switch: a new MNA pattern, forcing LRU eviction at the
      // next store under the 1-byte budget.
      script.push_back("load --spec grid:side=" + std::to_string(side++) +
                       ",seed=1");
    } else if (i % 12 == 0) {
      script.push_back("sweep --points 3");
    } else if (i % 12 == 6) {
      script.push_back("mincut");
    } else if (i % 2 == 0) {
      script.push_back("reconfigure --seed " + std::to_string(i));
    } else {
      script.push_back("solve --solver analog_dc_warm");
    }
  }
  script.push_back("reconfigure --scale 1.25");
  script.push_back("solve --solver analog_dc_warm --check");
  script.push_back("stats");
  ASSERT_EQ(script.size(), 100u);

  int solves_ok = 0, warm_solves = 0;
  std::string last_solve, stats;
  for (const std::string& line : script) {
    const std::string resp = engine.handle(line);
    ASSERT_TRUE(looks_like_json_object(resp)) << line << " -> " << resp;
    ASSERT_NE(resp.find("\"schema\":\"aflow-serve-v1\""), std::string::npos);
    if (line.rfind("solve", 0) == 0 &&
        line.find("--check") == std::string::npos) {
      // (--check fails by design on approximate analog flows.)
      EXPECT_TRUE(json_bool(resp, "ok")) << line << " -> " << resp;
      ++solves_ok;
      if (json_bool(resp, "warm_started")) ++warm_solves;
      last_solve = resp;
    } else if (line == "stats") {
      stats = resp;
    }
    EXPECT_FALSE(engine.done());
  }
  EXPECT_TRUE(json_bool(engine.handle("quit"), "ok"));
  EXPECT_TRUE(engine.done());

  // Reconfigurations between solves keep the pool hot: most solves after
  // the first on a given topology warm-start.
  EXPECT_GT(solves_ok, 30);
  EXPECT_GT(warm_solves, solves_ok / 2);

  // Pool bound + eviction visibility: with a 1-byte budget the bank pool
  // never holds more than the one (oversized) most-recent entry, and the
  // topology switches show up as evictions in the cumulative stats.
  ASSERT_FALSE(last_solve.empty());
  EXPECT_EQ(json_ll(last_solve, "entries"), 1) << last_solve;
  ASSERT_FALSE(stats.empty());
  EXPECT_TRUE(json_bool(stats, "ok"));
  EXPECT_GE(json_ll(stats, "evictions"), 3) << stats;
  EXPECT_EQ(json_ll(stats, "pool_byte_budget"), 1);
}

TEST(ServeEngine, BatchRequestsShareThePersistentPoolAcrossRequests) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  const std::string spec = "grid:side=5,seed=3,vary=4";
  const std::string first =
      engine.handle("batch --solver analog_dc_warm --spec " + spec);
  ASSERT_TRUE(json_bool(first, "ok")) << first;
  EXPECT_EQ(json_ll(first, "instances"), 4);
  EXPECT_EQ(json_ll(first, "failed"), 0);
  // Within one batch, everything after the first instance warm-starts.
  EXPECT_EQ(json_ll(first, "warm_started_instances"), 3) << first;

  // The pool survives the request boundary: a second identical batch
  // warm-starts every instance.
  const std::string second =
      engine.handle("batch --solver analog_dc_warm --spec " + spec);
  ASSERT_TRUE(json_bool(second, "ok")) << second;
  EXPECT_EQ(json_ll(second, "warm_started_instances"), 4) << second;
  EXPECT_EQ(json_ll(second, "pool_misses"), 0) << second;
}

TEST(ServeEngine, MetricsObjectFollowsTheCounterTable) {
  // One counter table (flow::kMetricCounters) drives SolveMetrics::
  // operator+= and every metrics emitter: a solve response's metrics keys
  // are the table's names, in table order.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  engine.handle("load --spec grid:side=4,seed=1");
  const std::string solve = engine.handle("solve --solver dinic");
  const std::string open = "\"metrics\":{";
  const size_t at = solve.find(open);
  ASSERT_NE(at, std::string::npos) << solve;
  const size_t close = solve.find('}', at);
  const std::string object =
      solve.substr(at + open.size(), close - at - open.size());
  std::vector<std::string> keys;
  for (size_t q = object.find('"'); q != std::string::npos;) {
    const size_t end = object.find('"', q + 1);
    keys.push_back(object.substr(q + 1, end - q - 1));
    const size_t comma = object.find(',', end);
    q = comma == std::string::npos ? comma : object.find('"', comma);
  }
  std::vector<std::string> table;
  for (const aflow::flow::MetricCounter& c : aflow::flow::kMetricCounters)
    table.push_back(c.name);
  EXPECT_EQ(keys, table) << solve;
}

TEST(ServeEngine, MetricsAccumulationSumsEveryCounter) {
  aflow::flow::SolveMetrics total, step;
  long long k = 1;
  for (const aflow::flow::MetricCounter& c : aflow::flow::kMetricCounters) {
    total.*c.field = 100 * k;
    step.*c.field = k++;
  }
  step.warm_started = true;
  total += step;
  k = 1;
  for (const aflow::flow::MetricCounter& c : aflow::flow::kMetricCounters) {
    EXPECT_EQ(total.*c.field, 101 * k) << c.name;
    ++k;
  }
  EXPECT_TRUE(total.warm_started);
  // The table covers every counter: SolveMetrics is those long longs plus
  // the warm_started flag (and its padding).
  EXPECT_LE(sizeof(aflow::flow::SolveMetrics),
            sizeof(long long) * (std::size(aflow::flow::kMetricCounters) + 1));
}
