// Fault-tolerance battery: cooperative cancellation (CancelToken), the
// deterministic fault-injection harness (util::FaultInjector), and the
// graceful-degradation ladder of the serving stack — deadlines come back
// as structured retryable errors within their bound, an analog divergence
// degrades to the digital fallback bank, a failed sharded region is
// retried then solved directly, a poisoned ReusePool store leaves the
// pool's counters reconciled, and a fault that hits one session never
// perturbs another session's (schedule-independent) response bits.
#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/errors.hpp"
#include "core/reuse_pool.hpp"
#include "core/serve_engine.hpp"
#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "flow/maxflow.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"
#include "util/fault_injector.hpp"

#include "fault_guard.hpp"

namespace core = aflow::core;
namespace flow = aflow::flow;
namespace graph = aflow::graph;
namespace util = aflow::util;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Every test arms its own schedule through a FaultGuard, which disarms the
// process-wide injector again even when an assertion fails mid-test.
using fault_test::FaultGuard;

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// Removes the trailing `,"telemetry":{...}` object so responses compare
/// schedule-independently (same helper shape as test_serve_concurrent).
std::string strip_telemetry(std::string s) {
  const std::string key = ",\"telemetry\":{";
  const size_t at = s.find(key);
  if (at == std::string::npos) return s;
  size_t depth = 0;
  size_t i = at + key.size() - 1;
  for (; i < s.size(); ++i) {
    if (s[i] == '{') ++depth;
    if (s[i] == '}' && --depth == 0) break;
  }
  s.erase(at, i - at + 1);
  return s;
}

} // namespace

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, DefaultTokenNeverCancels) {
  const util::CancelToken t;
  EXPECT_FALSE(t.can_cancel());
  EXPECT_FALSE(t.cancelled());
  EXPECT_NO_THROW(t.check());
  t.cancel(); // no-op on a stateless token
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, ExplicitCancelThrowsWithReason) {
  const util::CancelToken t = util::CancelToken::cancellable();
  EXPECT_NO_THROW(t.check());
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  try {
    t.check();
    FAIL() << "check() must throw after cancel()";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::kCancelled);
  }
}

TEST(CancelToken, DeadlineTripsWithDeadlineReason) {
  const util::CancelToken t =
      util::CancelToken::with_timeout(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  try {
    t.check();
    FAIL() << "check() must throw after the deadline";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::kDeadline);
  }
}

TEST(CancelToken, CancellingTheParentCancelsTheChildNotViceVersa) {
  const util::CancelToken session = util::CancelToken::cancellable();
  const util::CancelToken request = session.child();
  EXPECT_FALSE(request.cancelled());

  const util::CancelToken other = session.child();
  other.cancel(); // a child's flag never propagates up or sideways
  EXPECT_FALSE(session.cancelled());
  EXPECT_FALSE(request.cancelled());

  session.cancel();
  EXPECT_TRUE(request.cancelled());
}

TEST(CancelToken, ChildDeadlineIsIndependentOfTheParent) {
  const util::CancelToken session = util::CancelToken::cancellable();
  const util::CancelToken request = session.child(5);
  ASSERT_TRUE(request.deadline().has_value());
  EXPECT_FALSE(session.deadline().has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(request.cancelled());
  EXPECT_FALSE(session.cancelled());
}

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjector, ScheduleGrammarRejectsNonsense) {
  auto& inj = util::FaultInjector::instance();
  EXPECT_THROW(inj.arm("siteonly"), std::invalid_argument);
  EXPECT_THROW(inj.arm("site:explode"), std::invalid_argument);
  EXPECT_THROW(inj.arm("site:throw:after=x"), std::invalid_argument);
  EXPECT_FALSE(inj.armed()); // a rejected schedule leaves it disarmed
}

TEST(FaultInjector, AfterAndCountGateFirings) {
  const FaultGuard guard("s:throw:after=2:count=2");
  auto& inj = util::FaultInjector::instance();
  EXPECT_NO_THROW(inj.fire("s")); // arrival 0: skipped
  EXPECT_NO_THROW(inj.fire("s")); // arrival 1: skipped
  EXPECT_THROW(inj.fire("s"), std::runtime_error);
  EXPECT_THROW(inj.fire("s"), std::runtime_error);
  EXPECT_NO_THROW(inj.fire("s")); // count exhausted
  EXPECT_EQ(inj.arrivals("s"), 5);
  EXPECT_EQ(inj.fired("s"), 2);
  EXPECT_NO_THROW(inj.fire("t")); // other sites unaffected
}

TEST(FaultInjector, TakeMatchesActionKind) {
  const FaultGuard guard("w:short");
  auto& inj = util::FaultInjector::instance();
  EXPECT_FALSE(inj.take("w", util::FaultInjector::Action::kDiverge));
  EXPECT_TRUE(inj.take("w", util::FaultInjector::Action::kShort));
  EXPECT_FALSE(inj.take("w", util::FaultInjector::Action::kShort)); // count=1
}

// ------------------------------------------------- ReusePool exception safety

TEST(ReusePool, FailedStoreLeavesCountersReconciled) {
  core::ReusePool pool(1 << 20);
  core::ReuseEntry entry;
  entry.x = std::make_shared<std::vector<double>>(256, 1.0);

  {
    const FaultGuard guard("pool.store:badalloc");
    EXPECT_THROW(pool.store(42, entry), std::bad_alloc);
  }
  // Strong guarantee: the failed publish left no entry, no bytes, and no
  // store count — the pool is exactly as it was.
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.bytes(), 0u);
  EXPECT_EQ(pool.stats().stores, 0);
  EXPECT_EQ(pool.find(42), nullptr);

  // The same store succeeds once the fault is gone, and the books balance.
  pool.store(42, entry);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GT(pool.bytes(), 0u);
  EXPECT_EQ(pool.stats().stores, 1);
  EXPECT_NE(pool.find(42), nullptr);

  // The drop rung: removing the entry reverses the accounting and counts.
  EXPECT_TRUE(pool.drop(42));
  EXPECT_FALSE(pool.drop(42));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.bytes(), 0u);
  EXPECT_EQ(pool.stats().drops, 1);
}

// ---------------------------------------------------- deadlines in the engine

TEST(Deadlines, BatchSolveDeadlineIsStructuredAndBounded) {
  const FaultGuard guard("batch.solve:delay:10000");
  core::BatchOptions bo;
  bo.solver = "dinic";
  bo.cancel = util::CancelToken::with_timeout(std::chrono::milliseconds(300));
  const std::vector<graph::FlowNetwork> one =
      core::load_batch("grid:side=4,seed=1");

  const auto t0 = Clock::now();
  const core::BatchReport report = core::BatchEngine(bo).run(one);
  const double elapsed = ms_since(t0);

  ASSERT_EQ(report.failed, 1);
  const core::InstanceOutcome& out = report.outcomes.front();
  EXPECT_EQ(out.error_info.code, "deadline_exceeded");
  EXPECT_TRUE(out.error_info.retryable);
  // The injected stall is 10 s; the 300 ms deadline must cut it inside the
  // 2x bound (the injector re-checks the token every 10 ms slice).
  EXPECT_LT(elapsed, 600.0) << "deadline not honoured within 2x";
}

TEST(Deadlines, ServeDeadlineMsFlagYieldsRetryableError) {
  const FaultGuard guard("batch.solve:delay:10000");
  core::ServeEngine engine;
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  const auto t0 = Clock::now();
  const std::string r =
      engine.handle("solve --solver dinic --deadline-ms 250");
  const double elapsed = ms_since(t0);
  EXPECT_TRUE(contains(r, "\"ok\":false")) << r;
  EXPECT_TRUE(contains(r, "\"code\":\"deadline_exceeded\"")) << r;
  EXPECT_TRUE(contains(r, "\"retryable\":true")) << r;
  EXPECT_LT(elapsed, 500.0) << "deadline not honoured within 2x";
}

TEST(Deadlines, SessionDefaultDeadlineAppliesAndClears) {
  core::ServeEngine engine;
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  ASSERT_TRUE(contains(engine.handle("deadline --ms 200"),
                       "\"deadline_ms\":200"));
  {
    const FaultGuard guard("batch.solve:delay:10000");
    const std::string r = engine.handle("solve --solver dinic");
    EXPECT_TRUE(contains(r, "\"code\":\"deadline_exceeded\"")) << r;
  }
  // Clearing the default (and removing the fault) restores full service
  // on the SAME session: deadline expiry is retryable by construction.
  ASSERT_TRUE(contains(engine.handle("deadline --ms 0"), "\"ok\":true"));
  const std::string ok = engine.handle("solve --solver dinic");
  EXPECT_TRUE(contains(ok, "\"ok\":true")) << ok;
  EXPECT_TRUE(contains(ok, "\"flow\":90")) << ok;
}

// ----------------------------------------------------- degradation ladder

TEST(DegradationLadder, InjectedSolveFaultIsStructuredAndTransient) {
  core::ServeEngine engine;
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  {
    const FaultGuard guard("batch.solve:throw");
    const std::string r = engine.handle("solve --solver dinic");
    EXPECT_TRUE(contains(r, "\"ok\":false")) << r;
    EXPECT_TRUE(contains(r, "\"code\":\"fault_injected\"")) << r;
    EXPECT_TRUE(contains(r, "\"retryable\":true")) << r;
  }
  // The engine survived; the retry the error invited succeeds.
  const std::string r2 = engine.handle("solve --solver dinic");
  EXPECT_TRUE(contains(r2, "\"ok\":true")) << r2;
  EXPECT_TRUE(contains(r2, "\"flow\":90")) << r2;
}

TEST(DegradationLadder, AnalogDivergenceFallsBackToDigitalBank) {
  const FaultGuard guard("transient.step:diverge");
  core::ServeEngine engine;
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  const std::string r = engine.handle("solve --solver analog_transient");
  // The analog bank diverged (injected); the digital fallback bank must
  // rescue the request with the exact answer, visibly.
  EXPECT_TRUE(contains(r, "\"ok\":true")) << r;
  EXPECT_TRUE(contains(r, "\"fallback\":true")) << r;
  EXPECT_TRUE(contains(r, "\"solver\":\"dinic\"")) << r;
  EXPECT_TRUE(contains(r, "\"flow\":90")) << r;
  // ...and the rung is telemetry-visible in the engine stats.
  const std::string stats = engine.handle("stats");
  EXPECT_TRUE(contains(stats, "\"fallback_analog_digital\":1")) << stats;
}

TEST(DegradationLadder, DivergenceWithoutFallbackCarriesDiagnosis) {
  const FaultGuard guard("transient.step:diverge");
  core::ServeOptions opt;
  opt.fallback_solver.clear(); // disable the rung: surface the raw error
  core::ServeEngine engine(opt);
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  const std::string r = engine.handle("solve --solver analog_transient");
  EXPECT_TRUE(contains(r, "\"ok\":false")) << r;
  EXPECT_TRUE(contains(r, "\"code\":\"divergence\"")) << r;
  EXPECT_TRUE(contains(r, "\"retryable\":true")) << r;
  // The DivergenceError diagnosis survives to the response as typed fields.
  EXPECT_TRUE(contains(r, "\"growth_per_step\":")) << r;
  EXPECT_TRUE(contains(r, "\"probe\":")) << r;
}

TEST(DegradationLadder, FailedShardedRegionIsRetriedThenExact) {
  const FaultGuard guard("shard.region:throw");
  const graph::FlowNetwork net = core::load_batch("grid:side=6,seed=1").front();
  const double expect = flow::dinic(net).flow_value;

  core::ShardOptions so;
  so.shards = 3;
  so.deterministic = true;
  const core::ShardedSolver solver(so);
  core::ShardReport rep;
  const flow::MaxFlowResult r =
      solver.solve_csr(graph::CsrGraph::from_network(net), &rep);
  EXPECT_DOUBLE_EQ(r.flow_value, expect);
  EXPECT_GE(rep.region_retries, 1);
  EXPECT_EQ(r.metrics.fallback_region_retries, rep.region_retries);
}

TEST(DegradationLadder, RegionRetryExhaustionFallsBackToDirectSolve) {
  // Two rules aimed at the SAME region. Rule 1 throws out of the first
  // region build BEFORE rule 2's arrival counter increments, so rule 2 runs
  // one arrival behind: with R regions it sees the other R-1 initial solves
  // as arrivals 0..R-2 and the failed region's retry as arrival R-1. Both
  // rules hit the same region, the single configured retry exhausts, and
  // the direct local re-solve rung must still produce the exact flow.
  // R comes from a clean dry run — the partitioner may legitimately return
  // more regions than the requested shard count.
  const graph::FlowNetwork net = core::load_batch("grid:side=6,seed=1").front();
  const double expect = flow::dinic(net).flow_value;

  core::ShardOptions so;
  so.shards = 3;
  so.deterministic = true;
  const core::ShardedSolver solver(so);
  core::ShardReport dry;
  solver.solve_csr(graph::CsrGraph::from_network(net), &dry);
  ASSERT_GE(dry.regions, 2);

  const FaultGuard guard("shard.region:throw;shard.region:throw:after=" +
                         std::to_string(dry.regions - 1));
  core::ShardReport rep;
  const flow::MaxFlowResult r =
      solver.solve_csr(graph::CsrGraph::from_network(net), &rep);
  EXPECT_DOUBLE_EQ(r.flow_value, expect);
  EXPECT_GE(rep.region_retries, 1);
  EXPECT_GE(rep.region_direct_solves, 1)
      << "regions=" << dry.regions << " retries=" << rep.region_retries
      << " arrivals=" << util::FaultInjector::instance().arrivals("shard.region")
      << " fired=" << util::FaultInjector::instance().fired("shard.region");
  EXPECT_EQ(r.metrics.fallback_region_direct, rep.region_direct_solves);
}

TEST(DegradationLadder, ServeShardedSolveSurvivesRegionFaultVisibly) {
  const FaultGuard guard("shard.region:throw");
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=6,seed=1"),
                       "\"ok\":true"));
  const std::string r = engine.handle("solve --shards 3");
  EXPECT_TRUE(contains(r, "\"ok\":true")) << r;
  EXPECT_TRUE(contains(r, "\"flow\":208")) << r;
  EXPECT_TRUE(contains(r, "\"region_retries\":1")) << r;
}

// ------------------------------------------------------- session isolation

TEST(SessionIsolation, FaultInOneSessionLeavesAnotherBitIdentical) {
  // Replay session B's request stream in a fault-free engine; then run the
  // same stream while session A is being bombarded with injected faults.
  // B's responses must match the replay bit-for-bit outside telemetry.
  const std::vector<std::string> script = {
      "load --spec grid:side=5,seed=1",
      "solve --solver dinic",
      "reconfigure --scale 2",
      "solve --solver dinic",
      "session",
  };

  std::vector<std::string> clean;
  {
    core::ServeEngine engine;
    const std::shared_ptr<core::ServeSession> b = engine.open_session();
    for (const std::string& line : script)
      clean.push_back(strip_telemetry(b->handle(line)));
  }

  {
    const FaultGuard guard("batch.solve:throw:count=0;pool.store:badalloc:count=0");
    core::ServeEngine engine;
    const std::shared_ptr<core::ServeSession> a = engine.open_session();
    const std::shared_ptr<core::ServeSession> b = engine.open_session();
    ASSERT_TRUE(contains(a->handle("load --spec grid:side=4,seed=1"),
                         "\"ok\":true"));

    // Interleave: A draws an injected fault before every B request. The
    // unlimited schedule would fail B's solves too — so B's success proves
    // isolation comes from the response path, not from fault exhaustion...
    std::vector<std::string> dirty;
    for (const std::string& line : script) {
      const std::string ra = a->handle("solve --solver push_relabel");
      EXPECT_TRUE(contains(ra, "\"fault_injected\"")) << ra;
      // ...except B's own solves must dodge the batch.solve site, so
      // disarm around exactly B's request and re-arm after (single-threaded
      // here; arm/disarm is not safe under concurrent fire()).
      util::FaultInjector::instance().disarm();
      dirty.push_back(strip_telemetry(b->handle(line)));
      util::FaultInjector::instance().arm(
          "batch.solve:throw:count=0;pool.store:badalloc:count=0");
    }

    ASSERT_EQ(dirty.size(), clean.size());
    for (size_t i = 0; i < clean.size(); ++i) {
      // Session ids differ between the two engines ("session":1 vs 2);
      // normalise that one schedule-independent field.
      std::string want = clean[i];
      const size_t at = want.find("\"session\":1");
      ASSERT_NE(at, std::string::npos) << want;
      want.replace(at, 11, "\"session\":2");
      EXPECT_EQ(dirty[i], want) << "response " << i << " diverged";
    }
  }
}

// --------------------------------------------------------- error schema

TEST(ErrorSchema, UnknownSolverIsFatalInvalidArgument) {
  core::ServeEngine engine;
  ASSERT_TRUE(contains(engine.handle("load --spec grid:side=4,seed=1"),
                       "\"ok\":true"));
  const std::string r = engine.handle("solve --solver no_such_backend");
  EXPECT_TRUE(contains(r, "\"ok\":false")) << r;
  EXPECT_TRUE(contains(r, "\"code\":\"invalid_argument\"")) << r;
  EXPECT_TRUE(contains(r, "\"retryable\":false")) << r;
}

TEST(ErrorSchema, EveryErrorResponseCarriesErrorInfo) {
  core::ServeEngine engine;
  const std::vector<std::string> bad = {
      "solve",                   // no instance loaded
      "nonsense",                // unknown request
      "reconfigure --scale -1",  // bad argument
      "batch",                   // missing --spec
      "deadline",                // missing --ms
  };
  for (const std::string& line : bad) {
    const std::string r = engine.handle(line);
    EXPECT_TRUE(contains(r, "\"ok\":false")) << r;
    EXPECT_TRUE(contains(r, "\"error_info\":{")) << r;
    EXPECT_TRUE(contains(r, "\"code\":")) << r;
    EXPECT_TRUE(contains(r, "\"retryable\":")) << r;
  }
}
