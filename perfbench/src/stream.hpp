// Seeded reconfiguration streams and the layer replays both serving
// workloads share: the closed-loop front driver (client round trips over
// TCP), the in-process ServeSession replay, and the solver-level replay.
// Every replay consumes the same recorded step list, so a step's spans pair
// up across layers by (session, step).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "flow/delta.hpp"
#include "graph/csr.hpp"
#include "graph/network.hpp"
#include "serving.hpp"

namespace perfbench {

/// How a stream picks new capacities for the edges it edits.
enum class EditKind {
  /// Integer capacity drawn uniformly from [1, 2 x original], never equal to
  /// the current one: large increases and decreases, exact arithmetic.
  kDigital,
  /// Original capacity scaled by U[0.8, 1.2] (rounded to 1e-3): any two
  /// revisions of an edge differ by at most 50%, so every edit stays inside
  /// the analog backend's trust region, and the capacities stay stationary
  /// around the loaded instance instead of random-walking away from it.
  kAnalog,
};

/// One session's instance and protocol choices.
struct SessionPlan {
  std::string label;     // short name used in span step ids and info
  std::string load_spec; // generator spec sent with `load --spec`
  std::string solver;    // backend named in every `solve`
  aflow::graph::FlowNetwork base;
  /// Exact max flow of `base` (computed once, outside any timed region).
  double base_flow = 0.0;
  /// The backend is exact: every answer must equal the reference.
  bool exact = true;
};

/// Generates the plan's instance from its spec and its reference flow.
SessionPlan make_plan(std::string label, std::string load_spec,
                      std::string solver, bool exact);

/// One reconfigure + solve step: the edits (ascending, distinct edges, each
/// a real change) and the pipelined request text.
struct Step {
  std::vector<aflow::flow::CapacityEdit> edits;
  std::string request;
};

/// Deterministic, unbounded edit stream over one instance.
class EditSource {
 public:
  EditSource(const SessionPlan& plan, std::uint64_t seed, double edit_fraction,
             EditKind kind);
  Step next();

 private:
  std::string solver_;
  EditKind kind_;
  int per_step_;
  Rng rng_;
  std::vector<double> base_cap_;
  std::vector<double> cur_cap_;
};

/// When a front pass stops: after `seconds` once every session has run at
/// least `min_steps` (counting the steps the pass already holds); or, with
/// `fixed_steps` set, after exactly that many steps per session.
struct StopRule {
  double seconds = 0.0;
  long long min_steps = 1;
  std::vector<long long> fixed_steps;
};

/// What closed-loop front passes observed, per session. Steps are not kept:
/// a fresh EditSource with the same seed regenerates them for checks and
/// replays, so the benchmark's own memory does not grow with the window.
struct FrontPass {
  std::vector<std::vector<double>> rtt_ms;
  std::vector<std::vector<double>> flows;
  /// Whether the solver the session asked for answered the step (a
  /// retryable analog failure is answered by the digital fallback bank).
  std::vector<std::vector<char>> native;
  long long solve_response_bytes = 0;
  long long solve_responses = 0;
};

/// A rig with one connected, loaded and cold-solved client per plan.
struct LiveFront {
  std::unique_ptr<ServingRig> rig;
  std::vector<std::unique_ptr<LineClient>> clients;
  /// The solver each session names in its solves.
  std::vector<std::string> solvers;
};

/// Loads `plan`'s instance on the client's session and cold-solves it; both
/// responses are checked ops.
void open_session(const SessionPlan& plan, LineClient& client, Result& res);

/// Starts a front and brings every session to its first solved revision.
/// Each setup response is a checked op.
LiveFront open_front(const std::vector<SessionPlan>& plans, Result& res);

/// Opens the front `repeats` times, appending each set-up's seconds, at the
/// nominal host speed (a probe reading before and after each), to
/// `setup_s`, and keeps the last one open.
LiveFront open_front_timed(const std::vector<SessionPlan>& plans, int repeats,
                           const HostProbe& probe, Result& res,
                           std::vector<double>& setup_s);

/// One generator thread driving every client as a closed loop: each session
/// pipelines `reconfigure` + `solve` and sends its next step only once the
/// solve response arrived. A step's round trip runs from the send to the
/// solve response. Every response must be ok:true (checked per step). The
/// steps are appended to `pass`, so several calls continue one stream.
void run_front(LiveFront& live, std::vector<EditSource>& sources,
               const StopRule& stop, Result& res, Trace& trace, FrontPass& pass);

/// Round trips of every step of every session.
std::vector<double> step_rtts(const FrontPass& pass);

/// One segment of a serving window: run_front for `stop`, and of the steps
/// it added to `pass` the median round trip (each session's median, averaged
/// over the sessions) and the step rate (all sessions together).
struct Segment {
  double p50_ms = 0.0;
  double steps_per_s = 0.0;
};
Segment run_segment(LiveFront& live, std::vector<EditSource>& sources,
                    const StopRule& stop, Result& res, FrontPass& pass);

/// A few revisions of one instance, solved in process by a 4-region,
/// single-thread ShardedSolver between the segments of a serving window:
/// the serving workloads' sharded_ms_p50. The revisions come from the
/// reference seed's stream, so they do not vary with --seed.
class ShardedRevisions {
 public:
  /// Keeps the revisions after steps stride, 2 x stride, ..., count x
  /// stride of `steps` over `plan`'s instance, with their exact flows.
  ShardedRevisions(const SessionPlan& plan, EditSource steps, int count,
                   long long stride);
  /// Solves every revision once, appending each solve's ms to its list in
  /// `ms`; each answer must equal the exact flow (a checked op). In round
  /// k, revision r runs pinned to allowed CPU k + r (cyclically): the
  /// vCPUs of a shared host differ in speed for seconds at a time, and the
  /// rounds spread every revision over all of them.
  void solve_all(Result& res, std::vector<std::vector<double>>& ms, size_t round) const;

 private:
  std::vector<aflow::graph::CsrGraph> graphs_;
  std::vector<double> exact_;
};

/// Steps per block in tail_p99.
inline constexpr size_t kTailBlock = 250;

/// The step tail of a run: each sequence (one session's steps in order) is
/// cut into blocks of kTailBlock consecutive steps, and the result is the
/// median over all blocks of each block's p99. A host stall or a burst of
/// slow wake-ups inflates the few blocks it hits, not the run's figure.
/// A run too short for one block gives the p99 of all its steps.
double tail_p99(const std::vector<std::vector<double>>& sequences);

/// The tracing overhead of a traced front pass: its steps run again on
/// fresh fronts, untraced twice and then traced once more (spans of the
/// repeat discarded), so a drift of the host or an order effect between
/// passes cancels. Returns the step-round-trip medians of the traced and
/// the untraced passes. `sources` makes the pass's edit streams afresh.
struct TraceOverhead {
  double traced_p50 = 0.0;
  double untraced_p50 = 0.0;
};
TraceOverhead tracing_overhead(const std::vector<SessionPlan>& plans,
                               const FrontPass& traced,
                               const std::function<std::vector<EditSource>()>& sources,
                               Result& res);

/// Steps completed per session.
std::vector<long long> step_counts(const FrontPass& pass);


/// In-process ServeSession::handle replay of the first counts[s] steps of
/// each session's stream (no transport). Returns per session, per step,
/// {reconfigure ms, solve ms}.
struct SessionReplay {
  std::vector<std::vector<double>> reconfigure_ms;
  std::vector<std::vector<double>> solve_ms;
};
SessionReplay replay_sessions(const std::vector<SessionPlan>& plans,
                              std::vector<EditSource> sources,
                              const std::vector<long long>& counts, Result& res,
                              Trace& trace);

/// Step id of (session, step) in span records.
inline long long step_id(int session, long long step) {
  return static_cast<long long>(session) * 1000000 + step;
}

/// Flow value of a from-scratch push_relabel solve: the exact reference.
double exact_flow(const aflow::graph::FlowNetwork& net);

/// Applies a step's edits to `net` (records old capacities in `delta`).
aflow::flow::CapacityDelta apply_step(const Step& step,
                                      aflow::graph::FlowNetwork& net);

bool same_flow(double a, double b);

} // namespace perfbench
