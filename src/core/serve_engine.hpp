// Long-running serving mode: the persistent engine behind `aflow serve`.
//
// The paper's central claim is that one programmed substrate amortises its
// setup across many reconfigured problem instances. BatchEngine realises
// that for batch lifetimes; ServeEngine keeps the expensive assets alive
// across an unbounded request stream — and, since the multi-session front,
// across an unbounded number of CONCURRENT clients. The ownership split:
//
//   ServeSession (one per connection, single-threaded)
//     current/base instance, request counter, per-session telemetry.
//   ServeEngine (one per process, shared by all sessions)
//     solver banks — per backend name, ONE solver instance plus ONE
//     byte-budgeted core::ReusePool and ONE la::OrderingCache, shared and
//     synchronized across every session — the sweep/min-cut pools, and the
//     engine-wide counters.
//
// Locking/ownership rules are documented in DESIGN.md "Serving
// architecture" (multi-session subsection); the short version: sessions
// are externally synchronized (one thread each), everything reachable from
// more than one session is either internally synchronized (ReusePool,
// OrderingCache, the stateless solvers) or guarded by the engine's mutexes
// (bank map, telemetry, session registry).
//
// Protocol: one request per line, one aflow-serve-v1 JSON response per line
// (schema documented in docs/BENCH_FORMAT.md; `aflow serve` wires this to
// stdin/stdout or a Unix socket via core::ServeFront):
//
//   load (--input FILE.dimacs | --spec GENSPEC)
//   reconfigure (--edits I:C[,I:C...] | --seed K | --scale F)
//   solve [--solver NAME] [--check] [--scratch] [--deadline-ms N]
//         [--shards K [--threads N]]
//                      (K >= 2: sharded decomposition solve, DESIGN.md
//                      "Sharded solve"; regions run push-relabel; skips
//                      the bank/prior machinery)
//   batch --spec GENSPEC [--solver NAME] [--check] [--delta]
//         [--deadline-ms N]
//   sweep [--points N] [--vmax V] [--deadline-ms N]
//   mincut [--deadline-ms N]
//   deadline [--ms N]  (session default deadline; 0 clears it)
//   session            (this connection's stats view)
//   stats              (engine-wide stats: banks, pools, sessions)
//   quit               (ends this session; other sessions keep serving)
//   shutdown           (ends this session AND stops the serving front)
//
// Reconfiguration streams ride the delta-first solver API (flow/delta.hpp):
// every capacity mutation is recorded as a CapacityDelta in the session's
// edit log, and `solve` routes through ISolver::solve_delta — carrying the
// session's previous result for that backend across the edits — whenever
// the backend advertises SolverCapabilities::incremental and the log still
// reaches back to that result's revision. `--scratch` forces the cold path;
// the response's top-level "delta" field says which path ran, and the
// metrics carry delta_solves / delta_fallbacks / edges_touched.
//
// Fault tolerance (DESIGN.md "Failure taxonomy and the degradation
// ladder"): every request runs under a CancelToken derived from the
// session's token, so a client disconnect (front-detected) or an expired
// `--deadline-ms` / session-default deadline unwinds the solve at its next
// cancellation point and comes back as a structured retryable error
// (`error_info` object, core/errors.hpp). A retryable failure of an analog
// bank (divergence, convergence loss) is retried once through the digital
// ServeOptions::fallback_solver bank before the error is surfaced; the
// rung is counted in SolveMetrics::fallback_analog_digital and reported in
// the response as "fallback": true.
//
// Responses put schedule-independent result fields at the top level and
// everything timing- or schedule-dependent (wall clock, warm/iteration
// telemetry, pool gauges) under a trailing "telemetry" object, so a
// session's responses are comparable bit-for-bit against a serial replay.
// Blank lines and lines starting with '#' are ignored (empty response).
// Malformed requests return ok:false and never terminate the engine.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/reuse_pool.hpp"
#include "core/solver.hpp"
#include "flow/delta.hpp"
#include "graph/network.hpp"
#include "la/lu.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace aflow::core {

class ServeEngine;

/// Point-in-time copy of the serving front's I/O-plane counters. The front
/// registers a provider with the engine while it runs, so the `stats`
/// response can report the transport plane (a "front" object, documented in
/// docs/BENCH_FORMAT.md) next to the solver banks. Plain values, not
/// atomics: providers snapshot whatever counters they keep.
struct FrontStatsSnapshot {
  long long accepted_unix = 0;
  long long accepted_tcp = 0;
  long long rejected = 0;
  long long open_connections = 0;
  long long requests_queued = 0;
  long long responses_written = 0;
  long long backpressure_pauses = 0;
  long long oversized_frames = 0;
  long long hangup_cancels = 0;
  long long short_writes = 0;
  int io_threads = 0;
  int workers = 0;
};

struct ServeOptions {
  /// Backend used by `solve`/`batch` when the request names none.
  std::string default_solver = "analog_dc_warm";
  /// Concurrent workers a `batch` request fans across; 0 picks
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
  /// In-order single-worker batch execution (reproducible streams).
  bool deterministic = false;
  /// Byte budget for every ReusePool the engine owns: one per warm solver
  /// bank (shared by all sessions), plus one each for the sweep and
  /// min-cut paths. 0 = unbounded.
  size_t pool_byte_budget = 64ull << 20;
  /// Open-session cap: open_session() returns null beyond it, which the
  /// socket front turns into a per-connection rejection line.
  int max_sessions = 64;
  /// Default per-request deadline in milliseconds, inherited by every new
  /// session (a session overrides it with the `deadline` request, a single
  /// request with `--deadline-ms`). 0 = no deadline.
  long long default_deadline_ms = 0;
  /// Degradation-ladder rung for analog banks: when an analog backend fails
  /// a solve with a *retryable* error (divergence, convergence loss), the
  /// request is retried once through this exact digital backend before the
  /// error reaches the client. Empty disables the rung.
  std::string fallback_solver = "dinic";
};

/// One client's conversation with the engine: the current instance, the
/// per-session request counter, and this session's share of the telemetry.
/// A session is single-threaded by contract (its connection handler); all
/// cross-session state lives in the shared ServeEngine, which must outlive
/// every session it opened.
class ServeSession {
 public:
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Handles one request line and returns one JSON response line (empty
  /// for blank/comment lines). Never throws: malformed requests, unknown
  /// solvers, and solver failures all come back as ok:false responses.
  std::string handle(const std::string& line);

  /// Transport-level error line (oversized frame, ...) in the same schema
  /// as handle() responses; counts as a request of this session.
  std::string protocol_error(const std::string& message);

  /// True once this session served a quit or shutdown request.
  bool done() const { return done_; }
  /// Engine-assigned session id (1-based, in open order).
  int id() const { return id_; }

  /// Trips this session's CancelToken: every in-flight and future request
  /// of the session unwinds at its next cancellation point. Safe from any
  /// thread — this is how the front cancels a solve whose client
  /// disconnected mid-request.
  void cancel() { session_token_.cancel(); }

 private:
  friend class ServeEngine;
  ServeSession(ServeEngine& engine, int id);

  void cmd_load(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_reconfigure(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_solve(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_batch(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_sweep(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_mincut(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_deadline(const std::vector<std::string>& t, util::JsonWriter& j);
  void cmd_session(util::JsonWriter& j);

  /// Per-request token: child of the session token, carrying the request's
  /// `--deadline-ms` (or the session default when the flag is absent).
  util::CancelToken request_token(const std::vector<std::string>& t) const;

  /// Folds one batch report into this session's counters (the engine-side
  /// bank share is folded separately by ServeEngine::absorb).
  void absorb_session(const BatchReport& report);

  /// Concatenates the logged edits of every revision in (from_rev,
  /// revision_] into `out`. Returns false when the log no longer reaches
  /// back to from_rev (trimmed, or from_rev predates the loaded instance)
  /// — the caller then solves from scratch.
  bool compose_delta_since(long long from_rev, flow::CapacityDelta& out) const;

  const graph::FlowNetwork& require_instance() const;

  ServeEngine& engine_;
  const int id_;
  bool done_ = false;
  long long requests_ = 0;

  // Cancellation state: one cancellable session token (tripped by cancel()
  // on disconnect/shutdown) that every request token chains from, and the
  // session's default deadline (seeded from ServeOptions, overridable per
  // session and per request).
  util::CancelToken session_token_ = util::CancelToken::cancellable();
  long long deadline_ms_ = 0;

  std::optional<graph::FlowNetwork> base_;    // as loaded
  std::optional<graph::FlowNetwork> current_; // after reconfigurations

  // Reconfiguration-stream state behind the delta solve path. Every
  // capacity mutation bumps revision_ and logs its edits; load (a
  // potential topology change) resets the log and invalidates priors by
  // advancing structural_revision_. priors_ remembers, per backend name,
  // the last successful solve result and the revision it solved — the
  // prior threaded into ISolver::solve_delta. The log is bounded
  // (kEditLogCap in the .cpp); trimmed history shows up as a composition
  // gap and falls back to scratch.
  struct Prior {
    flow::MaxFlowResult result;
    long long revision = -1;
  };
  long long revision_ = 0;
  long long structural_revision_ = 0;
  std::vector<std::pair<long long, std::vector<flow::CapacityEdit>>> edit_log_;
  std::map<std::string, Prior> priors_;

  // Per-session telemetry (single-threaded: only this session's connection
  // handler touches it). The shared-bank counterpart lives in the engine;
  // see flow::SolveMetrics::operator+= for how the two scopes reconcile.
  long long solves_ = 0;
  long long failed_ = 0;
  long long sweeps_ = 0;
  long long mincuts_ = 0;
  double seconds_ = 0.0;
  flow::SolveMetrics solve_metrics_;  // solve/batch (bank-pool) traffic
  flow::SolveMetrics sweep_metrics_;  // sweep (sweep-pool) traffic
  flow::SolveMetrics mincut_metrics_; // mincut (mincut-pool) traffic
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});
  ~ServeEngine();

  /// Opens a new session, or returns null when options().max_sessions are
  /// already open (the caller should answer with reject_line() and hang
  /// up). The engine must outlive the returned session.
  std::shared_ptr<ServeSession> open_session();

  /// One aflow-serve-v1 error line for a connection that was refused a
  /// session (id/session 0: the request never reached a session).
  std::string reject_line() const;

  /// Single-session convenience for stdin mode and protocol tests:
  /// forwards to a lazily opened default session.
  std::string handle(const std::string& line);
  /// True once the default session quit or a shutdown was requested.
  bool done() const;

  /// Set by any session's `shutdown` request; the serving front polls it.
  bool shutdown_requested() const { return shutdown_.load(); }
  void request_shutdown() { shutdown_.store(true); }

  /// Registers (or, with nullptr, clears) the callback `stats` uses to
  /// include the serving front's counters. The provider must be callable
  /// from any session thread and must not call back into the engine. The
  /// front registers itself for the duration of run().
  void set_front_stats_provider(std::function<FrontStatsSnapshot()> provider);

  const ServeOptions& options() const { return options_; }
  /// Concurrent workers a batch request fans across (resolved from
  /// options); also the solver-handle count of every bank.
  int workers_per_bank() const { return workers_; }
  /// Currently open sessions.
  int open_sessions() const;

 private:
  friend class ServeSession;

  /// One persistent backend, shared by every session: a single solver
  /// instance (ISolver::solve is concurrency-safe) whose cross-instance
  /// assets — the byte-budgeted ReusePool and the OrderingCache of the
  /// warm analog adapters — are therefore one synchronized, per-pattern
  /// bank instead of per-worker partitions, plus the cumulative telemetry
  /// served from it (guarded by telemetry_mutex_).
  struct Bank {
    SolverPtr solver;
    std::shared_ptr<ReusePool> pool;             // null for pool-free backends
    std::shared_ptr<la::OrderingCache> ordering; // null for classical backends
    long long solves = 0;
    long long failed = 0;
    double seconds = 0.0;
    flow::SolveMetrics metrics;
  };

  /// Finds or creates the bank for `name` (throws std::invalid_argument
  /// for unknown solver names). The returned reference stays valid for the
  /// engine's lifetime (map nodes are stable).
  Bank& bank(const std::string& name);
  /// Folds one batch report into the bank's shared counters (engine
  /// scope); the calling session folds its own share via absorb_session.
  void absorb(Bank& b, const BatchReport& report);
  void close_session();
  void write_stats(util::JsonWriter& j);

  ServeOptions options_;
  int workers_ = 1;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex banks_mutex_;     // guards banks_ map shape
  mutable std::mutex telemetry_mutex_; // guards bank/engine counters below
  std::map<std::string, Bank> banks_;

  // Session registry (guarded by telemetry_mutex_).
  int next_session_id_ = 1;
  int open_sessions_ = 0;
  int peak_sessions_ = 0;
  long long sessions_opened_ = 0;
  std::atomic<long long> requests_{0}; // engine-wide request total

  /// Serving-front counter source for `stats` (guarded by telemetry_mutex_;
  /// set while a front runs, empty otherwise).
  std::function<FrontStatsSnapshot()> front_stats_;

  // The sweep and min-cut requests run on the calling session's thread;
  // one shared pool and ordering cache each, synchronized internally.
  std::shared_ptr<ReusePool> sweep_pool_;
  std::shared_ptr<ReusePool> mincut_pool_;
  std::shared_ptr<la::OrderingCache> sweep_ordering_;
  std::shared_ptr<la::OrderingCache> mincut_ordering_;
  long long sweeps_ = 0;  // guarded by telemetry_mutex_
  long long mincuts_ = 0; // guarded by telemetry_mutex_
  flow::SolveMetrics sweep_metrics_;  // guarded by telemetry_mutex_
  flow::SolveMetrics mincut_metrics_; // guarded by telemetry_mutex_

  std::shared_ptr<ServeSession> default_session_; // lazy, legacy surface
};

} // namespace aflow::core
