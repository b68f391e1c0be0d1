#include "core/serve_engine.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analog/solver.hpp"
#include "core/errors.hpp"
#include "core/registry.hpp"
#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "mincut/dual_circuit.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"

namespace aflow::core {

namespace {

/// Splits a request line into whitespace-separated tokens; double quotes
/// group (so `--spec "grid:side=8,seed=1"` works even with spaces). A line
/// whose first non-blank character is '#' is a comment.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) break;
    if (line[i] == '#' && out.empty()) return {};
    std::string tok;
    if (line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"') tok += line[i++];
      if (i < line.size()) ++i; // closing quote
    } else {
      while (i < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[i])))
        tok += line[i++];
    }
    out.push_back(std::move(tok));
  }
  return out;
}

std::string tok_string(const std::vector<std::string>& t, const char* key,
                       std::string fallback) {
  for (size_t i = 1; i + 1 < t.size(); ++i)
    if (t[i] == key) return t[i + 1];
  return fallback;
}

bool tok_flag(const std::vector<std::string>& t, const char* key) {
  for (size_t i = 1; i < t.size(); ++i)
    if (t[i] == key) return true;
  return false;
}

double tok_double(const std::vector<std::string>& t, const char* key,
                  double fallback) {
  const std::string s = tok_string(t, key, "");
  if (s.empty()) return fallback;
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad numeric value for ") + key +
                             ": '" + s + "'");
  }
}

long long tok_ll(const std::vector<std::string>& t, const char* key,
                 long long fallback) {
  const std::string s = tok_string(t, key, "");
  if (s.empty()) return fallback;
  try {
    return std::stoll(s);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad integer value for ") + key +
                             ": '" + s + "'");
  }
}

void write_metrics_json(util::JsonWriter& j, const flow::SolveMetrics& m) {
  j.begin_object();
  for (const flow::MetricCounter& c : flow::kMetricCounters)
    j.field(c.name, m.*c.field);
  j.end_object();
}

/// Parses the structured reconfigure edit list: `I:C[,I:C...]` (edge
/// index, new capacity). Order matters; a later edit to the same edge wins.
std::vector<flow::CapacityEdit> parse_edit_list(const std::string& spec) {
  std::vector<flow::CapacityEdit> edits;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const size_t colon = item.find(':');
    if (item.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size())
      throw std::runtime_error("bad --edits item '" + item +
                               "' (want EDGE:CAPACITY)");
    flow::CapacityEdit e;
    try {
      e.edge = static_cast<int>(std::stoll(item.substr(0, colon)));
      e.capacity = std::stod(item.substr(colon + 1));
    } catch (const std::exception&) {
      throw std::runtime_error("bad --edits item '" + item +
                               "' (want EDGE:CAPACITY)");
    }
    edits.push_back(e);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (edits.empty()) throw std::runtime_error("--edits list is empty");
  return edits;
}

/// Wraps a single-outcome delta solve as a BatchReport so it folds into
/// the session/bank telemetry scopes exactly like a run() report.
BatchReport report_of(InstanceOutcome out) {
  BatchReport report;
  report.wall_seconds = out.seconds;
  report.threads_used = 1;
  if (out.ok) {
    report.total_flow = out.result.flow_value;
    report.metrics = out.result.metrics;
    if (out.result.metrics.warm_started) report.warm_started_instances = 1;
  } else {
    report.failed = 1;
  }
  report.outcomes.push_back(std::move(out));
  return report;
}

/// Bound on the per-session edit log: a reconfiguration stream that runs
/// longer than this between solves of one backend just composes a gap and
/// takes the scratch path — correctness never depends on log depth.
constexpr size_t kEditLogCap = 256;

/// Gauge/counter snapshot of one shared ReusePool (a bank's, or the
/// sweep/min-cut pool). Point-in-time under concurrency: other sessions
/// may be mutating the pool while this snapshot is taken.
void write_pool_json(util::JsonWriter& j, const ReusePool& pool) {
  const ReusePool::Stats s = pool.stats();
  j.begin_object();
  j.field("entries", pool.size());
  j.field("bytes", pool.bytes());
  j.field("byte_budget", pool.byte_budget());
  j.field("hits", s.hits);
  j.field("misses", s.misses);
  j.field("stores", s.stores);
  j.field("evictions", s.evictions);
  j.field("drops", s.drops);
  j.end_object();
}

/// SolveMetrics view of one sweep run, so sweep traffic aggregates through
/// the same per-session / shared-engine scopes as solver-bank traffic.
flow::SolveMetrics sweep_as_metrics(const sim::SweepStats& s) {
  flow::SolveMetrics m;
  m.iterations = s.dc_iterations;
  m.warm_iterations = s.warm_iterations;
  m.cold_iterations = s.cold_iterations;
  m.full_factors = s.full_factors;
  m.refactors = s.refactors;
  m.warm_started = s.warm_started;
  m.pool_hits = s.pool_hits;
  m.pool_misses = s.pool_misses;
  m.pool_evictions = s.pool_evictions;
  return m;
}

/// Folds one batch report into one accumulation scope. The per-session
/// and shared-bank scopes MUST fold identically — the concurrency tests
/// pin that summing session counters reproduces the bank counters — so
/// both go through this single helper.
void fold_report(const BatchReport& report, long long& solves,
                 long long& failed, double& seconds,
                 flow::SolveMetrics& metrics) {
  solves += static_cast<long long>(report.outcomes.size()) - report.failed;
  failed += report.failed;
  seconds += report.wall_seconds;
  metrics += report.metrics;
}

flow::SolveMetrics mincut_as_metrics(const mincut::AnalogMinCutResult& r) {
  flow::SolveMetrics m;
  m.iterations = r.dc_iterations;
  m.warm_iterations = r.warm_iterations;
  m.cold_iterations = r.cold_iterations;
  m.full_factors = r.full_factors;
  m.refactors = r.refactors;
  m.warm_started = r.warm_started;
  m.pool_hits = r.pool_hits;
  m.pool_misses = r.pool_misses;
  m.pool_evictions = r.pool_evictions;
  return m;
}

} // namespace

// ---------------------------------------------------------------- engine

ServeEngine::ServeEngine(ServeOptions options) : options_(std::move(options)) {
  if (options_.deterministic) {
    workers_ = 1;
  } else if (options_.num_threads > 0) {
    workers_ = options_.num_threads;
  } else {
    workers_ =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  if (options_.max_sessions < 1) options_.max_sessions = 1;
  sweep_pool_ = std::make_shared<ReusePool>(options_.pool_byte_budget);
  mincut_pool_ = std::make_shared<ReusePool>(options_.pool_byte_budget);
  sweep_ordering_ = std::make_shared<la::OrderingCache>();
  mincut_ordering_ = std::make_shared<la::OrderingCache>();
}

ServeEngine::~ServeEngine() = default;

std::shared_ptr<ServeSession> ServeEngine::open_session() {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  if (open_sessions_ >= options_.max_sessions) return nullptr;
  ++open_sessions_;
  ++sessions_opened_;
  peak_sessions_ = std::max(peak_sessions_, open_sessions_);
  return std::shared_ptr<ServeSession>(
      new ServeSession(*this, next_session_id_++));
}

void ServeEngine::close_session() {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  --open_sessions_;
}

int ServeEngine::open_sessions() const {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  return open_sessions_;
}

void ServeEngine::set_front_stats_provider(
    std::function<FrontStatsSnapshot()> provider) {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  front_stats_ = std::move(provider);
}

std::string ServeEngine::reject_line() const {
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-serve-v1");
  j.field("id", 0);
  j.field("session", 0);
  j.field("request", "connect");
  j.field("ok", false);
  j.field("error", "session limit reached (max_sessions=" +
                       std::to_string(options_.max_sessions) + ")");
  j.end_object();
  return j.str();
}

std::string ServeEngine::handle(const std::string& line) {
  if (!default_session_) default_session_ = open_session();
  if (!default_session_) return reject_line();
  return default_session_->handle(line);
}

bool ServeEngine::done() const {
  return shutdown_.load() || (default_session_ && default_session_->done());
}

ServeEngine::Bank& ServeEngine::bank(const std::string& name) {
  const std::lock_guard<std::mutex> lock(banks_mutex_);
  const auto it = banks_.find(name);
  if (it != banks_.end()) return it->second;

  Bank b;
  // The warm analog backends are rebuilt here (instead of taken from the
  // registry) so their shared pool carries this engine's byte budget and
  // is ONE per-pattern bank for every session, not a per-worker partition;
  // a registry-created warm adapter would hold an unbounded private pool.
  const std::optional<analog::AnalogSolveOptions> builtin =
      builtin_analog_options(name);
  if (builtin && name.find("_warm") != std::string::npos) {
    analog::AnalogSolveOptions opt = *builtin;
    b.pool = std::make_shared<ReusePool>(options_.pool_byte_budget);
    b.ordering = std::make_shared<la::OrderingCache>();
    opt.reuse_pool = b.pool;
    opt.ordering_cache = b.ordering;
    b.solver = make_analog_solver(name, std::move(opt));
  } else {
    // Throws std::invalid_argument for unknown names — surfaced as an
    // ok:false response by ServeSession::handle().
    b.solver = SolverRegistry::instance().create(name);
  }
  return banks_.emplace(name, std::move(b)).first->second;
}

void ServeEngine::absorb(Bank& b, const BatchReport& report) {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  fold_report(report, b.solves, b.failed, b.seconds, b.metrics);
}

void ServeEngine::write_stats(util::JsonWriter& j) {
  j.field("ok", true);
  j.field("requests", requests_.load());
  j.field("workers_per_bank", workers_);
  j.field("deterministic", options_.deterministic);
  j.field("pool_byte_budget", options_.pool_byte_budget);
  j.field("max_sessions", options_.max_sessions);

  // banks_mutex_ freezes the map shape; telemetry_mutex_ freezes the
  // counters (always taken in this order — bank() takes only the first,
  // absorb() only the second).
  const std::lock_guard<std::mutex> banks_lock(banks_mutex_);
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);

  j.key("sessions").begin_object();
  j.field("open", open_sessions_);
  j.field("peak", peak_sessions_);
  j.field("opened", sessions_opened_);
  j.end_object();

  j.key("solvers").begin_array();
  for (const auto& [name, b] : banks_) {
    j.begin_object();
    j.field("solver", name);
    j.field("solves", b.solves);
    j.field("failed", b.failed);
    j.field("wall_ms", b.seconds * 1e3);
    j.key("metrics");
    write_metrics_json(j, b.metrics);
    if (b.pool) {
      j.key("pool");
      write_pool_json(j, *b.pool);
    }
    j.end_object();
  }
  j.end_array();

  j.field("sweeps", sweeps_);
  j.key("sweep_metrics");
  write_metrics_json(j, sweep_metrics_);
  j.key("sweep_pool");
  write_pool_json(j, *sweep_pool_);
  j.field("mincuts", mincuts_);
  j.key("mincut_metrics");
  write_metrics_json(j, mincut_metrics_);
  j.key("mincut_pool");
  write_pool_json(j, *mincut_pool_);

  // Transport-plane counters, present only when a serving front is running
  // (absent in stdin mode and in-process tests). The provider just
  // snapshots the front's atomics — safe under telemetry_mutex_.
  if (front_stats_) {
    const FrontStatsSnapshot f = front_stats_();
    j.key("front").begin_object();
    j.field("io_threads", f.io_threads);
    j.field("workers", f.workers);
    j.field("accepted_unix", f.accepted_unix);
    j.field("accepted_tcp", f.accepted_tcp);
    j.field("rejected", f.rejected);
    j.field("open_connections", f.open_connections);
    j.field("requests_queued", f.requests_queued);
    j.field("responses_written", f.responses_written);
    j.field("backpressure_pauses", f.backpressure_pauses);
    j.field("oversized_frames", f.oversized_frames);
    j.field("hangup_cancels", f.hangup_cancels);
    j.field("short_writes", f.short_writes);
    j.end_object();
  }
}

// --------------------------------------------------------------- session

ServeSession::ServeSession(ServeEngine& engine, int id)
    : engine_(engine), id_(id),
      deadline_ms_(engine.options().default_deadline_ms) {}

ServeSession::~ServeSession() { engine_.close_session(); }

util::CancelToken ServeSession::request_token(
    const std::vector<std::string>& t) const {
  const long long deadline_ms = tok_ll(t, "--deadline-ms", deadline_ms_);
  if (deadline_ms < 0)
    throw std::runtime_error("--deadline-ms must be >= 0 (0 = no deadline)");
  return session_token_.child(deadline_ms);
}

void ServeSession::absorb_session(const BatchReport& report) {
  fold_report(report, solves_, failed_, seconds_, solve_metrics_);
}

bool ServeSession::compose_delta_since(long long from_rev,
                                       flow::CapacityDelta& out) const {
  // Reconfigures log contiguous revisions (structural_revision_+1 ..
  // revision_), so walking forward from from_rev must see every step; a
  // jump means the log was trimmed past the prior.
  long long expect = from_rev;
  for (const auto& [rev, edits] : edit_log_) {
    if (rev <= from_rev) continue;
    if (rev != expect + 1) return false;
    expect = rev;
    out.edits.insert(out.edits.end(), edits.begin(), edits.end());
  }
  return expect == revision_;
}

const graph::FlowNetwork& ServeSession::require_instance() const {
  if (!current_)
    throw std::runtime_error(
        "no instance loaded (send: load --input FILE | --spec SPEC)");
  return *current_;
}

std::string ServeSession::handle(const std::string& line) {
  const std::vector<std::string> t = tokenize(line);
  if (t.empty()) return {};
  ++requests_;
  engine_.requests_.fetch_add(1);
  const std::string& cmd = t[0];

  try {
    util::JsonWriter j;
    j.begin_object();
    j.field("schema", "aflow-serve-v1");
    j.field("id", requests_);
    j.field("session", id_);
    j.field("request", cmd);
    if (cmd == "load") {
      cmd_load(t, j);
    } else if (cmd == "reconfigure") {
      cmd_reconfigure(t, j);
    } else if (cmd == "solve") {
      cmd_solve(t, j);
    } else if (cmd == "batch") {
      cmd_batch(t, j);
    } else if (cmd == "sweep") {
      cmd_sweep(t, j);
    } else if (cmd == "mincut") {
      cmd_mincut(t, j);
    } else if (cmd == "deadline") {
      cmd_deadline(t, j);
    } else if (cmd == "session") {
      cmd_session(j);
    } else if (cmd == "stats") {
      engine_.write_stats(j);
    } else if (cmd == "quit") {
      done_ = true;
      j.field("ok", true);
    } else if (cmd == "shutdown") {
      done_ = true;
      engine_.request_shutdown();
      j.field("ok", true);
    } else {
      throw std::runtime_error(
          "unknown request '" + cmd +
          "' (known: load reconfigure solve batch sweep mincut deadline "
          "session stats quit shutdown)");
    }
    j.end_object();
    return j.str();
  } catch (const std::exception& e) {
    // Structured failure shape: the legacy flattened string plus the
    // machine-readable error_info object (code / retryable / typed detail;
    // docs/BENCH_FORMAT.md). classify_error recognises a ServeRequestError
    // and passes its original classification through unchanged.
    ErrorInfo info = classify_error(e);
    if (info.message.empty()) info.message = e.what();
    util::JsonWriter err;
    err.begin_object();
    err.field("schema", "aflow-serve-v1");
    err.field("id", requests_);
    err.field("session", id_);
    err.field("request", cmd);
    err.field("ok", false);
    err.field("error", e.what());
    write_error_info(err, info);
    err.end_object();
    return err.str();
  }
}

std::string ServeSession::protocol_error(const std::string& message) {
  ++requests_;
  engine_.requests_.fetch_add(1);
  ErrorInfo info;
  info.code = "protocol";
  info.retryable = false;
  info.message = message;
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-serve-v1");
  j.field("id", requests_);
  j.field("session", id_);
  j.field("request", "(transport)");
  j.field("ok", false);
  j.field("error", message);
  write_error_info(j, info);
  j.end_object();
  return j.str();
}

void ServeSession::cmd_load(const std::vector<std::string>& t,
                            util::JsonWriter& j) {
  const std::string input = tok_string(t, "--input", "");
  const std::string spec = tok_string(t, "--spec", "");
  if (input.empty() == spec.empty())
    throw std::runtime_error("load needs exactly one of --input or --spec");
  const std::vector<graph::FlowNetwork> instances =
      load_batch(input.empty() ? spec : input);
  base_ = instances.front();
  current_ = base_;
  // A load may change the topology: restart the reconfiguration stream.
  // Old priors become structurally stale (revision < structural_revision_)
  // rather than deleted, so the check is one comparison.
  ++revision_;
  structural_revision_ = revision_;
  edit_log_.clear();
  j.field("ok", true);
  j.field("instances_in_source", instances.size());
  j.field("vertices", current_->num_vertices());
  j.field("edges", current_->num_edges());
  j.field("source", current_->source());
  j.field("sink", current_->sink());
}

void ServeSession::cmd_reconfigure(const std::vector<std::string>& t,
                                   util::JsonWriter& j) {
  require_instance();
  // Every request form — including the --seed / --scale generators — is
  // reduced to one CapacityDelta against the current instance, so the
  // whole mutation surface feeds the delta solve path uniformly.
  graph::FlowNetwork next = *current_;
  bool mutated = false;

  const long long seed = tok_ll(t, "--seed", -1);
  if (seed >= 0) {
    // Deterministic capacity reprogramming of the *base* topology: same
    // seed, same instance, independent of reconfiguration history.
    next = capacity_variants(*base_, 2, static_cast<std::uint64_t>(seed))[1];
    mutated = true;
  }
  if (!tok_string(t, "--scale", "").empty()) {
    const double scale = tok_double(t, "--scale", 0.0);
    if (!(scale > 0.0)) throw std::runtime_error("--scale must be positive");
    next = next.transform_capacities([scale](double c) { return c * scale; });
    mutated = true;
  }
  const std::string edits_spec = tok_string(t, "--edits", "");
  if (!edits_spec.empty()) {
    flow::CapacityDelta d;
    d.edits = parse_edit_list(edits_spec);
    d.apply(next); // validates indices and capacities
    mutated = true;
  }
  if (tok_ll(t, "--edge", -1) >= 0)
    // The single-edge alias was removed after its one-release deprecation
    // window; point old clients at the structured form.
    throw std::runtime_error(
        "--edge I --capacity C was removed; use --edits I:C[,I:C...]");
  if (!mutated)
    throw std::runtime_error(
        "reconfigure needs --edits I:C[,I:C...], --seed K, or --scale F");

  // Normalized diff current -> next (old capacities recorded): what the
  // log carries is independent of which request form produced it.
  flow::CapacityDelta delta = flow::delta_between(*current_, next);
  current_ = std::move(next);
  ++revision_;
  edit_log_.emplace_back(revision_, delta.edits);
  if (edit_log_.size() > kEditLogCap)
    edit_log_.erase(edit_log_.begin(),
                    edit_log_.begin() +
                        static_cast<long>(edit_log_.size() - kEditLogCap));

  j.field("ok", true);
  j.field("vertices", current_->num_vertices());
  j.field("edges", current_->num_edges());
  j.field("max_capacity", current_->max_capacity());
  j.field("edits_applied", delta.edits.size());
  j.field("revision", revision_);
}

void ServeSession::cmd_solve(const std::vector<std::string>& t,
                             util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  const util::CancelToken token = request_token(t);

  const long long shards = tok_ll(t, "--shards", 0);
  if (shards >= 2) {
    // Sharded decomposition solve of the loaded instance (DESIGN.md
    // "Sharded solve"). Runs outside the bank/prior machinery on purpose:
    // the region subproblems are throwaway networks with no reuse state
    // worth pooling, and the exact result is not a valid warm prior for the
    // per-solver delta path (different backend name, different metrics).
    ShardOptions so;
    so.shards = static_cast<int>(std::min<long long>(shards, 1 << 20));
    so.num_threads = static_cast<int>(tok_ll(t, "--threads", 0));
    so.deterministic = engine_.options().deterministic;
    const ShardedSolver solver(so);
    ShardReport rep;
    const flow::MaxFlowResult r =
        solver.solve_csr(graph::CsrGraph::from_network(net), &rep, token);
    j.field("ok", true);
    j.field("solver", "sharded");
    j.field("region_solver", "push_relabel");
    j.field("flow", r.flow_value);
    j.key("shards").begin_object();
    j.field("regions", rep.regions);
    j.field("cut_arcs", static_cast<long long>(rep.cut_arcs));
    j.field("cut_capacity", rep.cut_capacity);
    j.field("upper_bound", rep.upper_bound);
    j.field("stitched_value", rep.stitched_value);
    j.field("refined_added", rep.refined_added);
    j.field("threads", rep.threads_used);
    j.field("region_retries", rep.region_retries);
    j.field("region_direct_solves", rep.region_direct_solves);
    j.end_object();
    return;
  }

  const std::string name =
      tok_string(t, "--solver", engine_.options().default_solver);
  ServeEngine::Bank& b = engine_.bank(name);

  BatchOptions bo;
  bo.solver = name;
  bo.validate = tok_flag(t, "--check");
  bo.cancel = token;

  // Delta routing: ride ISolver::solve_delta when the backend is
  // incremental, the session holds a usable prior for it (same loaded
  // instance, log reaches back to its revision), and the client did not
  // force --scratch. The composed delta is exactly the edits since that
  // prior solved; an empty delta (re-solve without reconfigure) rides the
  // path too — it is the cheapest case.
  bool delta_path = false;
  flow::CapacityDelta delta;
  const auto prior_it = priors_.find(name);
  if (!tok_flag(t, "--scratch") && prior_it != priors_.end() &&
      prior_it->second.revision >= structural_revision_ &&
      b.solver->capabilities().incremental)
    delta_path = compose_delta_since(prior_it->second.revision, delta);

  // Either path runs on the calling session's thread, against the bank's
  // shared solver — so every session's solves feed (and draw from) the same
  // per-pattern pool.
  BatchReport report;
  if (delta_path) {
    report = report_of(
        BatchEngine(bo).run_delta(net, delta, prior_it->second.result,
                                  b.solver));
  } else {
    const std::vector<graph::FlowNetwork> one{net};
    report = BatchEngine(bo).run(one, b.solver, 1);
  }
  engine_.absorb(b, report);
  absorb_session(report);
  const InstanceOutcome* out = &report.outcomes.front();

  // Degradation ladder, analog rung: a *retryable* analog failure
  // (divergence, convergence loss, injected fault) is retried once through
  // the exact digital fallback bank before the client sees an error. The
  // rung never fires for a cancelled/expired request — the client asked for
  // the abandonment it got — and the retry runs under the same token, so
  // the fallback still honours the request deadline. The attempt is
  // counted (fallback_analog_digital) whether or not it rescues the solve.
  const std::string& fb_name = engine_.options().fallback_solver;
  std::string served_by = name;
  BatchReport fb_report;
  if (!out->ok && out->error_info.retryable && !token.cancelled() &&
      b.solver->capabilities().analog && !fb_name.empty() && fb_name != name) {
    ServeEngine::Bank& fb = engine_.bank(fb_name);
    BatchOptions fbo;
    fbo.solver = fb_name;
    fbo.validate = bo.validate;
    fbo.cancel = token;
    const std::vector<graph::FlowNetwork> one{net};
    fb_report = BatchEngine(fbo).run(one, fb.solver, 1);
    fb_report.metrics.fallback_analog_digital = 1;
    engine_.absorb(fb, fb_report);
    absorb_session(fb_report);
    if (fb_report.outcomes.front().ok) {
      out = &fb_report.outcomes.front();
      served_by = fb_name;
    }
  }

  if (!out->ok) {
    ErrorInfo info = out->error_info;
    if (info.message.empty()) info.message = out->error;
    throw ServeRequestError(std::move(info));
  }
  priors_[served_by] = Prior{out->result, revision_};

  j.field("ok", true);
  j.field("solver", served_by);
  j.field("fallback", served_by != name);
  j.field("delta", delta_path);
  j.field("flow", out->result.flow_value);
  j.key("telemetry").begin_object();
  j.field("ms", out->seconds * 1e3);
  j.field("warm_started", out->result.metrics.warm_started);
  j.key("metrics");
  write_metrics_json(j, out->result.metrics);
  if (b.pool) {
    j.key("pool");
    write_pool_json(j, *b.pool);
  }
  j.end_object();
}

void ServeSession::cmd_batch(const std::vector<std::string>& t,
                             util::JsonWriter& j) {
  const std::string spec = tok_string(t, "--spec", "");
  if (spec.empty()) throw std::runtime_error("batch needs --spec");
  const std::string name =
      tok_string(t, "--solver", engine_.options().default_solver);
  ServeEngine::Bank& b = engine_.bank(name);

  BatchOptions bo;
  bo.solver = name;
  bo.validate = tok_flag(t, "--check");
  bo.deterministic = engine_.options().deterministic;
  bo.num_threads = engine_.workers_per_bank();
  bo.cancel = request_token(t);
  const std::vector<graph::FlowNetwork> instances = load_batch(spec);

  // --delta: replay the batch as a reconfiguration stream — instance 0
  // solves from scratch, instance k re-solves incrementally from k-1's
  // result across their capacity diff. Requires every instance to share
  // one topology (delta_between throws otherwise); inherently sequential.
  const bool delta_stream = tok_flag(t, "--delta");
  BatchReport report;
  if (delta_stream) {
    std::vector<flow::CapacityDelta> deltas;
    deltas.reserve(instances.size() > 0 ? instances.size() - 1 : 0);
    for (size_t k = 1; k < instances.size(); ++k)
      deltas.push_back(flow::delta_between(instances[k - 1], instances[k]));
    report = BatchEngine(bo).run_delta(instances.front(), deltas, b.solver);
  } else {
    report = BatchEngine(bo).run(instances, b.solver,
                                 engine_.workers_per_bank());
  }
  engine_.absorb(b, report);
  absorb_session(report);

  j.field("ok", true);
  j.field("solver", name);
  j.field("batch", spec);
  j.field("delta", delta_stream);
  j.field("instances", report.outcomes.size());
  j.field("failed", report.failed);
  j.field("total_flow", report.total_flow);
  j.key("telemetry").begin_object();
  j.field("threads", report.threads_used);
  j.field("wall_ms", report.wall_seconds * 1e3);
  j.field("warm_started_instances", report.warm_started_instances);
  j.key("metrics");
  write_metrics_json(j, report.metrics);
  if (b.pool) {
    j.key("pool");
    write_pool_json(j, *b.pool);
  }
  j.end_object();
}

void ServeSession::cmd_sweep(const std::vector<std::string>& t,
                             util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  const int points = static_cast<int>(tok_ll(t, "--points", 8));
  if (points < 1) throw std::runtime_error("--points must be >= 1");
  const double vmax = tok_double(t, "--vmax", 10.0);
  if (!(vmax > 0.0)) throw std::runtime_error("--vmax must be positive");

  // The substrate mapping the warm DC adapters use: topology-only MNA
  // pattern, so reconfigured capacities keep hitting the sweep pool. The
  // pool and ordering cache are shared across sessions; results stay
  // bit-identical to a cold run regardless of which session fed the pool
  // (DESIGN.md "Serving architecture").
  analog::MaxFlowCircuit c =
      analog::AnalogMaxFlowSolver(*builtin_analog_options("analog_dc_warm"))
          .map(net);
  sim::DcOptions dc_opt;
  dc_opt.ordering_cache = engine_.sweep_ordering_;
  dc_opt.cancel = request_token(t);
  sim::QuasiStaticSweep sweep(c.netlist, c.vflow_source, dc_opt,
                              engine_.sweep_pool_);
  // Ramp inside the nontrivial region (no zero point): the first point is
  // a real LCP search, which is exactly what the pooled seed collapses.
  std::vector<double> values(points);
  for (int i = 0; i < points; ++i) values[i] = vmax * (i + 1) / points;
  const sim::SweepResult r =
      sweep.run(values, {sim::Probe::source_current(c.vflow_source, "Iflow")});
  const flow::SolveMetrics m = sweep_as_metrics(r.stats);
  ++sweeps_;
  sweep_metrics_ += m;
  {
    const std::lock_guard<std::mutex> lock(engine_.telemetry_mutex_);
    ++engine_.sweeps_;
    engine_.sweep_metrics_ += m;
  }

  const double iflow = r.trajectory.back().front();
  j.field("ok", true);
  j.field("points", points);
  j.field("vmax", vmax);
  j.field("flow", c.quantizer.to_flow(c.flow_value_volts_from_iflow(iflow)));
  j.field("breakpoints", r.breakpoints.size());
  j.key("telemetry").begin_object();
  j.field("warm_started", r.stats.warm_started);
  j.field("dc_iterations", r.stats.dc_iterations);
  j.field("warm_iterations", r.stats.warm_iterations);
  j.field("cold_iterations", r.stats.cold_iterations);
  j.field("full_factors", r.stats.full_factors);
  j.field("refactors", r.stats.refactors);
  j.field("pool_hits", r.stats.pool_hits);
  j.field("pool_misses", r.stats.pool_misses);
  j.field("pool_evictions", r.stats.pool_evictions);
  j.key("pool");
  write_pool_json(j, *engine_.sweep_pool_);
  j.end_object();
}

void ServeSession::cmd_mincut(const std::vector<std::string>& t,
                              util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  mincut::DualCircuitOptions opt;
  opt.ordering_cache = engine_.mincut_ordering_;
  opt.reuse_pool = engine_.mincut_pool_;
  opt.cancel = request_token(t);
  const mincut::AnalogMinCutResult r = mincut::solve_mincut_dual(net, opt);
  const flow::SolveMetrics m = mincut_as_metrics(r);
  ++mincuts_;
  mincut_metrics_ += m;
  {
    const std::lock_guard<std::mutex> lock(engine_.telemetry_mutex_);
    ++engine_.mincuts_;
    engine_.mincut_metrics_ += m;
  }

  double partition_cut = 0.0;
  for (const graph::Edge& e : net.edges())
    if (r.side[e.from] && !r.side[e.to]) partition_cut += e.capacity;

  j.field("ok", true);
  j.field("cut_value", partition_cut);
  j.field("objective", r.cut_value);
  j.field("flow_recovered", r.flow_value);
  j.key("telemetry").begin_object();
  j.field("warm_started", r.warm_started);
  j.field("dc_iterations", r.dc_iterations);
  j.field("warm_iterations", r.warm_iterations);
  j.field("cold_iterations", r.cold_iterations);
  j.field("pool_hits", r.pool_hits);
  j.field("pool_misses", r.pool_misses);
  j.field("pool_evictions", r.pool_evictions);
  j.key("pool");
  write_pool_json(j, *engine_.mincut_pool_);
  j.end_object();
}

void ServeSession::cmd_deadline(const std::vector<std::string>& t,
                                util::JsonWriter& j) {
  const long long ms = tok_ll(t, "--ms", -1);
  if (ms < 0)
    throw std::runtime_error("deadline needs --ms N (0 clears the default)");
  deadline_ms_ = ms;
  j.field("ok", true);
  j.field("deadline_ms", deadline_ms_);
}

void ServeSession::cmd_session(util::JsonWriter& j) {
  j.field("ok", true);
  j.field("requests", requests_);
  j.field("solves", solves_);
  j.field("failed", failed_);
  j.field("sweeps", sweeps_);
  j.field("mincuts", mincuts_);
  j.field("deadline_ms", deadline_ms_);
  j.key("instance").begin_object();
  j.field("loaded", current_.has_value());
  if (current_) {
    j.field("vertices", current_->num_vertices());
    j.field("edges", current_->num_edges());
    j.field("revision", revision_);
  }
  j.end_object();
  j.key("telemetry").begin_object();
  j.field("wall_ms", seconds_ * 1e3);
  j.key("solve_metrics");
  write_metrics_json(j, solve_metrics_);
  j.key("sweep_metrics");
  write_metrics_json(j, sweep_metrics_);
  j.key("mincut_metrics");
  write_metrics_json(j, mincut_metrics_);
  j.end_object();
}

} // namespace aflow::core
