#include "stream.hpp"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/serve_engine.hpp"
#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "flow/maxflow.hpp"

namespace perfbench {

namespace af = aflow;

EditSource::EditSource(const SessionPlan& plan, std::uint64_t seed,
                       double edit_fraction, EditKind kind)
    : solver_(plan.solver), kind_(kind), rng_(seed) {
  for (const auto& e : plan.base.edges()) base_cap_.push_back(e.capacity);
  cur_cap_ = base_cap_;
  per_step_ = std::max(1, static_cast<int>(std::lround(
                              edit_fraction * static_cast<double>(base_cap_.size()))));
}

Step EditSource::next() {
  Step step;
  const std::vector<int> picked =
      sample_distinct(rng_, static_cast<int>(base_cap_.size()), per_step_);
  step.request = "reconfigure --edits ";
  char buf[64];
  for (size_t i = 0; i < picked.size(); ++i) {
    const int e = picked[i];
    const double base = base_cap_[static_cast<size_t>(e)];
    const double cur = cur_cap_[static_cast<size_t>(e)];
    double next = cur;
    if (kind_ == EditKind::kDigital) {
      const long long hi = std::max(2LL, 2 * std::llround(std::max(1.0, base)));
      while (next == cur) next = static_cast<double>(rng_.between(1, hi));
    } else {
      // Redraw until the edit is a real change inside the trust region
      // (rounding can nudge a 0.8 -> 1.2 swing just past 50%).
      while (next == cur || std::fabs(next - cur) > 0.5 * std::max(cur, 1.0))
        next = std::round(base * rng_.uniform(0.8, 1.2) * 1000.0) / 1000.0;
    }
    cur_cap_[static_cast<size_t>(e)] = next;
    step.edits.push_back({e, next, -1.0});
    std::snprintf(buf, sizeof buf, "%s%d:%.17g", i ? "," : "", e, next);
    step.request += buf;
  }
  step.request += "\nsolve --solver " + solver_ + "\n";
  return step;
}

void open_session(const SessionPlan& plan, LineClient& client, Result& res) {
  const std::string load = client.call("load --spec " + plan.load_spec);
  res.check(response_ok(load), plan.label + " load: " + load.substr(0, 200));
  const std::string solve = client.call("solve --solver " + plan.solver);
  const double flow = response_number(solve, "flow");
  res.check(response_ok(solve) && response_field(solve, "solver") == plan.solver &&
                (plan.exact ? same_flow(flow, plan.base_flow) : std::isfinite(flow)),
            plan.label + " cold solve: " + solve.substr(0, 200));
}

SessionPlan make_plan(std::string label, std::string load_spec,
                      std::string solver, bool exact) {
  SessionPlan p;
  p.label = std::move(label);
  p.load_spec = std::move(load_spec);
  p.solver = std::move(solver);
  p.base = af::core::generate_batch(p.load_spec).front();
  p.base_flow = exact_flow(p.base);
  p.exact = exact;
  return p;
}

LiveFront open_front(const std::vector<SessionPlan>& plans, Result& res) {
  LiveFront live;
  live.rig = std::make_unique<ServingRig>();
  for (size_t s = 0; s < plans.size(); ++s) {
    live.clients.push_back(std::make_unique<LineClient>(live.rig->port()));
    live.solvers.push_back(plans[s].solver);
  }
  for (size_t s = 0; s < plans.size(); ++s)
    open_session(plans[s], *live.clients[s], res);
  return live;
}

LiveFront open_front_timed(const std::vector<SessionPlan>& plans, int repeats,
                           const HostProbe& probe, Result& res,
                           std::vector<double>& setup_s) {
  LiveFront live;
  double before = probe.ms();
  for (int r = 0; r < repeats; ++r) {
    live = LiveFront{};
    const std::int64_t t0 = now_ns();
    live = open_front(plans, res);
    const double ms = ms_between(t0, now_ns());
    const double after = probe.ms();
    setup_s.push_back(nominal_ms(ms, before, after) * 1e-3);
    before = after;
  }
  return live;
}

void run_front(LiveFront& live, std::vector<EditSource>& sources,
               const StopRule& stop, Result& res, Trace& trace, FrontPass& pass) {
  const size_t n = live.clients.size();
  pass.rtt_ms.resize(n);
  pass.flows.resize(n);
  pass.native.resize(n);
  struct State {
    std::int64_t sent_ns = 0;
    int awaiting = 0; // responses still due for the step in flight
    int span = -1;
    std::string reconfigure_error; // the reconfigure response, when not ok
    bool done = false;
  };
  std::vector<State> st(n);
  std::vector<long long> first(n);
  for (size_t s = 0; s < n; ++s) first[s] = static_cast<long long>(pass.rtt_ms[s].size());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(stop.seconds * 1e9);
  const int root = trace.begin("front.pass", -1);

  auto finished = [&](size_t s) {
    const long long done_steps = static_cast<long long>(pass.rtt_ms[s].size());
    if (!stop.fixed_steps.empty()) return done_steps - first[s] >= stop.fixed_steps[s];
    if (now_ns() < deadline) return false;
    for (size_t o = 0; o < n; ++o)
      if (static_cast<long long>(pass.rtt_ms[o].size()) < stop.min_steps) return false;
    return true;
  };
  auto send_next = [&](size_t s) {
    if (finished(s)) {
      st[s].done = true;
      return;
    }
    const Step step = sources[s].next();
    const long long k = static_cast<long long>(pass.rtt_ms[s].size());
    st[s].awaiting = 2;
    st[s].span = trace.begin("front.step", step_id(static_cast<int>(s), k), root);
    st[s].sent_ns = now_ns();
    live.clients[s]->send(step.request);
  };

  for (size_t s = 0; s < n; ++s) send_next(s);
  std::vector<pollfd> fds(n);
  for (;;) {
    size_t open = 0;
    for (size_t s = 0; s < n; ++s) {
      fds[s].fd = st[s].done ? -1 : live.clients[s]->fd();
      fds[s].events = POLLIN;
      fds[s].revents = 0;
      if (!st[s].done) ++open;
    }
    if (open == 0) break;
    if (::poll(fds.data(), fds.size(), 1000) < 0) continue;
    for (size_t s = 0; s < n; ++s) {
      if (st[s].done || !(fds[s].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!live.clients[s]->pump()) {
        res.check(false, "server closed a session mid-stream");
        st[s].done = true;
        continue;
      }
      std::string line;
      while (!st[s].done && live.clients[s]->pop_line(line)) {
        if (--st[s].awaiting > 0) { // the reconfigure response
          st[s].reconfigure_error = response_ok(line) ? "" : line.substr(0, 200);
          continue;
        }
        const std::int64_t t = now_ns();
        trace.end(st[s].span);
        pass.rtt_ms[s].push_back(ms_between(st[s].sent_ns, t));
        pass.flows[s].push_back(response_number(line, "flow"));
        pass.native[s].push_back(response_field(line, "solver") == live.solvers[s]);
        pass.solve_response_bytes += static_cast<long long>(line.size() + 1);
        ++pass.solve_responses;
        res.check(st[s].reconfigure_error.empty() && response_ok(line),
                  st[s].reconfigure_error.empty() ? "solve: " + line.substr(0, 200)
                                                  : "reconfigure: " + st[s].reconfigure_error);
        send_next(s);
      }
    }
  }
  trace.end(root);
}

Segment run_segment(LiveFront& live, std::vector<EditSource>& sources,
                    const StopRule& stop, Result& res, FrontPass& pass) {
  const std::vector<long long> before = step_counts(pass);
  Trace off(false);
  const std::int64_t t0 = now_ns();
  run_front(live, sources, stop, res, off, pass);
  const double seconds = ms_between(t0, now_ns()) * 1e-3;
  // Each session's own step median, averaged over the sessions: pooled, the
  // steps of two solvers form two modes, and the median between them would
  // swing with the mix.
  double p50_sum = 0.0;
  size_t steps = 0;
  for (size_t s = 0; s < pass.rtt_ms.size(); ++s) {
    const auto& v = pass.rtt_ms[s];
    const std::vector<double> added(v.begin() + (s < before.size() ? before[s] : 0), v.end());
    p50_sum += median(added);
    steps += added.size();
  }
  return {p50_sum / static_cast<double>(pass.rtt_ms.size()),
          static_cast<double>(steps) / seconds};
}

ShardedRevisions::ShardedRevisions(const SessionPlan& plan, EditSource steps,
                                   int count, long long stride) {
  af::graph::FlowNetwork net = plan.base;
  for (int r = 1; r <= count; ++r) {
    for (long long k = 0; k < stride; ++k) apply_step(steps.next(), net);
    graphs_.push_back(af::graph::CsrGraph::from_network(net));
    exact_.push_back(exact_flow(net));
  }
}

void ShardedRevisions::solve_all(Result& res, std::vector<std::vector<double>>& ms,
                                 size_t round) const {
  af::core::ShardOptions so;
  so.shards = 4;
  so.deterministic = true;
  const af::core::ShardedSolver solver(so);
  const std::vector<int> cpus = allowed_cpus();
  ms.resize(graphs_.size());
  for (size_t r = 0; r < graphs_.size(); ++r) {
    std::optional<PinnedThread> pin;
    if (!cpus.empty()) pin.emplace(cpus[(round + r) % cpus.size()]);
    const std::int64_t t0 = now_ns();
    const double flow = solver.solve_csr(graphs_[r]).flow_value;
    ms[r].push_back(ms_between(t0, now_ns()));
    res.check(same_flow(flow, exact_[r]),
              "sharded revision " + std::to_string(r) + ": " + std::to_string(flow) +
                  " != exact " + std::to_string(exact_[r]));
  }
}

std::vector<double> step_rtts(const FrontPass& pass) {
  std::vector<double> out;
  for (const auto& v : pass.rtt_ms) out.insert(out.end(), v.begin(), v.end());
  return out;
}

TraceOverhead tracing_overhead(const std::vector<SessionPlan>& plans,
                               const FrontPass& traced,
                               const std::function<std::vector<EditSource>()>& sources,
                               Result& res) {
  StopRule fixed;
  fixed.fixed_steps = step_counts(traced);
  std::vector<double> on = step_rtts(traced), off;
  auto again = [&](bool with_trace, std::vector<double>& into) {
    LiveFront live = open_front(plans, res);
    std::vector<EditSource> src = sources();
    Trace spans(with_trace);
    FrontPass pass;
    run_front(live, src, fixed, res, spans, pass);
    const std::vector<double> rtt = step_rtts(pass);
    into.insert(into.end(), rtt.begin(), rtt.end());
  };
  again(false, off);
  again(false, off);
  again(true, on);
  return {median(on), median(off)};
}

double tail_p99(const std::vector<std::vector<double>>& sequences) {
  std::vector<double> block_p99, all;
  for (const auto& seq : sequences) {
    all.insert(all.end(), seq.begin(), seq.end());
    for (size_t b = 0; b + kTailBlock <= seq.size(); b += kTailBlock) {
      const auto first = seq.begin() + static_cast<std::ptrdiff_t>(b);
      block_p99.push_back(quantile(
          std::vector<double>(first, first + static_cast<std::ptrdiff_t>(kTailBlock)), 0.99));
    }
  }
  return block_p99.empty() ? quantile(all, 0.99) : median(block_p99);
}

std::vector<long long> step_counts(const FrontPass& pass) {
  std::vector<long long> out;
  for (const auto& v : pass.rtt_ms) out.push_back(static_cast<long long>(v.size()));
  return out;
}

SessionReplay replay_sessions(const std::vector<SessionPlan>& plans,
                              std::vector<EditSource> sources,
                              const std::vector<long long>& counts, Result& res,
                              Trace& trace) {
  af::core::ServeEngine engine;
  std::vector<std::shared_ptr<af::core::ServeSession>> sessions;
  for (const auto& p : plans) {
    sessions.push_back(engine.open_session());
    res.check(response_ok(sessions.back()->handle("load --spec " + p.load_spec)),
              p.label + " in-process load");
    res.check(response_ok(sessions.back()->handle("solve --solver " + p.solver)),
              p.label + " in-process cold solve");
  }
  SessionReplay out;
  out.reconfigure_ms.resize(plans.size());
  out.solve_ms.resize(plans.size());
  const int root = trace.begin("session.replay", -1);
  const long long longest = *std::max_element(counts.begin(), counts.end());
  for (long long k = 0; k < longest; ++k) {
    for (size_t s = 0; s < plans.size(); ++s) {
      if (k >= counts[s]) continue;
      const std::string req = sources[s].next().request;
      const size_t nl = req.find('\n');
      const std::string reconf = req.substr(0, nl);
      const std::string solve = req.substr(nl + 1, req.size() - nl - 2);
      const long long id = step_id(static_cast<int>(s), k);
      const int sp_r = trace.begin("session.reconfigure", id, root);
      std::int64_t t0 = now_ns();
      const std::string r1 = sessions[s]->handle(reconf);
      std::int64_t t1 = now_ns();
      trace.end(sp_r);
      const int sp_s = trace.begin("session.solve", id, root);
      const std::string r2 = sessions[s]->handle(solve);
      const std::int64_t t2 = now_ns();
      trace.end(sp_s);
      out.reconfigure_ms[s].push_back(ms_between(t0, t1));
      out.solve_ms[s].push_back(ms_between(t1, t2));
      res.check(response_ok(r1) && response_ok(r2),
                plans[s].label + " in-process step: " + r2.substr(0, 200));
    }
  }
  trace.end(root);
  return out;
}

double exact_flow(const af::graph::FlowNetwork& net) {
  return af::flow::push_relabel(net).flow_value;
}

af::flow::CapacityDelta apply_step(const Step& step, af::graph::FlowNetwork& net) {
  af::flow::CapacityDelta d;
  d.edits = step.edits;
  d.apply(net);
  return d;
}

bool same_flow(double a, double b) {
  return std::isfinite(a) && std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

} // namespace perfbench
