// FIFO push-relabel (Goldberg-Tarjan) with the two standard heuristics that
// make it the practical CPU reference the paper benchmarks against:
//   - initial global relabeling (exact distance labels from a reverse BFS),
//   - the gap heuristic (when a height level empties, every vertex above it
//     is lifted past n, cutting off dead regions).
//
// The solver operates on an externally owned residual and starts from
// whatever feasible flow it carries: a feasible flow is a preflow with no
// excess, so the standard initialisation (saturate the source-adjacent
// residual arcs, discharge) is valid from any carried flow. The cold entry
// (flow::push_relabel) passes a fresh zero-flow residual and floods every
// live source arc; the incremental delta path (flow/delta.hpp) passes a
// repaired carry-over residual plus a PushRelabelWarm plan whose budget
// bounds the value still augmentable after the edit (the slack the edit
// newly opened). The warm pass seeds that budget as excess *at the source
// itself*, labelled at its true BFS height — the flood of a virtual
// super-source arc of that capacity — so the total injected excess is
// O(budget) instead of O(total source slack), and a k-edge capacity edit
// costs O(changed region) instead of a near-constant fraction of a cold
// solve. The warm result is certified maximal by an exact residual
// reachability check; a failed certificate escalates to the flood, so the
// budget argument is a performance bound, never a correctness assumption.
#include <algorithm>
#include <limits>
#include <queue>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

class PushRelabelSolver {
 public:
  PushRelabelSolver(detail::Residual& r, int s, int t,
                    const util::CancelToken& cancel, SolveMetrics* metrics)
      : r_(r), s_(s), t_(t), cancel_(cancel), metrics_(metrics), n_(r.n),
        height_(n_, 0), excess_(n_, 0.0), current_arc_(n_, 0),
        height_count_(2 * static_cast<size_t>(n_) + 1, 0) {
    // Capacity-relative dust threshold: at capacity scales >= 1e9 the
    // double rounding residue of carried flows exceeds any absolute
    // epsilon, so every dust comparison in the restart scales with the
    // largest residual capacity (clamped so small instances keep the
    // historical absolute thresholds).
    double scale = 1.0;
    for (const double c : r_.cap) scale = std::max(scale, c);
    // Well below check_flow's 1e-9 conservation tolerance at scale 1, well
    // above double rounding dust at the capacity scale in play.
    excess_eps_ = 1e-11 * scale;
    refresh_threshold_ =
        std::max<long long>(64, static_cast<long long>(r_.cap.size()) / 16);
  }

  long long augment(const detail::PushRelabelWarm* warm) {
    run_pass(warm ? warm->injection_budget
                  : std::numeric_limits<double>::infinity());
    // A warm pass that parked its source (height >= n with budget left)
    // carries its own exact maximality certificate: heights stay a valid
    // labeling throughout, and a valid labeling with h(s) >= n admits no
    // residual s->t path. Only a pass that spent its whole budget — where
    // maximality rests on the budget >= augmentable-value argument — needs
    // the reachability BFS to check that the budget did not undershoot
    // (stale or unmeasured prior, dust-starved bound).
    if (warm && !source_parked_ && !is_maximum()) {
      // Finish with the cold flood from the current — strictly closer —
      // flow; the counter keeps the escalation visible in telemetry
      // instead of just slower.
      if (metrics_) metrics_->warm_escalations++;
      run_pass(std::numeric_limits<double>::infinity());
    }
    return pushes_ + relabels_;
  }

 private:
  /// One full push-relabel pass from the feasible flow currently in `r_`:
  /// exact global relabel, excess injection (see below), FIFO discharge,
  /// then the phase-2 return of parked excess. Re-entrant: the warm entry
  /// runs a second (flood) pass when its maximality certificate fails.
  ///
  /// Cold (budget = infinity): the source is pinned at height n and every
  /// live source arc is saturated with excess — the textbook start, valid
  /// from any feasible flow.
  ///
  /// Warm (finite budget): the source is an ordinary vertex at its exact
  /// BFS height, seeded with `budget` units of excess — equivalently, the
  /// flood of a virtual super-source s' -> s arc with capacity `budget`.
  /// The discharge itself then chooses which source arcs carry the new
  /// flow, so the *total* injection is bounded by the budget instead of by
  /// the total source slack; with the budget a bound on the augmentable
  /// value, the capped entry still admits a maximum flow (some maximum
  /// flow differs from the carried one by s->t paths of at most that
  /// value), and whatever the budget cannot route stays parked at s and is
  /// simply dropped — it was virtual excess, never flow.
  void run_pass(double budget) {
    warm_source_ = budget < std::numeric_limits<double>::infinity();
    std::fill(excess_.begin(), excess_.end(), 0.0);
    std::fill(current_arc_.begin(), current_arc_.end(), 0);
    global_relabel(); // warm: source at its true height; cold: at n

    parking_only_ = warm_source_;
    relabel_work_ = 0;
    if (warm_source_) {
      if (budget > 0.0 && height_[s_] < n_) {
        excess_[s_] = budget;
        active_.push(s_);
        if (metrics_) metrics_->injected_excess_arcs++;
      }
    } else {
      // Saturate the source-adjacent arcs with residual slack — except
      // those into vertices the initial global relabel put at height n (no
      // residual path to the sink). Heights never decrease and stay a
      // valid labeling, so such a vertex can never reach the sink later
      // either: flow pushed there could only round-trip back to s.
      for (int arc : r_.arcs(s_)) {
        if (r_.cap[arc] <= 0.0 || height_[r_.head[arc]] >= n_) continue;
        inject(arc, r_.cap[arc]);
        if (metrics_) metrics_->injected_excess_arcs++;
      }
    }

    // Main loop: route as much excess as possible to the sink. A vertex
    // already at height >= n when popped (lifted by the gap heuristic, or
    // cut off by the initial relabel) can never reach the sink again, so
    // its excess is parked for the return-to-source sweep below instead of
    // being discharged uphill. The source only ever holds *virtual* excess
    // (the warm budget), so its leftovers are dropped, not parked.
    while (!active_.empty()) {
      maybe_check_cancel();
      const int v = active_.front();
      active_.pop();
      if (v == t_ || height_[v] >= n_) continue;
      if (v == s_ && !warm_source_) continue;
      discharge(v);
    }
    source_parked_ = warm_source_ && height_[s_] >= n_;
    excess_[s_] = 0.0;
    if (!return_excess_to_source()) {
      // Genuine dead end even with freshly invalidated cursors (dust
      // capacity bottlenecks): finish with the legacy discharge walk,
      // which returns excess by relabeling past n. Slow but
      // unconditionally correct — and counted, so a stream that silently
      // engages it is visible in telemetry. The walk NEEDS the climb past
      // n, so the warm pass's park-at-n rule is lifted for it.
      parking_only_ = false;
      if (metrics_) metrics_->phase2_fallbacks++;
      for (int v = 0; v < n_; ++v)
        if (v != s_ && v != t_ && excess_[v] > 0.0) active_.push(v);
      while (!active_.empty()) {
        maybe_check_cancel();
        const int v = active_.front();
        active_.pop();
        if (v == s_ || v == t_) continue;
        discharge(v);
      }
    }
  }

  /// Maximality certificate for the warm pass: a maximum flow has no
  /// residual s->t path. Dust-capacity arcs are treated as saturated, like
  /// everywhere else in the restart; one O(m) BFS per warm solve.
  bool is_maximum() const {
    std::vector<char> seen(static_cast<size_t>(n_), 0);
    std::queue<int> q;
    q.push(s_);
    seen[s_] = 1;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (int arc : r_.arcs(v)) {
        const int u = r_.head[arc];
        if (seen[u] || r_.cap[arc] <= excess_eps_) continue;
        if (u == t_) return false;
        seen[u] = 1;
        q.push(u);
      }
    }
    return true;
  }

  /// Discharge pops run ~millions/s; amortise the steady_clock read behind
  /// the deadline check to one in 1024 pops.
  void maybe_check_cancel() {
    if ((++pops_ & 1023) == 0) cancel_.check();
  }

  /// Phase 2: every parked excess travels back to the source by retracing
  /// flow-carrying in-arcs (odd arc ids: cap[2e+1] is exactly the flow on
  /// input edge e). Flow decomposition of the preflow guarantees each
  /// excess unit lies on an s -> v flow path, so the backward walk reaches
  /// s — after cancelling any flow cycles it wanders into, each of which
  /// zeroes at least one arc, so the whole phase terminates. Walking flow
  /// arcs directly (instead of BFS over the full residual per push) keeps
  /// the return cost proportional to the flow being unwound.
  ///
  /// The per-vertex in-arc cursors are an amortisation, not an invariant:
  /// they are only sound while flow-arc capacities are non-increasing,
  /// which holds within one sweep (every phase-2 mutation — cycle
  /// cancellation or an unwind to s — only *decreases* odd-arc capacity)
  /// but not across anything that pushes new flow, e.g. the escalation
  /// pass of a warm restart or the legacy discharge fallback, either of
  /// which can restore capacity behind an advanced cursor. An apparent
  /// dead end therefore invalidates the walk's cursors and retries once
  /// with a fresh scan; only a dead end that survives fresh cursors is
  /// genuine. Returns false on such a genuine dead end (float-dust
  /// inflow); the caller then finishes with the legacy discharge walk.
  bool return_excess_to_source() {
    const double eps = excess_eps_;
    std::vector<int> mark(n_, 0);
    std::vector<int> mark_pos(n_, -1);
    std::vector<int> cur(n_, 0); // per-vertex in-arc scan position
    std::vector<int> walk_v, walk_arc;
    int stamp = 0;
    for (int v0 = 0; v0 < n_; ++v0) {
      if (v0 == s_ || v0 == t_) continue;
      bool retried = false; // one fresh-cursor retry per apparent dead end
      while (excess_[v0] > eps) {
        maybe_check_cancel();
        ++stamp;
        walk_v.assign(1, v0);
        walk_arc.clear();
        mark[v0] = stamp;
        mark_pos[v0] = 0;
        bool routed = false;
        bool dead = false;
        while (!routed && !dead) {
          const int x = walk_v.back();
          const std::span<const int> arcs = r_.arcs(x);
          int& c = cur[x];
          while (c < static_cast<int>(arcs.size()) &&
                 (!(arcs[c] & 1) || r_.cap[arcs[c]] <= eps))
            c++;
          if (c == static_cast<int>(arcs.size())) {
            dead = true;
            break;
          }
          const int arc = arcs[c];
          const int u = r_.head[arc];
          if (u == s_) {
            // s -> ... -> v0 flow path found: unwind the excess along it.
            double amount = excess_[v0];
            for (int a : walk_arc) amount = std::min(amount, r_.cap[a]);
            amount = std::min(amount, r_.cap[arc]);
            for (int a : walk_arc) {
              r_.cap[a] -= amount;
              r_.cap[r_.rev(a)] += amount;
            }
            r_.cap[arc] -= amount;
            r_.cap[r_.rev(arc)] += amount;
            excess_[v0] -= amount;
            pushes_++;
            if (metrics_) metrics_->returned_excess_walks++;
            routed = true;
          } else if (mark[u] == stamp) {
            // Flow cycle u -> ... -> x -> u: cancel its bottleneck (zeroes
            // at least one arc) and resume the walk from u.
            const int p = mark_pos[u];
            double amount = r_.cap[arc];
            for (size_t i = p; i < walk_arc.size(); ++i)
              amount = std::min(amount, r_.cap[walk_arc[i]]);
            for (size_t i = p; i < walk_arc.size(); ++i) {
              r_.cap[walk_arc[i]] -= amount;
              r_.cap[r_.rev(walk_arc[i])] += amount;
            }
            r_.cap[arc] -= amount;
            r_.cap[r_.rev(arc)] += amount;
            for (size_t i = p + 1; i < walk_v.size(); ++i) mark[walk_v[i]] = 0;
            walk_v.resize(p + 1);
            walk_arc.resize(p);
            pushes_++;
          } else {
            mark[u] = stamp;
            mark_pos[u] = static_cast<int>(walk_v.size());
            walk_v.push_back(u);
            walk_arc.push_back(arc);
          }
        }
        if (dead) {
          if (retried) return false; // genuine: fresh cursors found nothing
          retried = true;
          for (int x : walk_v) cur[x] = 0;
          continue;
        }
        retried = false;
      }
      excess_[v0] = std::max(excess_[v0], 0.0);
    }
    return true;
  }

  void global_relabel() {
    // Heights = BFS distance to sink in the residual graph; unreachable
    // vertices sit at n. A cold pass pins the source at n regardless (the
    // flood start); a warm pass labels it like any other vertex, because
    // it discharges its budget excess itself.
    std::fill(height_.begin(), height_.end(), n_);
    std::fill(height_count_.begin(), height_count_.end(), 0);
    height_[t_] = 0;
    std::queue<int> q;
    q.push(t_);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (int arc : r_.arcs(v)) {
        // Arc (v -> u) in adj; we need residual capacity on (u -> v).
        const int u = r_.head[arc];
        if (height_[u] == n_ && (warm_source_ || u != s_) &&
            r_.cap[r_.rev(arc)] > 0.0) {
          height_[u] = height_[v] + 1;
          q.push(u);
        }
      }
    }
    for (int v = 0; v < n_; ++v) height_count_[height_[v]]++;
  }

  /// Moves `amount` units of excess from the source across `arc` — the
  /// cold flood's injection primitive (a warm pass seeds the budget at the
  /// source instead and lets discharge pick the arcs).
  void inject(int arc, double amount) {
    const int u = r_.head[arc];
    r_.cap[arc] -= amount;
    r_.cap[r_.rev(arc)] += amount;
    const bool was_inactive = excess_[u] == 0.0;
    excess_[u] += amount;
    if (was_inactive && u != s_ && u != t_) active_.push(u);
    pushes_++;
  }

  void push(int v, int arc) {
    const double delta = std::min(excess_[v], r_.cap[arc]);
    if (delta <= 0.0) return;
    const int u = r_.head[arc];
    r_.cap[arc] -= delta;
    r_.cap[r_.rev(arc)] += delta;
    excess_[v] -= delta;
    const bool was_inactive = excess_[u] == 0.0;
    excess_[u] += delta;
    // A warm source is an ordinary active vertex: excess pushed back into
    // it must requeue it, or budget it could still re-route would strand
    // (and needlessly fail the maximality certificate).
    if (was_inactive && u != t_ && (u != s_ || warm_source_))
      active_.push(u);
    pushes_++;
  }

  /// Periodic exact relabel for warm passes: recomputes BFS distances to
  /// the sink and lifts every vertex to max(current, exact). The max of
  /// two valid labelings is valid (per residual arc, take whichever
  /// labeling attains the max at the tail), so heights stay valid and
  /// non-decreasing — and every vertex cut off from the sink jumps
  /// straight to n in one O(m) pass. This is what ends a warm pass: once
  /// the newly-opened slack is routed, the source and the unroutable
  /// remainder of its budget are cut off, and without the refresh they
  /// would relabel toward n one step (and one full arc scan) at a time.
  void refresh_heights() {
    std::vector<int> dist(static_cast<size_t>(n_), n_);
    dist[t_] = 0;
    std::queue<int> q;
    q.push(t_);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (int arc : r_.arcs(v)) {
        const int u = r_.head[arc];
        if (dist[u] == n_ && (warm_source_ || u != s_) &&
            r_.cap[r_.rev(arc)] > 0.0) {
          dist[u] = dist[v] + 1;
          q.push(u);
        }
      }
    }
    std::fill(height_count_.begin(), height_count_.end(), 0);
    for (int v = 0; v < n_; ++v) {
      height_[v] = std::max(height_[v], dist[v]);
      if (height_[v] <= 2 * n_) height_count_[height_[v]]++;
    }
    // Raised heights can re-admit arcs an advanced cursor already skipped.
    std::fill(current_arc_.begin(), current_arc_.end(), 0);
    relabel_work_ = 0;
  }

  void relabel(int v) {
    const int old_height = height_[v];
    int min_height = 2 * n_;
    for (int arc : r_.arcs(v))
      if (r_.cap[arc] > 0.0) min_height = std::min(min_height, height_[r_.head[arc]]);
    height_[v] = min_height + 1;
    relabels_++;
    relabel_work_ += static_cast<long long>(r_.arcs(v).size()) + 1;

    height_count_[old_height]--;
    if (height_[v] <= 2 * n_) height_count_[height_[v]]++;

    // Gap heuristic: no vertex left at `old_height` cuts off everything
    // above it (those vertices can never reach the sink again).
    if (height_count_[old_height] == 0 && old_height < n_) {
      for (int u = 0; u < n_; ++u) {
        if (u != s_ && height_[u] > old_height && height_[u] < n_) {
          height_count_[height_[u]]--;
          height_[u] = n_ + 1;
          height_count_[height_[u]]++;
        }
      }
    }
  }

  void discharge(int v) {
    while (excess_[v] > 0.0) {
      // Warm phase 1 parks a vertex the moment it crosses n: it can never
      // reach the sink again, and the phase-2 walk returns its excess far
      // cheaper than relabeling it toward 2n would. (The legacy fallback
      // clears parking_only_ — its whole mechanism is that climb.) For the
      // warm source this drops the unroutable remainder of the budget,
      // which is virtual excess, not flow.
      if (parking_only_ && height_[v] >= n_) break;
      if (current_arc_[v] == static_cast<int>(r_.arcs(v).size())) {
        relabel(v);
        current_arc_[v] = 0;
        if (parking_only_ && relabel_work_ > refresh_threshold_)
          refresh_heights();
        // Defensive bound only: heights are capped at 2n+1 by relabel's
        // scan, so a vertex above 2n has walked its excess back to s.
        if (height_[v] > 2 * n_) break;
        continue;
      }
      const int arc = r_.arcs(v)[current_arc_[v]];
      const int u = r_.head[arc];
      if (r_.cap[arc] > 0.0 && height_[v] == height_[u] + 1)
        push(v, arc);
      else
        current_arc_[v]++;
    }
  }

  detail::Residual& r_;
  int s_, t_;
  util::CancelToken cancel_;
  SolveMetrics* metrics_;
  int n_;
  bool warm_source_ = false;  // current pass runs the budgeted-source start
  bool parking_only_ = false; // warm phase 1: park at n, refresh heights
  bool source_parked_ = false; // warm pass ended with h(s) >= n: certified
  // Arc-scan work between exact-height refreshes of a warm pass; m/4 keeps
  // the refresh amortised against the relabeling it replaces.
  long long relabel_work_ = 0;
  long long refresh_threshold_ = 0;
  double excess_eps_ = 1e-11;
  long long pops_ = 0;
  std::vector<int> height_;
  std::vector<double> excess_;
  std::vector<int> current_arc_;
  std::vector<int> height_count_;
  std::queue<int> active_;
  long long pushes_ = 0;
  long long relabels_ = 0;
};

} // namespace

namespace detail {

long long push_relabel_augment(Residual& r, int s, int t,
                               const util::CancelToken& cancel,
                               SolveMetrics* metrics,
                               const PushRelabelWarm* warm) {
  return PushRelabelSolver(r, s, t, cancel, metrics).augment(warm);
}

} // namespace detail

MaxFlowResult push_relabel(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel) {
  detail::Residual r(net.num_vertices(), net.edges());
  MaxFlowResult result;
  result.operations = detail::push_relabel_augment(
      r, net.source(), net.sink(), cancel, &result.metrics);
  result.flow_value = r.flow_value_at(net.edges(), net.source());
  result.edge_flow = r.edge_flows(net.edges());
  return result;
}

} // namespace aflow::flow
