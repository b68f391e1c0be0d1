// Shared plumbing of the repo benchmark: clocks, percentiles, seeded
// randomness, process memory, the in-memory span store of traced runs, and
// the result record every workload fills.
#pragma once

#include <chrono>
#include <sched.h>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty list.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// The figure of a run from samples of several items (files, revisions):
/// `groups` holds, per item, samples of it taken at different times of the
/// window. The result is the median over the items of each item's median.
double median_of_medians(const std::vector<std::vector<double>>& groups);

/// The probe time, ms, that timing figures are scaled to: about what
/// HostProbe::ms() reads in a quiet stretch of the 4-vCPU Xeon virtual
/// machine (2.0 GHz) the bounds were set on.
inline constexpr double kNominalProbeMs = 2.5;

/// The CPUs this process may run on (the first 8), ascending; empty when
/// the kernel will not say.
std::vector<int> allowed_cpus();

/// Pins the calling thread to one CPU for the object's lifetime and then
/// restores its CPU set. If the kernel refuses, the thread stays where it
/// is.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu);
  ~PinnedThread();
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// A fixed piece of work owned by the benchmark, not by the program: BFS
/// sweeps over a seeded random graph of 65536 vertices and 8 arcs each
/// (about 3 MB, past the per-core caches). Its time tracks the speed the
/// host gives this process at the moment (neighbours' load, clocks) and
/// nothing the program does, so figures scaled by it compare across runs
/// taken in different states of a shared host.
class HostProbe {
 public:
  HostProbe();
  /// Mean time of 3 sweeps with the calling thread pinned to each of
  /// allowed_cpus() in turn. The mean, not the fastest sweep, so a reading
  /// takes in preemption and cold caches as the timed work meets them.
  double ms() const;

 private:
  double sweep_ms() const;
  std::vector<int> offsets_, targets_;
  mutable std::vector<int> dist_, queue_;
};

/// A time measured between probe readings `before` and `after`, scaled to
/// the nominal host: ms x kNominalProbeMs / mean(before, after).
inline double nominal_ms(double ms, double before, double after) {
  return ms * 2.0 * kNominalProbeMs / (before + after);
}

/// Samples taken in sequence with a probe reading before the first and
/// after each (sample k lies between probes[k] and probes[k + 1]), scaled
/// to the nominal host: times as nominal_ms, rates (`rate` set) inversely.
std::vector<double> at_nominal(const std::vector<double>& samples,
                               const std::vector<double>& probes, bool rate);

/// SplitMix64: a fixed, platform-independent generator, so one seed gives
/// the same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  long long between(long long lo, long long hi);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a stream tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// `count` distinct indices in [0, n), ascending.
std::vector<int> sample_distinct(Rng& rng, int n, int count);

/// Peak resident set (VmHWM) of this process, MB.
double peak_rss_mb();
/// Resets VmHWM to the current RSS (writes 5 to /proc/self/clear_refs).
/// Returns false when the kernel refuses.
bool reset_peak_rss();

/// Spans of a traced run, held in memory and written out at exit. A span
/// records one call into a layer: its name, start, end, the span that
/// caused it (-1 for a root) and the step it belongs to (-1 outside steps).
class Trace {
 public:
  struct Span {
    int name = -1;
    int parent = -1;
    long long step = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when tracing is off).
  int begin(const std::string& name, long long step, int parent = -1);
  void end(int id);
  /// Records a span measured elsewhere (a stage time the program reports).
  int add(const std::string& name, long long step, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  size_t size() const { return spans_.size(); }
  /// (step, duration ms) of every closed span called `name`, in record
  /// order.
  std::vector<std::pair<long long, double>> durations(const std::string& name) const;
  /// Writes every span as JSON lines: {"name","parent","step","start_us",
  /// "dur_us"}, start relative to the first span.
  bool write(const std::string& path) const;

 private:
  int intern(const std::string& name);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// What one workload run reports: the correctness tally, named metrics with
/// units (in insertion order), and run metadata (raw JSON values).
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> failures; // first few failure descriptions

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.push_back({key, json_value});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Counts one checked op; a miss is a failure described by `why`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
  std::string to_json() const;
};

/// Accuracy metrics (rel_error) are measured on the inputs of this fixed
/// seed whatever --seed is, so they are a function of the code alone.
inline constexpr std::uint64_t kReferenceSeed = 0;

/// Command-line settings shared by the workloads.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short windows, for the smoke test.
  bool smoke = false;
  /// Smoke-test hook: corrupt the recorded answer of this op (-1 = none),
  /// so the test can prove the correctness gate trips.
  long long corrupt_op = -1;
  /// Spans of a traced run are written here (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Scratch directory for generated input files.
  std::string workdir = "perfbench-work";
};

std::string json_string(const std::string& s);
/// `[a,b,...]`, or `[[...],...]` for nested lists (4 significant digits).
std::string json_array(const std::vector<double>& v);
std::string json_array(const std::vector<std::vector<double>>& v);

/// Writes the run's spans to cfg.trace_out (when set) and notes the span
/// count and file in the run metadata.
void write_trace(const RunConfig& cfg, const Trace& trace, Result& res);

} // namespace perfbench
