#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median_of_medians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> per_item;
  for (const auto& g : groups)
    if (!g.empty()) per_item.push_back(median(g));
  return median(per_item);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

long long Rng::between(long long lo, long long hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<long long>(next() % span);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x100000001b3ULL + tag);
  return r.next();
}

std::vector<int> sample_distinct(Rng& rng, int n, int count) {
  count = std::min(count, n);
  std::vector<char> taken(static_cast<size_t>(n), 0);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int>(out.size()) < count) {
    const int i = static_cast<int>(rng.between(0, n - 1));
    if (taken[static_cast<size_t>(i)]) continue;
    taken[static_cast<size_t>(i)] = 1;
    out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

int Trace::intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Trace::begin(const std::string& name, long long step, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.step = step;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
}

int Trace::add(const std::string& name, long long step, int parent,
               std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return -1;
  Span s;
  s.name = intern(name);
  s.parent = parent;
  s.step = step;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::pair<long long, double>> Trace::durations(
    const std::string& name) const {
  std::vector<std::pair<long long, double>> out;
  int id = -1;
  for (size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) id = static_cast<int>(i);
  if (id < 0) return out;
  for (const Span& s : spans_)
    if (s.name == id && s.end_ns >= s.start_ns)
      out.push_back({s.step, ms_between(s.start_ns, s.end_ns)});
  return out;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":%s,\"parent\":%d,\"step\":%lld,"
                 "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                 i, json_string(names_[static_cast<size_t>(s.name)]).c_str(),
                 s.parent, s.step, static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return std::fclose(f) == 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_trace(const RunConfig& cfg, const Trace& trace, Result& res) {
  res.note("spans", std::to_string(trace.size()));
  if (cfg.trace_out.empty()) return;
  if (!trace.write(cfg.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_out.c_str());
  else
    res.note("trace_file", json_string(cfg.trace_out));
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4g", i ? "," : "", std::isfinite(v[i]) ? v[i] : 0.0);
    out += buf;
  }
  return out + "]";
}

std::string json_array(const std::vector<std::vector<double>>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_array(v[i]);
  return out + "]";
}

std::string Result::to_json() const {
  std::string out = "{\"correct\":";
  out += (failed == 0 && attempted > 0) ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = metrics[i].second.first;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    if (i) out += ',';
    out += json_string(metrics[i].first) + ":{\"value\":" + buf +
           ",\"unit\":" + json_string(metrics[i].second.second) + "}";
  }
  out += "},\"info\":{";
  for (size_t i = 0; i < info.size(); ++i) {
    if (i) out += ',';
    out += json_string(info[i].first) + ":" + info[i].second;
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i) out += ',';
    out += json_string(failures[i]);
  }
  out += "]}";
  return out;
}

namespace {
constexpr int kProbeVertices = 1 << 16;
constexpr int kProbeDegree = 8;
constexpr int kProbeSweeps = 3;
constexpr size_t kMaxCpus = 8;
} // namespace

HostProbe::HostProbe()
    : offsets_(kProbeVertices + 1),
      targets_(static_cast<size_t>(kProbeVertices) * kProbeDegree),
      dist_(kProbeVertices),
      queue_(kProbeVertices) {
  Rng rng(0x5eed);
  for (size_t v = 0; v < offsets_.size(); ++v) offsets_[v] = static_cast<int>(v) * kProbeDegree;
  for (int& t : targets_) t = static_cast<int>(rng.between(0, kProbeVertices - 1));
}

double HostProbe::sweep_ms() const {
  double total = 0.0;
  for (int r = 0; r < kProbeSweeps; ++r) {
    const std::int64_t t0 = now_ns();
    std::fill(dist_.begin(), dist_.end(), -1);
    size_t head = 0, tail = 0;
    dist_[0] = 0;
    queue_[tail++] = 0;
    while (head < tail) {
      const size_t v = static_cast<size_t>(queue_[head++]);
      for (int e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const size_t w = static_cast<size_t>(targets_[static_cast<size_t>(e)]);
        if (dist_[w] < 0) {
          dist_[w] = dist_[v] + 1;
          queue_[tail++] = static_cast<int>(w);
        }
      }
    }
    total += ms_between(t0, now_ns());
  }
  return total / kProbeSweeps;
}

double HostProbe::ms() const {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return sweep_ms();
  double sum = 0.0;
  for (int c : cpus) {
    const PinnedThread pin(c);
    sum += sweep_ms();
  }
  return sum / static_cast<double>(cpus.size());
}

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE && out.size() < kMaxCpus; ++c)
    if (CPU_ISSET(c, &allowed)) out.push_back(c);
  return out;
}

PinnedThread::PinnedThread(int cpu) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedThread::~PinnedThread() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::vector<double> at_nominal(const std::vector<double>& samples,
                               const std::vector<double>& probes, bool rate) {
  std::vector<double> out;
  for (size_t k = 0; k < samples.size() && k + 1 < probes.size(); ++k) {
    const double scaled = nominal_ms(1.0, probes[k], probes[k + 1]);
    out.push_back(rate ? samples[k] / scaled : samples[k] * scaled);
  }
  return out;
}

} // namespace perfbench
