// Entry point of the repo benchmark binary:
//   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
//                 [--workdir DIR] [--trace-out FILE] [--smoke]
//                 [--corrupt-op K]
// Prints one JSON line: {"correct", "attempted", "failed", "metrics",
// "info", "failures"}. Exit code 0 only when every checked op was correct.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload edit_stream|file_solve|analog_reprogram "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE] "
               "[--smoke] [--corrupt-op K]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(usage());
      }
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = value();
    else if (a == "--seed") cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") cfg.trace = value() != "0";
    else if (a == "--workdir") cfg.workdir = value();
    else if (a == "--trace-out") cfg.trace_out = value();
    else if (a == "--smoke") cfg.smoke = true;
    else if (a == "--corrupt-op") cfg.corrupt_op = std::strtoll(value().c_str(), nullptr, 10);
    else return usage();
  }
  perfbench::Result res;
  try {
    if (cfg.workload == "edit_stream") perfbench::run_edit_stream(cfg, res);
    else if (cfg.workload == "file_solve") perfbench::run_file_solve(cfg, res);
    else if (cfg.workload == "analog_reprogram") perfbench::run_analog_reprogram(cfg, res);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", res.to_json().c_str());
  for (const auto& f : res.failures) std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  return (res.failed == 0 && res.attempted > 0) ? 0 : 1;
}
