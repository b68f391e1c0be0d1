#!/usr/bin/env python3
"""Repo benchmark: builds the analogflow library and the benchmark driver
from source, runs one workload, and prints the result as the last line of
standard output.

    python3 perfbench/run.py --workload edit_stream --seed 1 --seconds 20 --trace 0

Run it from the repository root. Workloads: edit_stream, file_solve,
analog_reprogram (see perfbench/README.md). With --trace 0 the result holds
every end-to-end metric of BENCHMARK.json; with --trace 1 every per-layer
metric (0 for a layer the workload does not exercise), and the spans are
written to .bench_build/perfbench/traces/. The line before the result is
the run's metadata (compiler, build type, nproc, git commit, load average
at start and end, threads, and the samples behind each timing metric).
Exit code 0 only when every checked answer was correct.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_bin"
WORKLOADS = ("edit_stream", "file_solve", "analog_reprogram")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not (ROOT / "src" / "core" / "serve_front.hpp").is_file():
        log(f"no analogflow sources under {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_bin"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def cache_value(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def compiler_version(path):
    try:
        out = subprocess.run([path, "--version"], capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def source_commit():
    """The git commit of the checkout, or None outside a git repository."""
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances and windows (schema and gate checks)")
    ap.add_argument("--corrupt-op", type=int, default=-1,
                    help="falsify one recorded answer to prove the gate trips")
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        return 3
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workdir = BUILD / "work" / args.workload
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_op >= 0:
        cmd += ["--corrupt-op", str(args.corrupt_op)]

    load_start = loadavg()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"benchmark binary printed nothing (exit {proc.returncode})")
        return 5
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} missing")
                return 6
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        if got["unit"] != m["unit"]:
            log(f"metric {m['name']} has unit {got['unit']}, declared {m['unit']}")
            return 6
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    undeclared = sorted(set(raw["metrics"]) - set(metrics))
    if undeclared:
        log(f"metrics not declared in BENCHMARK.json: {undeclared}")
        return 6

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "compiler": compiler_version(cache_value("CMAKE_CXX_COMPILER")),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(), "commit": source_commit(),
        "wall_s": round(time.monotonic() - started, 3),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "failures": raw.get("failures", []),
    }
    meta.update(raw.get("info", {}))
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": raw["metrics"]}, indent=1) + "\n")

    correct = bool(raw["correct"]) and raw["failed"] == 0 and proc.returncode == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
