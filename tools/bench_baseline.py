#!/usr/bin/env python3
"""Writes a committed benchmark baseline: runs perfbench/run.py for one or
more workloads and seeds, and writes BENCH_<workload>.json with the run
metadata and the per-seed metrics.

    python3 tools/bench_baseline.py --workload file_solve --seeds 201-210
    python3 tools/bench_baseline.py --workload file_solve --seeds 201-210 \\
        --trace 0 1 --checkout parent=../parent --checkout change=.

Run it from the repository root. Each --checkout LABEL=DIR names a source
tree holding perfbench/run.py (default: change=. alone). With several
checkouts every seed runs on each of them, in the given order on even
seed positions and reversed on odd ones (seed 201: parent, change; seed
202: change, parent; ...), so host drift and run order land on both
sides alike. perfbench builds each checkout into its own .bench_build/.

The output holds, per checkout, its git commit, whether its tracked
files differ from that commit and, if they do, the sha256 of the diff
(see tree_state; `git add` new files first so the diff holds them),
every run (seed, trace, correct, attempted, failed, metrics, and
perfbench's metadata without its raw `samples` arrays and trace file
path) and per-metric medians and quartiles. With exactly two checkouts
it also counts, per metric, the seeds on which the second one was
better, in the direction BENCHMARK.json declares. Exit code 0 only when
every run answered correctly.
"""
import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(tokens):
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(text):
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(path).resolve()


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        return {"seed": seed, "trace": trace, "correct": False,
                "error": f"perfbench exited {proc.returncode} without a result"}
    meta = json.loads(lines[-2])["meta"]
    for local in ("samples", "trace_file"):  # bulky, or a path on this host
        meta.pop(local, None)
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "meta": meta}


# What a dirty tree's diff_sha256 hashes: the tracked files' diff against
# HEAD, less the baselines this tool writes and the Markdown docs, which
# the benchmark does not build.
DIFF_ARGS = ["diff", "--binary", "--full-index", "--no-renames", "--no-color",
             "--no-ext-diff", "--no-textconv"]
DIFF_PATHS = ["--", ".", ":(exclude)BENCH_*.json", ":(exclude)*.md"]


def tree_state(checkout):
    """The checkout's git commit, whether its tracked files differ from it
    (commit None outside a git repository) and, when they do, the sha256 of
    that diff. Once the change is committed,
    `git diff <DIFF_ARGS> PARENT COMMIT <DIFF_PATHS> | sha256sum` gives the
    same hash, tying the recorded runs to the commit that holds their code."""
    def git(*argv, strip=True):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))
        out = subprocess.run(["git", "-C", str(checkout), *argv], env=env,
                             capture_output=True, text=True)
        if out.returncode != 0:
            return None
        return out.stdout.strip() if strip else out.stdout
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no")) if commit else None
    state = {"commit": commit, "dirty": dirty}
    if dirty:
        diff = git(*DIFF_ARGS, "HEAD", *DIFF_PATHS, strip=False)
        state["diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()
    return state


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs):
    by_metric = {}
    for run in runs:
        for name, value in run.get("metrics", {}).items():
            by_metric.setdefault(name, []).append(value)
    return {name: quartiles(values) for name, values in sorted(by_metric.items())}


def pair_wins(first, second, better):
    """Per metric: seeds on which `second` beat `first`, of the seeds both ran."""
    wins = {}
    for a, b in zip(first, second):
        for name, va in a.get("metrics", {}).items():
            vb = b.get("metrics", {}).get(name)
            if vb is None or name not in better:
                continue
            won = vb < va if better[name] == "lower" else vb > va
            tally = wins.setdefault(name, {"better": 0, "pairs": 0})
            tally["pairs"] += 1
            tally["better"] += int(won)
    return dict(sorted(wins.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, nargs="+",
                    help="seeds or inclusive ranges, e.g. 1 2 5-9")
    ap.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    ap.add_argument("--checkout", type=parse_checkout, action="append",
                    help="LABEL=DIR, repeatable (default change=.)")
    args = ap.parse_args()

    checkouts = args.checkout or [("change", ROOT)]
    seeds = parse_seeds(args.seeds)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    all_correct = True
    for workload in args.workload:
        runs = {label: [] for label, _ in checkouts}
        for trace in args.trace:
            for i, seed in enumerate(seeds):
                for label, path in checkouts[::-1] if i % 2 else checkouts:
                    run = run_once(path, workload, seed, trace)
                    runs[label].append(run)
                    all_correct &= run["correct"]
                    print(f"bench_baseline: {workload} {label} seed={seed} "
                          f"trace={trace} correct={run['correct']}",
                          file=sys.stderr, flush=True)
        record = {
            "workload": workload,
            "command": " ".join(
                ["python3 tools/bench_baseline.py --workload", workload,
                 "--seeds", *args.seeds, "--trace", *map(str, args.trace)]
                + [f"--checkout {label}=" + ("." if path == ROOT else "DIR")
                   for label, path in checkouts]),
            "date_utc": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seeds": seeds,
            "traces": args.trace,
            "checkouts": {},
        }
        for label, path in checkouts:
            record["checkouts"][label] = {
                **tree_state(path),
                "summary": {f"trace{t}": summarise([r for r in runs[label]
                                                    if r["trace"] == t])
                            for t in args.trace},
                "runs": runs[label],
            }
        if len(checkouts) == 2:
            (first, _), (second, _) = checkouts
            record["pairs"] = {
                f"trace{t}": pair_wins(
                    [r for r in runs[first] if r["trace"] == t],
                    [r for r in runs[second] if r["trace"] == t], better)
                for t in args.trace}
        out = ROOT / f"BENCH_{workload}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"bench_baseline: wrote {out}", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
