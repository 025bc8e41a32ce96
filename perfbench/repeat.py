#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--sets 2] [--workloads kv-rolp,...]
                                [--seconds 15] [--first-seed 1] [--out results.json]

Runs are sequential. For every workload and end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median of each set, and with
--sets 2 whether the two sets agree within the bounds of BENCHMARK.json
(stats.compare_sets).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        why = [l for l in lines if "FAILED" in l] + proc.stderr.decode().splitlines()[-3:]
        raise RuntimeError("%s seed %d failed (exit %d): %s"
                           % (workload, seed, proc.returncode, " | ".join(why)))
    r = json.loads(lines[-1])
    outcomes = {}
    for line in lines:
        if line.startswith("PERFBENCH_OUTCOMES "):
            outcomes = json.loads(line.split(" ", 1)[1])
    return {"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"], "outcomes": outcomes,
            "metrics": {k: v["value"] for k, v in r["metrics"].items()}}


def report(workload, runs, spec, label):
    print("%s %s (%d runs)" % (workload, label, len(runs)))
    worst = 0.0
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, q2, q3 = stats.quartiles(values)
        spread = stats.relative_spread(values)
        flag = "" if spread <= m["bound"] / 3 else (
            "  > bound/3" if spread <= m["bound"] else "  > BOUND")
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("  %-20s median %14.4f  q1 %14.4f  q3 %14.4f  spread %.3f (bound %.2f)%s"
              % (m["name"], q2, q1, q3, spread, m["bound"], flag))
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print("  failed %d of %d attempted; all correct: %s; worst spread/bound %.2f"
          % (failed, attempted, all(r["correct"] for r in runs), worst))
    refused = [int(r["outcomes"].get("service.rejected", 0)) for r in runs]
    if any(r["outcomes"] for r in runs):
        print("  admission refusals per run: %s" % refused)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            runs = [run_once(w, seed, seconds) for seed in range(first, first + args.runs)]
            report(w, runs, spec, "set %d" % (s + 1))
            sets.append(runs)
            ok = ok and all(r["correct"] for r in runs)
        if args.sets == 2:
            problems = stats.compare_sets(sets[0], sets[1], spec["end_to_end"])
            print("  sets agree" if not problems else "  DISAGREE: " + "; ".join(problems))
            ok = ok and not problems
        results[w] = sets
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
