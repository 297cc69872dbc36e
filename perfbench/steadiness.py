#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady each metric is.

    python3 perfbench/steadiness.py --workloads ingest,cold_scan --seeds 1-10

For every workload it runs perfbench/run.py once per seed (one at a time),
then prints, per end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json. Every run's JSON result is also
appended to --out, one line per run, for later comparison.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="ingest,dashboard,cold_scan")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bounds = {}
    seconds = args.seconds or 10
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for m in spec.get("end_to_end", []):
            bounds[m["name"]] = m["bound"]
        seconds = args.seconds or spec.get("run_seconds", seconds)

    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            r = run_once(workload, seed, seconds, args.trace)
            if not r["correct"] or r["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, seed, r["correct"], r["failed"]))
            results.append(r)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": r}) + "\n")
        print("== %s (%d seeds)" % (workload, len(results)))
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-32s median=%-14.6g spread=%6.3f bound=%s%s" %
                  (name, med, spread, bound, flag))


if __name__ == "__main__":
    main()
