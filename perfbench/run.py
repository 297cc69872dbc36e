#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run it from anywhere; the build lands in .bench_build/perfbench at the
repository root. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. A traced run (--trace 1) also writes its spans
to .bench_build/perfbench/spans-<workload>-<seed>-<trial>.tsv.

A run is TRIALS trials, one after another, each a fresh process that sets
up, runs the workload for an equal share of --seconds and checks its
answers. For each timing a run reports the best of its trials (the lowest
latency, the highest rate): the host's slow phases only ever add time.
setup_s is the median of the trials' set-up times, success_rate counts
every trial's ops, and other metrics, and every per-layer metric of a
traced run, are the median of the trials.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRIALS = 3
TIMING_UNITS = ("us", "ms", "s", "rows/s")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources not found at " +
                 os.path.join(ROOT, "src"))
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)


def option(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def with_option(args, name, value):
    out = list(args)
    for i, arg in enumerate(out[:-1]):
        if arg == name:
            out[i + 1] = value
    return out


def combine(results, traced):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        unit = first["unit"]
        if name == "success_rate":
            value = 1.0 - failed / attempted if attempted else 0.0
        elif traced or name == "setup_s" or unit not in TIMING_UNITS:
            value = statistics.median(values)
        elif unit == "rows/s":
            value = max(values)
        else:
            value = min(values)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    args = sys.argv[1:]
    build()
    seconds = option(args, "--seconds")
    if seconds is not None and seconds.isdigit():
        args = with_option(args, "--seconds",
                           str(max(1, round(int(seconds) / TRIALS))))
    traced = option(args, "--trace") == "1"
    results = []
    for trial in range(TRIALS):
        command = [os.path.join(BUILD, "perfbench")] + args
        if traced:
            command += ["--spans", os.path.join(BUILD, "spans-%s-%s-%d.tsv" % (
                option(args, "--workload"), option(args, "--seed"), trial))]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        # The trial's human-readable summary, then its result.
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            return 1
    result = combine(results, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
