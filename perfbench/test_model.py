#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/test_model.py

For every workload, a short run must pass its checks, and a run whose model
is generated from a different seed (--corrupt-model) must fail them: exit
code 1 and "correct": false. A check that cannot fail would let a wrong
answer read as a fast one. Exits 0 when every case behaves.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ingest", "dashboard", "cold_scan"]


def run(workload, corrupt):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0"]
    if corrupt:
        command.append("--corrupt-model")
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    failures = 0
    for workload in WORKLOADS:
        for corrupt in (False, True):
            code, result, stderr = run(workload, corrupt)
            want_code = 1 if corrupt else 0
            ok = (result is not None and code == want_code and
                  result["correct"] == (not corrupt) and result["failed"] == 0)
            wrong = stderr.count("wrong answer")
            print("%-4s %-10s corrupt=%-5s exit=%d correct=%s wrong_answers=%d"
                  % ("ok" if ok else "FAIL", workload, corrupt, code,
                     None if result is None else result["correct"], wrong))
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
