#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at the tiny size, untraced
and traced, twice with one seed (the second run checks the first run's
seed digest), plus the refusal to run without the library sources.
Exits 0 when all pass.

    python3 perfbench/smoke_test.py      # from the root of a source checkout
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (run.py in this folder)


def bench(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(proc, workload, trace, expected):
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit code {proc.returncode}: "
                f"{proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("not correct:\n" + proc.stdout)
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    if set(result["metrics"]) != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ expected)}")
    # The predicted split holds for the full size only; here the report
    # just has to be there.
    if trace and "prediction:" not in proc.stdout:
        problems.append("no layer report:\n" + proc.stdout)
    return [f"{workload} trace {trace}: {p}" for p in problems]


def main():
    problems = []
    for trace in (0, 1):
        expected = run.expected_metrics(trace)
        for workload in run.WORKLOADS:
            for _ in range(2):
                problems += check_result(bench(workload, 7, trace), workload,
                                         trace, expected)

    # Without src/ beside it the benchmark must fail and print no result.
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("cold_solve", 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the library sources")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
