#!/usr/bin/env python3
"""End-to-end benchmark of the imc IMCAF engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workers 1 --workload cold_solve \
        --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the library from src/) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload in its own process, checks the
result and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split
(and writes a Chrome trace next to the build). README.md in this folder
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_solve", "warm_queries", "delta_stream")
RUN_TIMEOUT_S = 170

# Which layer's time each workload is predicted to spend most on, and
# which layers must be idle there. Reported, not enforced: an optimisation
# is allowed to change the ranking.
LAYERS = ("sampling.wait", "solver", "estimate", "repair", "engine.self")
PREDICTION = {
    "cold_solve": ("estimate", ("repair",)),
    "warm_queries": ("solver", ("sampling", "repair")),
    "delta_stream": ("repair_nonzero", ("sampling",)),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at src/: run from the root of "
                           "a source checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "imc_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "imc_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(raw, size, binary):
    """Two runs of the same binary with the same workload, size and seed
    must return the same seed sets; the first run of a key records its
    digest."""
    with open(binary, "rb") as f:
        build = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(build_dir(), "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store,
                        f"{raw['workload']}-{size}-{raw['seed']}-{build}.txt")
    if os.path.isfile(path):
        with open(path) as f:
            recorded = f.read().strip()
        return recorded == raw["digest"], recorded
    with open(path, "w") as f:
        f.write(raw["digest"] + "\n")
    return True, raw["digest"]


def value(metrics, name):
    return metrics.get(name, {}).get("value", 0.0)


def layer_report(workload, metrics):
    """Per-layer table (share of op wall time) and the prediction check."""
    op_s = value(metrics, "op.s_per_op")
    seconds = {
        "sampling.wait": value(metrics, "sampling.wait_s_per_op"),
        "solver": value(metrics, "solver.s_per_op"),
        "estimate": value(metrics, "estimate.s_per_op"),
        "repair": value(metrics, "repair.s_per_op"),
        "engine.self": value(metrics, "engine.self_s_per_op"),
    }
    lines = [f"layer split of {workload} (op wall {op_s * 1e3:.2f} ms):"]
    for layer in LAYERS:
        share = seconds[layer] / op_s if op_s > 0 else 0.0
        lines.append(f"  {layer:<14} {seconds[layer] * 1e3:9.3f} ms/op  "
                     f"{share * 100:6.1f} %")
    lines.append(f"  {'hidden sampling':<14} "
                 f"{value(metrics, 'sampling.overlap_s_per_op') * 1e3:9.3f} "
                 f"ms/op  (overlapped, not in the wall)")
    lines.append(f"  trace overhead {value(metrics, 'trace.overhead_frac') * 100:.1f} %"
                 f" of untraced ops/s")
    arena_mb = (value(metrics, "sampling.touches_per_sample") * 16 *
                value(metrics, "solver.pool_samples_per_op") /
                max(value(metrics, "solver.calls_per_op"), 1.0) / 1e6)
    lines.append(f"  touch arena of the solved pool ~{arena_mb:.1f} MB "
                 f"(16 B per touch)")

    largest, idle = PREDICTION[workload]
    problems = []
    blocking = {k: v for k, v in seconds.items() if k != "engine.self"}
    if largest == "repair_nonzero":
        if seconds["repair"] <= 0:
            problems.append("repair is zero")
    elif max(blocking, key=blocking.get) != largest:
        problems.append(f"largest layer is {max(blocking, key=blocking.get)}, "
                        f"predicted {largest}")
    if "repair" in idle and seconds["repair"] > 0:
        problems.append("repair is non-zero")
    if "sampling" in idle and value(metrics, "sampling.s_per_op") > 0:
        problems.append("sampling is non-zero")
    lines.append("  prediction: " + ("matches" if not problems
                                     else "MISMATCH (" + "; ".join(problems) + ")"))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads of the library's only pool")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers), "--size", args.size,
               "--out-dir", os.path.join(build_dir(), "runs")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 3
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]

    problems = []
    if raw["failed"]:
        problems.append(f"{raw['failed']} failed ops: {raw['failures']}")
    same, recorded = check_digest(raw, args.size, binary)
    if not same:
        problems.append(f"seed digest {raw['digest']} differs from {recorded} "
                        f"recorded by an earlier run with this seed")
    expected = expected_metrics(args.trace)
    if expected is not None and expected != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(expected ^ set(metrics))}")

    print(f"{args.workload} seed {args.seed}: {raw['attempted']} ops "
          f"({raw['timed_ops']} timed), {raw['failed']} failed, seed digest "
          f"{raw['digest']} over a cycle of {raw['period']} ops")
    if args.trace:
        for line in layer_report(args.workload, metrics):
            print(line)
    else:
        for name, metric in metrics.items():
            print(f"  {name:<14} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    print(json.dumps({"correct": not problems, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
