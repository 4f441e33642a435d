#!/usr/bin/env python3
"""Fail on micro-benchmark regressions against the committed baseline.

Compares a fresh ``bench_micro_components --json`` run against the
checked-in ``BENCH_micro.json`` and exits 1 if any benchmark on the
curated allowlist slowed down by more than ``--threshold`` (default 25%).

Only *stable serial* benchmarks are gated on timing: multi-threaded
variants and end-to-end solves depend on core count and scheduler noise,
so a hard gate on them would flap. The allowlist below is the contract —
extend it when a new serial hot path gets a benchmark, prune it if a
benchmark is retired (an allowlisted name missing from either file is an
error, so renames cannot silently drop coverage).

The end-to-end pipeline sweep (``BM_ImcafEndToEnd/{warm}/{threads}``) is
gated on *shape* instead: every row in COUNTER_CHECKS must be present in
the fresh run and carry every listed counter. That catches a sweep arg
being dropped or a counter silently vanishing from the reporter without
flapping on wall-clock noise.

Typical use (see the `bench` label notes in bench/CMakeLists.txt and
DESIGN.md §14):

    build/bench/bench_micro_components --json /tmp/fresh.json
    python3 tools/ci/check_bench_regression.py \
        --baseline BENCH_micro.json --fresh /tmp/fresh.json

Measure on a quiet machine; prefer --benchmark_repetitions=3 for the
fresh run (the reporter records the per-repetition mean).

Exit codes: 0 clean, 1 regression (or missing allowlisted benchmark),
2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import sys

# Serial benchmarks whose cpu time is reproducible enough to gate on.
# Names must match the JSON "name" field exactly.
ALLOWLIST = [
    "BM_RrSetGeneration",
    "BM_RicSampleGeneration",
    "BM_RicSampleGenerationLarge",
    "BM_PoolCHat",
    "BM_PoolCHatLarge",
    "BM_CoverageMarginal",
    "BM_GreedyCHatSelect/0",
    "BM_CelfGreedyNuSelect/0",
    "BM_GreedyCHatSelectLarge/0",
    "BM_CelfGreedyNuSelectLarge/0",
    "BM_Louvain",
    "BM_DagumEstimate",
    "BM_DeltaRepairVsRebuild/0/0",
]

# Counters every end-to-end Alg. 5 row must report. The serial-schedule
# rows (threads == 0) and the pipelined rows share one schema so a diff
# of BENCH_micro.json always lines up column-for-column.
_E2E_COUNTERS = [
    "items_per_second",
    "sampling_seconds",
    "solver_seconds",
    "estimate_seconds",
    "overlap_seconds",
    "speculative_samples_committed",
    "speculative_samples_discarded",
    "stop_stages",
    "warm_start",
    "pipeline",
    "threads",
]

# Counters every repair-vs-rebuild row must report (DESIGN.md §16):
# repaired_fraction is the headline — a single-edge delta must stay a
# small-minority repair, which EXPERIMENTS.md tracks from these rows.
_DELTA_COUNTERS = [
    "items_per_second",
    "repaired_samples",
    "repaired_fraction",
    "pool_size",
    "rebuild",
    "threads",
]

# Presence-gated rows: name -> counters that must exist in the fresh run
# (timing is NOT compared — these rows are thread/scheduler dependent).
COUNTER_CHECKS = {
    "BM_ImcafEndToEnd/0/0": _E2E_COUNTERS,
    "BM_ImcafEndToEnd/1/0": _E2E_COUNTERS,
    "BM_ImcafEndToEnd/1/1": _E2E_COUNTERS,
    "BM_ImcafEndToEnd/1/2": _E2E_COUNTERS,
    "BM_ImcafEndToEnd/1/4": _E2E_COUNTERS,
    "BM_ImcafEndToEnd/1/8": _E2E_COUNTERS,
    "BM_DeltaRepairVsRebuild/0/0": _DELTA_COUNTERS,
    "BM_DeltaRepairVsRebuild/0/8": _DELTA_COUNTERS,
    "BM_DeltaRepairVsRebuild/1/0": _DELTA_COUNTERS,
    "BM_DeltaRepairVsRebuild/1/8": _DELTA_COUNTERS,
}

# Field gated by default: cpu time excludes other-process interference
# that wall time picks up.
DEFAULT_METRIC = "cpu_ns_per_op"


def load_benchmarks(path: str) -> dict[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(f"error: {path} has no 'benchmarks' array")
    table: dict[str, dict] = {}
    for entry in benchmarks:
        name = entry.get("name")
        if isinstance(name, str):
            # Aggregate rows (_mean/_median/_stddev) from
            # --benchmark_repetitions shadow the raw name; prefer the
            # mean when present, else the plain row.
            if name.endswith(("_median", "_stddev", "_cv")):
                continue
            if name.endswith("_mean"):
                table[name[: -len("_mean")]] = entry
            else:
                table.setdefault(name, entry)
    return table


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh micro-bench results against the baseline."
    )
    parser.add_argument(
        "--baseline", required=True, help="committed BENCH_micro.json"
    )
    parser.add_argument(
        "--fresh", required=True, help="fresh --json run to validate"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max allowed fractional slowdown (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        help=f"JSON field to compare (default {DEFAULT_METRIC})",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)

    failures = []
    print(f"{'benchmark':42} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for name in ALLOWLIST:
        base_entry = baseline.get(name)
        fresh_entry = fresh.get(name)
        if base_entry is None or fresh_entry is None:
            where = args.baseline if base_entry is None else args.fresh
            failures.append(f"{name}: missing from {where}")
            print(f"{name:42} {'MISSING':>12}")
            continue
        base = base_entry.get(args.metric)
        new = fresh_entry.get(args.metric)
        if not isinstance(base, (int, float)) or not isinstance(
            new, (int, float)
        ) or base <= 0:
            failures.append(f"{name}: metric {args.metric!r} unusable")
            print(f"{name:42} {'BAD METRIC':>12}")
            continue
        ratio = new / base
        flag = ""
        if ratio > 1.0 + args.threshold:
            failures.append(
                f"{name}: {base:.0f} -> {new:.0f} ns "
                f"({(ratio - 1.0) * 100.0:+.1f}%)"
            )
            flag = "  REGRESSION"
        print(f"{name:42} {base:12.0f} {new:12.0f} {ratio:7.2f}{flag}")

    for name, counters in COUNTER_CHECKS.items():
        fresh_entry = fresh.get(name)
        if fresh_entry is None:
            failures.append(f"{name}: missing from {args.fresh}")
            print(f"{name:42} {'MISSING':>12}")
            continue
        missing = [
            counter
            for counter in counters
            if not isinstance(fresh_entry.get(counter), (int, float))
        ]
        if missing:
            failures.append(
                f"{name}: missing counter(s) {', '.join(missing)}"
            )
            print(f"{name:42} {'NO COUNTERS':>12}  ({', '.join(missing)})")
        else:
            print(f"{name:42} {'counters ok':>12}")

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed beyond "
            f"{args.threshold * 100.0:.0f}% (or went missing):",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"\nOK: {len(ALLOWLIST)} benchmarks within threshold, "
        f"{len(COUNTER_CHECKS)} counter schemas present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
