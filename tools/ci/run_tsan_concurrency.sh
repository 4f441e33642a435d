#!/usr/bin/env bash
# CI helper: build the concurrency-labeled test slice under ThreadSanitizer
# and run it. Uses a dedicated build tree (default build-tsan/) so the
# regular build's cache and artifacts are untouched.
#
# Usage: tools/ci/run_tsan_concurrency.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMC_SANITIZE=thread
cmake --build "${build_dir}" -j "${jobs}" \
  --target imc_concurrency_tests --target imc_engine_tests \
  --target imc_delta_tests

# halt_on_error makes any race fail the ctest invocation instead of just
# printing a report; second_deadlock_stack improves lock-order diagnostics.
# The engine label rides along: warm-start resume and solve_many exercise
# the thread pool through the same deterministic-parallel sweeps, and the
# pipelined-engine tests (both labels carry pipeline_engine_test.cpp) drive
# the staging-commit handoff — background stage_samples overlapping const
# pool readers, then the boundary join + commit_staged — which is exactly
# the surface TSan must prove clean. The delta label rides along because
# invalidate_and_repair fans regeneration chunks out over the same thread
# pool and then patches the sample-major arena and the CSR index in place
# side by side, one on a worker and one on the calling thread (DESIGN.md
# §16).
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  ctest --test-dir "${build_dir}" -L 'concurrency|engine|delta' \
  --output-on-failure -j "${jobs}"
