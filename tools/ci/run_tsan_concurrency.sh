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
# The engine label rides along: every stage's cold solve and solve_many
# exercise the thread pool through the same deterministic-parallel sweeps
# (the sharded ĉ row compute and update, the CELF refresh bursts), and the
# stage-schedule tests (both labels carry pipeline_engine_test.cpp) run the
# engine at threads {1, 2, 8} with parallel sampling on: pool growth and
# the stop-stage estimate's blocks on the caller plus the workers, each
# lane with its own sampler and X buffer — exactly the surface TSan must
# prove clean. Both labels also run the estimate tail of a capped pool
# (estimate_tail_test.cpp, PipelineEngineTest.EstimateTailRunsMatch...):
# the lanes look kept samples up and draw the tail's full samples through
# the pool's shared sampler cache (EstimateTail::serve), and the caller
# keeps them between rounds (EstimateTail::commit). The delta label rides
# along because
# invalidate_and_repair fans regeneration chunks out over the same thread
# pool and then patches the sample-major arena and the CSR index in place
# side by side, one on a worker and one on the calling thread (DESIGN.md
# §16), the estimate tail's patch following the sample-major one on the
# caller. The concurrency label also covers UBG's two lanes: the ν greedy
# on a pool worker beside the caller's ĉ greedy over the same const
# pool, including the caller running ν itself when the worker is busy
# (`fork_join`, DESIGN.md §5, parallel_greedy_test.cpp and
# thread_pool_test.cpp).
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  ctest --test-dir "${build_dir}" -L 'concurrency|engine|delta' \
  --output-on-failure -j "${jobs}"
