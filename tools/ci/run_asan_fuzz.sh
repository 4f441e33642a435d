#!/usr/bin/env bash
# CI helper: build the differential fuzz suite under ASan+UBSan
# (-DIMC_SANITIZE=address expands to -fsanitize=address,undefined) and run
# the `fuzz` ctest label. Uses a dedicated build tree (default build-asan/)
# so the regular build's cache and artifacts are untouched.
#
# Usage: tools/ci/run_asan_fuzz.sh [build-dir]
# Knobs: IMC_FUZZ_CASES / IMC_FUZZ_SEED pass through to the harness.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMC_SANITIZE=address
cmake --build "${build_dir}" -j "${jobs}" \
  --target imc_fuzz_tests --target imc_engine_tests \
  --target imc_io_tests --target imc_delta_tests

# abort_on_error turns the first ASan report into a test failure instead of
# a log line; detect_leaks catches pool/arena ownership bugs the
# differential checks can't see. halt_on_error does the same for UBSan.
# The engine label rides along: grow() stitches its part arenas into the
# pool and the ĉ gain row is patched in place per pick, both heap-buffer
# surfaces ASan should watch too. The io label
# rides along for the same reason: arena growth and the snapshot loader,
# which reads raw section bytes into freshly sized arenas, move raw bytes
# with lifetimes that the sanitizers — not the differential checks — are
# built to police.
# The delta label rides along: in-place sample repair rewrites arena spans
# and splices CSR adjacency in place — exactly the kind of off-by-one
# surface ASan exists for (the fuzz label's delta_vs_rebuild check covers
# the randomized side of the same path).
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1 detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  ctest --test-dir "${build_dir}" -L 'fuzz|engine|io|delta' \
  --output-on-failure -j "${jobs}"
