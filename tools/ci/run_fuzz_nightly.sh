#!/usr/bin/env bash
# CI helper: the nightly deep-fuzz run. Rotates the base seed by calendar
# date so every night explores a fresh slice of instance space while any
# given night stays reproducible (re-run with the same date or export the
# printed IMC_FUZZ_SEED). 2000 cases instead of tier-1's 200.
#
# Usage: tools/ci/run_fuzz_nightly.sh [build-dir]
# Knobs: IMC_FUZZ_CASES (default 2000), IMC_FUZZ_SEED (default date-rotated).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build_dir="${1:-${repo_root}/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Seed = YYYYMMDD unless the caller pinned one (e.g. to replay last night).
seed="${IMC_FUZZ_SEED:-$(date -u +%Y%m%d)}"
cases="${IMC_FUZZ_CASES:-2000}"
echo "nightly fuzz: IMC_FUZZ_SEED=${seed} IMC_FUZZ_CASES=${cases}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${jobs}" \
  --target imc_fuzz_tests --target imc_io_tests

# The io label (arena storage, snapshot format, corrupted-file corpus) runs
# alongside the deep fuzz sweep: the pool_roundtrip check exercises the
# same loaders on random instances, and a nightly regression in either
# should surface from both angles.
IMC_FUZZ_SEED="${seed}" IMC_FUZZ_CASES="${cases}" \
  ctest --test-dir "${build_dir}" -L 'fuzz|io' --output-on-failure
