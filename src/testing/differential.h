// The differential fuzz runner: random instances (instance_gen.h) are fed
// through a battery of checks, each pitting one optimized hot path against
// its slow reference oracle (reference_oracles.h). A failing case is
// greedily shrunk (shrink.h) and printed as a self-contained repro snippet
// with the seed that regenerates it.
//
// The battery (default_checks) covers, per DESIGN.md §10:
//   * pool_layout   — CSR/SoA RicPool growth (serial AND parallel parts,
//                     split across two grow() calls) vs a nested-vector
//                     reference pool fed the same per-sample RNG
//                     substreams, compared sample-for-sample and
//                     touch-for-touch.
//   * append_path   — RicPool::append (eager per-sample index merge) vs
//                     the grow()-built index, including interleaved reads.
//   * evaluators    — c_hat/nu/influenced_count, CoverageState increments,
//                     node marginals (ν compared BIT-FOR-BIT to pin the
//                     accumulation-order contract) and the chunked /
//                     full-range batch gain passes vs from-scratch
//                     recomputation.
//   * greedy        — greedy_c_hat / plain_greedy_nu / celf_greedy_nu,
//                     serial and parallel at several thread counts (with
//                     min_parallel_candidates = 1 to force the parallel
//                     reduction), vs the serial reference greedy:
//                     seed-for-seed equality.
//   * delta_vs_rebuild — random GraphDelta streams (edge upserts/removals
//                     and membership moves) interleaved with solves: pools
//                     repaired in place serially and on {1, 2, 8} workers,
//                     three stacked rounds, vs a from-scratch rebuild on
//                     the mutated structures,
//                     compared bit-for-bit (arenas, counters, CSR index)
//                     plus UBG/MAF seed/ĉ/ν equality (DESIGN.md §16).
//   * sampler_distribution — on enumerably small instances, the naive
//                     per-edge-Bernoulli sampler AND the geometric-skip /
//                     bit-parallel RicSampler against exhaustive live-edge
//                     ground truth (6σ bands), plus binomial checks on the
//                     source-community frequencies.
//   * dagum_draw    — RicSampler::draw_influenced (the estimators' early-
//                     exit draw) vs generate().influenced_by() draw for
//                     draw, X and RNG state alike, plus
//                     dagum_estimate_benefit vs a replay of Alg. 6 on
//                     materialized samples, draw j being the sample at
//                     position first + j: same value, T and convergence,
//                     also with the blocks drawn on {1, 2, 8} workers.
//   * estimate_tail — capped pools with their estimate tails, serially
//                     and on {1, 2, 8} workers, under a stacked delta
//                     stream: every tail-backed DagumEstimate (filling,
//                     then reading back) equals the tail-less one field
//                     for field, and the tail, repaired with its pool,
//                     is byte-equal to a rebuild on the mutated graph.
//   * imcaf_guarantee — Theorem 7 end to end on enumerably tiny instances:
//                     OPT by exhaustive k-subset search over exact c(S),
//                     IMCAF + UBG under many seeds, and the share of runs
//                     with c(S) < α(1 − ε)·OPT held to δ plus binomial
//                     slack (α from solver.alpha on the run's pool).
//   * dagum_guarantee — Alg. 6's (ε′, δ′) guarantee the same way: the
//                     share of estimates outside (1 ± ε′)·c(S) of the
//                     exact optimum's benefit held to δ′ plus slack.
//   * ssa_estimate_event, ssa_pool_event, ssa_stage_chain — Theorem 7's
//                     proof event by event at ε = 0.3 (DESIGN.md §15):
//                     the stage Estimate at the engine's (ε2, δ′), the
//                     pool's lower tail on the optimum at the engine's
//                     schedule, each held to its own δ share, and the
//                     proof's deterministic steps on accepted stages.
//
// Runs are driven by (base seed, case index): case i's instance derives
// from fuzz_case_seed(base, i), so any failure is pinned by a single
// 64-bit number. Environment knobs (read by fuzz_config_from_env):
//   IMC_FUZZ_CASES      — number of cases (default FuzzConfig::cases)
//   IMC_FUZZ_SEED       — base seed
//   IMC_FUZZ_CASE_SEED  — run exactly ONE case with this literal case seed
//                         (the replay line printed with every failure)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "testing/instance_gen.h"
#include "testing/shrink.h"

namespace imc::testing {

/// One differential check: returns nullopt on agreement, a human-readable
/// mismatch description on failure. Exceptions thrown by `run` are treated
/// as failures by the runner (a crash IS a differential result). Must be
/// deterministic in (spec, case_seed) — the shrinker replays it.
struct FuzzCheck {
  std::string name;
  std::function<std::optional<std::string>(const InstanceSpec&,
                                           std::uint64_t case_seed)>
      run;
};

struct FuzzConfig {
  std::uint32_t cases = 200;
  std::uint64_t base_seed = 0x1c0a11ab1eULL;
  /// Stop after this many failing (check, case) pairs.
  std::uint32_t max_failures = 5;
  /// Predicate-call budget per shrink (0 disables shrinking).
  std::uint32_t max_shrink_evaluations = 600;
  InstanceDistribution distribution;
  /// When set, run exactly one case with this literal case seed.
  std::optional<std::uint64_t> case_seed_override;
};

struct FuzzFailure {
  std::string check;
  std::uint64_t case_seed = 0;
  std::string message;        // mismatch description from the check
  InstanceSpec shrunk;        // smallest spec that still fails
  std::uint32_t shrink_evaluations = 0;
  std::string repro;          // self-contained C++ snippet
};

struct FuzzReport {
  std::uint32_t cases_run = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t checks_skipped = 0;  // distribution checks on non-tiny cases
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Per-case seed derivation — the same splitmix recipe the pool uses for
/// per-sample substreams, applied at case granularity.
[[nodiscard]] std::uint64_t fuzz_case_seed(std::uint64_t base_seed,
                                           std::uint64_t index) noexcept;

/// The standard battery described in the header comment.
[[nodiscard]] std::vector<FuzzCheck> default_checks();

/// FuzzConfig with IMC_FUZZ_CASES / IMC_FUZZ_SEED / IMC_FUZZ_CASE_SEED
/// applied over the defaults.
[[nodiscard]] FuzzConfig fuzz_config_from_env();

/// Runs the battery over `config.cases` random instances. Failures are
/// shrunk and logged to `log` (when non-null) as they happen, repro
/// snippet included.
[[nodiscard]] FuzzReport run_differential_fuzz(
    const FuzzConfig& config, std::span<const FuzzCheck> checks,
    std::ostream* log = nullptr);

}  // namespace imc::testing
