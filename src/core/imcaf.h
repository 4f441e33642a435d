// IMCAF — the IMC Algorithmic Framework (paper Alg. 5).
//
// SSA-style sample doubling around any MAXR solver κ: generate Λ RIC
// samples, solve MAXR, and at each stop stage check whether (a) the
// candidate influences at least Λ samples and (b) an independent Dagum
// estimate c* of c(S) confirms ĉ_R(S) <= (1 + ε1)·c* — i.e. the pool is not
// overfitting S. On failure the pool doubles, capped by Ψ (eq. 22). The
// returned S is an α(1 − ε)-approximation with probability >= 1 − δ
// (Theorem 7), where α is the solver's MAXR guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "core/maxr_solver.h"
#include "estimation/concentration.h"
#include "graph/graph.h"

namespace imc {

struct ImcafConfig {
  ApproxParams params;       // ε, δ (paper uses ε = δ = 0.2)
  std::uint64_t seed = 2024;
  /// Diffusion model for sampling AND the stop-stage Estimate; the paper's
  /// machinery extends verbatim from IC to LT (§II-A).
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Practical cap on |R| (0 = none beyond Ψ). Ψ is astronomically
  /// conservative on real inputs; benches set this to bound memory/time
  /// exactly like the paper's runtime limit.
  std::uint64_t max_samples = 0;
  /// Grow the pool and draw each stop-stage Estimate on the caller plus
  /// the context's workers (default_pool() when none). Results are the
  /// same either way: every sample and every Estimate draw reads its own
  /// positional RNG substream (DESIGN.md §15).
  bool parallel_sampling = true;
};

struct ImcafResult {
  std::vector<NodeId> seeds;
  double c_hat = 0.0;              // ĉ_R(S) on the final pool
  double estimated_benefit = 0.0;  // independent Dagum estimate of c(S)
  std::uint64_t samples_used = 0;  // final |R|
  std::uint32_t stop_stages = 0;   // solver invocations
  bool reached_cap = false;        // terminated by Ψ / max_samples
  double lambda = 0.0;             // Λ of Alg. 5
  double psi = 0.0;                // Ψ of eq. 22 (possibly huge)
  double runtime_seconds = 0.0;
  /// The fields below are sums of the StageMetrics rows the engine records
  /// (one per stop stage, also sent to the MetricsSink).
  /// Wall time spent growing the pool across all doubling stages, and the
  /// samples generated in that time — together the realized sampling
  /// throughput (samples_generated / sampling_seconds).
  double sampling_seconds = 0.0;
  std::uint64_t samples_generated = 0;
  /// Wall time inside the MAXR solves and the Dagum Estimates.
  double solver_seconds = 0.0;
  double estimate_seconds = 0.0;
  /// The run wound down early on an expired deadline or a cancellation
  /// (ExecutionContext); `seeds` is the best candidate from the stages
  /// that completed — never empty, since stopping is only checked after a
  /// solve.
  bool reached_deadline = false;
  /// Speculative-growth accounting of an earlier pipelined schedule. The
  /// engine runs its stages one after another and leaves these at zero;
  /// they stay for the readers of the benchmark counter schema.
  double overlap_seconds = 0.0;
  std::uint64_t speculative_samples_committed = 0;
  std::uint64_t speculative_samples_discarded = 0;
};

/// Runs Alg. 5. Throws std::invalid_argument on empty communities, k = 0,
/// or k > |V|.
[[nodiscard]] ImcafResult imcaf_solve(const Graph& graph,
                                      const CommunitySet& communities,
                                      std::uint32_t k,
                                      const MaxrSolver& solver,
                                      const ImcafConfig& config = {});

}  // namespace imc
