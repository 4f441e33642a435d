// Dagum–Karp–Luby–Ross optimal Monte-Carlo estimation (their Stopping Rule
// Algorithm), instantiated for the expected community benefit c(S) — the
// paper's Estimate procedure (Alg. 6).
//
// Fresh RIC draws are scanned in position order; we stop when the number
// of draws influenced by S reaches Λ' = 1 + 4(e−2)·ln(2/δ')·(1+ε')/ε'².
// The estimate b·Λ'/T is then within (1±ε')·c(S) with probability >= 1−δ'.
// (Alg. 6 in the paper prints rΛ'/T; the scale factor must be the total
// benefit b by Lemma 1 — with the paper's population benefits and unit
// community sizes the two coincide, so we treat `r` as a typo for `b`.)
//
// Draw j reads the RNG substream splitmix_of(seed, first + j) — the
// substream RicPool::grow gives pool position first + j under the same
// seed — so a draw depends only on its position. Draws run in blocks of
// kDagumBlockDraws, on the caller plus the workers of a given ThreadPool,
// and are scanned in position order: T, the value and `converged` are the
// same at every thread count and on every overload (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <span>

#include "community/community_set.h"
#include "diffusion/monte_carlo.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/context.h"

namespace imc {

class ThreadPool;

/// Draws per block: the unit one lane draws between two deadline polls.
inline constexpr std::uint64_t kDagumBlockDraws = 256;

struct DagumOptions {
  double eps_prime = 0.1;
  double delta_prime = 0.1;
  std::uint64_t max_samples = 2'000'000;  // T_max of Alg. 6
  std::uint64_t seed = 99;
  /// Position of draw 0 in the seed's substream sequence.
  std::uint64_t first = 0;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
};

struct DagumEstimate {
  double value = 0.0;        // estimated c(S)
  std::uint64_t samples = 0; // T, draws scanned
  bool converged = false;    // false iff T_max hit first (paper returns -1)
  /// The context's deadline expired (or its cancel flag was set) before
  /// Λ' or T_max was reached; `value` is the partial running estimate.
  bool reached_deadline = false;
};

/// Runs the stopping-rule estimator for c(S) on the calling thread. A
/// failure to converge leaves `value` at the best running estimate
/// (b·Inf/T) with converged == false.
[[nodiscard]] DagumEstimate dagum_estimate_benefit(
    const Graph& graph, const CommunitySet& communities,
    std::span<const NodeId> seeds, const DagumOptions& options = {});

/// The same estimate, deadline/cancellation-aware and optionally on
/// `workers`. Polls context.stop_requested() before every block after the
/// first, so even a run whose deadline already expired scans one block;
/// it then winds down with reached_deadline == true and the partial
/// running estimate. With `workers` set, each round draws one block per
/// lane on the caller and the pool's workers (parallel_for_shards). With
/// an inactive context the result equals the overload above.
[[nodiscard]] DagumEstimate dagum_estimate_benefit(
    const Graph& graph, const CommunitySet& communities,
    std::span<const NodeId> seeds, const DagumOptions& options,
    const ExecutionContext& context, ThreadPool* workers = nullptr);

}  // namespace imc
