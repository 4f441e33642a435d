// Slow, obviously-correct reference implementations the differential fuzz
// harness pits against the optimized hot paths (DESIGN.md §10).
//
// Everything here is written straight from the paper's definitions with no
// arenas, no epoch tricks, no geometric skipping and no bit-parallel
// propagation — O(n·m) per sample and O(|R|·k·n) greedy rounds are fine,
// because fuzz instances are tiny. The point is an independent second
// implementation whose agreement (exact where the contract is exact,
// statistical where only the distribution is shared) certifies the fast
// paths:
//
//   * naive_ric_sample       — per-edge-Bernoulli live-edge realization +
//                              one forward DFS per node (vs the
//                              geometric-skip / bit-parallel RicSampler).
//   * ReferencePool          — nested-vector pool with from-scratch
//                              evaluators (vs the CSR/SoA RicPool and the
//                              epoch-trick CoverageState).
//   * reference_greedy_*     — serial greedy under the documented
//                              tie-break (vs the slab-reduced parallel
//                              sweeps in core/greedy.cpp).
//   * enumerate_exact        — exhaustive live-edge enumeration of the
//                              exact c(S) and ν(S) on tiny graphs (the
//                              ground truth both samplers must estimate).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "community/community_set.h"
#include "diffusion/monte_carlo.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "testing/sample_pool.h"
#include "util/rng.h"

namespace imc::testing {

/// Draws one RIC sample for `community` by (1) realizing EVERY edge of the
/// graph with an independent Bernoulli(w) flip (IC) or one live in-edge
/// per node chosen with probability equal to its weight (LT), then (2)
/// running one forward DFS per node to find which members it reaches.
/// Same distribution as RicSampler for the same community — by a different
/// algorithm and a different RNG consumption pattern.
[[nodiscard]] RicSample naive_ric_sample(const Graph& graph,
                                         const CommunitySet& communities,
                                         DiffusionModel model,
                                         CommunityId community, Rng& rng);

/// Replays RicSampler's RNG contract for `community` (kRicSamplerRngContract
/// 2): a FIFO reverse BFS from the members in member order, drawing one
/// geometric skip per realized in-edge of a node whose in-edges share one
/// probability, one Bernoulli per in-edge of any other node, and one
/// uniform per node under LT. Masks then come from one forward DFS per
/// node over the realized edges, as in naive_ric_sample, and the pairs
/// come out in node order by construction. Equals the pairs of
/// RicSampler::generate_for_community_into pair for pair and leaves `rng`
/// in the same state.
[[nodiscard]] RicSample replay_ric_sample(const Graph& graph,
                                          const CommunitySet& communities,
                                          DiffusionModel model,
                                          CommunityId community, Rng& rng);

/// Draws the source community ∝ benefit via a plain CDF scan (vs the
/// Walker alias table), then defers to naive_ric_sample.
[[nodiscard]] RicSample naive_ric_sample(const Graph& graph,
                                         const CommunitySet& communities,
                                         DiffusionModel model, Rng& rng);

/// The pre-refactor pool representation: a flat vector of samples plus a
/// nested vector-of-vectors inverted index, with evaluators that recompute
/// everything from scratch on every call.
class ReferencePool {
 public:
  struct Touch {
    std::uint32_t sample = 0;
    std::uint32_t threshold = 0;
    std::uint64_t mask = 0;
  };

  ReferencePool(const Graph& graph, const CommunitySet& communities);

  void add(RicSample sample);

  [[nodiscard]] std::uint64_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] const RicSample& sample(std::uint32_t g) const {
    return samples_.at(g);
  }
  [[nodiscard]] const std::vector<Touch>& touches_of(NodeId v) const {
    return index_.at(v);
  }
  [[nodiscard]] std::uint32_t appearance_count(NodeId v) const {
    return static_cast<std::uint32_t>(index_.at(v).size());
  }
  [[nodiscard]] std::uint32_t community_frequency(CommunityId c) const;

  /// Number of samples g with |I_g(S)| >= h_g, by direct recomputation.
  [[nodiscard]] std::uint64_t influenced_count(
      std::span<const NodeId> seeds) const;
  /// ĉ_R(S) = (b / |R|) · influenced_count(S).
  [[nodiscard]] double c_hat(std::span<const NodeId> seeds) const;
  /// ν_R(S) = (b / |R|) Σ_g min(|I_g(S)| / h_g, 1), plain summation.
  [[nodiscard]] double nu(std::span<const NodeId> seeds) const;
  /// Unnormalized Σ_g min(|I_g(S)| / h_g, 1) (CoverageState::nu_sum twin).
  [[nodiscard]] double nu_sum(std::span<const NodeId> seeds) const;

  /// Candidate marginals by recomputation (exact integer / plain double).
  [[nodiscard]] std::uint64_t marginal_influenced(
      std::span<const NodeId> seeds, NodeId v) const;
  /// Mirrors the accumulation order of CoverageState::marginal_nu — the
  /// node's touches in ascending sample id, plain double adds of
  /// min(after/h, 1) − min(before/h, 1) — so ν tie-breaks in the reference
  /// greedy resolve bit-identically to the optimized sweep.
  [[nodiscard]] double marginal_nu(std::span<const NodeId> seeds,
                                   NodeId v) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const CommunitySet& communities() const noexcept {
    return *communities_;
  }
  [[nodiscard]] double total_benefit() const noexcept {
    return total_benefit_;
  }

 private:
  /// popcount of the member mask S reaches in sample g.
  [[nodiscard]] std::uint32_t members_reached(std::span<const NodeId> seeds,
                                              std::uint32_t g) const;

  const Graph* graph_;
  const CommunitySet* communities_;
  double total_benefit_ = 0.0;
  std::vector<RicSample> samples_;
  std::vector<std::vector<Touch>> index_;  // node -> touches, nested
};

/// Serial reference greedy on ĉ_R under the documented tie-break order
/// (influenced gain, then ν gain, then appearance count, then smaller node
/// id), topping up to k with untouched nodes in ascending id — the
/// contract core/greedy.cpp's optimized sweeps must reproduce seed-for-
/// seed. Throws std::invalid_argument unless 1 <= k <= node count.
[[nodiscard]] std::vector<NodeId> reference_greedy_c_hat(
    const ReferencePool& pool, std::uint32_t k);

/// Same for the ν objective (ν gain, then smaller node id) — the contract
/// of plain_greedy_nu and celf_greedy_nu.
[[nodiscard]] std::vector<NodeId> reference_greedy_nu(
    const ReferencePool& pool, std::uint32_t k);

/// Exact objectives by exhaustive live-edge enumeration.
struct ExactObjectives {
  double c = 0.0;   // exact c(S), paper eq. 1
  double nu = 0.0;  // exact ν(S), paper eq. 6
};

/// Enumerates every live-edge outcome (2^m under IC, Π(indeg_v + 1) under
/// LT on the merged graph) and integrates both objectives exactly.
/// Returns nullopt when the outcome count exceeds `max_outcomes` — the
/// caller should then skip exact checks for the instance.
[[nodiscard]] std::optional<ExactObjectives> enumerate_exact(
    const Graph& graph, const CommunitySet& communities,
    std::span<const NodeId> seeds, DiffusionModel model,
    std::uint64_t max_outcomes = 1ULL << 14);

}  // namespace imc::testing
