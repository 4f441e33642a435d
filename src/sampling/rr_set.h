// Classic Reverse Influence Sampling (Borgs et al. 2014) — the substrate of
// the IM baseline (§VI-A) and the reference point the paper's RIC sampling
// generalizes. An RR set is the set of nodes that reach a uniformly random
// root in one live-edge realization; E[|S ∩ RR| > 0] * n = influence of S.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"

namespace imc {

struct RrSet {
  NodeId root = 0;
  std::vector<NodeId> nodes;  // includes the root, sorted ascending
};

/// Generates one RR set: picks a uniform root and walks in-edges backwards,
/// flipping each edge once with its IC probability.
[[nodiscard]] RrSet generate_rr_set(const Graph& graph, Rng& rng);

/// LT-model RR set: a random backward PATH — each visited node keeps at
/// most one live in-edge, chosen with probability equal to its weight
/// (Tang et al.'s LT reverse sampling). Requires per-node in-weights <= 1.
[[nodiscard]] RrSet generate_rr_set_lt(const Graph& graph, Rng& rng);

/// A pool of RR sets with an inverted node -> {set index} index, the input
/// to max-coverage seed selection (core/baselines/im_ris.*).
class RrPool {
 public:
  explicit RrPool(const Graph& graph) : graph_(&graph) {}

  /// Appends `count` fresh RR sets (deterministic given rng state).
  void grow(std::uint64_t count, Rng& rng);

  [[nodiscard]] std::uint64_t size() const noexcept { return sets_.size(); }
  [[nodiscard]] const RrSet& set(std::uint64_t i) const { return sets_.at(i); }

  /// Indices of RR sets containing `v`.
  [[nodiscard]] const std::vector<std::uint32_t>& sets_containing(
      NodeId v) const;

  /// Fraction of RR sets hit by S, times n — the RIS spread estimate.
  [[nodiscard]] double estimate_spread(std::span<const NodeId> seeds) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<RrSet> sets_;
  std::vector<std::vector<std::uint32_t>> index_;  // node -> set ids
};

}  // namespace imc
