#include "core/maf.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

namespace imc {

namespace {

/// Communities in descending source-frequency order (ties: smaller id).
/// O(r) read of the counters RicPool maintains during growth (was a full
/// O(|R|) sample scan).
[[nodiscard]] std::vector<CommunityId> source_frequency_order(
    const RicPool& pool) {
  const std::span<const std::uint32_t> frequency =
      pool.community_frequencies();
  std::vector<CommunityId> order(pool.communities().size());
  for (CommunityId c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](CommunityId a, CommunityId b) {
    if (frequency[a] != frequency[b]) return frequency[a] > frequency[b];
    return a < b;
  });
  return order;
}

/// S_1 of Alg. 3: walk communities in source-frequency order, claiming h_C
/// random members per community while they fit in the budget (lines 5-6).
[[nodiscard]] std::vector<NodeId> build_s1(const RicPool& pool,
                                           std::uint32_t k,
                                           std::uint64_t seed) {
  const CommunitySet& communities = pool.communities();
  Rng rng(seed);
  std::vector<NodeId> s1;
  for (const CommunityId c : source_frequency_order(pool)) {
    if (s1.size() >= k) break;
    const auto members = communities.members(c);
    const std::uint32_t h = communities.threshold(c);
    if (s1.size() + h > k) continue;
    std::vector<NodeId> shuffled(members.begin(), members.end());
    rng.shuffle(std::span<NodeId>(shuffled));
    s1.insert(s1.end(), shuffled.begin(), shuffled.begin() + h);
  }
  return s1;
}

/// S_2 of Alg. 3: the k nodes with the highest appearance counts.
/// Appearance counts are adjacent CSR offset differences; reading the
/// offsets span directly keeps the sort comparator free of span setup.
[[nodiscard]] std::vector<NodeId> build_s2(const RicPool& pool,
                                           std::uint32_t k) {
  const NodeId n = pool.graph().node_count();
  const std::span<const std::uint64_t> offsets = pool.touch_offsets();
  const auto appearance = [&](NodeId v) { return offsets[v + 1] - offsets[v]; };
  std::vector<NodeId> by_appearance;
  by_appearance.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (appearance(v) > 0) by_appearance.push_back(v);
  }
  std::sort(by_appearance.begin(), by_appearance.end(),
            [&](NodeId a, NodeId b) {
              const auto ca = appearance(a);
              const auto cb = appearance(b);
              if (ca != cb) return ca > cb;
              return a < b;
            });
  if (by_appearance.size() > k) by_appearance.resize(k);
  return by_appearance;
}

/// Line 8: evaluate both sets under ĉ_R and keep the better.
void pick_better(const RicPool& pool, const GreedyOptions& options,
                 MafSolution& solution) {
  double c1 = 0.0;
  double c2 = 0.0;
  if (options.parallel) {
    // The two evaluations are independent full-pool scans; overlap them.
    ThreadPool& workers =
        options.pool != nullptr ? *options.pool : default_pool();
    auto first = workers.submit([&] { c1 = pool.c_hat(solution.s1); });
    c2 = pool.c_hat(solution.s2);
    first.get();
  } else {
    c1 = pool.c_hat(solution.s1);
    c2 = pool.c_hat(solution.s2);
  }
  solution.chose_s1 = c1 >= c2;
  solution.seeds = solution.chose_s1 ? solution.s1 : solution.s2;
  solution.c_hat = solution.chose_s1 ? c1 : c2;
}

}  // namespace

MafSolution maf_solve(const RicPool& pool, std::uint32_t k,
                      std::uint64_t seed, const GreedyOptions& options) {
  // Same contract as the greedy selectors and bt_solve: an empty budget is
  // a caller bug, not an empty solution (it would silently score 0 and win
  // no max(), masking the mistake downstream in MB).
  if (k == 0) throw std::invalid_argument("maf_solve: k must be >= 1");
  MafSolution solution;
  solution.s1 = build_s1(pool, k, seed);
  solution.s2 = build_s2(pool, k);
  pick_better(pool, options, solution);
  return solution;
}

double MafSolver::alpha(const RicPool& pool, std::uint32_t k) const {
  const CommunitySet& communities = pool.communities();
  const double r = static_cast<double>(std::max<CommunityId>(
      1, communities.size()));
  const double h =
      static_cast<double>(std::max<std::uint32_t>(1, communities.max_threshold()));
  const double ratio =
      std::floor(static_cast<double>(k) / h) / r;
  return std::clamp(ratio, 1e-12, 1.0);
}

}  // namespace imc
