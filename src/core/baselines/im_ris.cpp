#include "core/baselines/im_ris.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace imc {

namespace {

struct CelfEntry {
  std::uint64_t gain;
  NodeId node;
  std::uint32_t round;
};

struct CelfLess {
  bool operator()(const CelfEntry& a, const CelfEntry& b) const noexcept {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

}  // namespace

std::vector<NodeId> rr_greedy_max_coverage(const RrPool& pool,
                                           std::uint32_t k) {
  const NodeId n = pool.graph().node_count();
  if (k == 0 || k > n) {
    throw std::invalid_argument("rr_greedy_max_coverage: bad k");
  }
  std::vector<std::uint8_t> covered(pool.size(), 0);
  std::vector<NodeId> seeds;

  std::priority_queue<CelfEntry, std::vector<CelfEntry>, CelfLess> heap;
  for (NodeId v = 0; v < n; ++v) {
    const auto degree =
        static_cast<std::uint64_t>(pool.sets_containing(v).size());
    if (degree > 0) heap.push(CelfEntry{degree, v, 0});
  }

  const auto marginal = [&](NodeId v) {
    std::uint64_t gain = 0;
    for (const std::uint32_t id : pool.sets_containing(v)) {
      if (!covered[id]) ++gain;
    }
    return gain;
  };

  std::uint32_t round = 0;
  while (round < k && !heap.empty()) {
    CelfEntry top = heap.top();
    heap.pop();
    if (top.round != round) {
      top.gain = marginal(top.node);
      top.round = round;
      heap.push(top);
      continue;
    }
    seeds.push_back(top.node);
    for (const std::uint32_t id : pool.sets_containing(top.node)) {
      covered[id] = 1;
    }
    ++round;
  }
  // Top up with arbitrary nodes if the candidate pool was too small.
  std::vector<std::uint8_t> used(n, 0);
  for (const NodeId v : seeds) used[v] = 1;
  for (NodeId v = 0; v < n && seeds.size() < k; ++v) {
    if (!used[v]) seeds.push_back(v);
  }
  return seeds;
}

ImRisResult im_ris_select(const Graph& graph, std::uint32_t k,
                          const ImRisConfig& config) {
  if (k == 0 || k > graph.node_count()) {
    throw std::invalid_argument("im_ris_select: need 1 <= k <= |V|");
  }
  // SSA-style stop condition: the greedy solution must cover at least
  // Λ = (2 + 2ε/3)·ln(3/δ)·(1/ε²) RR sets before we trust the estimate.
  const double eps = config.epsilon;
  const double delta = config.delta;
  const double lambda =
      (2.0 + 2.0 * eps / 3.0) * std::log(3.0 / delta) / (eps * eps);

  RrPool pool(graph);
  Rng rng(config.seed);
  pool.grow(static_cast<std::uint64_t>(std::ceil(lambda)), rng);

  ImRisResult result;
  for (;;) {
    result.seeds = rr_greedy_max_coverage(pool, k);
    // Covered count = spread estimate * |pool| / n.
    std::uint64_t covered = 0;
    {
      std::vector<std::uint8_t> hit(pool.size(), 0);
      for (const NodeId v : result.seeds) {
        for (const std::uint32_t id : pool.sets_containing(v)) {
          if (!hit[id]) {
            hit[id] = 1;
            ++covered;
          }
        }
      }
    }
    if (static_cast<double>(covered) >= lambda ||
        pool.size() >= config.max_rr_sets) {
      result.estimated_spread = pool.estimate_spread(result.seeds);
      result.rr_sets_used = pool.size();
      return result;
    }
    pool.grow(pool.size(), rng);  // double
  }
}

}  // namespace imc
