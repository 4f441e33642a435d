#include "core/bt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/mathx.h"
#include "util/stopwatch.h"

namespace imc {

namespace {

/// A reduced MAXR instance: the sub-pool of samples touched by all fixed
/// centers, with per-sample coverage already credited to them.
struct BtInstance {
  // Per local sample.
  std::vector<std::uint32_t> threshold;
  std::vector<std::uint64_t> covered;  // member mask reached by fixed nodes
  // Per local sample: (node, full member mask the node reaches).
  std::vector<std::vector<TouchPair>> touching;
  // Inverted index.
  std::unordered_map<NodeId, std::vector<std::pair<std::uint32_t, std::uint64_t>>>
      index;

  [[nodiscard]] std::size_t size() const noexcept { return threshold.size(); }

  [[nodiscard]] bool satisfied(std::uint32_t g) const noexcept {
    return static_cast<std::uint32_t>(popcount64(covered[g])) >= threshold[g];
  }

  [[nodiscard]] std::uint64_t satisfied_count() const noexcept {
    std::uint64_t count = 0;
    for (std::uint32_t g = 0; g < size(); ++g) {
      if (satisfied(g)) ++count;
    }
    return count;
  }
};

BtInstance root_instance(const RicPool& pool) {
  BtInstance instance;
  const std::size_t m = pool.size();
  // Thresholds come from the pool's SoA array (one contiguous copy); the
  // per-sample touching lists come from the sample-major arena, and the
  // inverted index is read straight out of the CSR arena.
  const std::span<const std::uint32_t> thresholds = pool.thresholds();
  instance.threshold.assign(thresholds.begin(), thresholds.end());
  instance.covered.assign(m, 0);
  instance.touching.resize(m);
  for (std::uint32_t g = 0; g < m; ++g) {
    const auto touches = pool.sample_touches(g);
    instance.touching[g].assign(touches.begin(), touches.end());
  }
  const std::span<const std::uint64_t> offsets = pool.touch_offsets();
  const std::span<const RicPool::Touch> arena = pool.touch_arena();
  for (NodeId v = 0; v < pool.graph().node_count(); ++v) {
    if (offsets[v + 1] == offsets[v]) continue;
    auto& entries = instance.index[v];
    entries.reserve(offsets[v + 1] - offsets[v]);
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      entries.emplace_back(arena[i].sample, arena[i].mask);
    }
  }
  return instance;
}

/// Restriction of lines 2–7 of Alg. 4: keep only samples `center` touches,
/// credit its coverage (removing members u reaches == marking them covered).
BtInstance restrict_to_center(const BtInstance& parent, NodeId center) {
  BtInstance child;
  const auto it = parent.index.find(center);
  if (it == parent.index.end()) return child;

  child.threshold.reserve(it->second.size());
  child.covered.reserve(it->second.size());
  child.touching.reserve(it->second.size());
  for (const auto& [g, center_mask] : it->second) {
    const auto local = static_cast<std::uint32_t>(child.size());
    child.threshold.push_back(parent.threshold[g]);
    child.covered.push_back(parent.covered[g] | center_mask);
    child.touching.push_back(parent.touching[g]);
    for (const auto& [node, mask] : parent.touching[g]) {
      if (node == center) continue;
      if ((mask & ~child.covered[local]) == 0) continue;  // nothing to add
      child.index[node].emplace_back(local, mask);
    }
  }
  return child;
}

/// Plain greedy on the reduced instance, maximizing threshold crossings
/// (the paper's line 8; for thresholds reduced to <= 1 this is exact
/// (1 − 1/e) max-coverage greedy).
std::vector<NodeId> instance_greedy(BtInstance& instance, std::uint32_t k) {
  std::vector<NodeId> seeds;
  std::vector<NodeId> candidates;
  candidates.reserve(instance.index.size());
  for (const auto& [node, touches] : instance.index) {
    (void)touches;
    candidates.push_back(node);
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<std::uint8_t> used(candidates.size(), 0);

  for (std::uint32_t round = 0; round < k; ++round) {
    std::size_t best_slot = candidates.size();
    std::uint64_t best_cross = 0;
    std::uint32_t best_partial = 0;  // tie-break: members newly covered
    for (std::size_t slot = 0; slot < candidates.size(); ++slot) {
      if (used[slot]) continue;
      const NodeId v = candidates[slot];
      std::uint64_t cross = 0;
      std::uint32_t partial = 0;
      for (const auto& [g, mask] : instance.index.at(v)) {
        const std::uint64_t before = instance.covered[g];
        const std::uint64_t after = before | mask;
        if (after == before) continue;
        const auto h = instance.threshold[g];
        const auto old_count = static_cast<std::uint32_t>(popcount64(before));
        const auto new_count = static_cast<std::uint32_t>(popcount64(after));
        if (old_count < h && new_count >= h) ++cross;
        partial += new_count - old_count;
      }
      if (best_slot == candidates.size() || cross > best_cross ||
          (cross == best_cross && partial > best_partial)) {
        best_slot = slot;
        best_cross = cross;
        best_partial = partial;
      }
    }
    if (best_slot == candidates.size() ||
        (best_cross == 0 && best_partial == 0)) {
      break;
    }
    const NodeId winner = candidates[best_slot];
    used[best_slot] = 1;
    seeds.push_back(winner);
    for (const auto& [g, mask] : instance.index.at(winner)) {
      instance.covered[g] |= mask;
    }
  }
  return seeds;
}

struct RecursiveResult {
  std::vector<NodeId> seeds;
  std::uint64_t influenced = 0;
};

/// BT(d) on `instance`: enumerate centers, restrict, recurse with d−1.
RecursiveResult bt_recurse(const BtInstance& instance, std::uint32_t k,
                           std::uint32_t depth, const Deadline& deadline,
                           bool& timed_out, std::uint64_t& centers_tried,
                           const std::vector<NodeId>* center_order) {
  RecursiveResult best;
  if (k == 0 || instance.index.empty()) {
    best.influenced = instance.satisfied_count();
    return best;
  }

  if (depth <= 1) {
    BtInstance scratch = instance;  // greedy mutates coverage
    RecursiveResult result;
    result.seeds = instance_greedy(scratch, k);
    result.influenced = scratch.satisfied_count();
    return result;
  }

  // Candidate centers, ordered (outermost level passes appearance order).
  std::vector<NodeId> centers;
  if (center_order != nullptr) {
    centers = *center_order;
  } else {
    centers.reserve(instance.index.size());
    for (const auto& [node, touches] : instance.index) {
      (void)touches;
      centers.push_back(node);
    }
    std::sort(centers.begin(), centers.end());
  }

  for (const NodeId u : centers) {
    if (!best.seeds.empty() && deadline.expired()) {
      timed_out = true;
      break;
    }
    if (!instance.index.contains(u)) continue;
    ++centers_tried;
    BtInstance child = restrict_to_center(instance, u);
    RecursiveResult inner = bt_recurse(child, k - 1, depth - 1, deadline,
                                       timed_out, centers_tried, nullptr);
    // |D(K(u), u)| = satisfied samples within G(u) after adding T.
    BtInstance evaluated = child;
    for (const NodeId v : inner.seeds) {
      const auto it = evaluated.index.find(v);
      if (it == evaluated.index.end()) continue;
      for (const auto& [g, mask] : it->second) evaluated.covered[g] |= mask;
    }
    const std::uint64_t d_value = evaluated.satisfied_count();
    if (d_value > best.influenced || best.seeds.empty()) {
      best.influenced = d_value;
      best.seeds.clear();
      best.seeds.push_back(u);
      best.seeds.insert(best.seeds.end(), inner.seeds.begin(),
                        inner.seeds.end());
    }
  }
  return best;
}

}  // namespace

BtSolution bt_solve(const RicPool& pool, std::uint32_t k,
                    const BtConfig& config) {
  if (k == 0) throw std::invalid_argument("bt_solve: k must be >= 1");
  if (config.depth < 1) {
    throw std::invalid_argument("bt_solve: depth must be >= 1");
  }
  if (pool.communities().max_threshold() > config.depth) {
    throw std::invalid_argument(
        "bt_solve: a community threshold exceeds the configured depth d; "
        "BT's guarantee requires h <= d");
  }

  BtSolution solution;
  const BtInstance root = root_instance(pool);

  // Outer centers in descending appearance count (and optionally capped) —
  // a deterministic, quality-friendly enumeration order.
  std::vector<NodeId> centers;
  centers.reserve(root.index.size());
  for (const auto& [node, touches] : root.index) {
    (void)touches;
    centers.push_back(node);
  }
  std::sort(centers.begin(), centers.end(), [&](NodeId a, NodeId b) {
    const auto ca = pool.appearance_count(a);
    const auto cb = pool.appearance_count(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  if (config.candidate_limit > 0 && centers.size() > config.candidate_limit) {
    centers.resize(config.candidate_limit);
  }

  const Deadline deadline(config.deadline_seconds);
  bool timed_out = false;
  std::uint64_t centers_tried = 0;
  RecursiveResult best = bt_recurse(root, k, config.depth, deadline,
                                    timed_out, centers_tried, &centers);

  solution.seeds = std::move(best.seeds);
  solution.center = solution.seeds.empty() ? kInvalidNode : solution.seeds[0];
  solution.d_value = best.influenced;
  solution.timed_out = timed_out;
  solution.centers_tried = centers_tried;
  solution.c_hat = pool.c_hat(solution.seeds);
  return solution;
}

double BtSolver::alpha(const RicPool&, std::uint32_t k) const {
  constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
  const double depth = static_cast<double>(std::max(2U, config_.depth));
  return kOneMinusInvE /
         std::pow(static_cast<double>(std::max(1U, k)), depth - 1.0);
}

}  // namespace imc
