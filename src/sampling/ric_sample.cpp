#include "sampling/ric_sample.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "diffusion/lt_model.h"
#include "util/mmap_arena.h"

namespace imc {

std::uint64_t RicSample::mask_of(NodeId v) const {
  const auto it = std::lower_bound(
      touching.begin(), touching.end(), v,
      [](const auto& entry, NodeId node) { return entry.first < node; });
  if (it != touching.end() && it->first == v) return it->second;
  return 0;
}

std::uint32_t RicSample::members_reached(std::span<const NodeId> seeds) const {
  std::uint64_t covered = 0;
  for (const NodeId v : seeds) covered |= mask_of(v);
  return static_cast<std::uint32_t>(__builtin_popcountll(covered));
}

RicSampler::RicSampler(const Graph& graph, const CommunitySet& communities,
                       DiffusionModel model)
    : graph_(&graph), communities_(&communities), model_(model) {
  if (communities.empty()) {
    throw std::invalid_argument("RicSampler: no communities");
  }
  if (model == DiffusionModel::kLinearThreshold &&
      !lt_weights_valid(graph)) {
    throw std::invalid_argument(
        "RicSampler: LT mode requires per-node incoming weights <= 1");
  }
  if (communities.node_count() != graph.node_count()) {
    throw std::invalid_argument(
        "RicSampler: community set and graph node counts differ");
  }
  for (CommunityId c = 0; c < communities.size(); ++c) {
    if (communities.population(c) > kMaxCommunityPopulation) {
      throw std::invalid_argument(
          "RicSampler: community population exceeds " +
          std::to_string(kMaxCommunityPopulation) +
          " (mask width); split communities first (community/size_cap.h)");
    }
  }
  rho_ = DiscreteDistribution(communities.benefits());
  const NodeId n = graph.node_count();
  visit_epoch_.assign(n, 0);
  mask_.assign(n, 0);
  live_head_.assign(n, kNoLiveEdge);
  in_worklist_.assign(n, 0);
}

RicSample RicSampler::generate(Rng& rng) {
  return generate_for_community(static_cast<CommunityId>(rho_.sample(rng)),
                                rng);
}

RicSample RicSampler::generate_for_community(CommunityId community, Rng& rng) {
  RicSample sample;
  sample.touching.clear();
  const RicSampleMeta meta =
      generate_for_community_into(community, rng, sample.touching);
  sample.community = meta.community;
  sample.threshold = meta.threshold;
  sample.member_count = meta.member_count;
  return sample;
}

template <typename Arena>
RicSampleMeta RicSampler::generate_into(Rng& rng, Arena& out) {
  return generate_for_community_into(
      static_cast<CommunityId>(rho_.sample(rng)), rng, out);
}

void RicSampler::realize(std::span<const NodeId> members, Rng& rng) {
  // -- Phase 1: backward BFS from the whole community, flipping each edge
  // at most once (the st[e] bookkeeping of Alg. 1 is implicit: an edge is
  // examined exactly when its head is dequeued, which happens once).
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wrap: old marks could alias the restarted counter.
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  queue_.clear();
  region_.clear();
  for (const NodeId u : members) visit(u);

  const std::span<const float> uniform_p = graph_->in_uniform_weights();
  const std::span<const double> uniform_inv = graph_->in_uniform_inv_log1ps();
  std::size_t head = 0;
  while (head < queue_.size()) {
    const NodeId u = queue_[head++];
    if (model_ == DiffusionModel::kIndependentCascade) {
      const float p = uniform_p[u];
      if (p > 0.0F) {
        // Uniform in-weights: geometric skipping. One draw per REALIZED
        // edge (plus a final overshoot) instead of one per in-edge; with
        // p == 1, 1/log1p(-p) == -0.0 and every skip is 0, so the loop
        // degenerates to "realize everything".
        const double inv_log1p = uniform_inv[u];
        const auto neighbors = graph_->in_neighbors(u);
        std::uint64_t idx = rng.geometric_skip(inv_log1p);
        while (idx < neighbors.size()) {
          const NodeId tail = neighbors[idx].node;
          add_live_edge(u, tail);
          visit(tail);
          idx += 1 + rng.geometric_skip(inv_log1p);
        }
      } else if (p < 0.0F) {
        // Mixed in-weights: per-edge Bernoulli fallback.
        for (const Neighbor& nb : graph_->in_neighbors(u)) {
          if (rng.bernoulli(static_cast<double>(nb.weight))) {
            add_live_edge(u, nb.node);
            visit(nb.node);
          }
        }
      }
      // p == 0 (uniformly zero weights / no in-edges): nothing realizes.
    } else {
      // LT live-edge: node u keeps exactly one in-edge with probability
      // equal to its weight (none with the leftover probability).
      double x = rng.uniform();
      for (const Neighbor& nb : graph_->in_neighbors(u)) {
        x -= static_cast<double>(nb.weight);
        if (x < 0.0) {
          add_live_edge(u, nb.node);
          visit(nb.node);
          break;
        }
      }
    }
  }
}

void RicSampler::reset_live_edges() {
  for (const NodeId u : live_touched_) live_head_[u] = kNoLiveEdge;
  live_touched_.clear();
  live_tail_.clear();
  live_next_.clear();
}

template <typename OnGrow>
bool RicSampler::propagate(std::span<const NodeId> members, OnGrow on_grow) {
  // -- Phase 2: bit-parallel mask propagation. Node v gets bit j iff v can
  // reach member j — all <= 64 bits flow at once along the realized edges
  // (mask_[tail] |= mask_[head]) through one monotone worklist fixpoint,
  // instead of one DFS per member. Reusing queue_ as the worklist is safe:
  // the BFS in realize() fully drained it.
  queue_.clear();
  for (std::uint32_t j = 0; j < members.size(); ++j) {
    mask_[members[j]] |= 1ULL << j;
  }
  for (const NodeId u : members) {
    if (on_grow(u)) return true;
  }
  for (const NodeId u : members) {
    if (!in_worklist_[u]) {
      in_worklist_[u] = 1;
      queue_.push_back(u);
    }
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    const NodeId v = queue_[head++];
    in_worklist_[v] = 0;
    const std::uint64_t m = mask_[v];
    for (std::uint32_t e = live_head_[v]; e != kNoLiveEdge;
         e = live_next_[e]) {
      const NodeId w = live_tail_[e];  // live edge w -> v
      if ((mask_[w] | m) != mask_[w]) {
        mask_[w] |= m;
        if (on_grow(w)) {
          // Early exit: clear the undrained tail's worklist flags so the
          // next sample starts from an all-false worklist.
          for (; head < queue_.size(); ++head) in_worklist_[queue_[head]] = 0;
          return true;
        }
        if (!in_worklist_[w]) {
          in_worklist_[w] = 1;
          queue_.push_back(w);
        }
      }
    }
  }
  return false;
}

template <typename Arena>
RicSampleMeta RicSampler::generate_for_community_into(CommunityId community,
                                                      Rng& rng,
                                                      Arena& out) {
  const auto members = communities_->members(community);  // range-checked
  RicSampleMeta meta;
  meta.community = community;
  meta.threshold = communities_->threshold(community);
  meta.member_count = static_cast<std::uint32_t>(members.size());
  realize(members, rng);
  propagate(members, [](NodeId) { return false; });

  // -- Phase 3: emit (node, mask) pairs sorted by node id; reset scratch.
  // Sorting the 4-byte node ids and then emitting beats sorting the
  // 16-byte pairs in place, and the ordered mask_ reads are cache-kinder.
  // No per-sample reserve: arenas accumulate MANY samples, and reserve()
  // grows capacity to exactly the requested size — calling it per sample
  // would defeat push_back's geometric growth and turn bulk generation
  // quadratic in the arena size.
  std::sort(region_.begin(), region_.end());
  const std::size_t start = out.size();
  for (const NodeId v : region_) {
    if (mask_[v] != 0) out.emplace_back(v, mask_[v]);
  }
  meta.touch_count = static_cast<std::uint32_t>(out.size() - start);
  reset_live_edges();
  return meta;
}

bool RicSampler::draw_influenced(Rng& rng,
                                 std::span<const std::uint8_t> is_seed) {
  if (is_seed.size() < graph_->node_count()) {
    throw std::invalid_argument(
        "RicSampler::draw_influenced: seed bitmap shorter than the graph");
  }
  const auto community = static_cast<CommunityId>(rho_.sample(rng));
  const auto members = communities_->members(community);
  const std::uint32_t threshold = communities_->threshold(community);
  realize(members, rng);  // the only RNG consumer, as in generate()

  // h_g >= 1, so a region without seeds cannot be influenced.
  const bool seed_in_region = std::any_of(
      region_.begin(), region_.end(), [&](NodeId v) { return is_seed[v]; });
  if (!seed_in_region) {
    reset_live_edges();
    return false;
  }

  // Phase 2, tracking the members the seeds cover as their masks grow.
  // Masks only gain bits, so the first time `covered` reaches h_g
  // decides X = 1.
  std::uint64_t covered = 0;
  const bool influenced = propagate(members, [&](NodeId v) {
    if (!is_seed[v]) return false;
    covered |= mask_[v];
    return static_cast<std::uint32_t>(__builtin_popcountll(covered)) >=
           threshold;
  });
  reset_live_edges();
  return influenced;
}

// The two arena types pool growth actually emits into: per-part scratch
// vectors and the pool's own ArenaVector heap slabs.
using PoolArena = ArenaVector<std::pair<NodeId, std::uint64_t>>;
template RicSampleMeta RicSampler::generate_into(Rng&,
                                                 RicSampler::TouchArena&);
template RicSampleMeta RicSampler::generate_into(Rng&, PoolArena&);
template RicSampleMeta RicSampler::generate_for_community_into(
    CommunityId, Rng&, RicSampler::TouchArena&);
template RicSampleMeta RicSampler::generate_for_community_into(CommunityId,
                                                               Rng&,
                                                               PoolArena&);

}  // namespace imc
