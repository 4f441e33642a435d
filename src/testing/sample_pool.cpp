#include "testing/sample_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sampling/pool_snapshot.h"
#include "util/mathx.h"

namespace imc::testing {

std::uint64_t RicSample::mask_of(NodeId v) const {
  const auto it = std::lower_bound(
      touching.begin(), touching.end(), v,
      [](const TouchPair& entry, NodeId node) { return entry.first < node; });
  if (it != touching.end() && it->first == v) return it->second;
  return 0;
}

std::uint32_t RicSample::members_reached(std::span<const NodeId> seeds) const {
  std::uint64_t covered = 0;
  for (const NodeId v : seeds) covered |= mask_of(v);
  return static_cast<std::uint32_t>(popcount64(covered));
}

RicSample pool_sample(const RicPool& pool, std::uint32_t g) {
  if (g >= pool.size()) {
    throw std::out_of_range("pool_sample: index out of range");
  }
  const auto touches = pool.sample_touches(g);
  return RicSample{pool.source_communities()[g], pool.threshold_of(g),
                   {touches.begin(), touches.end()}};
}

std::vector<RicSample> pool_samples(const RicPool& pool) {
  std::vector<RicSample> samples;
  samples.reserve(pool.size());
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    samples.push_back(pool_sample(pool, g));
  }
  return samples;
}

namespace {

RicSample sample_of(const RicSampleMeta& meta,
                    const RicSampler::TouchArena& arena) {
  return RicSample{meta.community, meta.threshold,
                   {arena.begin(), arena.end()}};
}

}  // namespace

RicSample draw_sample(RicSampler& sampler, Rng& rng) {
  RicSampler::TouchArena arena;
  const RicSampleMeta meta = sampler.generate_into(rng, arena);
  return sample_of(meta, arena);
}

RicSample draw_sample(RicSampler& sampler, CommunityId community, Rng& rng) {
  RicSampler::TouchArena arena;
  const RicSampleMeta meta =
      sampler.generate_for_community_into(community, rng, arena);
  return sample_of(meta, arena);
}

RicPool pool_of_samples(const Graph& graph, const CommunitySet& communities,
                        std::span<const RicSample> samples,
                        DiffusionModel model) {
  const NodeId n = graph.node_count();
  RicPool::PoolArenas arenas;
  arenas.community_frequency.assign(communities.size(), 0);
  arenas.sample_offsets.assign(1, 0);
  arenas.touch_offsets.assign(std::uint64_t{n} + 1, 0);
  for (const RicSample& sample : samples) {
    arenas.thresholds.push_back(sample.threshold);
    arenas.source_community.push_back(sample.community);
    if (sample.community < communities.size()) {
      ++arenas.community_frequency[sample.community];
    }
    arenas.sample_arena.append(sample.touching.data(),
                               sample.touching.data() + sample.touching.size());
    arenas.sample_offsets.push_back(arenas.sample_arena.size());
    for (const TouchPair& pair : sample.touching) {
      if (pair.first < n) ++arenas.touch_offsets[pair.first + 1];
    }
  }
  // The CSR by counting: row begins are the prefix sums of the counts, and
  // one pass in sample order fills each row sorted by sample id.
  for (NodeId v = 0; v < n; ++v) {
    arenas.touch_offsets[v + 1] += arenas.touch_offsets[v];
  }
  std::vector<std::uint64_t> cursor(arenas.touch_offsets.begin(),
                                    arenas.touch_offsets.end() - 1);
  arenas.touches.resize_for_overwrite(arenas.touch_offsets[n]);
  for (std::uint32_t g = 0; g < samples.size(); ++g) {
    for (const auto& [node, mask] : samples[g].touching) {
      if (node < n) {
        arenas.touches[cursor[node]++] =
            RicPool::Touch{g, samples[g].threshold, mask};
      }
    }
  }
  const RicPool::PoolEpoch epoch{samples.size(), samples.empty() ? 0U : 1U,
                                 0};
  return restore_ric_pool(graph, communities, model, epoch,
                          std::move(arenas));
}

}  // namespace imc::testing
