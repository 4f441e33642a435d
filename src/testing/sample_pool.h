// RIC samples by value, for tests and the reference oracles. The library
// never materializes a sample: RicSampler::generate_into appends its pairs
// to an arena and every reader works on the pool's arenas in place. Tests
// want whole samples to compare, build and forge, so this header holds
// `RicSample` and the ways to make one — read back from a pool, or drawn
// through generate_into — plus the one way to make a pool of hand-built
// samples: `pool_of_samples`, which goes through the snapshot loader's
// validator (restore_ric_pool, sampling/pool_snapshot.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "community/community_set.h"
#include "diffusion/monte_carlo.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "util/rng.h"

namespace imc::testing {

/// One RIC sample. `touching` lists every node that can reach >= 1 member
/// of the source community in the realization, with the mask of members it
/// reaches; sorted by node id; members themselves appear with their own bit
/// set (u ∈ R_g(u)).
struct RicSample {
  CommunityId community = kInvalidCommunity;
  std::uint32_t threshold = 1;  // h_g
  std::vector<TouchPair> touching;

  /// Mask of members reached from `v`, 0 if v does not touch the sample.
  [[nodiscard]] std::uint64_t mask_of(NodeId v) const;

  /// Number of members of C_g reachable from seed set S = |I_g(S)|.
  [[nodiscard]] std::uint32_t members_reached(
      std::span<const NodeId> seeds) const;

  /// X_g(S): 1 iff S reaches >= h_g members.
  [[nodiscard]] bool influenced_by(std::span<const NodeId> seeds) const {
    return members_reached(seeds) >= threshold;
  }
};

/// Sample g of `pool`, read from its arenas (community and threshold from
/// the SoA metadata, pairs from the sample-major arena). Throws
/// std::out_of_range.
[[nodiscard]] RicSample pool_sample(const RicPool& pool, std::uint32_t g);

/// Every sample of `pool`, in id order.
[[nodiscard]] std::vector<RicSample> pool_samples(const RicPool& pool);

/// One draw of `sampler` (RicSampler::generate_into into a fresh arena):
/// the same sample and the same RNG consumption as a pool part's draw.
[[nodiscard]] RicSample draw_sample(RicSampler& sampler, Rng& rng);

/// One draw with a forced source community
/// (RicSampler::generate_for_community_into).
[[nodiscard]] RicSample draw_sample(RicSampler& sampler,
                                    CommunityId community, Rng& rng);

/// A pool holding `samples` in order, epoch {|samples|, 1 if any, 0}. The
/// arenas are built the plain way — the CSR by counting, then one pass in
/// sample order — and installed by restore_ric_pool, so a sample the
/// snapshot loader would reject throws its std::runtime_error
/// ("ric pool snapshot: ..."). Out-of-range community ids and nodes are
/// left out of the counters and the CSR for the validator to name.
[[nodiscard]] RicPool pool_of_samples(
    const Graph& graph, const CommunitySet& communities,
    std::span<const RicSample> samples,
    DiffusionModel model = DiffusionModel::kIndependentCascade);

}  // namespace imc::testing
