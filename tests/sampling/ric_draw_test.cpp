// RicSampler::draw_influenced — the estimators' allocation-free draw — must
// be indistinguishable from a full draw's influenced_by(S) (generate_into,
// through imc_testing's draw_sample): the same X_g(S) per draw, the same
// RNG state afterwards, and scratch left clean for the next full draw.
// Covered across IC with uniform in-weights (geometric skipping), IC with
// mixed in-weights (the per-edge Bernoulli fallback) and LT, seeds inside
// and outside the sampled region, every threshold from 1 to |C|, and the
// visit-epoch wrap.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/builder.h"
#include "sampling/ric_sample.h"
#include "test_support.h"
#include "testing/sample_pool.h"
#include "util/rng.h"

namespace imc {
namespace {

constexpr NodeId kNodes = 48;
constexpr NodeId kCommunitySize = 8;

enum class Weights { kUniform, kMixed, kLinearThreshold };

/// Random digraph with ~4 in-edges per node. kUniform gives every head one
/// in-weight (the geometric-skip path), kMixed draws each edge's weight
/// independently (the Bernoulli fallback), kLinearThreshold keeps every
/// head's in-weights summing below 1.
Graph random_graph(Weights weights, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> tails(kNodes);
  for (NodeId head = 0; head < kNodes; ++head) {
    const auto degree = static_cast<NodeId>(rng.below(7));
    for (NodeId i = 0; i < degree; ++i) {
      const auto tail = static_cast<NodeId>(rng.below(kNodes));
      if (tail != head) tails[head].push_back(tail);
    }
  }
  GraphBuilder builder;
  builder.reserve_nodes(kNodes);
  for (NodeId head = 0; head < kNodes; ++head) {
    const double uniform = 0.2 + 0.7 * rng.uniform();
    for (const NodeId tail : tails[head]) {
      double w = uniform;
      if (weights == Weights::kMixed) w = 0.05 + 0.9 * rng.uniform();
      if (weights == Weights::kLinearThreshold) {
        w = 0.95 / static_cast<double>(tails[head].size());
      }
      builder.add_edge(tail, head, w);
    }
  }
  return builder.build();
}

DiffusionModel model_of(Weights weights) {
  return weights == Weights::kLinearThreshold
             ? DiffusionModel::kLinearThreshold
             : DiffusionModel::kIndependentCascade;
}

/// Seed sets of 1..6 nodes: members of some community and outsiders.
std::vector<std::vector<NodeId>> seed_sets(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 12; ++i) {
    std::vector<NodeId> set;
    const auto size = 1 + rng.below(6);
    for (std::uint64_t j = 0; j < size; ++j) {
      set.push_back(static_cast<NodeId>(rng.below(kNodes)));
    }
    sets.push_back(set);
  }
  return sets;
}

std::vector<std::uint8_t> bitmap_of(const std::vector<NodeId>& seeds) {
  std::vector<std::uint8_t> bitmap(kNodes, 0);
  for (const NodeId v : seeds) bitmap[v] = 1;
  return bitmap;
}

/// Runs `draws` draws of both paths side by side from one Rng seed and
/// checks X, the RNG state after each draw, and a full draw on the
/// drawing sampler right after it against an untouched sampler. Returns
/// how many draws were influenced.
int expect_equivalent(const Graph& graph, const CommunitySet& communities,
                      DiffusionModel model, const std::vector<NodeId>& seeds,
                      std::uint64_t rng_seed, int draws,
                      std::uint32_t start_epoch = 0) {
  RicSampler reference(graph, communities, model);
  RicSampler drawing(graph, communities, model);
  RicSampler untouched(graph, communities, model);
  if (start_epoch != 0) drawing.set_visit_epoch_for_test(start_epoch);
  const std::vector<std::uint8_t> bitmap = bitmap_of(seeds);
  Rng rng_reference(rng_seed);
  Rng rng_drawing(rng_seed);
  int influenced = 0;
  for (int i = 0; i < draws; ++i) {
    const bool want =
        testing::draw_sample(reference, rng_reference).influenced_by(seeds);
    const bool got = drawing.draw_influenced(rng_drawing, bitmap);
    EXPECT_EQ(got, want) << "draw " << i;
    influenced += got ? 1 : 0;
    Rng next_reference = rng_reference;
    Rng next_drawing = rng_drawing;
    EXPECT_EQ(next_drawing.next(), next_reference.next())
        << "RNG state diverged after draw " << i;

    // Scratch must be fully reset: a full draw on the drawing sampler
    // equals one on a sampler that never ran draw_influenced.
    Rng probe_a(rng_seed ^ static_cast<std::uint64_t>(i));
    Rng probe_b(rng_seed ^ static_cast<std::uint64_t>(i));
    const testing::RicSample after = testing::draw_sample(drawing, probe_a);
    const testing::RicSample fresh =
        testing::draw_sample(untouched, probe_b);
    EXPECT_EQ(after.community, fresh.community) << "draw " << i;
    EXPECT_EQ(after.touching, fresh.touching) << "draw " << i;
  }
  return influenced;
}

class DrawInfluenced : public ::testing::TestWithParam<Weights> {};

TEST_P(DrawInfluenced, MatchesGenerateAtEveryThreshold) {
  const Weights weights = GetParam();
  const Graph graph = random_graph(weights, 31);
  int draws = 0;
  int influenced = 0;
  for (std::uint32_t h = 1; h <= kCommunitySize; ++h) {
    CommunitySet communities = test::chunk_communities(kNodes, kCommunitySize);
    for (CommunityId c = 0; c < communities.size(); ++c) {
      communities.set_threshold(c, h);
    }
    for (const std::vector<NodeId>& seeds : seed_sets(h)) {
      influenced += expect_equivalent(graph, communities, model_of(weights),
                                      seeds, 1000 + h, 60);
      draws += 60;
    }
  }
  // Both outcomes must occur, or one of the exits went untested.
  EXPECT_GT(influenced, 0);
  EXPECT_LT(influenced, draws);
}

TEST_P(DrawInfluenced, MatchesGenerateAcrossTheEpochWrap) {
  const Weights weights = GetParam();
  const Graph graph = random_graph(weights, 7);
  CommunitySet communities = test::chunk_communities(kNodes, kCommunitySize);
  communities.set_threshold(2, 3);
  const std::vector<NodeId> seeds = {3, 17, 40};
  // Each iteration bumps the drawing sampler's epoch twice (draw, then the
  // full-draw probe), so from max - 2 the wrap lands inside draw 1.
  (void)expect_equivalent(graph, communities, model_of(weights), seeds, 5, 8,
                          std::numeric_limits<std::uint32_t>::max() - 2);
}

INSTANTIATE_TEST_SUITE_P(
    Models, DrawInfluenced,
    ::testing::Values(Weights::kUniform, Weights::kMixed,
                      Weights::kLinearThreshold),
    [](const ::testing::TestParamInfo<Weights>& info) {
      switch (info.param) {
        case Weights::kUniform: return "IcUniform";
        case Weights::kMixed: return "IcMixed";
        case Weights::kLinearThreshold: return "Lt";
      }
      return "Unknown";
    });

TEST(DrawInfluenced, BothOutcomesAndBothExitsOccur) {
  // Seeds outside every realized region give X = 0 without propagation;
  // a seed that is a member with h = 1 gives X = 1 before propagation;
  // a relay seed upstream of two members with h = 2 needs propagation.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0).add_edge(2, 1, 1.0);  // relay 2 -> both members
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}});
  communities.set_threshold(0, 2);
  RicSampler sampler(graph, communities);
  Rng rng(3);
  std::vector<std::uint8_t> outsider(6, 0);
  outsider[5] = 1;
  EXPECT_FALSE(sampler.draw_influenced(rng, outsider));
  std::vector<std::uint8_t> member(6, 0);
  member[0] = 1;
  EXPECT_FALSE(sampler.draw_influenced(rng, member));  // 1 of h = 2
  std::vector<std::uint8_t> relay(6, 0);
  relay[2] = 1;
  EXPECT_TRUE(sampler.draw_influenced(rng, relay));
  communities.set_threshold(0, 1);
  RicSampler h1(graph, communities);
  EXPECT_TRUE(h1.draw_influenced(rng, member));
}

TEST(DrawInfluenced, RejectsShortBitmap) {
  const Graph graph = test::path_graph(4);
  const CommunitySet communities(4, {{0, 1}});
  RicSampler sampler(graph, communities);
  Rng rng(1);
  const std::vector<std::uint8_t> bitmap(3, 0);
  EXPECT_THROW((void)sampler.draw_influenced(rng, bitmap),
               std::invalid_argument);
}

}  // namespace
}  // namespace imc
