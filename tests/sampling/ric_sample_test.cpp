#include "sampling/ric_sample.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "graph/algorithms.h"
#include "test_support.h"
#include "testing/reference_oracles.h"
#include "testing/sample_pool.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace imc {
namespace {

using testing::draw_sample;
using testing::RicSample;

CommunitySet two_communities() {
  // nodes 0..5; C0 = {0, 1}, C1 = {4, 5}; relays 2, 3 outside.
  CommunitySet set(6, {{0, 1}, {4, 5}});
  return set;
}

TEST(RicSampler, RejectsBadInputs) {
  const Graph graph = test::path_graph(6);
  CommunitySet empty;
  EXPECT_THROW((void)RicSampler(graph, empty), std::invalid_argument);

  CommunitySet wrong_n(4, {{0, 1}});
  EXPECT_THROW((void)RicSampler(graph, wrong_n), std::invalid_argument);

  std::vector<NodeId> huge(65);
  for (NodeId v = 0; v < 65; ++v) huge[v] = v;
  const Graph big_graph = test::path_graph(65);
  CommunitySet too_big(65, {huge});
  EXPECT_THROW((void)RicSampler(big_graph, too_big), std::invalid_argument);
}

TEST(RicSampler, MembersCarryOwnBit) {
  const Graph graph = test::path_graph(6, 0.5);
  const CommunitySet communities = two_communities();
  RicSampler sampler(graph, communities);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const RicSample g = draw_sample(sampler, rng);
    const auto members = communities.members(g.community);
    for (std::uint32_t j = 0; j < members.size(); ++j) {
      EXPECT_TRUE(g.mask_of(members[j]) & (1ULL << j))
          << "member " << members[j] << " missing its own bit";
    }
  }
}

TEST(RicSampler, CertainGraphMatchesExactReachability) {
  // Deterministic edges: the sample must contain exactly the backward-
  // reachable nodes of each member, with exact masks.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);   // 2 reaches member 0
  builder.add_edge(3, 2, 1.0);   // 3 -> 2 -> 0
  builder.add_edge(3, 1, 1.0);   // 3 reaches both members
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}});
  RicSampler sampler(graph, communities);
  Rng rng(2);
  const RicSample g = draw_sample(sampler, 0, rng);

  EXPECT_EQ(g.community, 0U);
  EXPECT_EQ(g.mask_of(0), 0b01ULL);          // member 0 reaches itself
  EXPECT_EQ(g.mask_of(1), 0b10ULL);          // member 1 reaches itself
  EXPECT_EQ(g.mask_of(2), 0b01ULL);          // 2 -> 0
  EXPECT_EQ(g.mask_of(3), 0b11ULL);          // 3 -> both
  EXPECT_EQ(g.mask_of(4), 0ULL);             // untouched
  EXPECT_EQ(g.touching.size(), 4U);
}

TEST(RicSampler, MembersReachedAndInfluence) {
  GraphBuilder builder;
  builder.reserve_nodes(4);
  builder.add_edge(2, 0, 1.0).add_edge(3, 1, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(4, {{0, 1}});
  communities.set_threshold(0, 2);
  RicSampler sampler(graph, communities);
  Rng rng(3);
  const RicSample g = draw_sample(sampler, 0, rng);

  const std::vector<NodeId> just_two{2};
  const std::vector<NodeId> both{2, 3};
  EXPECT_EQ(g.members_reached(just_two), 1U);
  EXPECT_EQ(g.members_reached(both), 2U);
  EXPECT_FALSE(g.influenced_by(just_two));
  EXPECT_TRUE(g.influenced_by(both));
}

TEST(RicSampler, SourceDistributionFollowsBenefits) {
  const Graph graph = test::path_graph(6, 0.1);
  CommunitySet communities = two_communities();
  communities.set_benefit(0, 1.0);
  communities.set_benefit(1, 3.0);
  RicSampler sampler(graph, communities);
  Rng rng(4);
  int first = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    first += (draw_sample(sampler, rng).community == 0);
  }
  EXPECT_NEAR(static_cast<double>(first) / kDraws, 0.25, 0.01);
}

TEST(RicSampler, EdgeProbabilityRespected) {
  // Single edge relay -> member with p = 0.3: the relay must appear in
  // ~30% of samples.
  GraphBuilder builder;
  builder.reserve_nodes(2);
  builder.add_edge(1, 0, 0.3);
  const Graph graph = builder.build();
  CommunitySet communities(2, {{0}});
  RicSampler sampler(graph, communities);
  Rng rng(5);
  int touched = 0;
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    touched += (draw_sample(sampler, rng).mask_of(1) != 0);
  }
  EXPECT_NEAR(static_cast<double>(touched) / kDraws, 0.3, 0.01);
}

TEST(RicSampler, ThresholdCopiedFromCommunity) {
  const Graph graph = test::path_graph(6, 0.5);
  CommunitySet communities = two_communities();
  communities.set_threshold(1, 2);
  RicSampler sampler(graph, communities);
  Rng rng(6);
  const RicSample g = draw_sample(sampler, 1, rng);
  EXPECT_EQ(g.threshold, 2U);
}

TEST(RicSampler, TouchingSortedByNode) {
  const Graph graph = test::complete_graph(8, 0.5);
  CommunitySet communities(8, {{0, 1, 2}});
  RicSampler sampler(graph, communities);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const RicSample g = draw_sample(sampler, rng);
    for (std::size_t j = 1; j < g.touching.size(); ++j) {
      EXPECT_LT(g.touching[j - 1].first, g.touching[j].first);
    }
  }
}

TEST(RicSampler, VisitEpochWrapRefillsAndRestarts) {
  // Regression for the epoch-counter wrap branch: at epoch_ == UINT32_MAX
  // the per-node visit marks could alias a restarted counter, so the
  // sampler must refill them and restart at 1 — and the samples generated
  // across the wrap must stay exact.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);  // 2 -> member 0
  builder.add_edge(3, 2, 1.0);  // 3 -> 2 -> 0
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}, {4, 5}});
  RicSampler sampler(graph, communities);
  Rng rng(9);

  // Populate the visit marks with a pre-wrap epoch, then force the wrap.
  const RicSample before = draw_sample(sampler, 0, rng);
  EXPECT_EQ(before.mask_of(3), 0b01ULL);
  sampler.set_visit_epoch_for_test(std::numeric_limits<std::uint32_t>::max());

  const RicSample wrapped = draw_sample(sampler, 0, rng);
  EXPECT_EQ(sampler.visit_epoch_for_test(), 1U);
  EXPECT_EQ(wrapped.mask_of(0), 0b01ULL);
  EXPECT_EQ(wrapped.mask_of(1), 0b10ULL);
  EXPECT_EQ(wrapped.mask_of(2), 0b01ULL);
  EXPECT_EQ(wrapped.mask_of(3), 0b01ULL);
  EXPECT_EQ(wrapped.touching.size(), 4U);

  // Marks stamped with the old large epochs must not leak into the
  // restarted counter's samples.
  const RicSample after = draw_sample(sampler, 1, rng);
  EXPECT_EQ(sampler.visit_epoch_for_test(), 2U);
  EXPECT_EQ(after.touching.size(), 2U);  // {4, 5}: no in-edges
  EXPECT_EQ(after.mask_of(2), 0ULL);
  EXPECT_EQ(after.mask_of(3), 0ULL);
}

TEST(RicSampler, GenerateIntoMatchesGenerate) {
  // generate_into appends behind the samples an arena already holds: each
  // draw must land exactly as the same draw into a fresh arena
  // (draw_sample), pairs and metadata alike, with nothing clobbered.
  const Graph graph = test::complete_graph(10, 0.4);
  CommunitySet communities(10, {{0, 1, 2}, {5, 6}});
  communities.set_threshold(1, 2);
  RicSampler fresh(graph, communities);
  RicSampler appending(graph, communities);
  Rng rng_a(10);
  Rng rng_b(10);
  RicSampler::TouchArena arena;
  std::vector<RicSample> expected;
  std::vector<std::size_t> starts;
  for (int i = 0; i < 40; ++i) {
    expected.push_back(draw_sample(fresh, rng_a));
    starts.push_back(arena.size());
    const RicSampleMeta meta = appending.generate_into(rng_b, arena);
    EXPECT_EQ(meta.community, expected.back().community);
    EXPECT_EQ(meta.threshold, expected.back().threshold);
    ASSERT_EQ(meta.touch_count, expected.back().touching.size());
    ASSERT_EQ(arena.size(), starts.back() + meta.touch_count);
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (std::size_t j = 0; j < expected[i].touching.size(); ++j) {
      EXPECT_EQ(arena[starts[i] + j], expected[i].touching[j]);
    }
  }
}

TEST(RicSampler, ScratchStateResetsBetweenSamples) {
  // Alternate between communities; leakage across samples would corrupt
  // masks or touching sets. Deterministic graph makes this exact.
  GraphBuilder builder;
  builder.reserve_nodes(6);
  builder.add_edge(2, 0, 1.0);
  builder.add_edge(3, 4, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(6, {{0, 1}, {4, 5}});
  RicSampler sampler(graph, communities);
  Rng rng(8);
  for (int round = 0; round < 25; ++round) {
    const RicSample a = draw_sample(sampler, 0, rng);
    EXPECT_EQ(a.touching.size(), 3U);  // {0, 1, 2}
    EXPECT_EQ(a.mask_of(3), 0ULL);
    const RicSample b = draw_sample(sampler, 1, rng);
    EXPECT_EQ(b.touching.size(), 3U);  // {3, 4, 5}
    EXPECT_EQ(b.mask_of(2), 0ULL);
    EXPECT_EQ(b.mask_of(3), 0b01ULL);  // 3 -> member 4 (index 0 of C1)
  }
}

/// How many draws had a region within one summary word of the emit's
/// two-level bitmap (4,096 node ids) and how many spread over several:
/// every node of a region touches its sample, so the reference's pairs
/// are the region.
struct EmitSpans {
  int one_summary_word = 0;
  int several_summary_words = 0;
};

/// The arena-direct emit against imc_testing's replay of the RNG contract:
/// pair for pair, padding zero, and the same RNG state after. Draws append
/// to one arena, so each sample also lands behind earlier ones.
void expect_emit_matches_replay(const Graph& graph,
                                const CommunitySet& communities,
                                DiffusionModel model, int rounds,
                                EmitSpans& spans) {
  RicSampler sampler(graph, communities, model);
  RicSampler::TouchArena arena;
  for (int round = 0; round < rounds; ++round) {
    for (CommunityId c = 0; c < communities.size(); ++c) {
      Rng rng_a(splitmix_of(static_cast<std::uint64_t>(round), c));
      Rng rng_b = rng_a;
      const std::size_t start = arena.size();
      const RicSampleMeta meta =
          sampler.generate_for_community_into(c, rng_a, arena);
      const RicSample want = imc::testing::replay_ric_sample(
          graph, communities, model, c, rng_b);
      EXPECT_EQ(rng_a.next(), rng_b.next()) << "community " << c;
      ASSERT_EQ(meta.touch_count, want.touching.size()) << "community " << c;
      ASSERT_EQ(arena.size(), start + want.touching.size());
      for (std::size_t j = 0; j < want.touching.size(); ++j) {
        ASSERT_EQ(arena[start + j], want.touching[j])
            << "community " << c << " pair " << j;
        ASSERT_EQ(arena[start + j].pad, 0U)
            << "community " << c << " pair " << j;
      }
      if (want.touching.front().first / 4096 ==
          want.touching.back().first / 4096) {
        ++spans.one_summary_word;
      } else {
        ++spans.several_summary_words;
      }
    }
  }
}

TEST(RicSampler, EmitMatchesTheContractReplayOnADenseGraph) {
  // Every region sits in one summary word. Nodes 0, 5, 10, ... have mixed
  // in-weights (the per-edge Bernoulli branch), the rest share one
  // (geometric skipping).
  GraphBuilder builder;
  builder.reserve_nodes(300);
  for (NodeId v = 0; v < 300; ++v) {
    for (const NodeId step : {1U, 2U, 7U, 31U}) {
      const double weight = v % 5 == 0 ? 0.05 * (step % 4 + 1) : 0.15;
      builder.add_edge((v + step) % 300, v, weight);
    }
  }
  const Graph graph = builder.build();
  CommunitySet communities = test::chunk_communities(300, 6);
  apply_constant_thresholds(communities, 2);
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    EmitSpans spans;
    expect_emit_matches_replay(graph, communities, model, 4, spans);
    EXPECT_GT(spans.one_summary_word, 0);
    EXPECT_EQ(spans.several_summary_words, 0);
  }
}

TEST(RicSampler, EmitMatchesTheContractReplayOnALargeSparseGraph) {
  // A large sparse graph (mean realized in-degree 0.6, so regions stay
  // small) whose communities spread over the whole id range: their
  // regions span several summary words and thousands of bitmap words for
  // a handful of nodes. One contiguous community keeps a region within
  // one summary word in the same sampler.
  constexpr NodeId kNodes = 120'000;
  GraphBuilder builder;
  builder.reserve_nodes(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    for (const NodeId step : {1U, 7U, kNodes - 3}) {
      builder.add_edge((v + step) % kNodes, v, 0.2);
    }
  }
  const Graph graph = builder.build();
  std::vector<std::vector<NodeId>> groups;
  for (NodeId i = 0; i < 6; ++i) {
    groups.push_back({i * 11, i * 11 + 30'000, i * 11 + 60'000,
                      i * 11 + 90'000});
  }
  groups.push_back({500, 501, 502, 503, 504});
  CommunitySet communities(kNodes, groups);
  EmitSpans spans;
  expect_emit_matches_replay(graph, communities,
                             DiffusionModel::kIndependentCascade, 3, spans);
  EXPECT_GT(spans.several_summary_words, 0);
  EXPECT_GT(spans.one_summary_word, 0);
}

}  // namespace
}  // namespace imc
