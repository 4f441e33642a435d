#include "sampling/ric_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "community/threshold_policy.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/pool_equality.h"
#include "test_support.h"
#include "testing/sample_pool.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

using testing::pool_of_samples;
using testing::RicSample;

Graph make_dataset_like_graph() {
  Rng rng(123);
  BarabasiAlbertConfig config;
  config.nodes = 80;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

TEST(RicPool, GrowAndIndexConsistency) {
  const Graph graph = test::cycle_graph(12, 0.5);
  const CommunitySet communities = test::chunk_communities(12, 3);
  RicPool pool(graph, communities);
  pool.grow(300, /*seed=*/1);
  ASSERT_EQ(pool.size(), 300U);
  // Inverted index agrees with per-sample touching lists.
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    for (const auto& [node, mask] : pool.sample_touches(g)) {
      bool found = false;
      for (const RicPool::Touch& touch : pool.touches_of(node)) {
        if (touch.sample == g) {
          EXPECT_EQ(touch.mask, mask);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(RicPool, GrowthIsDeterministicAndChunkingInvariant) {
  // The counts straddle the 256-sample generation part. Serial growth and
  // growth on 1, 2 and 8 workers, in one call or two, must all produce the
  // same bytes as one serial call.
  const Graph graph = test::cycle_graph(10, 0.4);
  const CommunitySet communities = test::chunk_communities(10, 2);
  for (const std::uint64_t count : {1U, 255U, 256U, 257U, 1000U}) {
    RicPool reference(graph, communities);
    reference.grow(count, 7, /*parallel=*/false);
    EXPECT_EQ(reference.grow_epoch(), (RicPool::PoolEpoch{count, 1, 0}));
    for (const unsigned threads : {0U, 1U, 2U, 8U}) {  // 0 = serial
      SCOPED_TRACE("count=" + std::to_string(count) +
                   " threads=" + std::to_string(threads));
      std::unique_ptr<ThreadPool> workers;
      if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
      const bool parallel = threads > 0;

      RicPool once(graph, communities);
      once.grow(count, 7, parallel, workers.get());
      test::expect_same_pool(once, reference);
      EXPECT_EQ(once.grow_epoch(), reference.grow_epoch());

      // A split batch is the same samples and one more growth (grow(0)
      // counts as none).
      const std::uint64_t first = count / 2;
      RicPool twice(graph, communities);
      twice.grow(first, 7, parallel, workers.get());
      twice.grow(count - first, 7, parallel, workers.get());
      test::expect_same_pool(twice, reference);
      EXPECT_EQ(twice.grow_epoch(),
                (RicPool::PoolEpoch{count, first > 0 ? 2U : 1U, 0}));
    }
  }
}

TEST(RicPool, CHatMatchesManualCount) {
  const Graph graph = test::path_graph(6, 1.0);
  CommunitySet communities(6, {{2}, {5}});
  RicPool pool(graph, communities);
  pool.grow(500, 3);
  // Seeding node 0 reaches member 2 (certain path) but that's it for C0;
  // node 0 also reaches 5. All samples are influenced by {0}.
  const std::vector<NodeId> seeds{0};
  EXPECT_EQ(pool.influenced_count(seeds), pool.size());
  EXPECT_DOUBLE_EQ(pool.c_hat(seeds), communities.total_benefit());
}

TEST(RicPool, Lemma1UnbiasedAgainstForwardMonteCarlo) {
  // ĉ_R(S) must estimate the same c(S) as forward IC simulation.
  Rng gen_rng(11);
  SbmConfig sbm;
  sbm.nodes = 60;
  sbm.blocks = 6;
  sbm.p_in = 0.3;
  sbm.p_out = 0.02;
  EdgeList edges = sbm_edges(sbm, gen_rng);
  apply_uniform_weights(edges, 0.15);
  const Graph graph(sbm.nodes, edges);

  CommunitySet communities = test::chunk_communities(60, 6);
  apply_population_benefits(communities);
  apply_fraction_thresholds(communities, 0.5);

  RicPool pool(graph, communities);
  pool.grow(60000, 5);

  MonteCarloOptions mc;
  mc.simulations = 60000;
  const std::vector<NodeId> seeds{0, 13, 27};
  const double forward = mc_expected_benefit(graph, communities, seeds, mc);
  const double reverse = pool.c_hat(seeds);
  EXPECT_NEAR(reverse, forward, std::max(0.5, forward * 0.06));
}

TEST(RicPool, NuUpperBoundsCHat) {
  const Graph graph = make_dataset_like_graph();
  CommunitySet communities = test::chunk_communities(graph.node_count(), 4);
  apply_constant_thresholds(communities, 2);
  RicPool pool(graph, communities);
  pool.grow(2000, 9);
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const auto seeds = rng.sample_without_replacement(
        graph.node_count(), 1 + static_cast<std::uint32_t>(rng.below(8)));
    EXPECT_GE(pool.nu(seeds) + 1e-9, pool.c_hat(seeds));
  }
}

TEST(RicPool, NuEqualsCHatWhenThresholdsAreOne) {
  const Graph graph = make_dataset_like_graph();
  CommunitySet communities = test::chunk_communities(graph.node_count(), 4);
  // default thresholds are 1
  RicPool pool(graph, communities);
  pool.grow(1500, 17);
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const auto seeds = rng.sample_without_replacement(graph.node_count(), 5);
    EXPECT_NEAR(pool.nu(seeds), pool.c_hat(seeds), 1e-9);
  }
}

TEST(RicPool, CommunityFrequencyCountsSources) {
  const Graph graph = test::path_graph(8, 0.3);
  CommunitySet communities = test::chunk_communities(8, 4);
  communities.set_benefit(0, 9.0);  // heavily favor C0 in ρ
  communities.set_benefit(1, 1.0);
  RicPool pool(graph, communities);
  pool.grow(2000, 21);
  EXPECT_EQ(pool.community_frequency(0) + pool.community_frequency(1),
            pool.size());
  EXPECT_GT(pool.community_frequency(0), pool.community_frequency(1) * 5);
}

TEST(RicPool, CommunityFrequencyCountersMatchRecount) {
  // The O(1) counters grow maintains must agree with a full recount of
  // the sample list, across multiple growth rounds and after the grown
  // samples plus a hand-built one are restored into a new pool.
  const Graph graph = test::path_graph(8, 0.3);
  CommunitySet communities = test::chunk_communities(8, 4);
  RicPool grown(graph, communities);
  grown.grow(500, 31);
  grown.grow(700, 31);  // second round exercises incremental growth
  std::vector<RicSample> samples = testing::pool_samples(grown);
  samples.push_back(RicSample{1, 1, {}});
  const RicPool pool = pool_of_samples(graph, communities, samples);

  std::vector<std::uint32_t> recount(communities.size(), 0);
  for (const CommunityId c : pool.source_communities()) ++recount[c];
  ASSERT_EQ(pool.community_frequencies().size(), recount.size());
  for (CommunityId c = 0; c < communities.size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), recount[c]) << "community " << c;
  }
  // Out-of-range community ids keep reporting zero, not throwing.
  EXPECT_EQ(pool.community_frequency(communities.size() + 5), 0U);
}

TEST(RicPool, EmptySeedSetScoresZero) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  RicPool pool(graph, communities);
  pool.grow(100, 23);
  const std::vector<NodeId> empty;
  EXPECT_DOUBLE_EQ(pool.c_hat(empty), 0.0);
  EXPECT_DOUBLE_EQ(pool.nu(empty), 0.0);
  EXPECT_EQ(pool.influenced_count(empty), 0U);
}

TEST(RicPool, EmptyPoolScoresZero) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  RicPool pool(graph, communities);
  const std::vector<NodeId> seeds{0};
  EXPECT_DOUBLE_EQ(pool.c_hat(seeds), 0.0);
  EXPECT_DOUBLE_EQ(pool.nu(seeds), 0.0);
}

// Hand-built samples reach a pool only through testing::pool_of_samples,
// which installs them with the snapshot loader's validator: a sample the
// loader would reject fails with the loader's pinned diagnostic.

/// The diagnostic pool_of_samples fails with on `samples`, or "".
std::string restore_error(const Graph& graph,
                          const CommunitySet& communities,
                          const std::vector<RicSample>& samples) {
  try {
    (void)pool_of_samples(graph, communities, samples);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(RicPool, AppendZeroTouchSampleAfterGrowKeepsIndexConsistent) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  RicPool grown(graph, communities);
  grown.grow(20, 7);
  const std::uint32_t frequency_before = grown.community_frequency(0);

  // A realization can reach no node at all; such samples carry an empty
  // touching list and must flow through the restore and a later grow's
  // CSR merge without corrupting offsets or counters.
  std::vector<RicSample> samples = testing::pool_samples(grown);
  samples.push_back(RicSample{0, 1, {}});
  RicPool pool = pool_of_samples(graph, communities, samples);

  ASSERT_EQ(pool.size(), 21U);
  EXPECT_EQ(pool.sample_touches(20).size(), 0U);
  EXPECT_EQ(pool.community_frequency(0), frequency_before + 1);
  // The zero-touch sample can never be influenced; scores still work.
  const std::vector<NodeId> seeds{0, 1, 2, 3};
  EXPECT_LE(pool.influenced_count(seeds), 20U);

  // Growth on top merges into the restored CSR as into a grown one.
  grown.grow(30, 7);
  pool.grow(30, 7);
  EXPECT_EQ(pool.size(), 51U);
  EXPECT_EQ(pool.sample_touches(20).size(), 0U);
  EXPECT_EQ(pool.influenced_count(seeds), grown.influenced_count(seeds));
}

TEST(RicPool, AppendRejectsMaskBitsBeyondPopulation) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  // Community 0 has population 2, so only mask bits 0 and 1 are members.
  // A phantom bit would be popcounted toward h_g by every evaluator.
  EXPECT_EQ(restore_error(graph, communities, {RicSample{0, 1, {{0, 0b100}}}}),
            "ric pool snapshot: sample 0: member mask wider than the "
            "community population");
  // A pair must name at least one member.
  EXPECT_EQ(restore_error(graph, communities, {RicSample{0, 1, {{0, 0}}}}),
            "ric pool snapshot: sample 0: empty member mask");
}

TEST(RicPool, AppendRejectsUnsortedOrDuplicateTouches) {
  const Graph graph = test::path_graph(4, 0.5);
  const CommunitySet communities = test::chunk_communities(4, 2);
  const std::string diagnostic =
      "ric pool snapshot: sample 1: touching nodes not strictly ascending";
  const RicSample good{0, 1, {{0, 1}, {1, 2}}};
  EXPECT_EQ(restore_error(graph, communities,
                          {good, RicSample{0, 1, {{1, 1}, {1, 2}}}}),
            diagnostic);
  EXPECT_EQ(restore_error(graph, communities,
                          {good, RicSample{0, 1, {{2, 1}, {0, 1}}}}),
            diagnostic);
  EXPECT_EQ(restore_error(graph, communities, {good, good}), "");
}

TEST(RicPool, EmptyCommunitiesAreRejectedBeforeTheyReachAPool) {
  // The validator never has to guard against population-zero communities:
  // CommunitySet refuses to construct them in the first place.
  EXPECT_THROW(CommunitySet(4, {{0, 1}, {}}), std::invalid_argument);
}

}  // namespace
}  // namespace imc
