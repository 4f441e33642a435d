#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "community/threshold_policy.h"
#include "core/baselines/hbc.h"
#include "core/baselines/im_ris.h"
#include "core/baselines/ks.h"
#include "core/baselines/simple.h"
#include "test_support.h"

namespace imc {
namespace {

// ---------------------------------------------------------------- HBC ----

TEST(Hbc, ScoresHandComputed) {
  // 0 -> 1 (w 0.5), 0 -> 2 (w 0.2); C0 = {1} (h 1, b 2), C1 = {2} (h 2 -> but
  // population 1 caps at 1; use b 4). Node 0 itself is outside.
  GraphBuilder builder;
  builder.add_edge(0, 1, 0.5).add_edge(0, 2, 0.2);
  const Graph graph = builder.build();
  CommunitySet communities(3, {{1}, {2}});
  communities.set_benefit(0, 2.0);
  communities.set_benefit(1, 4.0);
  const auto scores = hbc_scores(graph, communities);
  // B(0) = 0.5·(2/1) + 0.2·(4/1) = 1.8; members score their own value.
  // Edge weights are stored as float, so compare at float precision.
  EXPECT_NEAR(scores[0], 1.8, 1e-6);
  EXPECT_NEAR(scores[1], 2.0, 1e-6);
  EXPECT_NEAR(scores[2], 4.0, 1e-6);
}

TEST(Hbc, SelectsTopK) {
  GraphBuilder builder;
  builder.add_edge(0, 1, 0.5).add_edge(0, 2, 0.2);
  const Graph graph = builder.build();
  CommunitySet communities(3, {{1}, {2}});
  communities.set_benefit(0, 2.0);
  communities.set_benefit(1, 4.0);
  const auto seeds = hbc_select(graph, communities, 2);
  EXPECT_EQ(seeds, (std::vector<NodeId>{2, 1}));
  EXPECT_THROW((void)hbc_select(graph, communities, 0), std::invalid_argument);
}

TEST(Hbc, ThresholdDiscountsValue) {
  // Same benefit, bigger threshold -> smaller beneficial connection.
  GraphBuilder builder;
  builder.add_edge(6, 0, 1.0).add_edge(7, 3, 1.0);
  const Graph graph = builder.build();
  CommunitySet communities(8, {{0, 1, 2}, {3, 4, 5}});
  communities.set_threshold(0, 1);
  communities.set_threshold(1, 3);
  const auto scores = hbc_scores(graph, communities);
  EXPECT_GT(scores[6], scores[7]);
}

// ----------------------------------------------------------------- KS ----

TEST(Ks, KnapsackPicksOptimalSubset) {
  // costs (h): 2, 3, 4; values (b): 3, 4, 5; capacity 5 -> best = {0, 1}.
  CommunitySet communities(12, {{0, 1}, {2, 3, 4}, {5, 6, 7, 8}});
  communities.set_threshold(0, 2);
  communities.set_threshold(1, 3);
  communities.set_threshold(2, 4);
  communities.set_benefit(0, 3.0);
  communities.set_benefit(1, 4.0);
  communities.set_benefit(2, 5.0);
  const KnapsackPlan plan = knapsack_communities(communities, 5);
  EXPECT_DOUBLE_EQ(plan.total_value, 7.0);
  EXPECT_EQ(plan.chosen, (std::vector<CommunityId>{0, 1}));
  EXPECT_EQ(plan.total_cost, 5U);
}

TEST(Ks, KnapsackMatchesBruteForceOnRandomInstances) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(trial + 100);
    // 6 communities with random costs in [1,4], values in [1, 10].
    std::vector<std::vector<NodeId>> groups;
    NodeId next = 0;
    std::vector<std::uint32_t> costs;
    std::vector<double> values;
    for (int c = 0; c < 6; ++c) {
      const auto cost = 1 + static_cast<std::uint32_t>(rng.below(4));
      costs.push_back(cost);
      values.push_back(1.0 + static_cast<double>(rng.below(10)));
      auto& group = groups.emplace_back();
      for (std::uint32_t i = 0; i < cost; ++i) group.push_back(next++);
    }
    CommunitySet communities(next, std::move(groups));
    for (CommunityId c = 0; c < 6; ++c) {
      communities.set_threshold(c, costs[c]);
      communities.set_benefit(c, values[c]);
    }
    const std::uint32_t capacity = 6;
    const KnapsackPlan plan = knapsack_communities(communities, capacity);

    double brute_best = 0.0;
    for (int mask = 0; mask < 64; ++mask) {
      std::uint32_t cost = 0;
      double value = 0.0;
      for (int c = 0; c < 6; ++c) {
        if (mask & (1 << c)) {
          cost += costs[c];
          value += values[c];
        }
      }
      if (cost <= capacity) brute_best = std::max(brute_best, value);
    }
    EXPECT_DOUBLE_EQ(plan.total_value, brute_best) << "trial " << trial;
  }
}

TEST(Ks, SelectSeedsFromChosenCommunities) {
  CommunitySet communities(10, {{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}});
  communities.set_threshold(0, 2);
  communities.set_threshold(1, 4);
  communities.set_threshold(2, 3);
  communities.set_benefit(0, 5.0);
  communities.set_benefit(1, 1.0);
  communities.set_benefit(2, 4.0);
  Rng rng(1);
  const auto seeds = ks_select(communities, 5, rng);
  // Best plan: {C0 (2, 5), C2 (3, 4)} = value 9, cost 5 -> 5 seeds.
  EXPECT_EQ(seeds.size(), 5U);
  std::set<NodeId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 5U);
  int c0_members = 0, c2_members = 0;
  for (const NodeId v : seeds) {
    c0_members += (communities.community_of(v) == 0);
    c2_members += (communities.community_of(v) == 2);
  }
  EXPECT_EQ(c0_members, 2);
  EXPECT_EQ(c2_members, 3);
}

TEST(Ks, EmptyWhenNothingFits) {
  CommunitySet communities(4, {{0, 1, 2, 3}});
  communities.set_threshold(0, 4);
  Rng rng(2);
  EXPECT_TRUE(ks_select(communities, 3, rng).empty());
}

// ----------------------------------------------------------------- IM ----

TEST(ImRis, CoverageGreedyPicksStarCenter) {
  const Graph graph = test::star_graph(20, 1.0);
  RrPool pool(graph);
  Rng rng(3);
  pool.grow(300, rng);
  const auto seeds = rr_greedy_max_coverage(pool, 1);
  ASSERT_EQ(seeds.size(), 1U);
  EXPECT_EQ(seeds[0], 0U);
}

TEST(ImRis, FullSolverOnStar) {
  const Graph graph = test::star_graph(30, 0.8);
  ImRisConfig config;
  config.max_rr_sets = 50000;
  const ImRisResult result = im_ris_select(graph, 2, config);
  EXPECT_EQ(result.seeds.size(), 2U);
  EXPECT_EQ(result.seeds[0], 0U);  // hub always first
  // Spread ≈ 1 (hub) + 29·0.8 + 1 extra seed ≈ 24-25.
  EXPECT_GT(result.estimated_spread, 20.0);
  EXPECT_LT(result.estimated_spread, 30.0);
  EXPECT_GT(result.rr_sets_used, 0U);
}

TEST(ImRis, RejectsBadK) {
  const Graph graph = test::star_graph(5);
  EXPECT_THROW((void)im_ris_select(graph, 0), std::invalid_argument);
  EXPECT_THROW((void)im_ris_select(graph, 10), std::invalid_argument);
}

TEST(ImRis, TopsUpWhenPoolSparse) {
  // Edgeless graph: every RR set is a singleton; greedy still returns k
  // distinct seeds.
  GraphBuilder builder;
  builder.reserve_nodes(10);
  const Graph graph = builder.build();
  RrPool pool(graph);
  Rng rng(4);
  pool.grow(50, rng);
  const auto seeds = rr_greedy_max_coverage(pool, 5);
  const std::set<NodeId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 5U);
}

// ------------------------------------------------------------- simple ----

TEST(Simple, DegreeSelect) {
  const Graph graph = test::star_graph(10);
  const auto seeds = degree_select(graph, 3);
  ASSERT_EQ(seeds.size(), 3U);
  EXPECT_EQ(seeds[0], 0U);
  EXPECT_THROW((void)degree_select(graph, 0), std::invalid_argument);
}

TEST(Simple, RandomSelectDistinct) {
  const Graph graph = test::cycle_graph(20);
  Rng rng(5);
  const auto seeds = random_select(graph, 8, rng);
  const std::set<NodeId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 8U);
  for (const NodeId v : seeds) EXPECT_LT(v, 20U);
}

}  // namespace
}  // namespace imc
