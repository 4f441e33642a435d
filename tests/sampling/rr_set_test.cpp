#include "sampling/rr_set.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "diffusion/monte_carlo.h"
#include "graph/algorithms.h"
#include "test_support.h"

namespace imc {
namespace {

TEST(RrSet, ContainsRoot) {
  const Graph graph = test::cycle_graph(8, 0.5);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const RrSet set = generate_rr_set(graph, rng);
    EXPECT_TRUE(std::binary_search(set.nodes.begin(), set.nodes.end(),
                                   set.root));
  }
}

TEST(RrSet, CertainGraphGivesBackwardReachable) {
  const Graph graph = test::path_graph(6, 1.0);
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const RrSet set = generate_rr_set(graph, rng);
    const std::vector<NodeId> root{set.root};
    EXPECT_EQ(set.nodes, backward_reachable(graph, root));
  }
}

TEST(RrSet, ZeroWeightGivesSingleton) {
  const Graph graph = test::complete_graph(5, 0.0);
  Rng rng(3);
  const RrSet set = generate_rr_set(graph, rng);
  EXPECT_EQ(set.nodes.size(), 1U);
}

TEST(RrSet, EmptyGraphThrows) {
  Graph graph;
  Rng rng(4);
  EXPECT_THROW((void)generate_rr_set(graph, rng), std::invalid_argument);
}

TEST(RrPool, IndexConsistentWithSets) {
  const Graph graph = test::cycle_graph(10, 0.5);
  RrPool pool(graph);
  Rng rng(5);
  pool.grow(200, rng);
  ASSERT_EQ(pool.size(), 200U);
  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    for (const NodeId v : pool.set(i).nodes) {
      const auto& containing = pool.sets_containing(v);
      EXPECT_NE(std::find(containing.begin(), containing.end(), i),
                containing.end());
    }
  }
}

TEST(RrPool, SpreadEstimateMatchesMonteCarlo) {
  // The RIS identity: spread(S) = n * P(S hits a random RR set).
  const Graph graph = test::cycle_graph(16, 0.4);
  RrPool pool(graph);
  Rng rng(6);
  pool.grow(40000, rng);
  const std::vector<NodeId> seeds{0, 8};
  MonteCarloOptions options;
  options.simulations = 40000;
  const double mc = mc_expected_spread(graph, seeds, options);
  EXPECT_NEAR(pool.estimate_spread(seeds), mc, mc * 0.05);
}

TEST(RrPool, EmptyPoolEstimatesZero) {
  const Graph graph = test::path_graph(3);
  RrPool pool(graph);
  const std::vector<NodeId> seeds{0};
  EXPECT_DOUBLE_EQ(pool.estimate_spread(seeds), 0.0);
}

TEST(RrPool, IncrementalGeneration) {
  const Graph graph = test::path_graph(5, 0.5);
  RrPool pool(graph);
  Rng rng(7);
  pool.grow(10, rng);
  pool.grow(15, rng);
  EXPECT_EQ(pool.size(), 25U);
}

}  // namespace
}  // namespace imc
