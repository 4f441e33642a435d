// Linear-Threshold-mode reverse sampling (the paper's §II-A extension):
// RIC samples and RR sets drawn from the LT live-edge distribution.
#include <gtest/gtest.h>

#include <algorithm>

#include "community/threshold_policy.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "diffusion/monte_carlo.h"
#include "estimation/dagum.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "sampling/rr_set.h"
#include "test_support.h"
#include "testing/sample_pool.h"

namespace imc {
namespace {

Graph lt_ready_graph() {
  Rng rng(321);
  BarabasiAlbertConfig config;
  config.nodes = 60;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);  // in-weights sum to 1
  return Graph(config.nodes, edges);
}

TEST(RicLt, RejectsOverweightedGraphs) {
  GraphBuilder builder;
  builder.add_edge(0, 2, 0.8).add_edge(1, 2, 0.8);
  const Graph graph = builder.build();
  CommunitySet communities(3, {{2}});
  EXPECT_THROW(
      (void)RicSampler(graph, communities, DiffusionModel::kLinearThreshold),
      std::invalid_argument);
}

TEST(RicLt, SingleLiveInEdgePerNode) {
  // In LT mode every node realizes at most one in-edge, so for a singleton
  // source community the touched set is a PATH: |touching| nodes form a
  // chain, and each member mask is the community bit.
  const Graph graph = lt_ready_graph();
  CommunitySet communities(60, {{5}});
  RicSampler sampler(graph, communities, DiffusionModel::kLinearThreshold);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const testing::RicSample g = testing::draw_sample(sampler, rng);
    // All masks are bit 0 (single member); no node can appear twice.
    for (const auto& [node, mask] : g.touching) {
      (void)node;
      EXPECT_EQ(mask, 1ULL);
    }
  }
}

TEST(RicLt, UnbiasedAgainstForwardLtSimulation) {
  const Graph graph = lt_ready_graph();
  CommunitySet communities = test::chunk_communities(60, 6);
  apply_population_benefits(communities);
  apply_fraction_thresholds(communities, 0.5);

  RicPool pool(graph, communities, DiffusionModel::kLinearThreshold);
  pool.grow(60000, 9);

  MonteCarloOptions mc;
  mc.simulations = 60000;
  mc.model = DiffusionModel::kLinearThreshold;
  const std::vector<NodeId> seeds{0, 7, 21};
  const double forward = mc_expected_benefit(graph, communities, seeds, mc);
  const double reverse = pool.c_hat(seeds);
  EXPECT_NEAR(reverse, forward, std::max(0.5, forward * 0.08));
}

TEST(RicLt, MutuallyExclusiveParentsUnderLt) {
  // Member m with two in-edges of weight 0.5: under IC both parents touch
  // the sample with probability 0.25; under LT the live in-edge is unique,
  // so the parents NEVER touch together. This separates the two live-edge
  // distributions exactly.
  GraphBuilder builder;
  builder.reserve_nodes(3);
  builder.add_edge(1, 0, 0.5).add_edge(2, 0, 0.5);
  const Graph graph = builder.build();
  CommunitySet communities(3, {{0}});
  RicSampler ic(graph, communities, DiffusionModel::kIndependentCascade);
  RicSampler lt(graph, communities, DiffusionModel::kLinearThreshold);
  Rng rng_ic(2), rng_lt(2);
  int ic_both = 0, lt_both = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const testing::RicSample a = testing::draw_sample(ic, rng_ic);
    ic_both += (a.mask_of(1) != 0 && a.mask_of(2) != 0);
    const testing::RicSample b = testing::draw_sample(lt, rng_lt);
    lt_both += (b.mask_of(1) != 0 && b.mask_of(2) != 0);
  }
  EXPECT_NEAR(static_cast<double>(ic_both) / kDraws, 0.25, 0.01);
  EXPECT_EQ(lt_both, 0);
}

TEST(RrSetLt, IsABackwardPath) {
  const Graph graph = lt_ready_graph();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const RrSet set = generate_rr_set_lt(graph, rng);
    EXPECT_GE(set.nodes.size(), 1U);
    EXPECT_TRUE(std::binary_search(set.nodes.begin(), set.nodes.end(),
                                   set.root));
  }
}

TEST(RrSetLt, CertainChainFollowsPath) {
  // 0 -> 1 -> 2 with weight 1: RR set of root 2 is {0, 1, 2}.
  const Graph graph = test::path_graph(3, 1.0);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const RrSet set = generate_rr_set_lt(graph, rng);
    if (set.root == 2) {
      EXPECT_EQ(set.nodes, (std::vector<NodeId>{0, 1, 2}));
    }
  }
}

TEST(RicLt, DagumSupportsLt) {
  const Graph graph = test::path_graph(5, 1.0);  // in-weights exactly 1
  CommunitySet communities(5, {{4}});
  DagumOptions options;
  options.model = DiffusionModel::kLinearThreshold;
  const std::vector<NodeId> seeds{0};
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds, options);
  EXPECT_TRUE(estimate.converged);
  EXPECT_NEAR(estimate.value, 1.0, 0.01);
}

TEST(RicLt, ImcafEndToEndUnderLt) {
  const Graph graph = lt_ready_graph();
  CommunitySet communities = test::chunk_communities(60, 5);
  apply_population_benefits(communities);
  apply_constant_thresholds(communities, 2);

  MafSolver solver;
  ImcafConfig config;
  config.model = DiffusionModel::kLinearThreshold;
  config.max_samples = 3000;
  const ImcafResult result =
      imcaf_solve(graph, communities, 5, solver, config);
  EXPECT_FALSE(result.seeds.empty());

  MonteCarloOptions mc;
  mc.simulations = 20000;
  mc.model = DiffusionModel::kLinearThreshold;
  const double truth =
      mc_expected_benefit(graph, communities, result.seeds, mc);
  EXPECT_NEAR(result.estimated_benefit, truth, std::max(1.0, truth * 0.2));
}

}  // namespace
}  // namespace imc
