// When every community is a singleton with h = 1 and b = 1, IMC collapses
// to classic influence maximization: c(S) = E[#influenced communities]
// = expected spread over community members. With ALL nodes as singletons,
// c(S) = σ(S) exactly, RIC sampling degenerates to RIS, and ĉ_R and ν_R
// coincide (Lemma 4). This suite pins that degeneration down — it is the
// paper's "IM is a special case of IMC" claim made executable.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines/im_ris.h"
#include "core/greedy.h"
#include "core/ubg.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "sampling/rr_set.h"
#include "test_support.h"

namespace imc {
namespace {

Graph im_graph() {
  Rng rng(2718);
  BarabasiAlbertConfig config;
  config.nodes = 70;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

CommunitySet singleton_communities(NodeId n) {
  std::vector<std::vector<NodeId>> groups;
  groups.reserve(n);
  for (NodeId v = 0; v < n; ++v) groups.push_back({v});
  return CommunitySet(n, std::move(groups));  // h = 1, b = 1 defaults
}

TEST(ImEquivalence, BenefitEqualsSpread) {
  const Graph graph = im_graph();
  const CommunitySet singletons = singleton_communities(graph.node_count());
  MonteCarloOptions mc;
  mc.simulations = 30000;
  const std::vector<NodeId> seeds{0, 5, 11};
  const double spread = mc_expected_spread(graph, seeds, mc);
  const double benefit = mc_expected_benefit(graph, singletons, seeds, mc);
  // Identical per-run values under the same seed (both count active nodes).
  EXPECT_NEAR(benefit, spread, 1e-9);
}

TEST(ImEquivalence, RicEstimateMatchesRisEstimate) {
  const Graph graph = im_graph();
  const CommunitySet singletons = singleton_communities(graph.node_count());

  RicPool ric(graph, singletons);
  ric.grow(40000, 31);
  RrPool ris(graph);
  Rng rng(31);
  ris.grow(40000, rng);

  const std::vector<NodeId> seeds{0, 9, 23, 41};
  const double via_ric = ric.c_hat(seeds);
  const double via_ris = ris.estimate_spread(seeds);
  EXPECT_NEAR(via_ric, via_ris, std::max(1.0, via_ris * 0.05));
}

TEST(ImEquivalence, NuCollapsesOntoCHat) {
  const Graph graph = im_graph();
  const CommunitySet singletons = singleton_communities(graph.node_count());
  RicPool pool(graph, singletons);
  pool.grow(5000, 37);
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const auto seeds = rng.sample_without_replacement(graph.node_count(), 6);
    EXPECT_NEAR(pool.nu(seeds), pool.c_hat(seeds), 1e-9);
  }
}

TEST(ImEquivalence, UbgSeedsMatchImQuality) {
  const Graph graph = im_graph();
  const CommunitySet singletons = singleton_communities(graph.node_count());
  RicPool pool(graph, singletons);
  pool.grow(20000, 43);
  const UbgSolution ubg = ubg_solve(pool, 5);
  const ImRisResult im = im_ris_select(graph, 5);

  MonteCarloOptions mc;
  mc.simulations = 20000;
  const double ubg_spread = mc_expected_spread(graph, ubg.seeds, mc);
  const double im_spread = mc_expected_spread(graph, im.seeds, mc);
  EXPECT_NEAR(ubg_spread, im_spread, std::max(1.5, im_spread * 0.08));
}

TEST(ImEquivalence, SandwichRatioIsExactlyOne) {
  const Graph graph = im_graph();
  const CommunitySet singletons = singleton_communities(graph.node_count());
  RicPool pool(graph, singletons);
  pool.grow(3000, 47);
  const UbgSolution ubg = ubg_solve(pool, 4);
  EXPECT_NEAR(ubg.sandwich_ratio, 1.0, 1e-9);
}

}  // namespace
}  // namespace imc
