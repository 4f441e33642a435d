// Property-based checks of the paper's structural results (Lemmas 2-5,
// non-submodularity, monotonicity) swept across random instances with
// TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "community/threshold_policy.h"
#include "core/objective.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "testing/sample_pool.h"

namespace imc {
namespace {

// Parameter: (rng seed, community size cap, constant threshold, model).
using PropertyParam = std::tuple<int, int, int, DiffusionModel>;

class PoolPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    const auto [seed, cap, threshold, model] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 17);
    BarabasiAlbertConfig config;
    config.nodes = 48;
    config.attach = 2;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    graph_ = Graph(config.nodes, edges);
    communities_ = test::chunk_communities(config.nodes,
                                           static_cast<NodeId>(cap));
    apply_population_benefits(communities_);
    apply_constant_thresholds(communities_,
                              static_cast<std::uint32_t>(threshold));
    pool_ = std::make_unique<RicPool>(graph_, communities_, model);
    pool_->grow(400, static_cast<std::uint64_t>(seed));
    rng_ = Rng(static_cast<std::uint64_t>(seed) + 99);
  }

  /// Random seed set of the given size.
  std::vector<NodeId> random_seeds(std::uint32_t count) {
    return rng_.sample_without_replacement(graph_.node_count(), count);
  }

  Graph graph_;
  CommunitySet communities_;
  std::unique_ptr<RicPool> pool_;
  Rng rng_{0};
};

TEST_P(PoolPropertyTest, CHatIsMonotone) {
  for (int trial = 0; trial < 10; ++trial) {
    auto big = random_seeds(8);
    std::vector<NodeId> small(big.begin(), big.begin() + 4);
    EXPECT_LE(pool_->c_hat(small), pool_->c_hat(big) + 1e-12);
  }
}

TEST_P(PoolPropertyTest, NuIsMonotone) {
  for (int trial = 0; trial < 10; ++trial) {
    auto big = random_seeds(8);
    std::vector<NodeId> small(big.begin(), big.begin() + 4);
    EXPECT_LE(pool_->nu(small), pool_->nu(big) + 1e-12);
  }
}

TEST_P(PoolPropertyTest, Lemma3NuUpperBoundsCHat) {
  for (int trial = 0; trial < 10; ++trial) {
    const auto seeds = random_seeds(1 + trial % 8);
    EXPECT_GE(pool_->nu(seeds) + 1e-12, pool_->c_hat(seeds));
  }
}

TEST_P(PoolPropertyTest, Lemma4EqualityAtThresholdOne) {
  const auto [seed, cap, threshold, model] = GetParam();
  (void)seed;
  (void)cap;
  (void)model;
  if (threshold != 1) GTEST_SKIP() << "only the h = 1 leg";
  for (int trial = 0; trial < 10; ++trial) {
    const auto seeds = random_seeds(1 + trial % 8);
    EXPECT_NEAR(pool_->nu(seeds), pool_->c_hat(seeds), 1e-9);
  }
}

TEST_P(PoolPropertyTest, NuIsSubmodular) {
  // ν(S ∪ {v}) − ν(S) >= ν(T ∪ {v}) − ν(T) for S ⊆ T, v ∉ T.
  for (int trial = 0; trial < 12; ++trial) {
    const auto base = random_seeds(7);
    const std::vector<NodeId> s(base.begin(), base.begin() + 3);
    const std::vector<NodeId> t(base.begin(), base.begin() + 6);
    const NodeId v = base[6];
    auto with = [&](std::vector<NodeId> set) {
      set.push_back(v);
      return set;
    };
    const double gain_s = pool_->nu(with(s)) - pool_->nu(s);
    const double gain_t = pool_->nu(with(t)) - pool_->nu(t);
    EXPECT_GE(gain_s + 1e-9, gain_t);
  }
}

TEST_P(PoolPropertyTest, CoverageStateAgreesWithPoolOnRandomSets) {
  for (int trial = 0; trial < 6; ++trial) {
    const auto seeds = random_seeds(5);
    CoverageState state(*pool_);
    for (const NodeId v : seeds) state.add_seed(v);
    EXPECT_NEAR(state.c_hat(), pool_->c_hat(seeds), 1e-12);
    EXPECT_NEAR(state.nu(), pool_->nu(seeds), 1e-12);
  }
}

TEST_P(PoolPropertyTest, Lemma5SandwichOnInfluencedCount) {
  // max_u |D(S,u)| <= Σ_g X_g(S) <= Σ_u |D(S,u)|.
  for (int trial = 0; trial < 6; ++trial) {
    const auto seeds = random_seeds(5);
    const std::uint64_t influenced = pool_->influenced_count(seeds);

    std::uint64_t max_d = 0, sum_d = 0;
    for (const NodeId u : seeds) {
      // D(S, u): samples u touches that S influences.
      std::uint64_t d = 0;
      for (const RicPool::Touch& touch : pool_->touches_of(u)) {
        const testing::RicSample g =
            testing::pool_sample(*pool_, touch.sample);
        if (g.members_reached(seeds) >= g.threshold) ++d;
      }
      max_d = std::max(max_d, d);
      sum_d += d;
    }
    EXPECT_LE(max_d, influenced);
    EXPECT_LE(influenced, sum_d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PoolPropertyTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),  // seeds
        ::testing::Values(4, 6),        // community cap
        ::testing::Values(1, 2, 3),     // threshold
        ::testing::Values(DiffusionModel::kIndependentCascade,
                          DiffusionModel::kLinearThreshold)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_cap" +
             std::to_string(std::get<1>(info.param)) + "_h" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ==
                      DiffusionModel::kIndependentCascade
                  ? "_ic"
                  : "_lt");
    });

// --- Lemma 2's explicit instance ------------------------------------------

TEST(PaperLemma2, SingleSampleCounterexample) {
  // A RIC sample whose community {u, v} has h = 2 and R(u) = {u},
  // R(v) = {v}: ĉ({u}) = ĉ({v}) = 0 but ĉ({u,v}) = 1 — non-submodular.
  GraphBuilder builder;
  builder.reserve_nodes(2);
  const Graph graph = builder.build();  // no edges
  CommunitySet communities(2, {{0, 1}});
  communities.set_threshold(0, 2);
  RicPool pool(graph, communities);
  pool.grow(1, 7);

  const std::vector<NodeId> u{0}, v{1}, uv{0, 1}, empty{};
  EXPECT_DOUBLE_EQ(pool.c_hat(u), 0.0);
  EXPECT_DOUBLE_EQ(pool.c_hat(v), 0.0);
  EXPECT_DOUBLE_EQ(pool.c_hat(uv), 1.0);
  // Submodularity would need ĉ({u}) − ĉ(∅) >= ĉ({u,v}) − ĉ({v}).
  EXPECT_LT(pool.c_hat(u) - pool.c_hat(empty),
            pool.c_hat(uv) - pool.c_hat(v));
}

// --- the Fig. 2-style supermodularity gadget -------------------------------

TEST(PaperFig2, CHatExhibitsSupermodularBehavior) {
  const test::NonSubmodularGadget gadget(0.3);
  RicPool pool(gadget.graph, gadget.communities);
  pool.grow(40000, 11);
  const std::vector<NodeId> a{0}, b{1}, ab{0, 1}, empty{};
  const double c_a = pool.c_hat(a);
  const double c_b = pool.c_hat(b);
  const double c_ab = pool.c_hat(ab);
  // Analytic: c({a}) = 0.09, c({a,b}) = 0.2601.
  EXPECT_NEAR(c_a, 0.09, 0.01);
  EXPECT_NEAR(c_ab, 0.2601, 0.015);
  EXPECT_GT(c_ab - c_a, c_b - 0.0 + 0.02);  // violates submodularity
}

}  // namespace
}  // namespace imc
