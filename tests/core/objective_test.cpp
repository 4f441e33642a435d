#include "core/objective.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "community/threshold_policy.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"

namespace imc {
namespace {

/// Deterministic fixture: certain edges make every sample identical, so
/// incremental state can be checked exactly.
///   relays: 6 -> {0,1}, 7 -> {2}, 8 -> {2,3}
///   C0 = {0, 1} (h=2), C1 = {2, 3} (h=1)
struct Fixture {
  Graph graph;
  CommunitySet communities;

  Fixture() {
    GraphBuilder builder;
    builder.reserve_nodes(9);
    builder.add_edge(6, 0, 1.0).add_edge(6, 1, 1.0);
    builder.add_edge(7, 2, 1.0);
    builder.add_edge(8, 2, 1.0).add_edge(8, 3, 1.0);
    graph = builder.build();
    communities = CommunitySet(9, {{0, 1}, {2, 3}});
    communities.set_threshold(0, 2);
    communities.set_threshold(1, 1);
  }
};

RicPool make_pool(const Fixture& fixture, std::uint64_t count = 200) {
  RicPool pool(fixture.graph, fixture.communities);
  pool.grow(count, 42);
  return pool;
}

TEST(CoverageState, EmptyState) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  EXPECT_EQ(state.influenced(), 0U);
  EXPECT_DOUBLE_EQ(state.nu_sum(), 0.0);
  EXPECT_DOUBLE_EQ(state.c_hat(), 0.0);
  EXPECT_TRUE(state.seeds().empty());
}

TEST(CoverageState, AddSeedMatchesPoolEvaluation) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  state.add_seed(6);
  state.add_seed(7);
  const std::vector<NodeId> seeds{6, 7};
  EXPECT_EQ(state.influenced(), pool.influenced_count(seeds));
  EXPECT_NEAR(state.c_hat(), pool.c_hat(seeds), 1e-12);
  EXPECT_NEAR(state.nu(), pool.nu(seeds), 1e-12);
}

/// The production ĉ gain row: accumulate_influenced_gains over the whole
/// pool, one entry per node.
std::vector<std::uint64_t> influenced_row(const CoverageState& state) {
  std::vector<std::uint64_t> gains(state.pool().graph().node_count(), 0);
  state.accumulate_influenced_gains(
      0, static_cast<std::uint32_t>(state.pool().size()), gains.data());
  return gains;
}

TEST(CoverageState, MarginalsMatchDifference) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  state.add_seed(7);
  const std::vector<std::uint64_t> row = influenced_row(state);
  for (const NodeId v : {0U, 1U, 2U, 6U, 8U}) {
    const std::uint64_t predicted = row[v];
    const double predicted_nu = state.marginal_nu(v);
    CoverageState copy(pool);
    copy.add_seed(7);
    copy.add_seed(v);
    EXPECT_EQ(copy.influenced() - state.influenced(), predicted)
        << "node " << v;
    EXPECT_NEAR(copy.nu_sum() - state.nu_sum(), predicted_nu, 1e-12);
  }
}

TEST(CoverageState, IdempotentSeedAddition) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  state.add_seed(6);
  const auto influenced = state.influenced();
  state.add_seed(6);
  EXPECT_EQ(state.influenced(), influenced);
  EXPECT_EQ(state.seeds().size(), 1U);
  EXPECT_EQ(influenced_row(state)[6], 0U);
  EXPECT_DOUBLE_EQ(state.marginal_nu(6), 0.0);
}

TEST(CoverageState, ResetClearsEverything) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  state.add_seed(6);
  state.add_seed(8);
  state.reset();
  EXPECT_EQ(state.influenced(), 0U);
  EXPECT_DOUBLE_EQ(state.nu_sum(), 0.0);
  EXPECT_TRUE(state.seeds().empty());
}

TEST(CoverageState, PartialCoverageCountsInNuOnly) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  // Node 0 covers only member 0 of C0 (h = 2): ĉ gains nothing, ν gains.
  state.add_seed(0);
  const std::uint64_t c0_samples = pool.community_frequency(0);
  EXPECT_EQ(state.influenced(), 0U);
  EXPECT_NEAR(state.nu_sum(), static_cast<double>(c0_samples) * 0.5, 1e-12);
}

TEST(CoverageState, NuAccumulationDoesNotDriftOverManySeeds) {
  // Regression: nu_sum_ used to accumulate raw incremental doubles while
  // RicPool::nu recomputes with a KahanSum — after hundreds of add_seed
  // deltas the two drifted apart. Both sides are compensated now.
  Rng rng(91);
  BarabasiAlbertConfig config;
  config.nodes = 400;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  const Graph graph(config.nodes, edges);
  CommunitySet communities = test::chunk_communities(config.nodes, 5);
  apply_constant_thresholds(communities, 2);
  apply_population_benefits(communities);
  RicPool pool(graph, communities);
  pool.grow(6000, 92);

  CoverageState state(pool);
  for (NodeId v = 0; v < config.nodes; ++v) {
    state.add_seed(v);
    if (state.seeds().size() % 50 == 0 || v + 1 == config.nodes) {
      const double reference = pool.nu(state.seeds());
      const double incremental = state.nu();
      const double scale = std::max(1.0, std::abs(reference));
      EXPECT_LE(std::abs(incremental - reference) / scale, 1e-12)
          << "after " << state.seeds().size() << " seeds";
    }
  }
}

TEST(CoverageState, ThresholdCrossingCounted) {
  const Fixture fixture;
  const RicPool pool = make_pool(fixture);
  CoverageState state(pool);
  state.add_seed(0);
  state.add_seed(1);  // C0 fully covered in its samples now
  EXPECT_EQ(state.influenced(), pool.community_frequency(0));
}

}  // namespace
}  // namespace imc
