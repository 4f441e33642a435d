// Regression pins for the MAXR selection pipeline across memory-layout
// changes: UBG and MAF seed sets on a fixed scenario must stay bit-identical
// to the expectations recorded BEFORE the flat CSR/SoA refactor, for the
// serial path and for parallel sweeps with 1, 2 and 8 workers. Any layout or
// hot-loop change that reorders a tie-break or perturbs a floating-point
// accumulation shows up here as a changed seed vector.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "community/threshold_policy.h"
#include "core/maf.h"
#include "core/ubg.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

class MaxrDeterminismTest : public ::testing::Test {
 protected:
  static Graph make_graph() {
    Rng rng(77);
    BarabasiAlbertConfig config;
    config.nodes = 150;
    config.attach = 3;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }

  /// Binds communities_ to threshold h and grows the pool. The pool holds
  /// references to graph_/communities_, so both live in the fixture.
  RicPool make_pool(std::uint32_t h) {
    communities_ = test::chunk_communities(150, 6);
    apply_constant_thresholds(communities_, h);
    apply_population_benefits(communities_);
    RicPool pool(graph_, communities_);
    pool.grow(1200, 11, /*parallel=*/false);
    return pool;
  }

  Graph graph_ = make_graph();
  CommunitySet communities_ = test::chunk_communities(150, 6);
};

/// Runs UBG and MAF at every pinned thread count and checks the seeds.
void expect_pinned_seeds(const RicPool& pool,
                         const std::vector<NodeId>& ubg_expected,
                         const std::vector<NodeId>& maf_expected) {
  for (const unsigned threads : {0U, 1U, 2U, 8U}) {
    ThreadPool workers(threads == 0 ? 1 : threads);
    GreedyOptions options;
    if (threads > 0) {
      options.parallel = true;
      options.pool = &workers;
      options.min_parallel_candidates = 1;  // force the parallel path
    }
    const UbgSolution ubg = ubg_solve(pool, 8, options);
    EXPECT_EQ(ubg.seeds, ubg_expected) << "UBG drifted at threads=" << threads;
    const MafSolution maf = maf_solve(pool, 8, /*seed=*/99, options);
    EXPECT_EQ(maf.seeds, maf_expected) << "MAF drifted at threads=" << threads;
  }
}

// Expected seed sets recorded under RNG contract v2 (geometric-skip
// live-edge realization, kRicSamplerRngContract). These are exact-equality
// pins, not statistical checks: any layout or sampler change that alters
// the per-sample draw sequence must bump the contract version and re-record
// them ONCE, with serial/parallel agreement verified at every thread count.
TEST_F(MaxrDeterminismTest, PinnedSeedsThresholdOne) {
  expect_pinned_seeds(make_pool(1), {1, 3, 0, 8, 10, 44, 37, 109},
                      {1, 3, 0, 10, 6, 8, 2, 4});
}

TEST_F(MaxrDeterminismTest, PinnedSeedsThresholdTwo) {
  expect_pinned_seeds(make_pool(2), {1, 3, 0, 10, 44, 6, 33, 4},
                      {1, 3, 0, 10, 6, 8, 2, 4});
}

// Pins across one doubling, as IMCAF's stages see them: the first-stage
// seeds on the original pool, then a solve on the grown pool must equal the
// same solve on an independently built pool with the same samples (the
// solvers read only the pool, never the history that grew it).
TEST_F(MaxrDeterminismTest, GrownPoolSolveMatchesRebuiltPool) {
  const std::vector<std::vector<NodeId>> ubg_stage1 = {
      {1, 3, 0, 8, 10, 44, 37, 109}, {1, 3, 0, 10, 44, 6, 33, 4}};
  const std::vector<NodeId> maf_stage1 = {1, 3, 0, 10, 6, 8, 2, 4};
  for (const std::uint32_t h : {1U, 2U}) {
    RicPool pool = make_pool(h);
    const GreedyOptions options;
    EXPECT_EQ(ubg_solve(pool, 8, options).seeds, ubg_stage1[h - 1])
        << "h=" << h;
    EXPECT_EQ(maf_solve(pool, 8, /*seed=*/99, options).seeds, maf_stage1)
        << "h=" << h;

    pool.grow(1200, 11, /*parallel=*/false);  // 1200 -> 2400 doubling
    RicPool fresh(graph_, communities_);
    fresh.grow(1200, 11, /*parallel=*/false);
    fresh.grow(1200, 11, /*parallel=*/false);
    const UbgSolution grown = ubg_solve(pool, 8, options);
    const UbgSolution rebuilt = ubg_solve(fresh, 8, options);
    EXPECT_EQ(grown.seeds, rebuilt.seeds) << "h=" << h;
    EXPECT_EQ(grown.c_hat, rebuilt.c_hat) << "h=" << h;
    EXPECT_EQ(grown.from_nu.seeds, rebuilt.from_nu.seeds) << "h=" << h;
    EXPECT_EQ(grown.from_nu.nu, rebuilt.from_nu.nu) << "h=" << h;

    const MafSolution maf_grown = maf_solve(pool, 8, /*seed=*/99, options);
    const MafSolution maf_rebuilt = maf_solve(fresh, 8, /*seed=*/99, options);
    EXPECT_EQ(maf_grown.seeds, maf_rebuilt.seeds) << "h=" << h;
    EXPECT_EQ(maf_grown.c_hat, maf_rebuilt.c_hat) << "h=" << h;
  }
}

}  // namespace
}  // namespace imc
