// Pipelined-engine tests (DESIGN.md §15): the overlap scheduler, the
// staging-arena commit path, and the bit-identity contract between the
// pipelined and the serial schedule.
//
// The golden expectations reuse the engine pins from engine_test.cpp
// (recorded from the pre-engine driver): the pipelined engine must land on
// exactly those values at every thread count, with speculation enabled and
// disabled — the speculative batch uses the same RNG substreams and
// stitched order as the grow() it replaces, so no bit may move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "core/maxr_solver.h"
#include "core/ubg.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/context.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

class PipelineEngineTest : public ::testing::Test {
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

  static CommunitySet make_communities(std::uint32_t h) {
    CommunitySet communities = test::chunk_communities(150, 6);
    apply_constant_thresholds(communities, h);
    apply_population_benefits(communities);
    return communities;
  }

  /// The engine golden-pin configuration (see engine_test.cpp), with the
  /// pipeline toggled per test.
  static ImcafConfig pinned_config(bool pipeline) {
    ImcafConfig config;
    config.max_samples = 6000;
    config.seed = 2024;
    config.parallel_sampling = false;
    config.pipeline = pipeline;
    return config;
  }

  Graph graph_ = make_graph();
};

struct GoldenPin {
  std::uint32_t h;
  MaxrAlgorithm algorithm;
  std::vector<NodeId> seeds;
  double c_hat;  // exact hexfloat value on the final pool
};

// The UBG/MAF engine pins from engine_test.cpp (same recording).
const std::vector<GoldenPin>& golden_pins() {
  static const std::vector<GoldenPin> pins = {
      {1, MaxrAlgorithm::kUbg, {1, 3, 0, 6, 8, 40, 97, 10},
       0x1.2373333333333p+7},
      {1, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4}, 0x1.22cp+7},
      {2, MaxrAlgorithm::kUbg, {1, 3, 0, 8, 6, 10, 20, 40}, 0x1.fap+6},
      {2, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.f59999999999ap+6},
  };
  return pins;
}

TEST_F(PipelineEngineTest, GoldenPinsHoldAtEveryThreadCountOnAndOff) {
  for (const GoldenPin& pin : golden_pins()) {
    const CommunitySet communities = make_communities(pin.h);
    const auto solver = make_maxr_solver(pin.algorithm);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      ExecutionContext context;
      context.workers = &workers;
      for (const bool pipeline : {true, false}) {
        ImcEngine engine(graph_, communities, pinned_config(pipeline),
                         context);
        const ImcafResult result = engine.solve(8, *solver);
        const std::string where = "h=" + std::to_string(pin.h) + " " +
                                  to_string(pin.algorithm) + " threads=" +
                                  std::to_string(threads) +
                                  (pipeline ? " pipelined" : " serial");
        EXPECT_EQ(result.seeds, pin.seeds) << where;
        EXPECT_EQ(result.samples_used, 6000U) << where;
        EXPECT_EQ(result.stop_stages, 3U) << where;
        EXPECT_EQ(result.c_hat, pin.c_hat) << where;
        EXPECT_EQ(engine.pool().grow_epoch(),
                  (RicPool::PoolEpoch{6000, 3})) << where;
      }
    }
  }
}

TEST_F(PipelineEngineTest, PipelinedRunBitMatchesSerialRun) {
  // Full-result comparison (not just the pinned fields): every numeric
  // output, including the independent Dagum estimate, must be bitwise
  // equal between the two schedules.
  for (const std::uint32_t h : {1U, 2U}) {
    const CommunitySet communities = make_communities(h);
    const UbgSolver solver;
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      ExecutionContext context;
      context.workers = &workers;
      ImcEngine pipelined(graph_, communities, pinned_config(true), context);
      ImcEngine serial(graph_, communities, pinned_config(false), context);
      const ImcafResult a = pipelined.solve(8, solver);
      const ImcafResult b = serial.solve(8, solver);
      const std::string where =
          "h=" + std::to_string(h) + " threads=" + std::to_string(threads);
      EXPECT_EQ(a.seeds, b.seeds) << where;
      EXPECT_EQ(a.c_hat, b.c_hat) << where;
      EXPECT_EQ(a.estimated_benefit, b.estimated_benefit) << where;
      EXPECT_EQ(a.samples_used, b.samples_used) << where;
      EXPECT_EQ(a.stop_stages, b.stop_stages) << where;
      EXPECT_EQ(pipelined.pool().grow_epoch(), serial.pool().grow_epoch())
          << where;
      EXPECT_EQ(b.speculative_samples_committed, 0U) << where;
      EXPECT_EQ(b.overlap_seconds, 0.0) << where;
    }
  }
}

TEST_F(PipelineEngineTest, CommitStagedIsBitIdenticalToGrow) {
  const CommunitySet communities = make_communities(2);
  ThreadPool workers(3);

  RicPool grown(graph_, communities);
  grown.grow(300, 2024, /*parallel=*/false);
  grown.grow(200, 2024, /*parallel=*/true, &workers);

  RicPool staged_pool(graph_, communities);
  staged_pool.grow(300, 2024, /*parallel=*/false);
  PoolStagingArena staging;
  staged_pool.stage_samples(200, 2024, /*parallel=*/true, &workers, {},
                            staging);
  EXPECT_TRUE(staging.complete());
  EXPECT_EQ(staging.base(), 300U);
  EXPECT_EQ(staging.count(), 200U);
  EXPECT_EQ(staging.staged_count(), 200U);
  // Staging must not touch the live pool.
  EXPECT_EQ(staged_pool.size(), 300U);
  EXPECT_EQ(staged_pool.grow_epoch(), (RicPool::PoolEpoch{300, 1}));
  staged_pool.commit_staged(std::move(staging), /*parallel=*/true, &workers);
  EXPECT_EQ(staging.staged_count(), 0U);  // consumed

  // Content and watermark both bit-match the direct growth.
  EXPECT_EQ(staged_pool.grow_epoch(), grown.grow_epoch());
  const RicPool::SnapshotView a = staged_pool.snapshot_view();
  const RicPool::SnapshotView b = grown.snapshot_view();
  ASSERT_EQ(a.thresholds.size(), b.thresholds.size());
  for (std::size_t i = 0; i < a.thresholds.size(); ++i) {
    ASSERT_EQ(a.thresholds[i], b.thresholds[i]) << "sample " << i;
    ASSERT_EQ(a.source_community[i], b.source_community[i]) << "sample " << i;
  }
  ASSERT_EQ(a.sample_arena.size(), b.sample_arena.size());
  for (std::size_t i = 0; i < a.sample_arena.size(); ++i) {
    ASSERT_EQ(a.sample_arena[i], b.sample_arena[i]) << "arena entry " << i;
  }
  ASSERT_EQ(a.sample_offsets.size(), b.sample_offsets.size());
  for (std::size_t i = 0; i < a.sample_offsets.size(); ++i) {
    ASSERT_EQ(a.sample_offsets[i], b.sample_offsets[i]) << "offset " << i;
  }
  ASSERT_EQ(a.touches.size(), b.touches.size());
  for (std::size_t i = 0; i < a.touches.size(); ++i) {
    ASSERT_EQ(a.touches[i].sample, b.touches[i].sample) << "touch " << i;
    ASSERT_EQ(a.touches[i].mask, b.touches[i].mask) << "touch " << i;
  }
}

TEST_F(PipelineEngineTest, CommitStagedRejectsStaleArena) {
  const CommunitySet communities = make_communities(1);
  RicPool pool(graph_, communities);
  pool.grow(100, 7, /*parallel=*/false);
  PoolStagingArena staging;
  pool.stage_samples(50, 7, /*parallel=*/false, nullptr, {}, staging);
  EXPECT_TRUE(staging.complete());
  // The pool moved on: the staged batch's base/epoch no longer match.
  pool.grow(10, 7, /*parallel=*/false);
  EXPECT_THROW(pool.commit_staged(std::move(staging)), std::invalid_argument);
  EXPECT_EQ(pool.size(), 110U);  // rejected commit left the pool untouched
}

TEST_F(PipelineEngineTest, CommitStagedRejectsCancelledStaging) {
  const CommunitySet communities = make_communities(1);
  RicPool pool(graph_, communities);
  pool.grow(100, 7, /*parallel=*/false);
  PoolStagingArena staging;
  std::atomic<std::uint64_t> polls{0};
  // Cancel after a few samples: the arena stays incomplete and partial.
  pool.stage_samples(
      50, 7, /*parallel=*/false, nullptr, [&polls] { return ++polls > 5; },
      staging);
  EXPECT_FALSE(staging.complete());
  EXPECT_LT(staging.staged_count(), 50U);
  EXPECT_EQ(pool.size(), 100U);
  EXPECT_EQ(pool.grow_epoch(), (RicPool::PoolEpoch{100, 1}));
  EXPECT_THROW(pool.commit_staged(std::move(staging)), std::invalid_argument);
}

TEST_F(PipelineEngineTest, StagedBatchEquivalenceUnderCancelAndRetry) {
  // A discarded speculation loses work, never determinism: re-staging the
  // same batch after a cancelled attempt produces the identical pool.
  const CommunitySet communities = make_communities(2);
  RicPool pool(graph_, communities);
  pool.grow(120, 99, /*parallel=*/false);

  PoolStagingArena staging;
  std::atomic<std::uint64_t> polls{0};
  pool.stage_samples(
      80, 99, /*parallel=*/false, nullptr, [&polls] { return ++polls > 10; },
      staging);
  EXPECT_FALSE(staging.complete());
  staging.clear();

  pool.stage_samples(80, 99, /*parallel=*/false, nullptr, {}, staging);
  ASSERT_TRUE(staging.complete());
  pool.commit_staged(std::move(staging), /*parallel=*/false);

  RicPool reference(graph_, communities);
  reference.grow(120, 99, /*parallel=*/false);
  reference.grow(80, 99, /*parallel=*/false);
  EXPECT_EQ(pool.grow_epoch(), reference.grow_epoch());
  const RicPool::SnapshotView a = pool.snapshot_view();
  const RicPool::SnapshotView b = reference.snapshot_view();
  ASSERT_EQ(a.sample_arena.size(), b.sample_arena.size());
  for (std::size_t i = 0; i < a.sample_arena.size(); ++i) {
    ASSERT_EQ(a.sample_arena[i], b.sample_arena[i]) << "arena entry " << i;
  }
}

TEST_F(PipelineEngineTest, MetricsRecordCommittedSpeculation) {
  const CommunitySet communities = make_communities(2);
  const UbgSolver solver;
  ThreadPool workers(2);
  RecordingMetricsSink sink;
  ExecutionContext context;
  context.workers = &workers;
  context.metrics = &sink;
  ImcEngine engine(graph_, communities, pinned_config(true), context);
  const ImcafResult result = engine.solve(8, solver);

  const std::vector<StageMetrics> rows = sink.stages();
  ASSERT_EQ(rows.size(), result.stop_stages);
  ASSERT_EQ(rows.size(), 3U);
  // Stage 1 grew synchronously; stages 2 and 3 rode committed speculation
  // (the pinned schedule never stops before the cap, so no speculation is
  // ever discarded here).
  EXPECT_FALSE(rows[0].pipelined);
  EXPECT_EQ(rows[0].speculative_samples_committed, 0U);
  std::uint64_t committed = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].pipelined) << "stage " << i + 1;
    EXPECT_EQ(rows[i].speculative_samples_committed, rows[i].samples_added)
        << "stage " << i + 1;
    EXPECT_EQ(rows[i].pool_size, rows[i - 1].pool_size + rows[i].samples_added)
        << "stage " << i + 1;
    EXPECT_GE(rows[i].overlap_seconds, 0.0) << "stage " << i + 1;
    EXPECT_GT(rows[i].sampling_seconds, 0.0) << "stage " << i + 1;
    committed += rows[i].speculative_samples_committed;
  }
  EXPECT_EQ(result.speculative_samples_committed, committed);
  EXPECT_EQ(result.speculative_samples_discarded, 0U);
  EXPECT_GE(result.overlap_seconds, 0.0);
  EXPECT_EQ(result.samples_used, 6000U);
}

TEST_F(PipelineEngineTest, SerialScheduleReportsNoSpeculation) {
  const CommunitySet communities = make_communities(2);
  const UbgSolver solver;
  RecordingMetricsSink sink;
  ExecutionContext context;
  context.metrics = &sink;
  ImcEngine engine(graph_, communities, pinned_config(false), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_EQ(result.speculative_samples_committed, 0U);
  EXPECT_EQ(result.speculative_samples_discarded, 0U);
  EXPECT_EQ(result.overlap_seconds, 0.0);
  for (const StageMetrics& row : sink.stages()) {
    EXPECT_FALSE(row.pipelined);
    EXPECT_EQ(row.overlap_seconds, 0.0);
    EXPECT_EQ(row.speculative_samples_committed, 0U);
    EXPECT_EQ(row.speculative_samples_discarded, 0U);
  }
}

TEST_F(PipelineEngineTest, CancellationDiscardsInFlightSpeculation) {
  // Cancel before the run starts: stage 1 still completes (stopping is
  // only checked after a solve), its speculation is cancelled and
  // discarded, and the result matches the serial schedule's partial
  // result bit for bit.
  const CommunitySet communities = make_communities(2);
  const UbgSolver solver;
  std::atomic<bool> cancel{true};
  ThreadPool workers(2);

  ExecutionContext cancelled_context;
  cancelled_context.workers = &workers;
  cancelled_context.cancel = &cancel;
  ImcEngine pipelined(graph_, communities, pinned_config(true),
                      cancelled_context);
  const ImcafResult a = pipelined.solve(8, solver);
  EXPECT_TRUE(a.reached_deadline);
  EXPECT_EQ(a.stop_stages, 1U);
  EXPECT_EQ(a.speculative_samples_committed, 0U);
  EXPECT_EQ(pipelined.pool().grow_epoch(),
            (RicPool::PoolEpoch{a.samples_used, 1}));

  ImcEngine serial(graph_, communities, pinned_config(false),
                   cancelled_context);
  const ImcafResult b = serial.solve(8, solver);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.c_hat, b.c_hat);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(pipelined.pool().grow_epoch(), serial.pool().grow_epoch());
}

TEST_F(PipelineEngineTest, SolveManyPipelinedMatchesSerial) {
  // Queries share one pool: the second query's stage-1 solve sees whatever
  // the first grew. Pipelining must preserve that hand-off exactly.
  const CommunitySet communities = make_communities(1);
  const UbgSolver ubg;
  const MafSolver maf;
  const std::vector<EngineQuery> queries = {{8, &ubg}, {5, &maf}};
  ThreadPool workers(2);
  ExecutionContext context;
  context.workers = &workers;
  ImcEngine pipelined(graph_, communities, pinned_config(true), context);
  ImcEngine serial(graph_, communities, pinned_config(false), context);
  const std::vector<ImcafResult> a = pipelined.solve_many(queries);
  const std::vector<ImcafResult> b = serial.solve_many(queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seeds, b[i].seeds) << "query " << i;
    EXPECT_EQ(a[i].c_hat, b[i].c_hat) << "query " << i;
    EXPECT_EQ(a[i].samples_used, b[i].samples_used) << "query " << i;
    EXPECT_EQ(a[i].stop_stages, b[i].stop_stages) << "query " << i;
  }
  EXPECT_EQ(pipelined.pool().grow_epoch(), serial.pool().grow_epoch());
}

}  // namespace
}  // namespace imc
