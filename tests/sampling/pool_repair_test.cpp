// RicPool::invalidate_and_repair (DESIGN.md §16): a repaired pool must be
// bit-identical to rebuilding from scratch on the mutated graph/community
// structures with the same seed — arenas, metadata, counters and the CSR
// index alike — while regenerating only the affected samples. Also covers
// the epoch bump (carrier/staging invalidation), the snapshot interplay
// and ImcEngine::apply_delta end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/ubg.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "sampling/pool_equality.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

Graph make_graph(std::uint64_t seed = 77, NodeId nodes = 120) {
  Rng rng(seed);
  BarabasiAlbertConfig config;
  config.nodes = nodes;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

CommunitySet make_communities(NodeId nodes = 120, std::uint32_t h = 2) {
  CommunitySet communities = test::chunk_communities(nodes, 6);
  apply_constant_thresholds(communities, h);
  apply_population_benefits(communities);
  return communities;
}

constexpr std::uint64_t kSeed = 2024;
constexpr std::uint64_t kPoolSize = 1200;

std::string temp_snapshot(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("imc_repair_" + name + "." + std::to_string(::getpid()) + ".snap"))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Repairs `pool` for `delta` (applied to the structures first) and checks
/// it against a from-scratch rebuild of the same size.
void repair_and_compare(Graph& graph, CommunitySet& communities,
                        RicPool& pool, const GraphDelta& delta,
                        ThreadPool* workers = nullptr) {
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, workers != nullptr,
                                   workers);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(pool.size(), kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, EdgeDeltaRepairEqualsRebuild) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.upsert_edge(0, 57, 0.4).remove_edge(1, 0).upsert_edge(90, 3, 0.15);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  const RicPool::RepairStats stats =
      pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  EXPECT_EQ(stats.total, kPoolSize);
  EXPECT_GT(stats.repaired, 0U);
  EXPECT_LT(stats.repaired, kPoolSize);  // most samples must survive

  RicPool rebuilt(graph, communities);
  rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, MembershipMoveRepairEqualsRebuild) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.move_member(7, 5).move_member(30, 0);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  EXPECT_TRUE(effects.changed_in_nodes.empty());
  const RicPool::RepairStats stats =
      pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  // Exactly the samples sourced at the touched communities regenerate.
  std::uint64_t expected = 0;
  for (const CommunityId c : effects.changed_communities) {
    expected += pool.community_frequency(c);
  }
  EXPECT_EQ(stats.repaired, expected);

  RicPool rebuilt(graph, communities);
  rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, ParallelRepairMatchesSerialAndRebuild) {
  // The pool sizes straddle the 256-sample generation part. One worker is
  // the caller-plus-worker configuration: the two arena patches then run
  // on different threads.
  for (const std::uint64_t size :
       std::initializer_list<std::uint64_t>{1, 255, 256, 257, 1000,
                                            kPoolSize}) {
    for (const unsigned threads : {0U, 1U, 2U, 8U}) {  // 0 = serial
      SCOPED_TRACE("size=" + std::to_string(size) +
                   " threads=" + std::to_string(threads));
      Graph graph = make_graph();
      CommunitySet communities = make_communities();
      std::unique_ptr<ThreadPool> workers;
      if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
      const bool parallel = threads > 0;
      RicPool pool(graph, communities);
      pool.grow(size, kSeed, parallel, workers.get());

      GraphDelta delta;
      delta.upsert_edge(4, 11, 0.6).remove_edge(0, 2).move_member(19, 1);
      const DeltaEffects effects = apply_delta(graph, communities, delta);
      (void)pool.invalidate_and_repair(effects, kSeed, parallel,
                                       workers.get());

      RicPool rebuilt(graph, communities);
      rebuilt.grow(size, kSeed, /*parallel=*/false);
      test::expect_same_pool(pool, rebuilt);
      EXPECT_EQ(pool.grow_epoch(), (RicPool::PoolEpoch{size, 1, 1}));
    }
  }
}

TEST(PoolRepair, CountersRecomputedNotDrifted) {
  // Satellite regression: community_frequency must equal a fresh build
  // after moves shuffle sample sources around (a drifted counter would
  // poison MAF's frequency term silently).
  Graph graph = make_graph(31);
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(600, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.move_member(2, 3).move_member(40, 2).upsert_edge(5, 66, 0.3);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);

  RicPool fresh(graph, communities);
  fresh.grow(600, kSeed, /*parallel=*/false);
  std::uint64_t sum = 0;
  for (CommunityId c = 0; c < communities.size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), fresh.community_frequency(c))
        << "community " << c;
    sum += pool.community_frequency(c);
  }
  EXPECT_EQ(sum, pool.size());

  // ĉ and ν — the values CoverageState and the saturation sweeps derive —
  // agree with the fresh pool for a spread of seed sets.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto seeds = rng.sample_without_replacement(
        graph.node_count(), 1 + static_cast<std::uint32_t>(rng.below(6)));
    EXPECT_EQ(pool.c_hat(seeds), fresh.c_hat(seeds));
    EXPECT_EQ(pool.nu(seeds), fresh.nu(seeds));
  }
}

TEST(PoolRepair, RepairBumpsEpochEvenWhenNoSampleWasAffected) {
  Graph graph = test::path_graph(8, 0.5);
  CommunitySet communities(8, {{0, 1}, {6, 7}});
  RicPool pool(graph, communities);
  pool.grow(50, kSeed, /*parallel=*/false);
  const RicPool::PoolEpoch before = pool.grow_epoch();
  EXPECT_EQ(before, (RicPool::PoolEpoch{50, 1, 0}));

  // Inserting an edge into an untouched corner of the graph may repair
  // zero samples, but FUTURE samples could walk it: the epoch must bump so
  // staged arenas cannot survive.
  GraphDelta delta;
  delta.upsert_edge(2, 5, 0.0001);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  const RicPool::PoolEpoch after = pool.grow_epoch();
  EXPECT_EQ(after, (RicPool::PoolEpoch{50, 1, 1}));

  // An empty delta leaves the epoch alone.
  (void)pool.invalidate_and_repair(DeltaEffects{}, kSeed,
                                   /*parallel=*/false);
  EXPECT_EQ(pool.grow_epoch(), after);
}

TEST(PoolRepair, StagedArenaIsRejectedAfterRepair) {
  Graph graph = make_graph(11, 60);
  CommunitySet communities = make_communities(60, 1);
  RicPool pool(graph, communities);
  pool.grow(200, kSeed, /*parallel=*/false);

  PoolStagingArena staging;
  pool.stage_samples(100, kSeed, /*parallel=*/false, nullptr, [] {
    return false;
  }, staging);
  ASSERT_TRUE(staging.complete());

  GraphDelta delta;
  delta.upsert_edge(0, 59, 0.2);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  EXPECT_FALSE(staging.epoch() == pool.grow_epoch());
  EXPECT_THROW(pool.commit_staged(std::move(staging), /*parallel=*/false),
               std::invalid_argument);
  EXPECT_EQ(pool.size(), 200U);

  // Regrowing synchronously instead yields the rebuild-identical pool.
  pool.grow(100, kSeed, /*parallel=*/false);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(300, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, rebuilt);
}

TEST(PoolRepair, RepairRejectsInvariantBreakingDeltaUntouched) {
  // An LT pool whose delta pushes a node's in-weight sum past 1 must be
  // rejected by the sampler rebuild with the pool untouched.
  Graph graph = test::cycle_graph(6, 0.8);
  CommunitySet communities(6, {{0, 1, 2}, {3, 4, 5}});
  RicPool pool(graph, communities, DiffusionModel::kLinearThreshold);
  pool.grow(40, kSeed, /*parallel=*/false);

  GraphDelta delta;
  delta.upsert_edge(3, 1, 0.9);  // node 1 now sums 0.8 + 0.9 > 1
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  const RicPool::PoolEpoch before = pool.grow_epoch();
  EXPECT_THROW(
      (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false),
      std::invalid_argument);
  EXPECT_EQ(pool.grow_epoch(), before);  // epoch not bumped
  EXPECT_EQ(pool.size(), 40U);
}

TEST(PoolRepair, SnapshotPersistsRepairsEpoch) {
  Graph graph = make_graph(5, 60);
  CommunitySet communities = make_communities(60, 1);
  const Graph old_graph = graph;  // pre-delta copies: the stale snapshot
  const CommunitySet old_communities = communities;  // binds to THESE
  RicPool pool(graph, communities);
  pool.grow(150, kSeed, /*parallel=*/false);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("imc_repair_epoch." + std::to_string(::getpid()) + ".snap"))
          .string();
  save_ric_pool_snapshot(path, pool);  // saved with repairs == 0

  GraphDelta delta;
  delta.upsert_edge(0, 42, 0.3);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  const RicPool::PoolEpoch repaired = pool.grow_epoch();

  EXPECT_EQ(repaired, (RicPool::PoolEpoch{150, 1, 1}));

  // The stale pre-repair snapshot does not pass for the repaired pool: the
  // loaded epoch still says repairs == 0.
  const RicPool loaded =
      attach_ric_pool_snapshot(path, old_graph, old_communities);
  EXPECT_EQ(loaded.grow_epoch(), (RicPool::PoolEpoch{150, 1, 0}));

  // And a snapshot of the repaired pool round-trips the repairs counter.
  save_ric_pool_snapshot(path, pool);
  const RicPool reloaded =
      attach_ric_pool_snapshot(path, graph, communities);
  EXPECT_EQ(reloaded.grow_epoch(), repaired);
  test::expect_same_pool(pool, reloaded);
  std::filesystem::remove(path);
}

TEST(PoolRepair, AttachedPoolRepairEqualsRebuildAndLeavesTheFileAlone) {
  // A repair of an attached pool patches the arenas it read and must
  // equal a rebuild; the snapshot file must not change.
  for (const unsigned threads : {0U, 1U}) {
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    const std::string path =
        temp_snapshot("attached_" + std::to_string(threads));
    {
      RicPool pool(graph, communities);
      pool.grow(kPoolSize, kSeed, /*parallel=*/false);
      save_ric_pool_snapshot(path, pool);
    }
    const std::string before = file_bytes(path);
    RicPool attached = attach_ric_pool_snapshot(path, graph, communities);

    std::unique_ptr<ThreadPool> workers;
    if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
    GraphDelta delta;
    delta.upsert_edge(0, 57, 0.4).remove_edge(1, 0).move_member(19, 1);
    repair_and_compare(graph, communities, attached, delta, workers.get());
    EXPECT_EQ(file_bytes(path), before);
    std::filesystem::remove(path);
  }
}

TEST(PoolRepair, DeltaThenInverseRestoresThePoolByteForByte) {
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool original(graph, communities);
  original.grow(kPoolSize, kSeed, /*parallel=*/false);
  ThreadPool workers(1);
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/true, &workers);
  const std::uint64_t graph_before = graph.fingerprint();

  // Moving a community's last member out and back restores its member
  // order, and with it the mask-bit layout.
  const Neighbor removed = graph.in_neighbors(30)[0];
  const NodeId mover = communities.members(2).back();
  GraphDelta forward;
  forward.upsert_edge(5, 90, 0.7)
      .remove_edge(removed.node, 30)
      .move_member(mover, 4);
  GraphDelta inverse;
  inverse.remove_edge(5, 90)
      .upsert_edge(removed.node, 30, static_cast<double>(removed.weight))
      .move_member(mover, 2);
  ASSERT_FALSE(graph.has_edge(5, 90));

  repair_and_compare(graph, communities, pool, forward, &workers);
  repair_and_compare(graph, communities, pool, inverse, &workers);
  ASSERT_EQ(graph.fingerprint(), graph_before);
  test::expect_same_pool(pool, original);
}

TEST(PoolRepair, RepairsThatGrowAndShrinkTheArenasEqualRebuild) {
  // Cutting every in-edge of the busiest nodes shortens the walks through
  // them: the repaired samples shrink both arenas overall. Restoring the
  // edges at full weight makes them longer than before: both arenas grow
  // past their original size — here past their capacity too, so both
  // reallocate before the patch (the small deltas above grow the arenas
  // within it).
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);
  const std::uint64_t original_pairs = pool.sample_arena().size();

  std::vector<NodeId> hubs(graph.node_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) hubs[v] = v;
  std::sort(hubs.begin(), hubs.end(), [&](NodeId a, NodeId b) {
    return pool.appearance_count(a) > pool.appearance_count(b);
  });
  hubs.resize(4);
  GraphDelta cut;
  GraphDelta restore;
  for (const NodeId hub : hubs) {
    for (const Neighbor& in : graph.in_neighbors(hub)) {
      cut.remove_edge(in.node, hub);
      restore.upsert_edge(in.node, hub, 1.0);
    }
  }

  repair_and_compare(graph, communities, pool, cut);
  EXPECT_LT(pool.sample_arena().size(), original_pairs);
  EXPECT_EQ(pool.touch_arena().size(), pool.sample_arena().size());
  repair_and_compare(graph, communities, pool, restore);
  EXPECT_GT(pool.sample_arena().size(), original_pairs);
  EXPECT_EQ(pool.touch_arena().size(), pool.sample_arena().size());
}

TEST(PoolRepair, RepairOfTheFirstAndLastSamplesEqualsRebuild) {
  // The patch's boundary rows: sample 0 and the last sample in the
  // sample-major arena, node 0 and the last node in the CSR.
  Graph graph = make_graph();
  CommunitySet communities = make_communities();
  RicPool pool(graph, communities);
  pool.grow(kPoolSize, kSeed, /*parallel=*/false);
  const CommunityId first = pool.source_communities().front();
  const CommunityId last = pool.source_communities().back();
  const CommunityId other =
      first == last ? (first + 1) % communities.size() : last;

  const NodeId n = graph.node_count();
  GraphDelta delta;
  delta.move_member(communities.members(first).back(), other)
      .upsert_edge(0, n - 1, 1.0)
      .upsert_edge(n - 1, 0, 1.0);
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  (void)pool.invalidate_and_repair(effects, kSeed, /*parallel=*/false);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(kPoolSize, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, rebuilt);
  EXPECT_GT(pool.appearance_count(0), 0U);
  EXPECT_GT(pool.appearance_count(n - 1), 0U);
}

TEST(PoolRepair, GrowAfterRepairEqualsRebuildAtTheLargerSize) {
  for (const unsigned threads : {0U, 1U, 8U}) {
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    std::unique_ptr<ThreadPool> workers;
    if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
    RicPool pool(graph, communities);
    pool.grow(kPoolSize, kSeed, threads > 0, workers.get());

    GraphDelta delta;
    delta.upsert_edge(4, 11, 0.6).remove_edge(0, 2).move_member(19, 1);
    repair_and_compare(graph, communities, pool, delta, workers.get());
    pool.grow(kPoolSize / 2, kSeed, threads > 0, workers.get());

    RicPool rebuilt(graph, communities);
    rebuilt.grow(kPoolSize + kPoolSize / 2, kSeed, /*parallel=*/false);
    test::expect_same_pool(pool, rebuilt);
  }
}

TEST(PoolRepair, EngineApplyDeltaRepairsAndSolvesCold) {
  ImcafConfig config;
  config.max_samples = 3000;
  config.seed = kSeed;
  config.parallel_sampling = false;

  GraphDelta delta;
  delta.upsert_edge(2, 77, 0.5).remove_edge(1, 0).move_member(10, 4);
  const UbgSolver solver;

  // Run the solve → delta → solve sequence twice from scratch: the whole
  // dynamic path must be deterministic, and the engine pool must equal a
  // from-scratch rebuild on the mutated structures after the repair.
  ImcafResult results[2];
  std::uint64_t pool_sizes[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    ImcEngine engine(graph, communities, config);
    const ImcafResult first = engine.solve(8, solver);
    ASSERT_FALSE(first.seeds.empty());

    const RicPool::RepairStats stats =
        engine.apply_delta(graph, communities, delta);
    EXPECT_EQ(stats.total, engine.pool().size());
    if (run == 0) {
      RicPool rebuilt(graph, communities);
      rebuilt.grow(engine.pool().size(), kSeed, /*parallel=*/false);
      test::expect_same_pool(engine.pool(), rebuilt);
    }

    results[run] = engine.solve(8, solver);
    pool_sizes[run] = engine.pool().size();
    EXPECT_EQ(results[run].samples_used, pool_sizes[run]);
  }
  EXPECT_EQ(results[0].seeds, results[1].seeds);
  EXPECT_EQ(results[0].c_hat, results[1].c_hat);
  EXPECT_EQ(results[0].estimated_benefit, results[1].estimated_benefit);
  EXPECT_EQ(pool_sizes[0], pool_sizes[1]);
}

TEST(PoolRepair, EngineApplyDeltaChecksIdentity) {
  Graph graph = make_graph(3, 40);
  CommunitySet communities = make_communities(40, 1);
  ImcafConfig config;
  config.seed = kSeed;
  ImcEngine engine(graph, communities, config);
  Graph other = make_graph(3, 40);
  CommunitySet other_communities = make_communities(40, 1);
  GraphDelta delta;
  delta.upsert_edge(0, 1, 0.5);
  EXPECT_THROW((void)engine.apply_delta(other, communities, delta),
               std::invalid_argument);
  EXPECT_THROW((void)engine.apply_delta(graph, other_communities, delta),
               std::invalid_argument);
}

}  // namespace
}  // namespace imc
