// A one-worker ThreadPool is a parallel pool, not a serial one: the caller
// that waits on a parallel_for help-runs queued parts, so it samples beside
// the worker (DESIGN.md §15). Growth, staging + commit and delta repair on
// ThreadPool(1) must therefore take the part-split paths and still produce
// arenas and an index byte-identical to parallel=false; a staging job
// must finish through the caller's join() even while the only worker is
// held busy, and the joining caller must sample beside the worker. Part of
// the concurrency binary, so TSan covers it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <utility>

#include "community/threshold_policy.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "sampling/pool_equality.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

constexpr std::uint64_t kSeed = 4242;

Graph make_graph() {
  Rng rng(91);
  BarabasiAlbertConfig config;
  config.nodes = 150;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

CommunitySet make_communities() {
  CommunitySet communities = test::chunk_communities(150, 6);
  apply_constant_thresholds(communities, 2);
  apply_population_benefits(communities);
  return communities;
}

TEST(OneWorkerPool, GrowMatchesSerial) {
  const Graph graph = make_graph();
  const CommunitySet communities = make_communities();
  ThreadPool workers(1);
  RicPool serial(graph, communities);
  RicPool lanes(graph, communities);
  // Two calls: the second merges into an existing index.
  for (const std::uint64_t count : {700U, 1100U}) {
    serial.grow(count, kSeed, /*parallel=*/false);
    lanes.grow(count, kSeed, /*parallel=*/true, &workers);
  }
  test::expect_same_pool(lanes, serial);
}

TEST(OneWorkerPool, StagedCommitMatchesSerialGrow) {
  const Graph graph = make_graph();
  const CommunitySet communities = make_communities();
  ThreadPool workers(1);
  RicPool serial(graph, communities);
  RicPool staged(graph, communities);
  serial.grow(300, kSeed, /*parallel=*/false);
  staged.grow(300, kSeed, /*parallel=*/false);
  // 1500 samples span several ~256-sample staging parts.
  serial.grow(1500, kSeed, /*parallel=*/false);
  PoolStagingArena staging;
  staged.stage_samples(1500, kSeed, /*parallel=*/true, &workers, {}, staging);
  ASSERT_TRUE(staging.complete());
  EXPECT_EQ(staging.staged_count(), 1500U);
  staged.commit_staged(std::move(staging), /*parallel=*/true, &workers);
  test::expect_same_pool(staged, serial);
  EXPECT_EQ(staged.grow_epoch(), serial.grow_epoch());
}

TEST(OneWorkerPool, RepairMatchesSerial) {
  Graph serial_graph = make_graph();
  CommunitySet serial_communities = make_communities();
  Graph lanes_graph = make_graph();
  CommunitySet lanes_communities = make_communities();
  ThreadPool workers(1);
  RicPool serial(serial_graph, serial_communities);
  RicPool lanes(lanes_graph, lanes_communities);
  serial.grow(1600, kSeed, /*parallel=*/false);
  lanes.grow(1600, kSeed, /*parallel=*/true, &workers);

  GraphDelta delta;
  delta.upsert_edge(4, 11, 0.6).remove_edge(0, 2).move_member(19, 1);
  const DeltaEffects serial_effects =
      apply_delta(serial_graph, serial_communities, delta);
  const DeltaEffects lanes_effects =
      apply_delta(lanes_graph, lanes_communities, delta);
  const RicPool::RepairStats serial_stats =
      serial.invalidate_and_repair(serial_effects, kSeed, /*parallel=*/false);
  const RicPool::RepairStats lanes_stats = lanes.invalidate_and_repair(
      lanes_effects, kSeed, /*parallel=*/true, &workers);
  EXPECT_EQ(lanes_stats.repaired, serial_stats.repaired);
  EXPECT_GT(lanes_stats.repaired, 3U);  // enough for several repair parts
  test::expect_same_pool(lanes, serial);
}

TEST(OneWorkerPool, StagingCompletesThroughCallerJoinWhileWorkerIsBusy) {
  const Graph graph = make_graph();
  const CommunitySet communities = make_communities();
  ThreadPool workers(1);
  RicPool pool(graph, communities);
  pool.grow(200, kSeed, /*parallel=*/false);

  // Park the only worker until the staging job has been joined.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> parked{false};
  std::future<void> blocker = workers.submit([released, &parked] {
    parked.store(true, std::memory_order_release);
    released.wait();
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();

  PoolStagingArena staging;
  BackgroundJob job = submit_job(
      workers, [&pool, &workers, &staging](const std::atomic<bool>& cancel) {
        pool.stage_samples(
            1000, kSeed, /*parallel=*/true, &workers,
            [&cancel] { return cancel.load(std::memory_order_acquire); },
            staging);
      });
  // The worker is parked, so the caller's join() runs the job body and
  // every part it queues.
  job.join();
  EXPECT_FALSE(job.skipped());
  EXPECT_TRUE(staging.complete());
  EXPECT_EQ(staging.staged_count(), 1000U);
  release.set_value();
  blocker.get();

  pool.commit_staged(std::move(staging), /*parallel=*/true, &workers);
  RicPool serial(graph, communities);
  serial.grow(1200, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, serial);
}

TEST(OneWorkerPool, CallerSamplesBesideTheWorker) {
  // The worker runs the staging job and stalls in its samples until the
  // caller has sampled too (or a 5 s deadline passes). Only a caller that
  // help-runs staging parts from join() releases it; with serial staging
  // on the worker the caller never samples and the stall times out.
  const Graph graph = make_graph();
  const CommunitySet communities = make_communities();
  ThreadPool workers(1);
  RicPool pool(graph, communities);
  const std::thread::id caller = std::this_thread::get_id();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<bool> worker_sampling{false};
  std::atomic<bool> caller_sampled{false};
  const auto stall_until_caller_samples = [&] {
    if (std::this_thread::get_id() == caller) {
      caller_sampled.store(true, std::memory_order_release);
      return false;
    }
    worker_sampling.store(true, std::memory_order_release);
    while (!caller_sampled.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return false;
  };

  PoolStagingArena staging;
  BackgroundJob job = submit_job(workers, [&](const std::atomic<bool>&) {
    pool.stage_samples(1000, kSeed, /*parallel=*/true, &workers,
                       stall_until_caller_samples, staging);
  });
  // Join once the worker is sampling: the job owns the worker and every
  // part it will queue is queued, so the caller can only sample by
  // help-running those parts.
  while (!worker_sampling.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  job.join();
  EXPECT_TRUE(caller_sampled.load(std::memory_order_acquire));
  ASSERT_TRUE(staging.complete());

  pool.commit_staged(std::move(staging), /*parallel=*/true, &workers);
  RicPool serial(graph, communities);
  serial.grow(1000, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, serial);
}

}  // namespace
}  // namespace imc
