// A one-worker ThreadPool is a parallel pool, not a serial one: the caller
// that waits on a parallel_for help-runs queued parts, so it samples beside
// the worker (DESIGN.md §15). Growth and delta repair on ThreadPool(1) must
// therefore take the part-split paths and still produce arenas and an
// index byte-identical to parallel=false, and a grow must finish on the
// caller alone while the only worker is held busy. Part of the concurrency
// binary, so TSan covers it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>

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

TEST(OneWorkerPool, GrowCompletesOnTheCallerWhileTheWorkerIsBusy) {
  const Graph graph = make_graph();
  const CommunitySet communities = make_communities();
  ThreadPool workers(1);
  RicPool pool(graph, communities);
  pool.grow(200, kSeed, /*parallel=*/false);

  // Park the only worker until the grow has returned.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> parked{false};
  std::future<void> blocker = workers.submit([released, &parked] {
    parked.store(true, std::memory_order_release);
    released.wait();
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();

  // The worker is parked, so the caller runs every part the grow queues
  // (1000 samples span several ~256-sample parts), the stitch and the
  // index merge.
  pool.grow(1000, kSeed, /*parallel=*/true, &workers);
  release.set_value();
  blocker.get();

  RicPool serial(graph, communities);
  serial.grow(1200, kSeed, /*parallel=*/false);
  test::expect_same_pool(pool, serial);
}

}  // namespace
}  // namespace imc
