// Determinism contract of the parallel selection path: for every engine and
// every thread count, parallel greedy must return the BIT-IDENTICAL seed
// vector the serial sweep produces, and repeated runs must agree with
// themselves. UBG's two lanes — the ν branch on a free pool worker, the ĉ
// branch on the caller — must return what the two serial branches return,
// including when the caller has to run the ν branch itself. These tests
// are part of the `concurrency` ctest label and run under TSan in the
// -DIMC_SANITIZE=thread configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "community/threshold_policy.h"
#include "core/greedy.h"
#include "core/ubg.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

/// Seeded random BA graph + chunked communities + a grown pool.
RicPool make_pool(std::uint32_t h, std::uint64_t seed,
                  const Graph& graph, const CommunitySet& base) {
  CommunitySet communities = base;
  apply_constant_thresholds(communities, h);
  apply_population_benefits(communities);
  RicPool pool(graph, communities);
  pool.grow(1200, seed, /*parallel=*/false);
  return pool;
}

class ParallelGreedyTest : public ::testing::Test {
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

  Graph graph_ = make_graph();
  CommunitySet communities_ = test::chunk_communities(150, 6);
};

using Engine = GreedyResult (*)(const RicPool&, std::uint32_t,
                                const GreedyOptions&);

void expect_parallel_matches_serial(const RicPool& pool, Engine engine,
                                    const char* name) {
  const GreedyResult serial = engine(pool, 8, GreedyOptions{});
  ASSERT_EQ(serial.seeds.size(), 8U) << name;
  for (const unsigned threads : {1U, 2U, 8U}) {
    ThreadPool workers(threads);
    GreedyOptions options;
    options.parallel = true;
    options.pool = &workers;
    options.min_parallel_candidates = 1;  // force the parallel path
    const GreedyResult parallel = engine(pool, 8, options);
    EXPECT_EQ(parallel.seeds, serial.seeds)
        << name << " diverged at " << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.c_hat, serial.c_hat) << name;
    EXPECT_DOUBLE_EQ(parallel.nu, serial.nu) << name;
    // Same options twice: bit-identical with itself, not just with serial.
    const GreedyResult repeat = engine(pool, 8, options);
    EXPECT_EQ(repeat.seeds, parallel.seeds)
        << name << " not reproducible at " << threads << " threads";
  }
}

TEST_F(ParallelGreedyTest, GreedyCHatMatchesSerialAcrossThreadCounts) {
  for (const std::uint32_t h : {1U, 2U}) {
    for (const std::uint64_t seed : {11ULL, 22ULL}) {
      const RicPool pool = make_pool(h, seed, graph_, communities_);
      expect_parallel_matches_serial(pool, &greedy_c_hat, "greedy_c_hat");
    }
  }
}

TEST_F(ParallelGreedyTest, PlainGreedyNuMatchesSerialAcrossThreadCounts) {
  for (const std::uint32_t h : {1U, 2U}) {
    const RicPool pool = make_pool(h, 33, graph_, communities_);
    expect_parallel_matches_serial(pool, &plain_greedy_nu, "plain_greedy_nu");
  }
}

TEST_F(ParallelGreedyTest, CelfGreedyNuMatchesSerialAcrossThreadCounts) {
  for (const std::uint32_t h : {1U, 2U}) {
    const RicPool pool = make_pool(h, 44, graph_, communities_);
    expect_parallel_matches_serial(pool, &celf_greedy_nu, "celf_greedy_nu");
  }
}

TEST_F(ParallelGreedyTest, CelfParallelStillMatchesPlainGreedy) {
  // The burst refresh must not change which node CELF certifies as argmax.
  const RicPool pool = make_pool(2, 55, graph_, communities_);
  ThreadPool workers(4);
  GreedyOptions options;
  options.parallel = true;
  options.pool = &workers;
  options.min_parallel_candidates = 1;
  const GreedyResult celf = celf_greedy_nu(pool, 8, options);
  const GreedyResult plain = plain_greedy_nu(pool, 8, options);
  EXPECT_EQ(celf.seeds, plain.seeds);
}

TEST_F(ParallelGreedyTest, DefaultPoolPathWorks) {
  // options.pool == nullptr routes through default_pool().
  const RicPool pool = make_pool(1, 66, graph_, communities_);
  GreedyOptions options;
  options.parallel = true;
  options.min_parallel_candidates = 1;
  const GreedyResult parallel = greedy_c_hat(pool, 5, options);
  const GreedyResult serial = greedy_c_hat(pool, 5);
  EXPECT_EQ(parallel.seeds, serial.seeds);
}

void expect_same_greedy(const GreedyResult& a, const GreedyResult& b,
                        const char* what) {
  EXPECT_EQ(a.seeds, b.seeds) << what;
  EXPECT_EQ(a.c_hat, b.c_hat) << what;
  EXPECT_EQ(a.nu, b.nu) << what;
}

/// UBG's result against the two branches run back to back on the caller.
void expect_ubg_equals_serial_branches(const UbgSolution& ubg,
                                       const GreedyResult& c_hat,
                                       const GreedyResult& nu) {
  expect_same_greedy(ubg.from_c_hat, c_hat, "c_hat branch");
  expect_same_greedy(ubg.from_nu, nu, "nu branch");
  const bool c_hat_wins = c_hat.c_hat >= nu.c_hat;
  EXPECT_EQ(ubg.seeds, c_hat_wins ? c_hat.seeds : nu.seeds);
  EXPECT_EQ(ubg.c_hat, c_hat_wins ? c_hat.c_hat : nu.c_hat);
  EXPECT_EQ(ubg.sandwich_ratio, nu.nu > 0.0 ? nu.c_hat / nu.nu : 0.0);
}

/// Occupies the one worker of `workers` until the returned promise is
/// set: the pool has no free worker, and every job submitted meanwhile
/// stays queued. Returns once the worker is inside the blocking job.
std::promise<void> block_worker(ThreadPool& workers,
                                std::future<void>& blocker) {
  std::promise<void> release;
  auto started = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate = release.get_future().share();
  std::future<void> running = started->get_future();
  blocker = workers.submit([gate, started] {
    started->set_value();
    gate.wait();
  });
  running.wait();
  return release;
}

TEST_F(ParallelGreedyTest, UbgLanesMatchSerialBranches) {
  for (const std::uint32_t h : {1U, 2U}) {
    const RicPool pool = make_pool(h, 77, graph_, communities_);
    const GreedyResult c_hat = greedy_c_hat(pool, 8);
    const GreedyResult nu = celf_greedy_nu(pool, 8);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      for (const bool parallel : {false, true}) {
        GreedyOptions options;
        options.pool = &workers;
        options.parallel = parallel;
        options.min_parallel_candidates = 1;
        SCOPED_TRACE(::testing::Message() << "h=" << h << " threads="
                                          << threads << " parallel="
                                          << parallel);
        expect_ubg_equals_serial_branches(ubg_solve(pool, 8, options),
                                          c_hat, nu);
      }
    }
  }
}

TEST_F(ParallelGreedyTest, UbgCallerRunsNuWhenWorkerIsBusy) {
  const RicPool pool = make_pool(2, 88, graph_, communities_);
  const GreedyResult c_hat = greedy_c_hat(pool, 8);
  const GreedyResult nu = celf_greedy_nu(pool, 8);
  ThreadPool workers(1);
  std::future<void> blocker;
  std::promise<void> release = block_worker(workers, blocker);
  GreedyOptions options;
  options.pool = &workers;
  // The only worker is blocked until after the solve: the ν branch can
  // only finish because the caller runs it after ĉ.
  expect_ubg_equals_serial_branches(ubg_solve(pool, 8, options), c_hat, nu);
  EXPECT_FALSE(workers.try_run_one());  // nothing left behind
  release.set_value();
  blocker.get();
}

TEST_F(ParallelGreedyTest, UbgBadKThrowsFromCallerWithNoJob) {
  const RicPool pool = make_pool(1, 99, graph_, communities_);
  ThreadPool workers(1);
  std::future<void> blocker;
  std::promise<void> release = block_worker(workers, blocker);
  GreedyOptions options;
  options.pool = &workers;
  const std::uint32_t too_many = graph_.node_count() + 1;
  EXPECT_THROW((void)ubg_solve(pool, 0, options), std::invalid_argument);
  EXPECT_THROW((void)ubg_solve(pool, too_many, options),
               std::invalid_argument);
  // With the worker blocked, any submitted job would still be queued.
  EXPECT_FALSE(workers.try_run_one());
  release.set_value();
  blocker.get();
}

}  // namespace
}  // namespace imc
