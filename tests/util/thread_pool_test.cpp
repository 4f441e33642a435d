#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace imc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1U);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 1000,
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 for (std::uint64_t i = begin; i < end; ++i) ++hits[i];
               });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0,
               [&](std::uint64_t, std::uint64_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeFewerChunksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  parallel_for(pool, 3,
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 total += static_cast<int>(end - begin);
               });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW((void)
      parallel_for(pool, 100,
                   [](std::uint64_t begin, std::uint64_t, unsigned) {
                     if (begin == 0) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ChunkIndicesAreDistinct) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<unsigned> chunks;
  parallel_for(pool, 64,
               [&](std::uint64_t, std::uint64_t, unsigned chunk) {
                 const std::lock_guard<std::mutex> lock(mutex);
                 chunks.push_back(chunk);
               });
  std::sort(chunks.begin(), chunks.end());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i], i);
  }
}

// Regression: a parallel_for issued from INSIDE a submitted task used to
// block in future::get() while its own chunks sat behind it in the queue —
// a guaranteed deadlock on a 1-thread pool. Help-running makes the waiting
// thread execute queued chunks itself.
TEST(ParallelFor, NestedInsideSubmittedTaskOneThread) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  auto done = pool.submit([&] {
    parallel_for(pool, 100,
                 [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                   total += static_cast<int>(end - begin);
                 });
  });
  done.get();
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, NestedInsideSubmittedTaskManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  // More outer tasks than workers, each fanning out again: every worker is
  // simultaneously a parallel_for caller.
  for (int t = 0; t < 8; ++t) {
    outer.push_back(pool.submit([&] {
      parallel_for(pool, 50,
                   [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                     total += static_cast<int>(end - begin);
                   });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ParallelFor, TwoLevelNestingInsideBody) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 6, [&](std::uint64_t begin, std::uint64_t end, unsigned) {
    for (std::uint64_t i = begin; i < end; ++i) {
      parallel_for(pool, 10,
                   [&](std::uint64_t b, std::uint64_t e, unsigned) {
                     total += static_cast<int>(e - b);
                   });
    }
  });
  EXPECT_EQ(total.load(), 60);
}

TEST(ParallelFor, NestedBodyExceptionStillPropagates) {
  ThreadPool pool(1);
  auto done = pool.submit([&] {
    parallel_for(pool, 10, [](std::uint64_t begin, std::uint64_t, unsigned) {
      if (begin == 0) throw std::runtime_error("inner chunk failed");
    });
  });
  EXPECT_THROW(done.get(), std::runtime_error);
}

TEST(ThreadPool, TryRunOneDrainsQueue) {
  ThreadPool pool(1);
  // Park the single worker so submissions stay queued. Wait until the
  // worker actually OWNS the parked task — otherwise try_run_one below
  // could pop it onto this thread and spin on `release` forever.
  std::atomic<bool> parked_started{false};
  std::atomic<bool> release{false};
  auto parked = pool.submit([&] {
    parked_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked_started.load()) std::this_thread::yield();
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(counter.load(), 5);
  release.store(true);
  parked.get();
  for (auto& f : futures) f.get();
  EXPECT_FALSE(pool.try_run_one());
}

/// Occupies the one worker of `pool` until `release` flips; returns once
/// the worker owns the parked task, so later submissions stay queued.
std::future<void> park_worker(ThreadPool& pool, std::atomic<bool>& release) {
  std::atomic<bool> started{false};
  auto parked = pool.submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  return parked;
}

TEST(ThreadPool, HasIdleWorkerCountsRunningTasks) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.has_idle_worker());
  std::atomic<bool> release{false};
  auto first = park_worker(pool, release);
  EXPECT_TRUE(pool.has_idle_worker());  // one running, one free
  auto second = park_worker(pool, release);
  EXPECT_FALSE(pool.has_idle_worker());
  auto queued = pool.submit([] {});
  EXPECT_FALSE(pool.has_idle_worker());
  release.store(true);
  first.get();
  second.get();
  queued.get();
  pool.wait_idle();
  EXPECT_TRUE(pool.has_idle_worker());
}

TEST(ForkJoin, WorkerRunsSideBesideMain) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id side_thread;
  std::atomic<bool> side_started{false};
  fork_join(
      pool,
      [&] {
        // Returns only once the idle worker took `side`.
        while (!side_started.load()) std::this_thread::yield();
      },
      [&] {
        side_thread = std::this_thread::get_id();
        side_started.store(true);
      });
  EXPECT_NE(side_thread, caller);
}

TEST(ForkJoin, CallerRunsSideWhenEveryWorkerIsBusy) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  auto parked = park_worker(pool, release);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id main_thread;
  std::thread::id side_thread;
  fork_join(
      pool, [&] { main_thread = std::this_thread::get_id(); },
      [&] { side_thread = std::this_thread::get_id(); });
  EXPECT_EQ(main_thread, caller);
  EXPECT_EQ(side_thread, caller);
  EXPECT_FALSE(pool.try_run_one());  // nothing was queued
  release.store(true);
  parked.get();
}

// The waiting caller must not absorb unrelated queued work: a task queued
// behind the running `side` stays for the worker.
TEST(ForkJoin, CallerWaitsForRunningSideWithoutHelpRunning) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> side_started{false};
  std::atomic<bool> main_done{false};
  std::thread::id unrelated_thread;
  std::future<void> unrelated;
  fork_join(
      pool,
      [&] {
        while (!side_started.load()) std::this_thread::yield();
        unrelated = pool.submit(
            [&] { unrelated_thread = std::this_thread::get_id(); });
        main_done.store(true);
      },
      [&] {
        side_started.store(true);
        while (!main_done.load()) std::this_thread::yield();
        // Long enough for a help-running caller to pop `unrelated`.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
  unrelated.get();
  EXPECT_NE(unrelated_thread, caller);
}

TEST(ForkJoin, MainExceptionSkipsOrWaitsOutSide) {
  {
    // Worker busy: `side` never runs.
    ThreadPool pool(1);
    std::atomic<bool> release{false};
    auto parked = park_worker(pool, release);
    std::atomic<int> side_runs{0};
    EXPECT_THROW(fork_join(
                     pool, [] { throw std::runtime_error("main failed"); },
                     [&side_runs] { ++side_runs; }),
                 std::runtime_error);
    release.store(true);
    parked.get();
    pool.wait_idle();
    EXPECT_EQ(side_runs.load(), 0);
  }
  {
    // Worker free: `side` is either skipped or finished before the throw.
    ThreadPool pool(1);
    std::atomic<bool> side_started{false};
    std::atomic<bool> side_finished{false};
    EXPECT_THROW(fork_join(
                     pool, [] { throw std::runtime_error("main failed"); },
                     [&] {
                       side_started.store(true);
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(10));
                       side_finished.store(true);
                     }),
                 std::runtime_error);
    EXPECT_EQ(side_started.load(), side_finished.load());
    pool.wait_idle();
  }
}

TEST(ForkJoin, SideExceptionPropagatesFromEitherLane) {
  const auto failing_side = [] { throw std::runtime_error("side failed"); };
  {
    // Worker parked: the caller runs `side`.
    ThreadPool pool(1);
    std::atomic<bool> release{false};
    auto parked = park_worker(pool, release);
    EXPECT_THROW(fork_join(pool, [] {}, failing_side), std::runtime_error);
    release.store(true);
    parked.get();
  }
  {
    // Worker idle: `side` runs there and its exception crosses over.
    ThreadPool pool(1);
    std::atomic<bool> side_started{false};
    EXPECT_THROW(fork_join(
                     pool,
                     [&] {
                       while (!side_started.load()) std::this_thread::yield();
                     },
                     [&] {
                       side_started.store(true);
                       throw std::runtime_error("side failed");
                     }),
                 std::runtime_error);
  }
}

TEST(ForkJoin, CalledFromTheOnlyWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<int> runs{0};
  auto outer = pool.submit([&] {
    fork_join(pool, [&runs] { ++runs; }, [&runs] { ++runs; });
  });
  outer.get();
  EXPECT_EQ(runs.load(), 2);
}

TEST(DefaultPool, IsSingleton) {
  EXPECT_EQ(&default_pool(), &default_pool());
  EXPECT_GE(default_pool().size(), 1U);
}

TEST(HelpWait, ReturnsAfterTaskAndConsumesFuture) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto future = pool.submit([&counter] { ++counter; });
  help_wait(pool, future);
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(future.valid());  // get() consumed it
}

TEST(HelpWait, RethrowsTaskException) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(help_wait(pool, future), std::runtime_error);
}

// The background-grow pattern: waiting from inside a pool task on a
// 1-thread pool must help-run the waited-on task instead of deadlocking
// behind it.
TEST(HelpWait, FromInsideWorkerHelpRuns) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto outer = pool.submit([&] {
    auto inner = pool.submit([&counter] { ++counter; });
    help_wait(pool, inner);
  });
  outer.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(BackgroundJob, RunsBodyAndJoins) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  BackgroundJob job = submit_job(
      pool, [&counter](const std::atomic<bool>&) { ++counter; });
  EXPECT_TRUE(job.valid());
  job.join();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(job.valid());  // join consumed the task
  EXPECT_TRUE(job.done());
  EXPECT_FALSE(job.skipped());
  job.join();  // idempotent
}

TEST(BackgroundJob, JoinRethrowsBodyException) {
  ThreadPool pool(1);
  BackgroundJob job = submit_job(pool, [](const std::atomic<bool>&) {
    throw std::runtime_error("job failed");
  });
  EXPECT_THROW(job.join(), std::runtime_error);
  EXPECT_TRUE(job.done());
}

TEST(BackgroundJob, CancelBeforeRunSkipsBody) {
  ThreadPool pool(1);
  // Park the worker so the job stays queued until after cancel().
  std::atomic<bool> parked_started{false};
  std::atomic<bool> release{false};
  auto parked = pool.submit([&] {
    parked_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked_started.load()) std::this_thread::yield();
  std::atomic<int> counter{0};
  BackgroundJob job = submit_job(
      pool, [&counter](const std::atomic<bool>&) { ++counter; });
  job.cancel();
  EXPECT_TRUE(job.cancelled());
  release.store(true);
  parked.get();
  job.join();
  EXPECT_TRUE(job.skipped());
  EXPECT_EQ(counter.load(), 0);
}

TEST(BackgroundJob, CancelFlagReachesRunningBody) {
  ThreadPool pool(2);
  std::atomic<bool> body_started{false};
  BackgroundJob job =
      submit_job(pool, [&body_started](const std::atomic<bool>& cancel) {
        body_started.store(true);
        while (!cancel.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
  while (!body_started.load()) std::this_thread::yield();
  job.cancel();
  job.join();  // terminates because the body saw the flag
  EXPECT_FALSE(job.skipped());
}

TEST(BackgroundJob, SubmittedAndJoinedFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto outer = pool.submit([&] {
    BackgroundJob job = submit_job(
        pool, [&counter](const std::atomic<bool>&) { ++counter; });
    job.join();  // help-runs on the 1-thread pool
  });
  outer.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(BackgroundJob, DestructorCancelsAndJoinsRunningBody) {
  ThreadPool pool(2);
  std::atomic<bool> body_started{false};
  std::atomic<bool> body_finished{false};
  {
    BackgroundJob job = submit_job(
        pool, [&body_started, &body_finished](const std::atomic<bool>& cancel) {
          body_started.store(true);
          while (!cancel.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          body_finished.store(true);
        });
    while (!body_started.load()) std::this_thread::yield();
    // Dropping the handle must cancel + wait, never abandon the body.
  }
  EXPECT_TRUE(body_finished.load());
}

TEST(BackgroundJob, DefaultConstructedIsInertlyJoinable) {
  BackgroundJob job;
  EXPECT_FALSE(job.valid());
  EXPECT_TRUE(job.done());
  EXPECT_FALSE(job.cancelled());
  EXPECT_FALSE(job.skipped());
  job.cancel();
  job.join();  // all no-ops
}

}  // namespace
}  // namespace imc
