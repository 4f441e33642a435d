#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/cli.h"

namespace imc {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1U, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> result = packaged->get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace([packaged] { (*packaged)(); });
    ++in_flight_;
  }
  task_ready_.notify_one();
  return result;
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();  // packaged_task captures exceptions into the future
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--in_flight_ == 0) idle_.notify_all();
  }
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::has_idle_worker() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return running_ + queue_.size() < workers_.size();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      ++running_;
    }
    task();  // packaged_task captures exceptions into the future
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

namespace {

/// Core help-running wait: spins between try_run_one and blocking waits
/// until `f` is ready. A task is always either done, running on some
/// worker, or in the queue — and queued tasks get run by this very loop,
/// so a caller that is itself a pool worker (a nested parallel_for) makes
/// progress instead of deadlocking behind its own tasks. Does NOT consume the future.
void help_until_ready(ThreadPool& pool, std::future<void>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    if (!pool.try_run_one()) {
      // Nothing left to help with: the task is running on a worker that
      // itself never blocks while the queue is non-empty, so this wait
      // terminates.
      f.wait();
    }
  }
}

/// Shared wait loop of the parallel_for variants: help-wait each chunk,
/// surfacing the first exception after all chunks finished.
void help_wait_all(ThreadPool& pool,
                   std::vector<std::future<void>>& pending) {
  std::exception_ptr first_error;
  for (auto& f : pending) {
    help_until_ready(pool, f);
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Runs task(i) for i in [0, count) on the pool and help-waits them all.
/// A task that cannot be queued (submit threw) runs on the calling thread,
/// and so does every later one. So past the up-front reserve, the only
/// throw before any task runs, each task runs exactly once and the call
/// throws only what a task threw (the lowest index first): a caller whose
/// tasks write in place (delta repair) is never left with a part of them
/// run.
void fan_out(ThreadPool& pool, std::uint64_t count,
             const std::function<void(std::uint64_t)>& task) {
  std::vector<std::future<void>> pending;
  pending.reserve(count);
  std::exception_ptr inline_error;
  std::uint64_t i = 0;
  try {
    for (; i < count; ++i) {
      pending.push_back(pool.submit([&task, i] { task(i); }));
    }
  } catch (...) {
    for (; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!inline_error) inline_error = std::current_exception();
      }
    }
  }
  help_wait_all(pool, pending);
  if (inline_error) std::rethrow_exception(inline_error);
}

}  // namespace

void help_wait(ThreadPool& pool, std::future<void>& pending) {
  help_until_ready(pool, pending);
  pending.get();
}

void fork_join(ThreadPool& pool, const std::function<void()>& main,
               const std::function<void()>& side) {
  if (!pool.has_idle_worker()) {
    main();
    side();
    return;
  }
  // `claimed` decides who runs `side`; a queued copy that loses is a no-op
  // that touches only this shared state, so the caller may return before
  // a worker pops it.
  struct Side {
    std::atomic<bool> claimed{false};
    std::promise<void> done;
  };
  auto state = std::make_shared<Side>();
  std::future<void> side_done = state->done.get_future();
  pool.submit([state, &side] {
    if (state->claimed.exchange(true)) return;
    try {
      side();
      state->done.set_value();
    } catch (...) {
      state->done.set_exception(std::current_exception());
    }
  });
  std::exception_ptr main_error;
  try {
    main();
  } catch (...) {
    main_error = std::current_exception();
  }
  if (!state->claimed.exchange(true)) {
    if (main_error) std::rethrow_exception(main_error);
    side();
    return;
  }
  // Another thread started `side` and finishes it on its own, so a plain
  // blocking wait cannot deadlock.
  side_done.wait();
  if (main_error) std::rethrow_exception(main_error);
  side_done.get();
}

void parallel_for(ThreadPool& pool, std::uint64_t count,
                  const std::function<void(std::uint64_t, std::uint64_t,
                                           unsigned)>& body) {
  if (count == 0) return;
  const auto workers = static_cast<std::uint64_t>(pool.size());
  // Over-decompose a little for load balance, but never create empty chunks.
  const std::uint64_t chunks = std::min<std::uint64_t>(count, workers * 4);
  const std::uint64_t base = count / chunks;
  const std::uint64_t remainder = count % chunks;
  fan_out(pool, chunks, [&](std::uint64_t c) {
    const std::uint64_t begin = c * base + std::min(c, remainder);
    const std::uint64_t end = begin + base + (c < remainder ? 1 : 0);
    body(begin, end, static_cast<unsigned>(c));
  });
}

void parallel_for_shards(ThreadPool& pool, unsigned shards,
                         const std::function<void(unsigned)>& body) {
  fan_out(pool, shards,
          [&](std::uint64_t s) { body(static_cast<unsigned>(s)); });
}

namespace {

std::atomic<unsigned>& default_pool_override() {
  static std::atomic<unsigned> threads{0};
  return threads;
}

std::atomic<bool>& default_pool_built() {
  static std::atomic<bool> built{false};
  return built;
}

unsigned default_pool_threads() {
  const unsigned requested = default_pool_override().load();
  if (requested > 0) return requested;
  const auto from_env = env_int("IMC_THREADS", 0);
  if (from_env > 0) return static_cast<unsigned>(from_env);
  return 0;  // ThreadPool ctor falls back to hardware_concurrency
}

}  // namespace

ThreadPool& default_pool() {
  default_pool_built().store(true);
  static ThreadPool pool(default_pool_threads());
  return pool;
}

bool set_default_pool_threads(unsigned threads) {
  if (default_pool_built().load()) return false;
  default_pool_override().store(threads);
  return true;
}

}  // namespace imc
