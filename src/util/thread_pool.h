// Fixed-size worker pool with a blocking task queue, plus a `parallel_for`
// helper used for embarrassingly parallel work (RIC/RR sample generation,
// Monte-Carlo replications, greedy marginal-gain sweeps). On a single-core
// host the pool degenerates to one worker and adds negligible overhead.
//
// Nested use is safe: a `parallel_for` caller (including a pool worker whose
// task fans out again) help-runs queued tasks instead of blocking, so chunks
// queued behind the caller can never deadlock it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace imc {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task; the returned future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Pops and runs one queued task on the calling thread, if any is
  /// pending. Returns false when the queue was empty. This is the
  /// help-running primitive `parallel_for` uses while waiting on chunks so
  /// nested invocations cannot deadlock.
  bool try_run_one();

  /// Blocks until all tasks submitted so far have finished.
  void wait_idle();

  /// True when a task submitted now would start at once: more workers
  /// are free than tasks are queued. A snapshot — only a hint.
  [[nodiscard]] bool has_idle_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  std::size_t running_ = 0;  // tasks workers (not helpers) are running
  bool stopping_ = false;
};

/// Blocks until `pending` is ready, help-running queued tasks while
/// waiting (same no-deadlock argument as `parallel_for`: the task is
/// either queued — and this loop runs it — or running on a worker that
/// never blocks while the queue is non-empty). Calls `get()`, so the
/// task's exception (if any) rethrows here and the future is consumed.
void help_wait(ThreadPool& pool, std::future<void>& pending);

/// Handle to one cancellable task submitted via `submit_job` — the unit
/// the pipelined engine uses to overlap speculative sample generation
/// with the solve/estimate phases. The handle is the only way to observe
/// the task: `join()` help-runs until it finishes (so waiting from a pool
/// worker cannot deadlock) and rethrows the body's exception, `cancel()`
/// requests cooperative wind-down through the flag the body polls. A job
/// cancelled before a worker picks it up never runs its body at all
/// (`skipped()` reports that case). Destroying a valid handle cancels and
/// joins first (swallowing the body's exception) — the body may reference
/// caller state that dies with the owner's scope, so the handle never
/// abandons a running task; owners that care about the body's outcome
/// must `join()` explicitly.
class BackgroundJob {
 public:
  BackgroundJob() = default;
  BackgroundJob(BackgroundJob&&) noexcept = default;
  BackgroundJob& operator=(BackgroundJob&&) noexcept = default;
  BackgroundJob(const BackgroundJob&) = delete;
  BackgroundJob& operator=(const BackgroundJob&) = delete;
  ~BackgroundJob();

  /// True when this handle owns a submitted, not-yet-joined task.
  [[nodiscard]] bool valid() const noexcept { return future_.valid(); }

  /// Non-blocking: has the task finished (or been skipped)?
  [[nodiscard]] bool done() const;

  /// Requests cooperative cancellation: the body's `cancel` flag flips,
  /// and a body that has not started yet is skipped entirely. Does not
  /// wait — follow with `join()`.
  void cancel() noexcept;

  /// True once cancel() was called.
  [[nodiscard]] bool cancelled() const noexcept;

  /// True when cancel() won the race: the body never ran.
  [[nodiscard]] bool skipped() const noexcept;

  /// Blocks until the task finishes, help-running queued pool tasks while
  /// waiting; rethrows the body's exception. Idempotent (later calls are
  /// no-ops) and safe on a default-constructed handle.
  void join();

 private:
  friend BackgroundJob submit_job(
      ThreadPool& pool,
      std::function<void(const std::atomic<bool>& cancel)> body);

  struct State {
    std::atomic<bool> cancel{false};
    std::atomic<bool> skipped{false};
  };

  std::shared_ptr<State> state_;
  std::future<void> future_;
  ThreadPool* pool_ = nullptr;
};

/// Submits `body` as one pool task and returns its cancellation-aware
/// handle. The body receives the job's cancel flag and should poll it at
/// whatever granularity lets it wind down promptly; a body that ignores
/// the flag simply runs to completion (cancel then only matters for the
/// not-yet-started skip).
[[nodiscard]] BackgroundJob submit_job(
    ThreadPool& pool, std::function<void(const std::atomic<bool>& cancel)> body);

/// Two-lane fork/join: runs `main` on the caller and `side` beside it on
/// a free worker of `pool`, if there is one; with every worker busy the
/// caller runs `side` itself after `main` — the serial schedule, so the
/// pair is never slower than running both in turn, and a busy pool keeps
/// its workers on the work they have. `side` is also run by the caller
/// when no worker has started it by the time `main` returns. A caller
/// that finds `side` running on a worker waits for it without
/// help-running other queued tasks: that worker finishes `side` on its
/// own, and the call's wall time never absorbs unrelated queued work. If
/// `main` throws, a `side` nobody started is skipped, one already running
/// is waited out, and `main`'s exception propagates; otherwise `side`'s
/// exception does.
void fork_join(ThreadPool& pool, const std::function<void()>& main,
               const std::function<void()>& side);

/// Splits [0, count) into contiguous chunks and runs
/// `body(begin, end, chunk_index)` on pool workers; blocks until done.
/// Exceptions from the body propagate to the caller (first one wins).
void parallel_for(ThreadPool& pool, std::uint64_t count,
                  const std::function<void(std::uint64_t begin,
                                           std::uint64_t end,
                                           unsigned chunk_index)>& body);

/// Runs `body(shard)` for each shard in [0, shards) as ONE task per shard
/// — no chunk merging or splitting — and blocks until done. This is the
/// slab-affinity primitive of the sharded selection sweeps (DESIGN.md
/// §14): each shard owns a private accumulator row written by exactly one
/// task, and with shards == pool.size() the queue hands one slab to each
/// worker, so the covered/arena pages a worker faulted in under
/// first-touch are the pages it keeps sweeping. Exceptions propagate to
/// the caller (first one wins); the caller help-runs queued tasks while
/// waiting, so nested use cannot deadlock.
void parallel_for_shards(ThreadPool& pool, unsigned shards,
                         const std::function<void(unsigned shard)>& body);

/// Shared default pool. Lazily constructed on first use, sized from (in
/// priority order) `set_default_pool_threads`, the `IMC_THREADS` environment
/// variable, then std::thread::hardware_concurrency().
ThreadPool& default_pool();

/// Overrides the shared pool's thread count. Must be called before the
/// first `default_pool()` use (CLI startup); later calls are ignored once
/// the pool exists. Returns false when the override arrived too late.
bool set_default_pool_threads(unsigned threads);

}  // namespace imc
