// ExecutionContext — the cross-cutting execution environment the staged
// engine (core/engine.h) threads through sampling, solving and estimation:
// a thread-pool handle, a wall-clock Deadline, an optional cooperative
// cancellation flag, deterministic splitmix RNG substream derivation, and a
// pluggable MetricsSink that records one StageMetrics row per stop stage.
//
// The context is a plain value: cheap to copy, no ownership of the pool or
// the cancel flag (both are borrowed for the duration of the run). A
// default-constructed context means "no deadline, no cancellation, default
// thread pool, no metrics" — exactly the pre-engine behaviour, so passing
// one through changes nothing observable.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

#include "util/stopwatch.h"

namespace imc {

class ThreadPool;

/// One stop stage of an IMCAF run, as recorded by the engine: how much the
/// pool grew before the solve, how long each phase took, and how the stage
/// ended. Timings are wall-clock seconds. The ImcafResult totals are the
/// sums of these rows; the last row also carries the independent estimate
/// a cap or deadline exit draws after the loop.
struct StageMetrics {
  std::uint32_t stage = 0;             // 1-based stop-stage index
  std::uint64_t pool_size = 0;         // |R| the solver saw
  std::uint64_t samples_added = 0;     // fresh samples grown for this stage
  double sampling_seconds = 0.0;       // time inside pool.grow()
  double solver_seconds = 0.0;         // time inside the MAXR solve
  double estimate_seconds = 0.0;       // time inside the Dagum Estimate
  std::uint64_t estimate_samples = 0;  // T drawn by the Estimate (0 = none)
  bool accepted = false;               // stop-stage test passed here
  // Pipelined-engine accounting (DESIGN.md §15; all zero on the serial
  // schedule). `pipelined` marks a stage whose samples arrived via a
  // committed speculative batch; `overlap_seconds` is the slice of that
  // batch's generation hidden under the PREVIOUS stage's solve/estimate.
  // Discards land on the row of the stage whose stop/deadline/cap exit
  // invalidated the speculation.
  bool pipelined = false;
  double overlap_seconds = 0.0;
  std::uint64_t speculative_samples_committed = 0;
  std::uint64_t speculative_samples_discarded = 0;
};

/// Consumer of per-stage engine telemetry. Implementations must tolerate
/// concurrent record_stage calls (solve_many may interleave queries later);
/// the engine itself calls it from one thread per query.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void record_stage(const StageMetrics& metrics) = 0;
};

/// MetricsSink that buffers every stage row (thread-safe) and can dump the
/// table as JSON — the backing store of `imc_cli solve --metrics-json`.
class RecordingMetricsSink final : public MetricsSink {
 public:
  void record_stage(const StageMetrics& metrics) override;

  [[nodiscard]] std::vector<StageMetrics> stages() const;

  /// Writes `{"stages": [...]}` with one object per recorded row.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<StageMetrics> stages_;
};

struct ExecutionContext {
  /// Base seed for context-level randomness (substream()); engine sampling
  /// stays driven by ImcafConfig::seed so results are reproducible from the
  /// config alone.
  std::uint64_t seed = 2024;
  /// Workers for parallel phases; nullptr selects default_pool().
  ThreadPool* workers = nullptr;
  /// Wall-clock budget for the whole run; inactive by default. The clock
  /// starts when the Deadline is constructed, not when the run starts —
  /// build the context right before launching.
  Deadline deadline = Deadline();
  /// Optional cooperative cancellation flag (borrowed). Hot loops poll it
  /// at coarse granularity; setting it stops the run at the next poll with
  /// partial results, exactly like an expired deadline.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional per-stage telemetry consumer (borrowed).
  MetricsSink* metrics = nullptr;

  /// Deterministic substream derivation — the same splitmix recipe
  /// RicPool::grow uses per sample, applied at stream granularity, so two
  /// context consumers drawing from distinct stream ids never correlate.
  [[nodiscard]] std::uint64_t substream(std::uint64_t stream) const noexcept;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  /// True once the run should wind down: deadline expired or cancelled.
  [[nodiscard]] bool stop_requested() const noexcept {
    return deadline.expired() || cancelled();
  }
  /// Records one stage row if a sink is attached (no-op otherwise).
  void record_stage(const StageMetrics& stage) const {
    if (metrics != nullptr) metrics->record_stage(stage);
  }
};

}  // namespace imc
