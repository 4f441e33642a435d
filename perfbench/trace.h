// Span and counter recording for the traced benchmark run.
//
// Every span is measured from outside the library: the benchmark times its
// own calls into the public API (setup phases, ImcEngine::solve,
// apply_delta, attach_pool) and turns each engine StageMetrics row — which
// reaches StageSink through the public MetricsSink hook — into child spans
// ending at the moment the row was recorded. Spans stay in memory and are
// written once, as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/context.h"

namespace perfbench {

/// Trace lanes: the calling thread and the pipeline's background sampling.
enum class Lane : std::uint32_t { kCaller = 1, kBackground = 2 };

class TraceRecorder {
 public:
  /// Microseconds since the recorder was created.
  [[nodiscard]] double now_us() const;

  /// Records a complete span; `op` < 0 marks spans outside any op.
  void span(const std::string& name, double start_us, double end_us,
            std::int64_t op = -1, Lane lane = Lane::kCaller);
  void counter(const std::string& name, double ts_us, double value);

  void write_chrome_json(std::ostream& out) const;

 private:
  struct Event {
    std::string name;
    char phase = 'X';  // 'X' complete span, 'C' counter
    double ts_us = 0.0;
    double dur_us = 0.0;  // spans only
    double value = 0.0;   // counters only
    std::int64_t op = -1;
    Lane lane = Lane::kCaller;
  };

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// MetricsSink that buffers the engine's stage rows and, while given a
/// recorder, also emits each row as estimate/solver/sampling spans plus
/// counters timestamped at record_stage.
class StageSink final : public imc::MetricsSink {
 public:
  void record_stage(const imc::StageMetrics& metrics) override;

  /// Op id stamped on the spans of the rows that follow, and the recorder
  /// that receives them (nullptr: rows are only buffered).
  void set_op(std::int64_t op, TraceRecorder* recorder);
  /// Rows recorded since the previous take().
  [[nodiscard]] std::vector<imc::StageMetrics> take();

 private:
  std::mutex mutex_;
  TraceRecorder* recorder_ = nullptr;
  std::int64_t op_ = -1;
  std::vector<imc::StageMetrics> rows_;
};

}  // namespace perfbench
