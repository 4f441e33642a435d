#include "trace.h"

#include <utility>

namespace perfbench {

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceRecorder::span(const std::string& name, double start_us,
                         double end_us, std::int64_t op, Lane lane) {
  Event event;
  event.name = name;
  event.ts_us = start_us;
  event.dur_us = end_us > start_us ? end_us - start_us : 0.0;
  event.op = op;
  event.lane = lane;
  const std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceRecorder::counter(const std::string& name, double ts_us,
                            double value) {
  Event event;
  event.name = name;
  event.phase = 'C';
  event.ts_us = ts_us;
  event.value = value;
  const std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  // Event names are fixed identifiers chosen by the benchmark, so they
  // need no JSON escaping.
  const std::lock_guard lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"caller\"}},\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
         "\"args\":{\"name\":\"background sampling\"}}";
  for (const Event& event : events_) {
    out << ",\n{\"name\":\"" << event.name << "\",\"ph\":\"" << event.phase
        << "\",\"pid\":1,\"tid\":" << static_cast<std::uint32_t>(event.lane)
        << ",\"ts\":" << event.ts_us;
    if (event.phase == 'X') {
      out << ",\"dur\":" << event.dur_us;
      if (event.op >= 0) out << ",\"args\":{\"op\":" << event.op << "}";
    } else {
      out << ",\"args\":{\"value\":" << event.value << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

void StageSink::record_stage(const imc::StageMetrics& metrics) {
  const std::lock_guard lock(mutex_);
  rows_.push_back(metrics);
  if (recorder_ == nullptr) return;

  // The row arrives right after the stage's estimate (or, for a stage that
  // did not stop, right after its solve); lay the phases out backwards
  // from now. The pipeline's hidden sampling ran on the background lane
  // before the blocking wait that precedes the solve.
  const double end = recorder_->now_us();
  const double estimate_start = end - metrics.estimate_seconds * 1e6;
  const double solver_start = estimate_start - metrics.solver_seconds * 1e6;
  const double wait_seconds =
      metrics.sampling_seconds > metrics.overlap_seconds
          ? metrics.sampling_seconds - metrics.overlap_seconds
          : 0.0;
  const double wait_start = solver_start - wait_seconds * 1e6;
  if (metrics.estimate_samples > 0) {
    recorder_->span("estimate", estimate_start, end, op_);
  }
  recorder_->span("solver", solver_start, estimate_start, op_);
  if (wait_seconds > 0.0) {
    recorder_->span("sampling.wait", wait_start, solver_start, op_);
  }
  if (metrics.overlap_seconds > 0.0) {
    recorder_->span("sampling.overlap",
                    wait_start - metrics.overlap_seconds * 1e6, wait_start,
                    op_, Lane::kBackground);
  }
  recorder_->counter("pool_size", end, static_cast<double>(metrics.pool_size));
  recorder_->counter("estimate_samples", end,
                     static_cast<double>(metrics.estimate_samples));
}

void StageSink::set_op(std::int64_t op, TraceRecorder* recorder) {
  const std::lock_guard lock(mutex_);
  op_ = op;
  recorder_ = recorder;
}

std::vector<imc::StageMetrics> StageSink::take() {
  const std::lock_guard lock(mutex_);
  return std::exchange(rows_, {});
}

}  // namespace perfbench
