#include "util/context.h"

#include "util/rng.h"

namespace imc {

namespace {

void write_bool(std::ostream& out, bool value) {
  out << (value ? "true" : "false");
}

}  // namespace

void RecordingMetricsSink::record_stage(const StageMetrics& metrics) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stages_.push_back(metrics);
}

std::vector<StageMetrics> RecordingMetricsSink::stages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

void RecordingMetricsSink::write_json(std::ostream& out) const {
  const std::vector<StageMetrics> rows = stages();
  out << "{\n  \"stages\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StageMetrics& s = rows[i];
    out << "    {\"stage\": " << s.stage << ", \"pool_size\": " << s.pool_size
        << ", \"samples_added\": " << s.samples_added
        << ", \"sampling_seconds\": " << s.sampling_seconds
        << ", \"solver_seconds\": " << s.solver_seconds
        << ", \"estimate_seconds\": " << s.estimate_seconds
        << ", \"estimate_samples\": " << s.estimate_samples
        << ", \"accepted\": ";
    write_bool(out, s.accepted);
    out << ", \"pipelined\": ";
    write_bool(out, s.pipelined);
    out << ", \"overlap_seconds\": " << s.overlap_seconds
        << ", \"speculative_samples_committed\": "
        << s.speculative_samples_committed
        << ", \"speculative_samples_discarded\": "
        << s.speculative_samples_discarded;
    out << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

std::uint64_t ExecutionContext::substream(std::uint64_t stream) const noexcept {
  return splitmix_of(seed, stream);
}

}  // namespace imc
