#include "core/objective.h"

#include <algorithm>

#include "core/gain_kernels.h"
#include "util/mathx.h"

namespace imc {

namespace {

// Hot-loop skeleton of add_seed: walk a node's
// contiguous CSR touch span while software-prefetching the random-access
// `covered[sample]` word a few touches ahead. The prefetch run and the
// tail are split so the steady-state loop carries no extra bounds check.
template <typename Body>
void for_each_touch(
    std::span<const RicPool::Touch> touches, const std::uint64_t* covered,
    Body&& body) {
  const std::size_t size = touches.size();
  const std::size_t prefetched =
      size > kCoveredPrefetchDistance ? size - kCoveredPrefetchDistance : 0;
  std::size_t i = 0;
  for (; i < prefetched; ++i) {
    prefetch_read(&covered[touches[i + kCoveredPrefetchDistance].sample]);
    body(touches[i]);
  }
  for (; i < size; ++i) body(touches[i]);
}

}  // namespace

bool beats_c_hat(const CandidateScore& a, const CandidateScore& b) noexcept {
  if (!b.valid()) return a.valid();
  if (!a.valid()) return false;
  if (a.influenced_gain != b.influenced_gain) {
    return a.influenced_gain > b.influenced_gain;
  }
  if (a.nu_gain != b.nu_gain) return a.nu_gain > b.nu_gain;
  if (a.appearance != b.appearance) return a.appearance > b.appearance;
  return a.node < b.node;
}

bool beats_nu(const CandidateScore& a, const CandidateScore& b) noexcept {
  if (!b.valid()) return a.valid();
  if (!a.valid()) return false;
  if (a.nu_gain != b.nu_gain) return a.nu_gain > b.nu_gain;
  return a.node < b.node;
}

CoverageState::CoverageState(const RicPool& pool)
    : pool_(&pool), fraction_table_(nu_fraction_row(0)) {
  covered_.assign(pool.size(), 0);
  saturated_.assign((pool.size() + 63) / 64, 0);
  is_seed_.assign(pool.graph().node_count(), 0);
  init_nu_base();
}

void CoverageState::init_nu_base() {
  // The base fraction of an untouched sample is its row's count-0 entry.
  const std::uint32_t* thresholds = pool_->thresholds().data();
  nu_base_.resize(pool_->size());
  for (std::size_t g = 0; g < nu_base_.size(); ++g) {
    nu_base_[g] = fraction_table_[thresholds[g] * (kMaxNuThreshold + 1)];
  }
}

void CoverageState::reset() {
  std::fill(covered_.begin(), covered_.end(), 0);
  std::fill(saturated_.begin(), saturated_.end(), 0);
  std::fill(is_seed_.begin(), is_seed_.end(), 0);
  seeds_.clear();
  influenced_ = 0;
  nu_sum_ = KahanSum{};
  init_nu_base();
}

void CoverageState::add_seed(NodeId v) {
  assert(v < is_seed_.size());
  if (is_seed_[v]) return;
  is_seed_[v] = 1;
  seeds_.push_back(v);
  for_each_touch(
      pool_->touches_of(v), covered_.data(),
      [&](const RicPool::Touch& touch) {
        const std::uint64_t before = covered_[touch.sample];
        const std::uint64_t after = before | touch.mask;
        if (after == before) return;
        covered_[touch.sample] = after;
        const auto old_count = static_cast<std::uint32_t>(popcount64(before));
        // Already-satisfied samples contribute exactly 0 to both deltas.
        if (old_count >= touch.threshold) return;
        const auto new_count = static_cast<std::uint32_t>(popcount64(after));
        if (new_count >= touch.threshold) {
          ++influenced_;
          saturated_[touch.sample >> 6] |= 1ULL << (touch.sample & 63);
        }
        const double* row =
            fraction_table_ + touch.threshold * (kMaxNuThreshold + 1);
        nu_base_[touch.sample] = row[new_count];
        nu_sum_.add(row[new_count] - row[old_count]);
      });
}

double CoverageState::c_hat() const noexcept {
  if (pool_->size() == 0) return 0.0;
  return pool_->total_benefit() * static_cast<double>(influenced_) /
         static_cast<double>(pool_->size());
}

double CoverageState::nu() const noexcept {
  if (pool_->size() == 0) return 0.0;
  return pool_->total_benefit() * nu_sum_.value() /
         static_cast<double>(pool_->size());
}

CandidateScore CoverageState::best_candidate_nu(
    std::span<const NodeId> candidates, std::size_t begin,
    std::size_t end) const {
  CandidateScore best;
  for (std::size_t i = begin; i < end && i < candidates.size(); ++i) {
    const NodeId v = candidates[i];
    if (is_seed_[v]) continue;
    CandidateScore score;
    score.node = v;
    score.nu_gain = marginal_nu(v);
    if (beats_nu(score, best)) best = score;
  }
  return best;
}

double CoverageState::marginal_nu(NodeId v) const {
  assert(v < is_seed_.size());
  if (is_seed_[v]) return 0.0;
  const std::span<const RicPool::Touch> touches = pool_->touches_of(v);
  TouchGainView view;
  view.covered = covered_.data();
  view.saturated = saturated_.data();
  view.nu_base = nu_base_.data();
  view.fraction_table = fraction_table_;
  return active_gain_kernel_ops().marginal_nu(view, touches.data(),
                                              touches.size());
}

SampleGainView CoverageState::sample_view() const noexcept {
  SampleGainView view;
  view.covered = covered_.data();
  view.saturated = saturated_.data();
  view.thresholds = pool_->thresholds().data();
  view.nu_base = nu_base_.data();
  view.sample_offsets = pool_->sample_offsets().data();
  view.sample_arena = pool_->sample_arena().data();
  view.fraction_table = fraction_table_;
  return view;
}

void CoverageState::accumulate_influenced_gains(std::uint32_t begin,
                                                std::uint32_t end,
                                                std::uint64_t* gains) const {
  active_gain_kernel_ops().accumulate_influenced(sample_view(), begin, end,
                                                 gains);
}

void CoverageState::update_influenced_gains(NodeId seed, std::size_t begin,
                                            std::size_t end,
                                            std::uint64_t* gains) const {
  const std::span<const RicPool::Touch> touches = pool_->touches_of(seed);
  assert(begin <= end && end <= touches.size());
  active_gain_kernel_ops().update_influenced(
      sample_view(), touches.data() + begin, end - begin, gains);
}

void CoverageState::accumulate_nu_gains(double* gains) const {
  active_gain_kernel_ops().accumulate_nu(
      sample_view(), 0, static_cast<std::uint32_t>(pool_->size()), gains);
}

}  // namespace imc
