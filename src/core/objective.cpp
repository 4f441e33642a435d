#include "core/objective.h"

#include <algorithm>
#include <stdexcept>

#include "core/gain_kernels.h"
#include "util/mathx.h"

namespace imc {

namespace {

// Hot-loop skeleton shared by the sweep kernels below: walk a node's
// contiguous CSR touch span while software-prefetching the random-access
// `covered[sample]` word a few touches ahead. The prefetch run and the
// tail are split so the steady-state loop carries no extra bounds check.
// always_inline matters beyond the call overhead: the callers are
// IMC_POPCNT_CLONES functions, and only code inlined INTO a clone is
// compiled with that clone's ISA extensions — an outlined shared copy
// would pin the loop to the baseline software popcount.
template <typename Body>
[[gnu::always_inline]] inline void for_each_touch(
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
  init_nu_base(0);
}

void CoverageState::init_nu_base(std::size_t from) {
  // Callers guarantee covered_[g] == 0 for every g in [from, size): the
  // base fraction of an untouched sample is its row's count-0 entry.
  const std::uint32_t* thresholds = pool_->thresholds().data();
  nu_base_.resize(pool_->size());
  for (std::size_t g = from; g < nu_base_.size(); ++g) {
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
  init_nu_base(0);
}

IMC_POPCNT_CLONES
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

IMC_POPCNT_CLONES
void CoverageState::extend(const RicPool& pool, RicPool::PoolEpoch from_epoch) {
  if (&pool != pool_) {
    throw std::invalid_argument("CoverageState::extend: foreign pool");
  }
  if (from_epoch.samples != covered_.size()) {
    throw std::invalid_argument(
        "CoverageState::extend: epoch does not match the state's coverage");
  }
  if (pool.samples_since(from_epoch) == 0) return;  // validates the epoch

  const std::size_t old_samples = covered_.size();
  covered_.resize(pool.size(), 0);
  saturated_.resize((pool.size() + 63) / 64, 0);
  init_nu_base(old_samples);  // fresh tail starts untouched: row_h[0]
  extend_mark_.resize(pool.size(), 0);
  if (++extend_epoch_ == 0) {  // wraparound: every mark is stale again
    std::fill(extend_mark_.begin(), extend_mark_.end(), 0);
    extend_epoch_ = 1;
  }

  // Seed-major replay over EVERY touch of every seed, in insertion order —
  // the exact accumulation sequence a rebuild's add_seed loop runs, so the
  // fresh influenced/ν below match it bitwise (see the header contract).
  // First visit to a sample this replay reads `before = 0` via the mark,
  // later visits read the running mask; covered_ converges to the same
  // final union either way.
  const std::uint32_t epoch = extend_epoch_;
  std::uint32_t* marks = extend_mark_.data();
  std::uint64_t influenced = 0;
  KahanSum nu_sum;
  for (const NodeId v : seeds_) {
    for_each_touch(
        pool_->touches_of(v), covered_.data(),
        [&](const RicPool::Touch& touch) {
          const bool fresh = marks[touch.sample] != epoch;
          const std::uint64_t before = fresh ? 0 : covered_[touch.sample];
          const std::uint64_t after = before | touch.mask;
          if (fresh) {
            marks[touch.sample] = epoch;
            covered_[touch.sample] = after;  // clear the stale pre-replay mask
          } else if (after != before) {
            covered_[touch.sample] = after;
          }
          if (after == before) return;  // same early-out as add_seed
          const auto old_count =
              static_cast<std::uint32_t>(popcount64(before));
          if (old_count >= touch.threshold) return;
          const auto new_count =
              static_cast<std::uint32_t>(popcount64(after));
          if (new_count >= touch.threshold) {
            ++influenced;
            saturated_[touch.sample >> 6] |= 1ULL << (touch.sample & 63);
          }
          const double* row =
              fraction_table_ + touch.threshold * (kMaxNuThreshold + 1);
          nu_base_[touch.sample] = row[new_count];
          nu_sum.add(row[new_count] - row[old_count]);
        });
  }
  influenced_ = influenced;
  nu_sum_ = nu_sum;
}

bool operator==(const CoverageState& a, const CoverageState& b) {
  return a.pool_ == b.pool_ && a.covered_ == b.covered_ &&
         a.saturated_ == b.saturated_ && a.nu_base_ == b.nu_base_ &&
         a.is_seed_ == b.is_seed_ && a.seeds_ == b.seeds_ &&
         a.influenced_ == b.influenced_ &&
         a.nu_sum_.value() == b.nu_sum_.value();
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

IMC_POPCNT_CLONES
std::uint64_t CoverageState::marginal_influenced(NodeId v) const {
  assert(v < is_seed_.size());
  if (is_seed_[v]) return 0;
  std::uint64_t gain = 0;
  const std::uint64_t* saturated = saturated_.data();
  for_each_touch(
      pool_->touches_of(v), covered_.data(),
      [&](const RicPool::Touch& touch) {
        if ((saturated[touch.sample >> 6] >> (touch.sample & 63)) & 1ULL) {
          return;  // dead sample: can no longer flip
        }
        // Unsaturated, so the old count is below threshold: the sample
        // flips iff the union reaches it.
        const std::uint64_t after = covered_[touch.sample] | touch.mask;
        if (static_cast<std::uint32_t>(popcount64(after)) >= touch.threshold) {
          ++gain;
        }
      });
  return gain;
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

void CoverageState::accumulate_nu_gains(std::uint32_t begin,
                                        std::uint32_t end,
                                        double* gains) const {
  active_gain_kernel_ops().accumulate_nu(sample_view(), begin, end, gains);
}

}  // namespace imc
