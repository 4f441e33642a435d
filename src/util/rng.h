// Deterministic, fast pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit `Rng&` (or a
// 64-bit seed) so that experiments and tests are reproducible bit-for-bit.
// The engine is xoshiro256** (Blackman & Vigna), seeded through SplitMix64;
// both are tiny, allocation-free and much faster than std::mt19937_64.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace imc {

/// SplitMix64 step: used to expand a single 64-bit seed into engine state
/// and to derive independent per-thread / per-sample substreams.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed of substream `index` under base seed `seed`: one splitmix step
/// over the index-mixed seed. RIC pool position p, Dagum draw position p
/// and fuzz case p all read the substream splitmix_of(seed, p), so a
/// value depends only on its position, never on how the work was split.
[[nodiscard]] constexpr std::uint64_t splitmix_of(std::uint64_t seed,
                                                  std::uint64_t index) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return splitmix64(state);
}

/// xoshiro256** engine with convenience sampling methods.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be plugged
/// into <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x1d872b41ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Next raw 64 random bits.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's nearly-divisionless unbiased method.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Number of consecutive Bernoulli(p) failures before the next success,
  /// parameterized by 1 / log1p(-p) = 1 / log(1 - p) (precompute once per
  /// p; a multiply here instead of a divide). One uniform draw replaces a
  /// whole run of bernoulli(p) calls — the geometric-skip trick for
  /// realizing sparse live-edge sets. Requires p in (0, 1], i.e.
  /// inv_log1p_neg_p in [-inf, -0.0]; p == 1 (inv == -0.0) always returns
  /// 0. P(skip >= k) = (1-p)^k up to one rounding of 1 - u (glibc's log
  /// is ~2x faster than log1p and u is a fresh draw, so the ulp-level
  /// rounding only perturbs which exact doubles map to each skip, not the
  /// distribution).
  std::uint64_t geometric_skip(double inv_log1p_neg_p) noexcept {
    const double failures = std::log(1.0 - uniform()) * inv_log1p_neg_p;
    return failures < 9.0e18
               ? static_cast<std::uint64_t>(failures)
               : std::numeric_limits<std::uint64_t>::max();
  }

  /// Derives an independent substream; streams with distinct ids never
  /// correlate in practice (SplitMix64 re-expansion of mixed state).
  [[nodiscard]] Rng split(std::uint64_t stream_id) const noexcept {
    std::uint64_t mix = state_[0] ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
    return Rng{splitmix64(mix)};
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `count` distinct indices from [0, population) (Floyd's method
  /// when count << population, otherwise shuffle of a prefix).
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t population, std::uint32_t count);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
///
/// Used to draw RIC source communities proportionally to their benefit
/// (the ρ distribution of the paper, §III).
class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;

  /// Builds the table from non-negative weights. Throws std::invalid_argument
  /// if weights is empty or sums to zero / contains negatives.
  explicit DiscreteDistribution(std::span<const double> weights);

  /// Draws an index with probability weight[i] / total_weight.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return probability_.size(); }
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }

  /// Exact probability assigned to index i (for tests).
  [[nodiscard]] double probability_of(std::uint32_t i) const;

 private:
  std::vector<double> probability_;   // acceptance probability per bucket
  std::vector<std::uint32_t> alias_;  // alias target per bucket
  double total_weight_ = 0.0;
};

}  // namespace imc
