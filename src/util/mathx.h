// Numeric helpers shared by the sample-complexity bounds (eq. 22, Λ of
// Alg. 5, Λ' of Alg. 6) and by statistics in tests/benches.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace imc {

/// ln(n choose k), exact-ish via lgamma. Returns 0 for k<=0 or k>=n edges.
[[nodiscard]] double log_binomial(std::uint64_t n, std::uint64_t k);

/// Kahan–Babuška compensated summation; tolerates adversarial orderings.
class KahanSum {
 public:
  void add(double value) noexcept {
    const double t = sum_ + value;
    if (std::abs(sum_) >= std::abs(value)) {
      compensation_ += (sum_ - t) + value;
    } else {
      compensation_ += (value - t) + sum_;
    }
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_ + compensation_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Sample mean.
[[nodiscard]] double mean(std::span<const double> values);

/// Unbiased sample standard deviation (n-1 denominator); 0 for n < 2.
[[nodiscard]] double stddev(std::span<const double> values);

/// Pearson correlation of two equally sized series; 0 if degenerate.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Integer ceil(a / b) for positive b.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Streaming FNV-1a (64-bit): the digest behind Graph/CommunitySet
/// fingerprints and the pool-snapshot payload checksum. Not
/// cryptographic — it guards against corruption and mismatched inputs,
/// not adversaries.
class Fnv1a64 {
 public:
  void add_bytes(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_u64(std::uint64_t value) noexcept {
    add_bytes(&value, sizeof(value));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// POPCNT is part of the x86-64 baseline (src/CMakeLists.txt enables it
// for `imc` and everything linking it), so popcount64 is one
// instruction, not the ~12-op SWAR fallback. A target built without the
// flag would silently run the fallback in every hot loop; refuse instead.
#if defined(__x86_64__) && !defined(__POPCNT__)
#error "x86-64 builds need POPCNT: compile with -mpopcnt (see src/CMakeLists.txt)"
#endif

/// Population count of a 64-bit mask (thin wrapper, keeps call sites tidy).
[[nodiscard]] constexpr int popcount64(std::uint64_t mask) noexcept {
  return __builtin_popcountll(mask);
}

// Software prefetch hints for the pool hot loops: a candidate sweep walks a
// contiguous Touch span but lands on random `covered[sample]` /
// `thresholds[sample]` words, so issuing the loads a few touches ahead
// hides the latency the hardware prefetcher cannot (no stride to learn).
// No-ops on compilers without __builtin_prefetch.
#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_read(const void* address) noexcept {
  __builtin_prefetch(address, 0, 1);
}
inline void prefetch_write(const void* address) noexcept {
  __builtin_prefetch(address, 1, 1);
}
#else
inline void prefetch_read(const void*) noexcept {}
inline void prefetch_write(const void*) noexcept {}
#endif

/// How many touches ahead the sweeps prefetch the covered/threshold words.
inline constexpr std::size_t kCoveredPrefetchDistance = 8;

/// Largest member count / threshold the ν fraction table covers (matches
/// kMaxCommunityPopulation — the mask representation caps populations).
inline constexpr std::uint32_t kMaxNuThreshold = 64;

/// Row of the precomputed ν fraction table for threshold h:
/// row[count] == min(count / h, 1.0), for count in [0, 64]. The entries are
/// produced by the exact same double division the direct formula performs,
/// so substituting the lookup is bit-identical — it just replaces a ~15
/// cycle fdiv in the marginal-gain inner loop with an L1 load. Rows are
/// contiguous with stride kMaxNuThreshold + 1, so hot loops can hoist
/// nu_fraction_row(0) as the table base and index rows themselves.
/// Requires h <= kMaxNuThreshold (debug-asserted); row 0 is all ones.
[[nodiscard]] const double* nu_fraction_row(std::uint32_t threshold) noexcept;

}  // namespace imc
