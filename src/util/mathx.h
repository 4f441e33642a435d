// Numeric helpers shared by the sample-complexity bounds (eq. 22, Λ of
// Alg. 5, Λ' of Alg. 6) and by statistics in tests/benches.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
/// fingerprints and the pool-snapshot header checksum. One multiply per
/// byte, so bulk payloads use WordLaneHash instead. Not cryptographic —
/// it guards against corruption and mismatched inputs, not adversaries.
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

/// Word-lane digest for bulk payloads (the pool-snapshot payload
/// checksum): 8-byte words go round-robin to four independent 64-bit
/// lanes, so four multiplies are in flight instead of FNV-1a's one per
/// byte. Each round `lane = rotl((lane ^ w) * odd, 31)` is a bijection of
/// both the lane and the word — the rotation feeds a word's top bits back
/// into later multiplies, which without it would only ever reach bit 63.
/// The final fold chains the lanes through bijective steps too, so a
/// change confined to one 8-byte word always changes the digest. Data
/// comes in sections: a short tail is zero-extended and each section's
/// byte length is folded in, so appending zeros or moving bytes across a
/// section boundary changes the digest as well. Words load by memcpy (no
/// alignment assumed) in host byte order. Not cryptographic.
class WordLaneHash {
 public:
  /// Hashes a leading part of the current section. `bytes` must be a
  /// multiple of 32 (whole rounds of the four lanes), so a section fed in
  /// such chunks hashes exactly like the same bytes in one add_section.
  void add_blocks(const void* data, std::size_t bytes) noexcept {
    assert(bytes % 32 == 0);
    const auto* p = static_cast<const unsigned char*>(data);
    // One named local per lane keeps all four in registers (`p` may alias
    // the members, and a local array stays on the stack), so each round
    // costs its multiply latency, not a store-to-load round trip.
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (std::size_t i = 0; i < bytes; i += 32) {
      a = round(a, load(p + i));
      b = round(b, load(p + i + 8));
      c = round(c, load(p + i + 16));
      d = round(d, load(p + i + 24));
    }
    lanes_[0] = a;
    lanes_[1] = b;
    lanes_[2] = c;
    lanes_[3] = d;
    section_bytes_ += bytes;
  }
  /// Hashes the rest of the current section (any length) and closes it.
  void add_section(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = bytes - bytes % 32;
    add_blocks(p, i);
    for (int lane = 0; i < bytes; i += 8, ++lane) {
      std::uint64_t word = 0;  // a short tail is zero-extended
      std::memcpy(&word, p + i, std::min<std::size_t>(8, bytes - i));
      lanes_[lane] = round(lanes_[lane], word);
    }
    lanes_[0] = round(lanes_[0], section_bytes_ + bytes % 32);
    section_bytes_ = 0;
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t hash = lanes_[0];
    for (int lane = 1; lane < 4; ++lane) hash = round(hash, lanes_[lane]);
    hash ^= hash >> 33;  // xorshift-multiply avalanche: each step bijective
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    return hash;
  }

 private:
  static constexpr std::uint64_t kOdd = 0x9E3779B185EBCA87ULL;
  static std::uint64_t load(const unsigned char* p) noexcept {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  }
  static std::uint64_t round(std::uint64_t lane, std::uint64_t word) noexcept {
    return std::rotl((lane ^ word) * kOdd, 31);
  }
  std::uint64_t lanes_[4] = {0x9E3779B97F4A7C15ULL, 0xBF58476D1CE4E5B9ULL,
                             0x94D049BB133111EBULL, 0xD6E8FEB86659FD93ULL};
  std::uint64_t section_bytes_ = 0;  // bytes of the open section so far
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
