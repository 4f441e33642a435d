// Implementation template for ONE gain-kernel variant. This header is
// textually included by the per-variant translation units
// (gain_kernels_{scalar,avx2,avx512}.cpp), each of which adds exactly the
// vector ISA flags its variant requires to the POPCNT baseline — that is
// what lets the batched loops use intrinsics without making the rest of
// the library machine-specific. The dispatcher (gain_kernels.cpp) only
// calls into a variant after __builtin_cpu_supports confirms the host.
//
// The includer must define:
//   IMC_GK_NAMESPACE  token  — variant namespace under imc::gain_detail
//   IMC_GK_NAME       string — display name ("scalar", "avx2", ...)
//   IMC_GK_KIND       expr   — the GainKernelKind enumerator
//   IMC_GK_VECTOR     0 | 256 | 512 — batched-inner-loop width (bits)
//
// Bit-identity contract (enforced by tests/core/gain_kernel_test.cpp and
// the kernel_variants differential fuzz check): every variant produces
// results bitwise equal to the scalar variant. Integer popcounts are
// exact; the ν deltas are the same fraction-table doubles subtracted and
// accumulated per node in the same ascending-sample order; and the only
// "skipped" contributions (saturated samples, mask ⊆ covered) are exactly
// +0.0, which never changes a non-negative accumulator's bit pattern.
//
// All variants share the word-at-a-time saturation skip: the outer loop
// walks the saturation bitmap one 64-sample word at a time, so a fully
// saturated slab costs one load + one compare per 64 samples (late greedy
// rounds, where most samples are dead, become bitmap-speed scans).

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/gain_kernels.h"
#include "util/mathx.h"

#if IMC_GK_VECTOR != 0
#include <immintrin.h>
#endif

namespace imc {
namespace gain_detail {
namespace IMC_GK_NAMESPACE {
namespace {

// The strided SIMD mask loads assume the sample-arena pair layout
// {NodeId node; (pad); uint64_t mask} with the mask at byte offset 8.
using ArenaPair = TouchPair;
static_assert(sizeof(ArenaPair) == 16, "arena pair must stay 16 bytes");
static_assert(std::is_standard_layout_v<ArenaPair>,
              "mask-offset assumption needs standard layout");
static_assert(offsetof(ArenaPair, second) == 8,
              "arena masks must sit at byte offset 8");

/// Walks samples [begin, end) in ascending order, skipping saturated ones
/// via their bitmap — one word per 64 samples, early-continue when the
/// whole word is saturated. `body(g)` runs for every live sample.
template <typename Body>
[[gnu::always_inline]] inline void for_each_live_sample(
    const std::uint64_t* saturated, std::uint32_t begin, std::uint32_t end,
    Body&& body) {
  if (begin >= end) return;
  const std::uint32_t first_word = begin >> 6;
  const std::uint32_t last_word = (end - 1) >> 6;
  for (std::uint32_t w = first_word; w <= last_word; ++w) {
    std::uint64_t live = ~saturated[w];
    if (w == first_word && (begin & 63) != 0) {
      live &= ~0ULL << (begin & 63);
    }
    if (w == last_word) {
      const std::uint32_t top = end - (w << 6);  // samples in this word
      if (top < 64) live &= (1ULL << top) - 1;
    }
    while (live != 0) {
      const std::uint32_t g =
          (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(live));
      live &= live - 1;
      body(g);
    }
  }
}

#if IMC_GK_VECTOR == 256

/// 4 x 64-bit popcount via the classic vpshufb nibble LUT + psadbw.
[[gnu::always_inline]] inline __m256i popcount_epi64_x4(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_nibble);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibble);
  const __m256i per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
}

/// Masks of 4 consecutive arena pairs, in touch order. Two 256-bit loads
/// hold [n0 m0 n1 m1] and [n2 m2 n3 m3]; unpackhi gives [m0 m2 m1 m3] and
/// the permute restores [m0 m1 m2 m3].
[[gnu::always_inline]] inline __m256i load_arena_masks_x4(
    const ArenaPair* pairs) {
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs + 2));
  return _mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b), 0xD8);
}

#elif IMC_GK_VECTOR == 512

/// Masks of 8 consecutive arena pairs, in touch order: the odd 64-bit
/// lanes of two 512-bit loads.
[[gnu::always_inline]] inline __m512i load_arena_masks_x8(
    const ArenaPair* pairs) {
  const __m512i a = _mm512_loadu_si512(pairs);
  const __m512i b = _mm512_loadu_si512(pairs + 4);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  return _mm512_permutex2var_epi64(a, odd, b);
}

#endif  // IMC_GK_VECTOR

/// Over one sample's arena run, adds `delta` into gains[v] for every pair
/// (v, mask) with popcount(hit_cov | mask) >= h and — when kExclude —
/// popcount(miss_cov | mask) < h. `delta` is 1 or 2^64 - 1 (a decrement).
/// Node ids within one run are distinct, so the batched loops apply their
/// lanes' adds unconditionally (0 for misses) instead of branching per hit;
/// only an all-miss batch is skipped.
template <bool kExclude>
[[gnu::always_inline]] inline void add_hits(const ArenaPair* pairs,
                                            std::size_t count,
                                            std::uint64_t hit_cov,
                                            std::uint64_t miss_cov,
                                            std::uint32_t h,
                                            std::uint64_t delta,
                                            std::uint64_t* gains) {
  std::size_t i = 0;
#if IMC_GK_VECTOR == 256
  const __m256i hit_v = _mm256_set1_epi64x(static_cast<long long>(hit_cov));
  const __m256i miss_v =
      _mm256_set1_epi64x(static_cast<long long>(miss_cov));
  // counts >= h  ⇔  counts > h - 1 (both sides fit well inside i64).
  const __m256i h_minus_1 =
      _mm256_set1_epi64x(static_cast<long long>(h) - 1);
  const __m256i delta_v = _mm256_set1_epi64x(static_cast<long long>(delta));
  alignas(32) std::uint64_t adds[4];
  for (; i + 4 <= count; i += 4) {
    const __m256i masks = load_arena_masks_x4(pairs + i);
    __m256i hits = _mm256_cmpgt_epi64(
        popcount_epi64_x4(_mm256_or_si256(hit_v, masks)), h_minus_1);
    if constexpr (kExclude) {
      hits = _mm256_andnot_si256(
          _mm256_cmpgt_epi64(
              popcount_epi64_x4(_mm256_or_si256(miss_v, masks)), h_minus_1),
          hits);
    }
    if (_mm256_testz_si256(hits, hits) != 0) continue;
    _mm256_store_si256(reinterpret_cast<__m256i*>(adds),
                       _mm256_and_si256(hits, delta_v));
    for (unsigned j = 0; j < 4; ++j) gains[pairs[i + j].first] += adds[j];
  }
#elif IMC_GK_VECTOR == 512
  const __m512i hit_v = _mm512_set1_epi64(static_cast<long long>(hit_cov));
  const __m512i miss_v = _mm512_set1_epi64(static_cast<long long>(miss_cov));
  const __m512i h_v = _mm512_set1_epi64(static_cast<long long>(h));
  const __m512i delta_v = _mm512_set1_epi64(static_cast<long long>(delta));
  alignas(64) std::uint64_t adds[8];
  for (; i + 8 <= count; i += 8) {
    const __m512i masks = load_arena_masks_x8(pairs + i);
    __mmask8 hits = _mm512_cmpge_epu64_mask(
        _mm512_popcnt_epi64(_mm512_or_si512(hit_v, masks)), h_v);
    if constexpr (kExclude) {
      hits &= _mm512_cmplt_epu64_mask(
          _mm512_popcnt_epi64(_mm512_or_si512(miss_v, masks)), h_v);
    }
    if (hits == 0) continue;
    _mm512_store_si512(adds, _mm512_maskz_mov_epi64(hits, delta_v));
    for (unsigned j = 0; j < 8; ++j) gains[pairs[i + j].first] += adds[j];
  }
#endif
  for (; i < count; ++i) {
    bool hit = static_cast<std::uint32_t>(
                   popcount64(hit_cov | pairs[i].second)) >= h;
    if constexpr (kExclude) {
      hit = hit && static_cast<std::uint32_t>(
                       popcount64(miss_cov | pairs[i].second)) < h;
    }
    gains[pairs[i].first] += delta & (0 - static_cast<std::uint64_t>(hit));
  }
}

void accumulate_influenced(const SampleGainView& view, std::uint32_t begin,
                           std::uint32_t end, std::uint64_t* gains) {
  for_each_live_sample(view.saturated, begin, end, [&](std::uint32_t g) {
    const std::uint64_t first = view.sample_offsets[g];
    add_hits<false>(view.sample_arena + first,
                    static_cast<std::size_t>(view.sample_offsets[g + 1] -
                                             first),
                    view.covered[g], 0, view.thresholds[g], 1, gains);
  });
}

void update_influenced(const SampleGainView& view,
                       const RicPool::Touch* touches, std::size_t count,
                       std::uint64_t* gains) {
  for (std::size_t t = 0; t < count; ++t) {
    if (t + kCoveredPrefetchDistance < count) {
      prefetch_read(
          &view.covered[touches[t + kCoveredPrefetchDistance].sample]);
    }
    const RicPool::Touch& touch = touches[t];
    const std::uint32_t g = touch.sample;
    if ((view.saturated[g >> 6] >> (g & 63)) & 1ULL) continue;  // dead
    const std::uint64_t cov = view.covered[g];
    const std::uint64_t after = cov | touch.mask;
    if (after == cov) continue;  // the pick reaches no new member here
    const std::uint32_t h = touch.threshold;
    const std::uint64_t first = view.sample_offsets[g];
    const ArenaPair* pairs = view.sample_arena + first;
    const auto size =
        static_cast<std::size_t>(view.sample_offsets[g + 1] - first);
    if (static_cast<std::uint32_t>(popcount64(after)) >= h) {
      // g becomes influenced: every toucher that would have lifted it
      // loses it (the pick included — its own gain ends at zero).
      add_hits<false>(pairs, size, cov, 0, h, ~std::uint64_t{0}, gains);
    } else {
      // g stays live but nearer its threshold: touchers that lift it from
      // cov' but not from cov gain it; cov' ⊇ cov, so none loses it.
      add_hits<true>(pairs, size, after, cov, h, 1, gains);
    }
  }
}

void accumulate_nu(const SampleGainView& view, std::uint32_t begin,
                   std::uint32_t end, double* gains) {
  for_each_live_sample(view.saturated, begin, end, [&](std::uint32_t g) {
    const std::uint64_t cov = view.covered[g];
    const double* row = view.fraction_table +
                        view.thresholds[g] * (kMaxNuThreshold + 1);
    // Precomputed base fraction: row[popcount(cov)], maintained by
    // CoverageState — the per-touch work is a pure lookup-subtract.
    const double base = view.nu_base[g];
    const std::uint64_t first = view.sample_offsets[g];
    const ArenaPair* pairs = view.sample_arena + first;
    const std::size_t count =
        static_cast<std::size_t>(view.sample_offsets[g + 1] - first);
    std::size_t i = 0;
#if IMC_GK_VECTOR != 0
    // after ⊇ cov, so popcount(after) == popcount(cov) ⇔ after == cov —
    // the batched loops compare counts instead of re-deriving the union.
    const std::uint64_t base_count =
        static_cast<std::uint64_t>(popcount64(cov));
#endif
#if IMC_GK_VECTOR == 256
    const __m256i cov_v = _mm256_set1_epi64x(static_cast<long long>(cov));
    alignas(32) std::uint64_t counts[4];
    for (; i + 4 <= count; i += 4) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(counts),
          popcount_epi64_x4(
              _mm256_or_si256(cov_v, load_arena_masks_x4(pairs + i))));
      for (unsigned j = 0; j < 4; ++j) {
        if (counts[j] == base_count) continue;  // mask ⊆ covered: delta 0
        gains[pairs[i + j].first] += row[counts[j]] - base;
      }
    }
#elif IMC_GK_VECTOR == 512
    const __m512i cov_v = _mm512_set1_epi64(static_cast<long long>(cov));
    alignas(64) std::uint64_t counts[8];
    for (; i + 8 <= count; i += 8) {
      _mm512_store_si512(
          counts, _mm512_popcnt_epi64(_mm512_or_si512(
                      cov_v, load_arena_masks_x8(pairs + i))));
      for (unsigned j = 0; j < 8; ++j) {
        if (counts[j] == base_count) continue;  // mask ⊆ covered: delta 0
        gains[pairs[i + j].first] += row[counts[j]] - base;
      }
    }
#endif
    for (; i < count; ++i) {
      const std::uint64_t after = cov | pairs[i].second;
      if (after == cov) continue;
      gains[pairs[i].first] +=
          row[static_cast<std::uint32_t>(popcount64(after))] - base;
    }
  });
}

/// One touch's ν delta: exactly +0.0 for saturated samples (the fraction
/// row is flat at 1.0 past the threshold) and for masks already covered,
/// so unconditionally accumulating the return value reproduces the
/// skip-based reference sum bit for bit.
[[gnu::always_inline]] inline double touch_nu_delta(
    const TouchGainView& view, const RicPool::Touch& touch) {
  if ((view.saturated[touch.sample >> 6] >> (touch.sample & 63)) & 1ULL) {
    return 0.0;  // dead sample: skip before the covered load can miss
  }
  const std::uint64_t before = view.covered[touch.sample];
  const std::uint64_t after = before | touch.mask;
  if (after == before) return 0.0;
  const double* row =
      view.fraction_table + touch.threshold * (kMaxNuThreshold + 1);
  return row[static_cast<std::uint32_t>(popcount64(after))] -
         row[static_cast<std::uint32_t>(popcount64(before))];
}

double marginal_nu(const TouchGainView& view,
                   const RicPool::Touch* touches, std::size_t count) {
  double gain = 0.0;
  std::size_t i = 0;
#if IMC_GK_VECTOR == 512
  // Gather-based batch: 8 touches per iteration. Lane deltas are added
  // into `gain` in lane (= touch) order, so the accumulation chain is the
  // exact left-to-right sequence the scalar loop runs. Saturated samples
  // are NOT pre-skipped here — their gathered delta is exactly +0.0 (row
  // flat at 1.0), preserving bit-identity; the gathers hide the random
  // covered[] latency the scalar path can only prefetch.
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  alignas(64) double deltas[8];
  for (; i + 8 <= count; i += 8) {
    const __m512i a = _mm512_loadu_si512(touches + i);
    const __m512i b = _mm512_loadu_si512(touches + i + 4);
    // Touch layout {u32 sample, u32 threshold, u64 mask}: even 64-bit
    // lanes hold sample | threshold << 32, odd lanes hold the mask.
    const __m512i meta = _mm512_permutex2var_epi64(a, even, b);
    const __m512i masks = _mm512_permutex2var_epi64(a, odd, b);
    const __m256i samples = _mm512_cvtepi64_epi32(meta);
    const __m512i h64 = _mm512_srli_epi64(meta, 32);
    const __m512i before =
        _mm512_i32gather_epi64(samples, view.covered, 8);
    const __m512i after = _mm512_or_si512(before, masks);
    // Row offset h * 65 == (h << 6) + h; entries are doubles (scale 8).
    const __m512i row_base =
        _mm512_add_epi64(_mm512_slli_epi64(h64, 6), h64);
    const __m512d val_before = _mm512_i64gather_pd(
        _mm512_add_epi64(row_base, _mm512_popcnt_epi64(before)),
        view.fraction_table, 8);
    const __m512d val_after = _mm512_i64gather_pd(
        _mm512_add_epi64(row_base, _mm512_popcnt_epi64(after)),
        view.fraction_table, 8);
    _mm512_store_pd(deltas, _mm512_sub_pd(val_after, val_before));
    for (unsigned j = 0; j < 8; ++j) gain += deltas[j];
  }
#endif
  const std::size_t prefetched =
      count > kCoveredPrefetchDistance ? count - kCoveredPrefetchDistance
                                       : i;
  for (; i < prefetched; ++i) {
    prefetch_read(
        &view.covered[touches[i + kCoveredPrefetchDistance].sample]);
    gain += touch_nu_delta(view, touches[i]);
  }
  for (; i < count; ++i) gain += touch_nu_delta(view, touches[i]);
  return gain;
}

}  // namespace

const GainKernelOps& ops() {
  static const GainKernelOps kOps{IMC_GK_KIND,        IMC_GK_NAME,
                                  &accumulate_influenced, &accumulate_nu,
                                  &update_influenced,     &marginal_nu};
  return kOps;
}

}  // namespace IMC_GK_NAMESPACE
}  // namespace gain_detail
}  // namespace imc
