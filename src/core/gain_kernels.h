// Explicitly vectorized marginal-gain kernels for the MAXR selection hot
// loops (DESIGN.md §14, "Gain kernels & slab sharding").
//
// Every greedy/CELF round reduces to one of four sweep primitives:
//
//   * accumulate_influenced_gains — sample-major ĉ pass: for each live
//     (non-saturated) sample, bump gains[v] for every toucher v whose mask
//     lifts the sample past its threshold (popcount(cov | mask) >= h).
//   * update_influenced_gains — the ĉ row update after one pick s: for
//     each live sample whose covered mask s grows (cov -> cov' = cov | m_s),
//     walk the sample's touchers once and apply the change of their
//     contribution, [g stays live ∧ popcount(cov' | m_v) >= h] −
//     [popcount(cov | m_v) >= h]. Lets greedy keep the round-0 row instead
//     of re-running the pass above every round.
//   * accumulate_nu_gains — sample-major ν pass: add each touch's
//     fraction-table delta row[popcount(cov | mask)] - base_g into
//     gains[v], where base_g is the PRECOMPUTED per-sample base fraction
//     (CoverageState maintains nu_base so the kernel is a pure
//     gather-subtract — no per-sample popcount of the covered word).
//   * marginal_nu — node-major CSR probe: one node's ν gain, accumulated
//     left-to-right over its (sample-sorted) touch span.
//
// All four are memory/popcount-bound over 64-bit member masks. Hardware
// popcount is part of the build baseline (POPCNT on x86-64, see
// util/mathx.h), so the only thing decided at runtime is the SIMD width:
//
//   kScalar  one sample per iteration, baseline flags only — THE reference
//            implementation every other variant is pinned against
//            (bit-identical, enforced by tests/core/gain_kernel_test.cpp
//            and the differential fuzzer)
//   kAvx2    cov | mask + popcount batched 4 samples per iteration via the
//            vpshufb nibble-LUT popcount
//   kAvx512  8 per iteration via native vpopcntq (requires AVX-512
//            F/BW/VL + VPOPCNTDQ)
//
// Shared by all variants: a word-at-a-time saturation skip — the outer
// loop walks the saturation bitmap one 64-sample word at a time and
// early-continues on all-saturated words, so dead slabs cost one load per
// 64 samples instead of one test per sample.
//
// Dispatch: the best supported variant wins by default; the IMC_KERNEL
// environment variable (scalar|avx2|avx512) overrides it for
// testing, and set_gain_kernel() overrides it programmatically. Variants
// are bit-identical by construction — integer popcounts are exact, the ν
// deltas are the same table doubles subtracted in the same per-node
// order — so selection results never depend on the dispatch decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "sampling/ric_pool.h"

namespace imc {

/// Which implementation family a kernel table uses. Order is "strength":
/// dispatch picks the highest supported value.
enum class GainKernelKind : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Sample-major sweep inputs: per-sample state owned by CoverageState plus
/// the pool's sample-major arena. Raw pointers — the kernel layer sits
/// below CoverageState and borrows everything for the duration of a call.
struct SampleGainView {
  const std::uint64_t* covered = nullptr;    // per sample: reached mask
  const std::uint64_t* saturated = nullptr;  // bitmap, 1 bit per sample
  const std::uint32_t* thresholds = nullptr;         // per sample: h_g
  const double* nu_base = nullptr;  // per sample: row_h[popcount(covered)]
  const std::uint64_t* sample_offsets = nullptr;     // size+1 entries
  const TouchPair* sample_arena = nullptr;
  const double* fraction_table = nullptr;    // nu_fraction_row(0)
};

/// Node-major probe inputs (the CSR touch span comes per call).
struct TouchGainView {
  const std::uint64_t* covered = nullptr;
  const std::uint64_t* saturated = nullptr;
  const double* nu_base = nullptr;           // row_h[popcount(covered)]
  const double* fraction_table = nullptr;
};

/// One variant's entry points. Function pointers, not virtuals: the calls
/// are per-slab / per-candidate, so one indirect call amortizes over
/// thousands of touches.
struct GainKernelOps {
  GainKernelKind kind = GainKernelKind::kScalar;
  const char* name = "scalar";
  void (*accumulate_influenced)(const SampleGainView& view,
                                std::uint32_t begin, std::uint32_t end,
                                std::uint64_t* gains) = nullptr;
  void (*accumulate_nu)(const SampleGainView& view, std::uint32_t begin,
                        std::uint32_t end, double* gains) = nullptr;
  /// `touches` is (a contiguous chunk of) the picked seed's CSR span and
  /// `view` the coverage BEFORE the seed joins. Adds every affected node's
  /// change of influenced gain into gains[v] modulo 2^64, so a row that
  /// starts at zero collects two's-complement signed deltas.
  void (*update_influenced)(const SampleGainView& view,
                            const RicPool::Touch* touches,
                            std::size_t count, std::uint64_t* gains) = nullptr;
  double (*marginal_nu)(const TouchGainView& view,
                        const RicPool::Touch* touches,
                        std::size_t count) = nullptr;
};

/// Whether `kind` can run on this host (kScalar is always true).
[[nodiscard]] bool gain_kernel_supported(GainKernelKind kind) noexcept;

/// Every variant this host can run, in ascending strength: kScalar first,
/// the dispatch default last. The one list of kinds the tests, the
/// differential fuzzer and the dispatcher iterate.
[[nodiscard]] std::vector<GainKernelKind> supported_gain_kernels();

/// The ops table of a SPECIFIC variant. Precondition: supported — throws
/// std::invalid_argument otherwise (tests exercise exactly the supported
/// set via gain_kernel_supported).
[[nodiscard]] const GainKernelOps& gain_kernel_ops(GainKernelKind kind);

/// The active ops table: resolved once on first use from IMC_KERNEL (an
/// unsupported or unrecognized value falls back to the best supported
/// variant with a one-time stderr note), overridable via set_gain_kernel.
[[nodiscard]] const GainKernelOps& active_gain_kernel_ops() noexcept;

/// Kind of the active table.
[[nodiscard]] GainKernelKind active_gain_kernel() noexcept;

/// Forces the active kernel (tests / differential fuzzing). Returns false
/// — leaving the active kernel unchanged — when `kind` is unsupported on
/// this host. Not synchronized against concurrently RUNNING sweeps; call
/// between selections, as the tests do.
bool set_gain_kernel(GainKernelKind kind) noexcept;

/// Display name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* gain_kernel_name(GainKernelKind kind) noexcept;

/// Parses an IMC_KERNEL-style name; nullopt for anything unrecognized.
[[nodiscard]] std::optional<GainKernelKind> parse_gain_kernel(
    std::string_view name) noexcept;

}  // namespace imc
