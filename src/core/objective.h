// Incremental evaluation of the two MAXR objectives over a RicPool:
//   ĉ_R(S)  — count of influenced samples (paper eq. 3, non-submodular),
//   ν_R(S)  — fractional upper bound Σ min(|I_g|/h_g, 1) (eq. 7, submodular).
//
// CoverageState keeps, per sample, the mask of community members currently
// reached by the seed set, so adding one seed and querying one candidate's
// marginal are both O(#samples the node touches).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/gain_kernels.h"
#include "graph/types.h"
#include "sampling/ric_pool.h"
#include "util/mathx.h"

namespace imc {

/// One candidate's marginal gains plus its static tie-break keys. The
/// comparators below define a strict total order (node ids are distinct),
/// so combining per-chunk winners in ANY order yields the same argmax the
/// serial left-to-right sweep finds — the keystone of the deterministic
/// parallel selection.
struct CandidateScore {
  NodeId node = kInvalidNode;
  std::uint64_t influenced_gain = 0;  // Δ #influenced samples (ĉ primary)
  double nu_gain = 0.0;               // Δ ν_sum (ĉ tie-break / ν primary)
  std::uint32_t appearance = 0;       // #samples touched (ĉ tie-break)

  [[nodiscard]] bool valid() const noexcept { return node != kInvalidNode; }
};

/// ĉ order: influenced gain, then ν gain, then appearance count, then
/// smaller node id. An invalid score loses to any valid one.
[[nodiscard]] bool beats_c_hat(const CandidateScore& a,
                               const CandidateScore& b) noexcept;

/// ν order: ν gain, then smaller node id (matches the CELF heap order).
[[nodiscard]] bool beats_nu(const CandidateScore& a,
                            const CandidateScore& b) noexcept;

class CoverageState {
 public:
  explicit CoverageState(const RicPool& pool);

  /// Clears back to the empty seed set.
  void reset();

  /// Adds one seed (idempotent — re-adding is a no-op).
  void add_seed(NodeId v);

  [[nodiscard]] const std::vector<NodeId>& seeds() const noexcept {
    return seeds_;
  }

  /// Whether v is in the current seed set. Hot path: debug-asserted bounds.
  [[nodiscard]] bool is_seed(NodeId v) const {
    assert(v < is_seed_.size());
    return is_seed_[v] != 0;
  }

  // -- current values ------------------------------------------------------
  /// Number of samples with popcount(covered) >= threshold.
  [[nodiscard]] std::uint64_t influenced() const noexcept {
    return influenced_;
  }
  /// Σ_g min(covered_g / h_g, 1) (unnormalized ν; multiply by b/|R|).
  /// Kahan-compensated so hundreds of incremental add_seed deltas stay
  /// within ~1e-12 relative of a from-scratch recomputation (RicPool::nu).
  [[nodiscard]] double nu_sum() const noexcept { return nu_sum_.value(); }

  /// ĉ_R(current seeds) in benefit units.
  [[nodiscard]] double c_hat() const noexcept;
  /// ν_R(current seeds) in benefit units.
  [[nodiscard]] double nu() const noexcept;

  // -- candidate marginals (no mutation) ------------------------------------
  /// Increase of nu_sum() if v were added.
  [[nodiscard]] double marginal_nu(NodeId v) const;

  // -- batch chunk evaluation (no mutation) ---------------------------------
  /// Scores candidates[begin, end) (current seeds skipped) and returns the
  /// slice winner under `beats_nu`; invalid when the slice is empty or all
  /// seeds. Each parallel_for chunk runs this over its slice; gains are
  /// computed per node independent of the chunking, so reducing chunk
  /// winners with `beats_nu` reproduces the serial sweep bit-for-bit.
  [[nodiscard]] CandidateScore best_candidate_nu(
      std::span<const NodeId> candidates, std::size_t begin,
      std::size_t end) const;

  /// Sample-major ĉ marginal pass over samples [begin, end): for every
  /// not-yet-influenced sample, bumps gains[v] by one for each toucher v
  /// whose mask lifts the sample past its threshold. Summed over any
  /// partition of [0, pool size) this yields, for every node v, exactly
  /// the increase of influenced() if v were added (current seeds get 0:
  /// their masks are already folded into covered). The inversion reads
  /// each covered mask once sequentially instead of once per touch at
  /// random, and skips dead samples wholesale; integer accumulation makes
  /// chunk sums independent of the partition, so parallel callers stay
  /// deterministic. Executed by the active gain kernel
  /// (core/gain_kernels.h) — SIMD variants are bit-identical to scalar,
  /// so the dispatch never affects results.
  void accumulate_influenced_gains(std::uint32_t begin, std::uint32_t end,
                                   std::uint64_t* gains) const;

  /// ĉ row update for picking `seed` next, over touches_of(seed)[begin,
  /// end): adds, modulo 2^64, the change every node's influenced gain
  /// undergoes once `seed` joins. Call BEFORE add_seed(seed). A row that
  /// held accumulate_influenced_gains over the full pool then holds it for
  /// the grown seed set, exactly; each sample appears once in the seed's
  /// span, so chunks over disjoint touch ranges sum to the same row.
  /// Executed by the active gain kernel, same bit-identity guarantee.
  void update_influenced_gains(NodeId seed, std::size_t begin,
                               std::size_t end, std::uint64_t* gains) const;

  /// Sample-major ν marginal pass over the whole pool: adds each touch's
  /// fraction-table delta into gains[v]. Bit-identical to marginal_nu(v)
  /// for every node: a node's CSR touches are sorted by sample id, so the
  /// per-node accumulation order — and hence the exact floating-point
  /// association — matches the node-major loop. Chunked sums would NOT
  /// reproduce that association, so parallel callers keep the node-major
  /// path instead. Executed by the active gain kernel, same bit-identity
  /// guarantee as above.
  void accumulate_nu_gains(double* gains) const;

  [[nodiscard]] const RicPool& pool() const noexcept { return *pool_; }

 private:
  /// Borrowed view of the per-sample state for the sample-major kernels.
  [[nodiscard]] SampleGainView sample_view() const noexcept;

  /// Resets nu_base_ to every sample's untouched base fraction row_h[0].
  void init_nu_base();

  const RicPool* pool_;
  /// Base of the precomputed ν fraction table (nu_fraction_row(0)); rows
  /// have stride kMaxNuThreshold + 1. Replaces the per-touch fdiv with an
  /// L1 load — entries are the same doubles the division would produce.
  const double* fraction_table_ = nullptr;
  std::vector<std::uint64_t> covered_;   // per sample: reached member mask
  /// One bit per sample, set once covered reaches the threshold. Saturated
  /// samples contribute exactly 0 to every marginal, so the node-major
  /// sweeps skip them with an L1-resident bit test (the bitmap is |R|/8
  /// bytes) instead of a covered_ load that misses to L2/L3.
  std::vector<std::uint64_t> saturated_;
  /// Per sample: the CURRENT base fraction row_h[popcount(covered)],
  /// maintained on every covered change. The sample-major ν kernel then
  /// does a pure lookup-subtract per touch — no per-sample popcount of the
  /// covered word. Exact invariant: rows are flat at 1.0 past h, so
  /// skipping updates once saturated still leaves the stored value equal
  /// to the recomputed one.
  std::vector<double> nu_base_;
  std::vector<std::uint8_t> is_seed_;    // per node
  std::vector<NodeId> seeds_;
  std::uint64_t influenced_ = 0;
  KahanSum nu_sum_;  // compensated: matches RicPool::nu's KahanSum
};

}  // namespace imc
