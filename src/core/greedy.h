// Greedy seed-selection engines over a RicPool.
//
// * greedy_c_hat — plain re-evaluating greedy on the NON-submodular ĉ_R.
//   Lazy (CELF) evaluation is unsound here: a node's marginal can GROW as
//   seeds accumulate (supermodular behavior near thresholds), so every
//   round takes the argmax over every candidate's exact gain. Those gains
//   are kept as one integer row (CHatGainRow): round 0 sweeps the pool,
//   later rounds only patch the samples the previous pick changed. Ties on
//   the primary objective are broken by the ν marginal (progress toward
//   thresholds), then appearance count — without this, early rounds of the
//   bounded-threshold case (h >= 2, where no single node can cross any
//   threshold) would pick arbitrarily.
// * celf_greedy_nu — CELF lazy greedy on the submodular ν_R (Lemma 3),
//   giving the classic (1 − 1/e) guarantee for the relaxed objective.
//
// Every engine accepts GreedyOptions to run its marginal-gain sweep on a
// thread pool. The parallel path reduces per-chunk winners under the exact
// serial tie-break order (a strict total order), so parallel and serial
// selection return BIT-IDENTICAL seed sets for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "sampling/ric_pool.h"
#include "util/thread_pool.h"

namespace imc {

class CoverageState;

struct GreedyResult {
  std::vector<NodeId> seeds;
  double c_hat = 0.0;  // ĉ_R(seeds)
  double nu = 0.0;     // ν_R(seeds)
};

struct GreedyOptions {
  /// Run the per-round argmax sweep on a thread pool. Selection stays
  /// bit-identical to the serial path regardless of thread count.
  bool parallel = false;
  /// Pool for the sweep, and the pool UBG runs its ν lane on (whether or
  /// not `parallel` is set); nullptr selects default_pool().
  ThreadPool* pool = nullptr;
  /// Candidate sets smaller than this run serially even when `parallel`
  /// is set (chunking overhead dominates below it). Does not affect the
  /// selected seeds, only where the sweep executes.
  std::size_t min_parallel_candidates = 64;
  /// Number of shards the parallel ĉ row work splits into (0 = one per
  /// worker thread): sample slabs for the round-0 sweep (see
  /// RicPool::selection_shards), chunks of the pick's touch span for the
  /// row updates. Per-shard rows are reduced in ascending shard order and
  /// hold exact integers, so the value never affects the selected seeds;
  /// it exists so tests and the differential fuzzer can randomize the
  /// decomposition.
  std::size_t shards = 0;
};

/// Plain greedy on ĉ_R. One full sweep of the pool (round 0), then per
/// pick one walk over the live samples that pick changes; the tie-break
/// probes only the max-gain nodes.
[[nodiscard]] GreedyResult greedy_c_hat(const RicPool& pool, std::uint32_t k,
                                        const GreedyOptions& options = {});

/// Every node's influenced (ĉ) gain against a CoverageState's seed set —
/// the row greedy_c_hat keeps across rounds (DESIGN.md §14). `sweep` ==
/// nullptr runs serially; otherwise the work is sharded over `sweep`,
/// `shards` as in GreedyOptions. The row is exact integer state, so the
/// result is the same for any sharding, thread count and kernel variant.
struct CHatGainRow {
  std::vector<std::uint64_t> gains;    // per node
  std::vector<std::uint64_t> scratch;  // per-shard rows, reused

  /// Sweeps the whole pool: gains = accumulate_influenced_gains over
  /// [0, pool size).
  void compute(const CoverageState& state, ThreadPool* sweep,
               std::size_t shards);
  /// Patches the row for `seed` joining `state`. Call BEFORE
  /// state.add_seed(seed); afterwards the row equals a fresh compute().
  void update(const CoverageState& state, NodeId seed, ThreadPool* sweep,
              std::size_t shards);
};

/// CELF lazy greedy on ν_R; near-linear in practice. With `parallel` the
/// stale-entry refreshes at each round run as batched bursts on the pool.
[[nodiscard]] GreedyResult celf_greedy_nu(const RicPool& pool,
                                          std::uint32_t k,
                                          const GreedyOptions& options = {});

/// Plain (non-lazy) greedy on ν_R — ablation twin of celf_greedy_nu; the
/// two must pick identical seed sets (asserted in tests).
[[nodiscard]] GreedyResult plain_greedy_nu(const RicPool& pool,
                                           std::uint32_t k,
                                           const GreedyOptions& options = {});

}  // namespace imc
