// A pool R of RIC samples with the inverted index every MAXR algorithm
// needs: node -> {(sample id, member mask)}. Supports incremental growth
// (the SSA-style doubling of IMCAF, Alg. 5) and parallel generation.
//
// Memory layout (see DESIGN.md §8, "Pool memory layout"): the inverted
// index is a flat CSR — `touch_offsets_` (node -> begin, n+1 entries) over
// one contiguous `touches_` arena — instead of a vector-of-vectors, so the
// greedy argmax sweep walks one cache-friendly span per candidate with no
// pointer chasing. Per-sample metadata the hot loops need is split into
// SoA arrays (`thresholds_`, `source_community_`): a marginal-gain probe
// loads 4 bytes per sample, not a whole RicSample. There is NO retained
// AoS sample store: the sample-major arena (`sample_offsets_` +
// `sample_arena_`) IS the canonical per-sample storage, and `sample()`
// materializes a RicSample view on demand (serialization/tests only).
// One sample generator (DESIGN.md §9): `stage_samples()` fills per-part
// arenas via `RicSampler::generate_into`, `commit_staged()` stitches them
// into the sample-major arena in index order, and `grow()` is exactly that
// stage + commit. The CSR is rebuilt incrementally: every mutation
// (`commit_staged()`, `append()`) merges its fresh samples with a two-pass
// build (per-chunk count, exclusive prefix-sum, parallel scatter) before
// returning, so the index is never stale and const readers never write.
// A delta repair regenerates through the same part loop and patches both
// arenas in place (DESIGN.md §16).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "community/community_set.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "sampling/ric_sample.h"
#include "util/arena_vector.h"
#include "util/rng.h"

namespace imc {

class ThreadPool;
class PoolStagingArena;

class RicPool {
 public:
  /// Index entry: which sample a node touches and which members it reaches.
  /// The sample's threshold rides along in what would otherwise be struct
  /// padding (16 bytes either way): the marginal-gain sweeps then read it
  /// sequentially with the touch instead of issuing a second random load
  /// into `thresholds_[sample]` for every touch.
  struct Touch {
    std::uint32_t sample = 0;
    std::uint32_t threshold = 0;
    std::uint64_t mask = 0;
  };
  static_assert(sizeof(Touch) == 16, "Touch must stay two words");

  /// Growth watermark, captured by grow_epoch(). A staging arena records
  /// it at stage time and commit_staged() requires it unchanged; snapshots
  /// persist it. `grows` counts completed grow()/append() operations, so a
  /// pool that was rebuilt to the same size still reads as a different
  /// lineage. `repairs` counts completed invalidate_and_repair() calls: a
  /// repair rewrites samples IN PLACE (size and grows unchanged), so a
  /// staged batch keys on it to detect that the prefix it was staged
  /// against is no longer the prefix the pool serves (DESIGN.md §16).
  struct PoolEpoch {
    std::uint64_t samples = 0;  // pool size at capture
    std::uint64_t grows = 0;    // growth operations completed at capture
    std::uint64_t repairs = 0;  // delta repairs completed at capture
    friend bool operator==(const PoolEpoch&, const PoolEpoch&) = default;
  };

  RicPool(const Graph& graph, const CommunitySet& communities,
          DiffusionModel model = DiffusionModel::kIndependentCascade);

  // Movable (the sampler cache mutex is per-object, not part of the value).
  RicPool(RicPool&& other) noexcept;
  RicPool& operator=(RicPool&& other) noexcept;
  RicPool(const RicPool&) = delete;
  RicPool& operator=(const RicPool&) = delete;

  /// Appends `count` fresh samples, deterministically derived from `seed`
  /// and the current pool size (so grow(a); grow(b) == grow(a+b) given the
  /// same base seed, for ANY parallelism/worker combination — per-sample
  /// RNG substreams make chunking irrelevant). A synchronous
  /// stage_samples() into a local arena (no cancel predicate) followed by
  /// commit_staged(), so a direct grow and a committed stage are one code
  /// path. When `parallel` is set the generation runs on `workers`
  /// (default_pool() when null) plus the calling thread, which help-runs
  /// parts while it waits. Throws std::length_error once sample ids would
  /// no longer fit in 32 bits.
  void grow(std::uint64_t count, std::uint64_t seed, bool parallel = true,
            ThreadPool* workers = nullptr);

  /// Generates the samples grow(count, seed, ...) appends next — per-sample
  /// RNG substreams splitmix_of(seed, size() + i), one part when serial and
  /// ~256 samples per part otherwise, each part emitted into its own arena
  /// via RicSampler::generate_into — into caller-owned staging buffers
  /// without touching the pool (const: the live arenas, the CSR index and
  /// the PoolEpoch watermark are all unchanged). `commit_staged` later
  /// splices the batch in, or the staging arena is simply dropped when the
  /// speculation missed. Sampler instances are cached and reused across
  /// parts and calls (no O(n) scratch construction per part). `cancelled`
  /// (may be empty) is polled once per sample; on cancellation the arena is
  /// left incomplete (complete() == false) and commit will refuse it. Safe
  /// to run concurrently with const readers of this pool (the engine
  /// overlaps it with solve/estimate); the only shared mutable state is the
  /// mutex-guarded sampler cache. Throws std::length_error when the batch
  /// would overflow 32-bit sample ids.
  void stage_samples(std::uint64_t count, std::uint64_t seed, bool parallel,
                     ThreadPool* workers,
                     const std::function<bool()>& cancelled,
                     PoolStagingArena& out) const;

  /// Appends a batch staged by stage_samples() to the pool — stitch into
  /// the sample-major arena in index order, register metadata, merge the
  /// CSR index with the two-pass build, bump the growth watermark — so
  /// the resulting pool (content AND PoolEpoch) is bit-identical to having
  /// called grow(staged.count(), staged.seed()) at the staging point.
  /// Consumes the arena (left cleared). Throws std::invalid_argument when
  /// the arena is incomplete (cancelled staging) or stale (the pool grew
  /// since staging — base/epoch mismatch); the pool is untouched then.
  void commit_staged(PoolStagingArena&& staged, bool parallel = true,
                     ThreadPool* workers = nullptr);

  /// Appends one externally produced sample (tests, hand-made pools).
  /// Validates community id, threshold and touching node ids; throws
  /// std::invalid_argument on mismatch with the bound structures. The CSR
  /// index is merged before returning, exactly as grow() does.
  void append(RicSample sample);

  [[nodiscard]] std::uint64_t size() const noexcept {
    return thresholds_.size();
  }

  /// Watermark of the current growth state. Samples are append-only, so a
  /// captured epoch permanently names the prefix [0, epoch.samples).
  [[nodiscard]] PoolEpoch grow_epoch() const noexcept {
    return PoolEpoch{size(), grows_, repairs_};
  }

  /// Outcome of invalidate_and_repair(): how much of the pool had to be
  /// regenerated. `repaired == 0` means the delta could not have changed
  /// any existing sample (the epoch still bumps — future samples could
  /// differ, so staged arenas must not survive).
  struct RepairStats {
    std::uint64_t repaired = 0;  // samples regenerated in place
    std::uint64_t total = 0;     // pool size at repair time
  };

  /// Regenerates, in place, exactly the samples a graph/community delta
  /// could have changed, leaving every other sample byte-identical — the
  /// incremental half of the dynamic-graph path (DESIGN.md §16). Call
  /// AFTER the bound Graph/CommunitySet were mutated (apply_delta in
  /// graph/delta.h returns the `effects` to pass here). Affected samples
  /// are identified from the pre-delta inverted index: a reverse RIC walk
  /// only examines a node's in-edges when it dequeues that node, and every
  /// dequeued node is in the sample's touch set, so the samples whose
  /// realizations could differ are exactly those touching a node in
  /// `effects.changed_in_nodes` — plus those sourced at a community in
  /// `effects.changed_communities` (their member list, and hence mask bit
  /// layout, moved; the ρ source distribution depends only on benefits,
  /// which deltas never alter). Each affected sample g is regenerated with
  /// its original splitmix substream Rng(splitmix_of(seed, g)), so the
  /// repaired pool is BIT-IDENTICAL to a from-scratch rebuild on the
  /// mutated structures with the same seed — `seed` must therefore be the
  /// same base seed every grow() of this pool used (the engine's
  /// config_.seed discipline). Both arenas are patched in place, with one
  /// two-pass row patch each: pass 1 compacts out the repaired samples'
  /// pairs (sample-major) and every touch of a repaired sample (CSR), pass
  /// 2 merges the regenerated ones in at their final offsets, in sample-id
  /// order within each CSR row — the same bytes a rebuild produces. With
  /// a thread pool the two patches run side by side, one on a worker and
  /// one on the calling thread. Every allocation happens before the first
  /// write, so nothing throws once the pool is being rewritten. The
  /// community_frequency counters are recounted, not drifted. Bumps
  /// PoolEpoch::repairs when any sample was regenerated OR any future
  /// sample could differ (i.e. whenever `effects` is non-empty),
  /// invalidating staged arenas. Returns how many
  /// samples were repaired. Not safe to run concurrently with readers or
  /// stagers of this pool. Throws std::invalid_argument (pool untouched)
  /// when the mutated structures violate sampling invariants — community
  /// population > kMaxCommunityPopulation, LT in-weight sums > 1.
  RepairStats invalidate_and_repair(const DeltaEffects& effects,
                                    std::uint64_t seed, bool parallel = true,
                                    ThreadPool* workers = nullptr);

  /// Every arena the pool owns, in one movable bundle — the unit the
  /// binary snapshot format (sampling/pool_snapshot.h) persists and
  /// restores. Includes the CSR index so a restored pool answers
  /// touches_of() without an O(pool) rebuild.
  struct PoolArenas {
    ArenaVector<std::uint32_t> thresholds;
    ArenaVector<CommunityId> source_community;
    ArenaVector<std::uint32_t> community_frequency;
    ArenaVector<std::uint64_t> sample_offsets;
    ArenaVector<std::pair<NodeId, std::uint64_t>> sample_arena;
    ArenaVector<std::uint64_t> touch_offsets;
    ArenaVector<Touch> touches;
  };

  /// Read-only view of every arena plus the growth watermark — what the
  /// snapshot writer serializes.
  struct SnapshotView {
    std::span<const std::uint32_t> thresholds;
    std::span<const CommunityId> source_community;
    std::span<const std::uint32_t> community_frequency;
    std::span<const std::uint64_t> sample_offsets;
    std::span<const std::pair<NodeId, std::uint64_t>> sample_arena;
    std::span<const std::uint64_t> touch_offsets;
    std::span<const Touch> touches;
    PoolEpoch epoch;
    DiffusionModel model = DiffusionModel::kIndependentCascade;
  };
  [[nodiscard]] SnapshotView snapshot_view() const;

  /// Installs fully built arenas (the attach back door for
  /// sampling/pool_snapshot.cpp, which reads each snapshot section into
  /// its own owned arena). The pool takes them over as they are. Validates
  /// the structural invariants (sizes coherent, both offset tables'
  /// endpoints AND monotonicity — so no span can wrap out of bounds —
  /// epoch matches); the content checks, community frequencies included,
  /// run in the loader on the restored pool.
  /// Throws std::invalid_argument on any structural mismatch.
  [[nodiscard]] static RicPool restore_snapshot(const Graph& graph,
                                                const CommunitySet& communities,
                                                DiffusionModel model,
                                                PoolEpoch epoch,
                                                PoolArenas&& arenas);

  /// Materializes sample g from the arenas (community/threshold from the
  /// SoA metadata, touching pairs from the sample-major arena). This is
  /// the slow path for serialization, BT instance construction and tests;
  /// hot loops read the arenas directly. Throws std::out_of_range.
  [[nodiscard]] RicSample sample(std::uint32_t i) const;

  /// Touch list of sample g — the same (node, mask) pairs as
  /// sample(g).touching, but served from one contiguous sample-major arena
  /// (samples are concatenated in insertion order, so maintenance on
  /// grow/append is a plain append — no rebuild, never stale). The
  /// sample-major marginal passes stream this arena end to end instead of
  /// hopping through |R| scattered heap vectors. Hot path: debug-asserted.
  [[nodiscard]] std::span<const std::pair<NodeId, std::uint64_t>>
  sample_touches(std::uint32_t g) const {
    assert(g + 1 < sample_offsets_.size());
    const std::uint64_t begin = sample_offsets_[g];
    return {sample_arena_.data() + begin, sample_offsets_[g + 1] - begin};
  }

  /// Per-sample begin offsets into sample_arena() (size()+1 entries; raw
  /// counterpart of sample_touches() for the gain-kernel sweeps).
  [[nodiscard]] std::span<const std::uint64_t> sample_offsets()
      const noexcept {
    return sample_offsets_.span();
  }
  /// The contiguous (node, mask) pair arena behind sample_touches().
  [[nodiscard]] std::span<const std::pair<NodeId, std::uint64_t>>
  sample_arena() const noexcept {
    return sample_arena_.span();
  }

  /// One slab of the sample id range — the unit of work of the sharded
  /// selection sweeps (core/greedy.cpp, DESIGN.md §14).
  struct SampleShard {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;  // exclusive
  };

  /// Splits [0, samples) into at most `shards` contiguous slabs of
  /// near-equal size. Every boundary except the last is a multiple of 64,
  /// so each slab owns whole saturation-bitmap words (the word-at-a-time
  /// skip never straddles slabs) and slab starts land on cache-line/page
  /// boundaries of the covered array — under first-touch allocation the
  /// pages a worker sweeps are the pages it faulted in. `shards == 0` is
  /// treated as 1. The decomposition is a pure function of (samples,
  /// shards): reducing per-slab results in ascending slab order is a fixed
  /// accumulation sequence, independent of execution timing.
  [[nodiscard]] static std::vector<SampleShard> selection_shards(
      std::uint64_t samples, unsigned shards);

  /// Samples touched by node v (empty for untouched nodes). Hot path:
  /// bounds are debug-asserted, not checked in release builds.
  [[nodiscard]] std::span<const Touch> touches_of(NodeId v) const {
    assert(v + 1 < touch_offsets_.size());
    const std::uint64_t begin = touch_offsets_[v];
    return {touches_.data() + begin, touch_offsets_[v + 1] - begin};
  }

  /// Number of samples node v touches (the MAF "appearance" count).
  [[nodiscard]] std::uint32_t appearance_count(NodeId v) const {
    return static_cast<std::uint32_t>(touches_of(v).size());
  }

  // -- SoA metadata (hot-loop view of the samples) ---------------------------
  /// h_g of sample g. Debug-asserted, unchecked in release.
  [[nodiscard]] std::uint32_t threshold_of(std::uint32_t g) const {
    assert(g < thresholds_.size());
    return thresholds_[g];
  }
  /// Per-sample thresholds, indexed by sample id.
  [[nodiscard]] std::span<const std::uint32_t> thresholds() const noexcept {
    return thresholds_.span();
  }
  /// Per-sample source community ids, indexed by sample id.
  [[nodiscard]] std::span<const CommunityId> source_communities()
      const noexcept {
    return source_community_.span();
  }

  /// CSR begin offsets (node -> first touch; node_count()+1 entries). The
  /// span [touch_offsets()[v], touch_offsets()[v+1]) indexes touch_arena().
  [[nodiscard]] std::span<const std::uint64_t> touch_offsets()
      const noexcept {
    return touch_offsets_.span();
  }
  /// The contiguous touch arena the offsets point into.
  [[nodiscard]] std::span<const Touch> touch_arena() const noexcept {
    return touches_.span();
  }

  /// Number of samples whose source community is c (MAF community
  /// frequency). O(1): counters are maintained during grow/append.
  [[nodiscard]] std::uint32_t community_frequency(CommunityId c) const {
    return c < community_frequency_.size() ? community_frequency_[c] : 0;
  }

  /// All per-community source counts, indexed by community id.
  [[nodiscard]] std::span<const std::uint32_t> community_frequencies()
      const noexcept {
    return community_frequency_.span();
  }

  /// ĉ_R(S) = (b / |R|) · #influenced samples (paper eq. 3). O(Σ_{v∈S}
  /// |touches_of(v)|), exact; the reset is epoch-based, not O(|R|).
  [[nodiscard]] double c_hat(std::span<const NodeId> seeds) const;

  /// ν_R(S) = (b / |R|) Σ min(|I_g(S)| / h_g, 1) (paper eq. 7).
  [[nodiscard]] double nu(std::span<const NodeId> seeds) const;

  /// Number of samples influenced by S (the raw MAXR objective).
  [[nodiscard]] std::uint64_t influenced_count(
      std::span<const NodeId> seeds) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const CommunitySet& communities() const noexcept {
    return *communities_;
  }
  [[nodiscard]] double total_benefit() const noexcept {
    return total_benefit_;
  }
  [[nodiscard]] DiffusionModel model() const noexcept { return model_; }

 private:
  /// Per-sample RNG seed derivation (stable across chunkings).
  [[nodiscard]] static std::uint64_t splitmix_of(std::uint64_t seed,
                                                 std::uint64_t index);

  /// Throws std::length_error when adding `count` samples would push ids
  /// past the 32-bit Touch::sample range.
  void check_capacity(std::uint64_t count) const;

  /// The one sample generator behind stage_samples(), grow() and
  /// invalidate_and_repair(): fills `out`'s parts with the samples
  /// index_of(0), ..., index_of(count - 1), sample index_of(i) drawn from
  /// Rng(splitmix_of(seed, index_of(i))). Parts hold contiguous runs of i,
  /// so concatenating them in order yields i order for any part count.
  /// Runs serially when `pool` is null; `cancelled` (may be empty) is
  /// polled once per sample and sets out.complete() false when it fires.
  template <typename IndexOf>
  void generate_parts(std::uint64_t count, std::uint64_t seed,
                      IndexOf index_of, ThreadPool* pool,
                      const std::function<bool()>& cancelled,
                      PoolStagingArena& out) const;

  /// Pops a cached sampler or constructs one; return via release_sampler.
  /// Const because read-side producers (stage_samples) borrow samplers
  /// too; the cache is mutable state guarded by sampler_mutex_.
  [[nodiscard]] std::unique_ptr<RicSampler> acquire_sampler() const;
  void release_sampler(std::unique_ptr<RicSampler> sampler) const;

  /// Registers one sample's metadata (SoA mirrors + community counter +
  /// sample-major offset for `touch_count` freshly appended arena pairs).
  void register_metadata(CommunityId community, std::uint32_t threshold,
                         std::uint64_t touch_count);

  /// Merges samples [indexed_samples_, size()) into the CSR via the
  /// two-pass build: per-chunk counting, exclusive prefix-sum over
  /// (node, chunk) cursors, then relocation of the old arena and scatter of
  /// the fresh touches — both parallel when `chunks > 1`. Fresh touches are
  /// read from the sample-major arena. The result is byte-identical for
  /// any chunk count (touches stay sorted by sample id within each node),
  /// which is what keeps selection deterministic.
  void merge_fresh_into_index(unsigned chunks, ThreadPool* workers);

  const Graph* graph_;
  const CommunitySet* communities_;
  DiffusionModel model_ = DiffusionModel::kIndependentCascade;
  double total_benefit_ = 0.0;

  // Completed growth operations (grow with count > 0, append); see
  // PoolEpoch.
  std::uint64_t grows_ = 0;

  // Completed delta repairs (invalidate_and_repair with non-empty
  // effects); see PoolEpoch.
  std::uint64_t repairs_ = 0;

  // SoA hot-path metadata, one entry per sample. All arenas below live in
  // owned ArenaVector slabs (util/arena_vector.h).
  ArenaVector<std::uint32_t> thresholds_;       // sample -> h_g
  ArenaVector<CommunityId> source_community_;   // sample -> C_g
  ArenaVector<std::uint32_t> community_frequency_;  // community -> #samples

  // Canonical per-sample storage: touch lists concatenated in insertion
  // order (offsets in sample_offsets_, size+1 entries). Sample-major gain
  // passes stream it; sample() materializes views from it.
  ArenaVector<std::uint64_t> sample_offsets_;            // sample -> begin
  ArenaVector<std::pair<NodeId, std::uint64_t>> sample_arena_;

  // Cached RicSampler instances, reused across generation parts and calls
  // so repeated growth never reconstructs O(n) scratch buffers. Mutable:
  // const staging reuses the cache under the mutex.
  mutable std::vector<std::unique_ptr<RicSampler>> sampler_cache_;
  mutable std::mutex sampler_mutex_;

  // Flat CSR inverted index over samples [0, indexed_samples_); every
  // mutation merges its fresh samples before returning, so outside one
  // indexed_samples_ == size().
  ArenaVector<std::uint64_t> touch_offsets_;  // node -> begin
  ArenaVector<Touch> touches_;                // contiguous arena
  std::uint64_t indexed_samples_ = 0;
};

/// Sampler-owned staging buffers for one speculative growth batch — the
/// double-buffer half of the pipelined engine (DESIGN.md §15). Holds the
/// per-part touch arenas and metadata stage_samples() produced, plus the
/// provenance (base size, seed, epoch at staging) commit_staged() checks
/// before splicing the batch into the live pool. A default-constructed
/// arena is empty and reusable across stages: commit and clear both reset
/// it, and the buffers keep their capacity for the next staging round.
class PoolStagingArena {
 public:
  PoolStagingArena() = default;
  PoolStagingArena(PoolStagingArena&&) noexcept = default;
  PoolStagingArena& operator=(PoolStagingArena&&) noexcept = default;
  PoolStagingArena(const PoolStagingArena&) = delete;
  PoolStagingArena& operator=(const PoolStagingArena&) = delete;

  /// True once stage_samples() generated the full batch (not cancelled).
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  /// Requested batch size (what commit will append when complete).
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Pool size at staging time — the batch's sample ids start here.
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  /// Seed the substreams were derived from.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Full pool watermark at staging time. Besides the base()/size match,
  /// commit requires this to still equal the pool's grow_epoch() — in
  /// particular a delta repair between staging and commit (which rewrites
  /// samples without changing the size) bumps PoolEpoch::repairs and
  /// makes the staged batch stale, since it was generated from the
  /// pre-delta graph.
  [[nodiscard]] RicPool::PoolEpoch epoch() const noexcept { return epoch_; }
  /// Samples actually generated so far (== count() when complete; the
  /// partial progress of a cancelled staging otherwise).
  [[nodiscard]] std::uint64_t staged_count() const noexcept;

  /// Drops any staged content; capacity is retained for reuse.
  void clear() noexcept;

 private:
  friend class RicPool;

  /// One generation part: a contiguous run of the batch's sample indices,
  /// its touch pairs emitted arena-direct by RicSampler::generate_into.
  struct Part {
    RicSampler::TouchArena touches;
    std::vector<RicSampleMeta> metas;
  };

  std::vector<Part> parts_;
  std::uint64_t base_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t seed_ = 0;
  RicPool::PoolEpoch epoch_;
  bool complete_ = false;
};

}  // namespace imc
