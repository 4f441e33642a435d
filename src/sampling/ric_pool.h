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
// loads 4 bytes per sample, not a whole sample. There is NO retained AoS
// sample store: the sample-major arena (`sample_offsets_` +
// `sample_arena_`) IS the canonical per-sample storage.
// A pool gets samples in exactly two ways: `grow()` draws them, and the
// snapshot loader's one validated restore installs saved arenas
// (`restore_ric_pool`, sampling/pool_snapshot.h). One sample generator
// (DESIGN.md §9): `grow()` fills per-part arenas via
// `RicSampler::generate_into` and stitches them into the sample-major
// arena in index order. The CSR is merged incrementally and in place:
// every `grow()` merges its fresh samples (per-chunk count, a
// right-to-left shift of the old rows inside the lengthened arena,
// parallel scatter) before returning, so the index is never stale and
// const readers never write.
// A delta repair regenerates through the same part loop and patches both
// arenas in place (DESIGN.md §16). Past the pool, the estimate tail keeps
// full samples at the stream positions size(), size() + 1, ... for the
// Estimates of a pool at its cap (EstimateTail, DESIGN.md §15).
#pragma once

#include <cassert>
#include <cstdint>
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

class EstimateTail;
class ThreadPool;

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

  /// Growth watermark, captured by grow_epoch(); snapshots persist it.
  /// `grows` counts completed grow() operations, so a pool that was
  /// rebuilt to the same size still reads as a different lineage.
  /// `repairs` counts completed invalidate_and_repair() calls: a repair
  /// rewrites samples IN PLACE (size and grows unchanged), so the counter
  /// is what tells a repaired pool from the one before it (DESIGN.md §16).
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
  /// and the current pool size, and drops the estimate tail (its positions
  /// now start past the grown pool): sample i is drawn from the RNG substream
  /// splitmix_of(seed, size() + i), so grow(a); grow(b) == grow(a + b)
  /// given the same base seed, for ANY parallelism/worker combination.
  /// Generation runs in parts of ~256 samples (one part when serial), each
  /// emitted into its own arena and stitched in index order; the CSR
  /// index is merged and the growth watermark bumped once. When
  /// `parallel` is set the parts run on `workers` (default_pool() when
  /// null) plus the calling thread, which help-runs parts while it waits.
  /// Sampler instances are cached and reused across parts and calls (no
  /// O(n) scratch construction per part). Throws std::length_error once
  /// sample ids would no longer fit in 32 bits.
  void grow(std::uint64_t count, std::uint64_t seed, bool parallel = true,
            ThreadPool* workers = nullptr);

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
  /// differ). The estimate tail is not counted.
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
  /// config_.seed discipline). Both arenas are patched in place by one
  /// row mover (RowPatch, sampling/row_patch.h) that moves every row once,
  /// straight to its final offset: a repaired sample's sample-major row is
  /// replaced whole, and a CSR row keeps its touches of unrepaired samples
  /// merged by sample id with the regenerated ones — the same bytes a
  /// rebuild produces. The arenas are split into row chunks, and with a
  /// thread pool every chunk of every arena is one task on the workers and
  /// the calling thread. Every allocation happens before the first
  /// write, so nothing throws once the pool is being rewritten. The
  /// community_frequency counters are recounted, not drifted. Bumps
  /// PoolEpoch::repairs when any sample was regenerated OR any future
  /// sample could differ (i.e. whenever `effects` is non-empty). The
  /// estimate tail is repaired by the same rule, in the same regeneration
  /// batch and the same chunked patch (its touches are found by a scan, as
  /// it has no CSR), so it too equals a rebuilt one; a tail kept under
  /// another seed is dropped.
  /// Returns how many pool samples were repaired. Not safe to run
  /// concurrently with readers of this pool. Throws std::invalid_argument
  /// (pool untouched) when the mutated structures violate sampling
  /// invariants — community population > kMaxCommunityPopulation, LT
  /// in-weight sums > 1.
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
    ArenaVector<TouchPair> sample_arena;
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
    std::span<const TouchPair> sample_arena;
    std::span<const std::uint64_t> touch_offsets;
    std::span<const Touch> touches;
    PoolEpoch epoch;
    DiffusionModel model = DiffusionModel::kIndependentCascade;
  };
  [[nodiscard]] SnapshotView snapshot_view() const;

  /// Touch list of sample g: its (node, mask) pairs, sorted by node id,
  /// served from one contiguous sample-major arena (samples are
  /// concatenated in insertion order, so maintenance on grow is a plain
  /// append — no rebuild, never stale). The sample-major marginal passes
  /// stream this arena end to end instead of hopping through |R|
  /// scattered heap vectors. Hot path: debug-asserted.
  [[nodiscard]] std::span<const TouchPair> sample_touches(
      std::uint32_t g) const {
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
  [[nodiscard]] std::span<const TouchPair> sample_arena() const noexcept {
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
  /// frequency). O(1): grow maintains the counters, a repair recounts
  /// them, and a restore checks them against the samples.
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

  /// The estimate tail under `seed` (see EstimateTail). A tail kept under
  /// another seed is dropped first, so the handle never reads samples of a
  /// different stream. The handle borrows the pool.
  [[nodiscard]] EstimateTail estimate_tail(std::uint64_t seed);

  /// Read-only view of the estimate tail: its seed and the kept samples'
  /// arenas (tail sample t is stream position size() + t). What the tests
  /// and the fuzz checks compare.
  struct TailView {
    std::uint64_t seed = 0;
    std::span<const std::uint32_t> thresholds;
    std::span<const CommunityId> source_community;
    std::span<const std::uint64_t> sample_offsets;
    std::span<const TouchPair> sample_arena;
  };
  [[nodiscard]] TailView tail_view() const;

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const CommunitySet& communities() const noexcept {
    return *communities_;
  }
  [[nodiscard]] double total_benefit() const noexcept {
    return total_benefit_;
  }
  [[nodiscard]] DiffusionModel model() const noexcept { return model_; }

 private:
  friend class EstimateTail;
  friend RicPool restore_ric_pool(const Graph& graph,
                                  const CommunitySet& communities,
                                  DiffusionModel model, PoolEpoch epoch,
                                  PoolArenas&& arenas);

  /// Installs fully built arenas: the structural half of
  /// restore_ric_pool (sampling/pool_snapshot.h), which then checks the
  /// content on the restored pool. The pool takes the arenas over as they
  /// are. Validates the structural invariants (sizes coherent, both offset
  /// tables' endpoints AND monotonicity — so no span can wrap out of
  /// bounds — epoch matches). Throws std::invalid_argument on any
  /// structural mismatch.
  [[nodiscard]] static RicPool restore_snapshot(const Graph& graph,
                                                const CommunitySet& communities,
                                                DiffusionModel model,
                                                PoolEpoch epoch,
                                                PoolArenas&& arenas);

  /// Throws std::length_error when adding `count` samples would push ids
  /// past the 32-bit Touch::sample range.
  void check_capacity(std::uint64_t count) const;

  /// One generation part: a contiguous run of a batch's sample indices,
  /// its touch pairs emitted arena-direct by RicSampler::generate_into.
  struct GeneratedPart {
    RicSampler::TouchArena touches;
    std::vector<RicSampleMeta> metas;
  };

  /// The one sample generator behind grow(), invalidate_and_repair() and
  /// the estimate tail:
  /// fills `out` with the samples index_of(0), ..., index_of(count - 1),
  /// sample index_of(i) drawn from Rng(splitmix_of(seed, index_of(i))).
  /// Parts hold contiguous runs of i, so concatenating them in order
  /// yields i order for any part count. Runs serially when `pool` is null.
  template <typename IndexOf>
  void generate_parts(std::uint64_t count, std::uint64_t seed,
                      IndexOf index_of, ThreadPool* pool,
                      std::vector<GeneratedPart>& out);

  /// Pops a cached sampler or constructs one; return via release_sampler.
  /// Parts on different workers borrow samplers concurrently, so the
  /// cache is guarded by sampler_mutex_.
  [[nodiscard]] std::unique_ptr<RicSampler> acquire_sampler();
  void release_sampler(std::unique_ptr<RicSampler> sampler);

  /// Merges samples [indexed_samples_, size()) into the CSR in place:
  /// per-chunk counting, one right-to-left sweep that moves each node's
  /// old run to its new offset inside the lengthened arena and turns the
  /// counts into (chunk, node) cursors, then the scatter of the fresh
  /// touches. Counting and scatter run in parallel when `chunks > 1`.
  /// Fresh touches are read from the sample-major arena. The result is
  /// byte-identical for any chunk count (touches stay sorted by sample id
  /// within each node), which is what keeps selection deterministic.
  void merge_fresh_into_index(unsigned chunks, ThreadPool* workers);

  /// Empties the estimate tail (its seed stays).
  void drop_tail();

  const Graph* graph_;
  const CommunitySet* communities_;
  DiffusionModel model_ = DiffusionModel::kIndependentCascade;
  double total_benefit_ = 0.0;

  // Completed growth operations (grow with count > 0); see PoolEpoch.
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
  // passes stream it.
  ArenaVector<std::uint64_t> sample_offsets_;            // sample -> begin
  ArenaVector<TouchPair> sample_arena_;

  // Cached RicSampler instances, reused across generation parts and calls
  // so repeated growth never reconstructs O(n) scratch buffers.
  std::vector<std::unique_ptr<RicSampler>> sampler_cache_;
  std::mutex sampler_mutex_;

  // Flat CSR inverted index over samples [0, indexed_samples_); every
  // mutation merges its fresh samples before returning, so outside one
  // indexed_samples_ == size().
  ArenaVector<std::uint64_t> touch_offsets_;  // node -> begin
  ArenaVector<Touch> touches_;                // contiguous arena
  std::uint64_t indexed_samples_ = 0;

  // The estimate tail: full samples at stream positions size() + t under
  // `seed`, stored sample-major like the pool, without a CSR. Never part
  // of size(), the index or a snapshot.
  struct TailStore {
    std::uint64_t seed = 0;
    ArenaVector<std::uint32_t> thresholds;
    ArenaVector<CommunityId> source_community;
    ArenaVector<std::uint64_t> sample_offsets{1, 0};  // kept + 1 entries
    ArenaVector<TouchPair> sample_arena;
  };
  TailStore tail_;
};

/// Handle on a pool's estimate tail (DESIGN.md §15): full RIC samples at
/// the stream positions past the pool, size(), size() + 1, ..., under one
/// seed, kept so that a repeated Estimate on a pool at its cap reads X(S)
/// from them instead of redrawing the same positions. Positions are global
/// stream positions; the kept ones form the prefix [begin(), kept_end()).
/// dagum_estimate_benefit hands each lane's block to serve(), which looks
/// up the kept positions and draws the rest in full, and after each round
/// hands the lanes' fills to commit(), which keeps them. Every position an
/// Estimate reads through the tail is kept from then on, so only the first
/// read of a position pays for a full sample (~1.6x an early-exit draw).
class EstimateTail {
 public:
  /// The full samples one lane drew in serve(), until commit() keeps them.
  class Fill {
   private:
    friend class EstimateTail;
    std::uint64_t begin_ = 0;  // stream position of the first sample
    std::vector<RicPool::GeneratedPart> parts_;
  };

  /// The pool whose tail this is.
  [[nodiscard]] const RicPool& pool() const noexcept { return *pool_; }
  /// The seed whose stream the tail holds.
  [[nodiscard]] std::uint64_t seed() const noexcept {
    return pool_->tail_.seed;
  }
  /// The first tail position: the pool's size.
  [[nodiscard]] std::uint64_t begin() const noexcept { return pool_->size(); }
  /// One past the last kept position.
  [[nodiscard]] std::uint64_t kept_end() const noexcept {
    return pool_->size() + pool_->tail_.thresholds.size();
  }

  /// Appends X_p(S) of positions p in [from, to) to `x`, where `is_seed`
  /// flags S: whether the seeds reach the sample's threshold (OR of their
  /// masks, then popcount), as RicSampler::draw_influenced decides it for
  /// the same position. Kept positions are looked up; the rest are drawn
  /// in full into `fill`, on the calling thread through the pool's part
  /// loop and sampler cache. Needs begin() <= from and a `fill` that
  /// commit() emptied (or a new one). Lanes may serve at once, each with
  /// its own fill, but not while commit() runs.
  void serve(std::uint64_t from, std::uint64_t to,
             std::span<const std::uint8_t> is_seed,
             std::vector<std::uint8_t>& x, Fill& fill) const;

  /// Keeps the fills, given in position order, as long as each one starts
  /// where the kept prefix ends; stops at the first that does not (a lane
  /// that stopped at a deadline leaves a gap). Empties every fill.
  void commit(std::span<Fill> fills);

 private:
  friend class RicPool;
  explicit EstimateTail(RicPool& pool) noexcept : pool_(&pool) {}
  RicPool* pool_;
};

}  // namespace imc
