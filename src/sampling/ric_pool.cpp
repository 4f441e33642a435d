#include "sampling/ric_pool.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/mathx.h"
#include "util/thread_pool.h"

namespace imc {

namespace {

/// The pool a parallel sampling operation fans out on, or nullptr for the
/// serial path. A one-worker pool is NOT serial: every parallel_for /
/// parallel_for_shards caller help-runs queued tasks while it waits, so
/// the calling thread is a second sampling lane beside the worker
/// (DESIGN.md §15).
ThreadPool* sampling_pool(bool parallel, ThreadPool* workers) {
  if (!parallel) return nullptr;
  return workers != nullptr ? workers : &default_pool();
}

/// Target samples per generation part. Each part is one pool task, so a
/// batch splits into many small tasks and the caller that help-runs
/// while it waits always finds parts left beside the workers.
constexpr std::uint64_t kPartSamples = 256;

/// One sample's evaluator slot: the reached-member mask fused with its
/// epoch mark and threshold into 16 bytes, so both the accumulation sweep
/// and the reduction over dirty ids touch a single cache stream (one
/// prefetch covers all three fields, and the reduction needs no random
/// `thresholds_[id]` load).
struct CoveredSlot {
  std::uint64_t mask = 0;       // reached member mask
  std::uint32_t mark = 0;       // epoch of last write; mask valid iff == epoch
  std::uint32_t threshold = 0;  // copied from the touch that dirtied the slot
};

/// Per-thread scratch for the one-shot evaluators (c_hat/nu/
/// influenced_count). `slots[g].mask` is only meaningful when
/// `slots[g].mark == epoch`, so an evaluation costs O(Σ touches of the
/// seeds) with no O(|R|) reset — the same epoch trick RicSampler uses for
/// its visit buffers. thread_local keeps concurrent evaluations (e.g.
/// MAF's overlapped S1/S2 scoring) race-free without locking.
struct EvalScratch {
  std::vector<CoveredSlot> slots;    // per sample
  std::vector<std::uint32_t> dirty;  // samples touched this evaluation
  std::uint32_t epoch = 0;
};

EvalScratch& eval_scratch(std::uint64_t samples) {
  static thread_local EvalScratch scratch;
  if (scratch.slots.size() < samples) scratch.slots.resize(samples);
  if (++scratch.epoch == 0) {  // wraparound: every mark is stale again
    for (CoveredSlot& slot : scratch.slots) slot.mark = 0;
    scratch.epoch = 1;
  }
  scratch.dirty.clear();
  return scratch;
}

/// OR-accumulates the member masks of `seeds` into the scratch, recording
/// dirtied sample ids; returns the scratch for the caller to reduce.
EvalScratch& accumulate_masks(const RicPool& pool,
                              std::span<const NodeId> seeds) {
  EvalScratch& scratch = eval_scratch(pool.size());
  CoveredSlot* slots = scratch.slots.data();
  const std::uint32_t epoch = scratch.epoch;
  for (const NodeId v : seeds) {
    const std::span<const RicPool::Touch> touches = pool.touches_of(v);
    const std::size_t size = touches.size();
    const std::size_t prefetched =
        size > kCoveredPrefetchDistance ? size - kCoveredPrefetchDistance : 0;
    const auto body = [&](const RicPool::Touch& touch) {
      CoveredSlot& slot = slots[touch.sample];
      if (slot.mark != epoch) {
        slot.mark = epoch;
        slot.mask = 0;
        slot.threshold = touch.threshold;
        scratch.dirty.push_back(touch.sample);
      }
      slot.mask |= touch.mask;
    };
    std::size_t i = 0;
    for (; i < prefetched; ++i) {
      prefetch_write(&slots[touches[i + kCoveredPrefetchDistance].sample]);
      body(touches[i]);
    }
    for (; i < size; ++i) body(touches[i]);
  }
  return scratch;
}

/// In-place patch of one row-major arena — `offsets` (rows + 1 entries)
/// over the flat `arena` — the one helper delta repair applies to both the
/// sample-major arena (rows = samples) and the CSR index (rows = nodes).
/// See DESIGN.md §16. Construction is the only step that may throw: it
/// reserves room for both the old and the new size (growth past capacity
/// reallocates here, doubling like push_back). apply() then rewrites the
/// arena without allocating.
template <typename T>
class RowPatch {
 public:
  RowPatch(ArenaVector<std::uint64_t>& offsets, ArenaVector<T>& arena,
           std::uint64_t dropped, std::uint64_t inserted)
      : offsets_(offsets.data()),
        rows_(offsets.size() - 1),
        arena_(arena),
        old_size_(arena.size()),
        new_size_(arena.size() - dropped + inserted),
        inserted_(inserted) {
    arena.reserve(std::max(old_size_, new_size_));
  }

  /// Pass 1, left to right: compacts every row to the elements
  /// keep(row, element) accepts. Pass 2, right to left: merges
  /// inserted(row) — a span sorted under `less`, as the row's survivors
  /// are — into the row's final offsets. Each row ends at or right of
  /// where pass 1 left it and rows are finished from the right, so pass 2
  /// never overwrites a survivor it has yet to move.
  template <typename Keep, typename Inserted, typename Less>
  void apply(const Keep& keep, const Inserted& inserted,
             const Less& less) {
    arena_.resize_for_overwrite(std::max(old_size_, new_size_));
    T* const data = arena_.data();

    std::uint64_t begin = 0;
    std::uint64_t out = 0;
    for (std::uint64_t r = 0; r < rows_; ++r) {
      const std::uint64_t end = offsets_[r + 1];
      for (std::uint64_t i = begin; i < end; ++i) {
        if (keep(r, data[i])) data[out++] = data[i];
      }
      offsets_[r + 1] = out;  // compacted end of row r
      begin = end;
    }

    std::uint64_t remaining = inserted_;
    for (std::uint64_t r = rows_; r-- > 0 && remaining > 0;) {
      const std::uint64_t kept_begin = offsets_[r];
      const std::uint64_t kept_end = offsets_[r + 1];
      const std::span<const T> add = inserted(r);
      const std::uint64_t final_end = kept_end + remaining;
      remaining -= add.size();
      offsets_[r + 1] = final_end;
      T* out_it = data + final_end;
      const T* kept_it = data + kept_end;
      const T* add_it = add.data() + add.size();
      while (add_it != add.data()) {
        if (kept_it != data + kept_begin && less(add_it[-1], kept_it[-1])) {
          *--out_it = *--kept_it;
        } else {
          *--out_it = *--add_it;
        }
      }
      const std::size_t survivors =
          static_cast<std::size_t>(kept_it - (data + kept_begin));
      if (out_it != kept_it && survivors > 0) {
        std::memmove(static_cast<void*>(out_it - survivors),
                     static_cast<const void*>(data + kept_begin),
                     survivors * sizeof(T));
      }
    }
    arena_.resize_for_overwrite(new_size_);
  }

 private:
  std::uint64_t* offsets_;
  std::uint64_t rows_;
  ArenaVector<T>& arena_;
  std::uint64_t old_size_;
  std::uint64_t new_size_;
  std::uint64_t inserted_;
};

}  // namespace

RicPool::RicPool(const Graph& graph, const CommunitySet& communities,
                 DiffusionModel model)
    : graph_(&graph),
      communities_(&communities),
      model_(model),
      total_benefit_(communities.total_benefit()) {
  // Validate eagerly so misconfiguration surfaces at pool construction;
  // the validation sampler seeds the reuse cache instead of being thrown
  // away.
  sampler_cache_.push_back(
      std::make_unique<RicSampler>(graph, communities, model));
  touch_offsets_.assign(graph.node_count() + 1, 0);
  community_frequency_.assign(communities.size(), 0);
  sample_offsets_.assign(1, 0);
}

RicPool::RicPool(RicPool&& other) noexcept
    : graph_(other.graph_),
      communities_(other.communities_),
      model_(other.model_),
      total_benefit_(other.total_benefit_),
      grows_(other.grows_),
      repairs_(other.repairs_),
      thresholds_(std::move(other.thresholds_)),
      source_community_(std::move(other.source_community_)),
      community_frequency_(std::move(other.community_frequency_)),
      sample_offsets_(std::move(other.sample_offsets_)),
      sample_arena_(std::move(other.sample_arena_)),
      sampler_cache_(std::move(other.sampler_cache_)),
      touch_offsets_(std::move(other.touch_offsets_)),
      touches_(std::move(other.touches_)),
      indexed_samples_(other.indexed_samples_) {}

RicPool& RicPool::operator=(RicPool&& other) noexcept {
  if (this == &other) return *this;
  graph_ = other.graph_;
  communities_ = other.communities_;
  model_ = other.model_;
  total_benefit_ = other.total_benefit_;
  grows_ = other.grows_;
  repairs_ = other.repairs_;
  thresholds_ = std::move(other.thresholds_);
  source_community_ = std::move(other.source_community_);
  community_frequency_ = std::move(other.community_frequency_);
  sample_offsets_ = std::move(other.sample_offsets_);
  sample_arena_ = std::move(other.sample_arena_);
  sampler_cache_ = std::move(other.sampler_cache_);
  touch_offsets_ = std::move(other.touch_offsets_);
  touches_ = std::move(other.touches_);
  indexed_samples_ = other.indexed_samples_;
  return *this;
}

void RicPool::check_capacity(std::uint64_t count) const {
  if (size() + count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "RicPool: pool of " + std::to_string(size()) + " + " +
        std::to_string(count) +
        " samples would overflow the 32-bit sample ids the inverted index "
        "uses; split the workload across pools");
  }
}

std::unique_ptr<RicSampler> RicPool::acquire_sampler() {
  {
    const std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!sampler_cache_.empty()) {
      std::unique_ptr<RicSampler> sampler = std::move(sampler_cache_.back());
      sampler_cache_.pop_back();
      return sampler;
    }
  }
  return std::make_unique<RicSampler>(*graph_, *communities_, model_);
}

void RicPool::release_sampler(std::unique_ptr<RicSampler> sampler) {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  sampler_cache_.push_back(std::move(sampler));
}

void RicPool::register_metadata(CommunityId community, std::uint32_t threshold,
                                std::uint64_t touch_count) {
  thresholds_.push_back(threshold);
  source_community_.push_back(community);
  ++community_frequency_[community];
  sample_offsets_.push_back(sample_offsets_.back() + touch_count);
}

void RicPool::grow(std::uint64_t count, std::uint64_t seed, bool parallel,
                   ThreadPool* workers) {
  if (count == 0) return;  // an empty batch is no growth operation
  check_capacity(count);
  ThreadPool* const pool = sampling_pool(parallel, workers);
  const std::uint64_t base = size();
  std::vector<GeneratedPart> parts;
  generate_parts(
      count, seed, [base](std::uint64_t i) { return base + i; }, pool, parts);

  // Stitch the part arenas into the sample-major arena in part order
  // (= global sample order): prefix-sum the part sizes, bulk-copy each
  // part into its slot, then append the metadata serially. The bytes do
  // not depend on the part count.
  std::vector<std::uint64_t> part_base(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    part_base[p + 1] = part_base[p] + parts[p].touches.size();
  }
  const std::uint64_t old_arena = sample_arena_.size();
  sample_arena_.resize_for_overwrite(old_arena + part_base.back());
  const auto stitch_parts = [&](std::uint64_t begin, std::uint64_t end,
                                unsigned /*chunk*/) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::copy(parts[p].touches.begin(), parts[p].touches.end(),
                sample_arena_.begin() +
                    static_cast<std::ptrdiff_t>(old_arena + part_base[p]));
    }
  };
  if (pool == nullptr) {
    stitch_parts(0, parts.size(), 0);
  } else {
    parallel_for(*pool, parts.size(), stitch_parts);
  }

  thresholds_.reserve(thresholds_.size() + count);
  source_community_.reserve(source_community_.size() + count);
  sample_offsets_.reserve(sample_offsets_.size() + count);
  for (const GeneratedPart& part : parts) {
    for (const RicSampleMeta& meta : part.metas) {
      register_metadata(meta.community, meta.threshold, meta.touch_count);
    }
  }

  // Merge the fresh batch into the CSR eagerly, then bump the watermark
  // exactly once.
  merge_fresh_into_index(pool == nullptr ? 1 : pool->size(), pool);
  ++grows_;
}

template <typename IndexOf>
void RicPool::generate_parts(std::uint64_t count, std::uint64_t seed,
                             IndexOf index_of, ThreadPool* pool,
                             std::vector<GeneratedPart>& out) {
  // Fixed (count, pool size) -> part mapping: ~kPartSamples per part,
  // one pool task each. The part structure only decides buffer boundaries:
  // every caller concatenates the parts in order, so the bytes it splices
  // do not depend on it.
  const std::uint64_t parts =
      pool == nullptr
          ? 1
          : std::min<std::uint64_t>(
                count, std::max<std::uint64_t>(
                           ceil_div(count, kPartSamples),
                           static_cast<std::uint64_t>(pool->size()) * 4));
  const auto part_begin = [&](std::uint64_t p) { return count * p / parts; };
  out.resize(parts);

  const auto generate_part = [&](std::uint64_t p) {
    GeneratedPart& part = out[p];
    const std::uint64_t lo = part_begin(p);
    const std::uint64_t hi = part_begin(p + 1);
    part.metas.reserve(hi - lo);
    std::unique_ptr<RicSampler> sampler = acquire_sampler();
    for (std::uint64_t i = lo; i < hi; ++i) {
      // One substream per global sample index, so the samples do not
      // depend on the part mapping or on which batch produced them.
      Rng rng(splitmix_of(seed, index_of(i)));
      part.metas.push_back(sampler->generate_into(rng, part.touches));
    }
    release_sampler(std::move(sampler));
  };
  if (pool == nullptr) {
    generate_part(0);
  } else {
    parallel_for_shards(*pool, static_cast<unsigned>(parts),
                        [&](unsigned p) { generate_part(p); });
  }
}

void RicPool::append(RicSample sample) {
  if (sample.community >= communities_->size()) {
    throw std::invalid_argument("RicPool::append: bad community id");
  }
  if (sample.threshold == 0 ||
      sample.threshold > communities_->population(sample.community)) {
    throw std::invalid_argument("RicPool::append: threshold out of range");
  }
  // Reject masks with bits beyond the community population: popcount-based
  // evaluators would count the phantom members toward h_g. (population is
  // in [1, 64] here — empty communities are rejected by CommunitySet and
  // the threshold check above bounds it — so the shift is well-defined.)
  const std::uint64_t population = communities_->population(sample.community);
  const std::uint64_t member_bits =
      population >= 64 ? ~0ull : (1ull << population) - 1;
  NodeId previous_node = 0;
  bool first = true;
  for (const auto& [node, mask] : sample.touching) {
    if (node >= graph_->node_count() || mask == 0 ||
        (mask & ~member_bits) != 0) {
      throw std::invalid_argument("RicPool::append: bad touching entry");
    }
    // Touches must be strictly ascending by node (which also bans
    // duplicates): sample() reads rely on it, and the CSR merge emits
    // per-node runs whose sample-id order assumes one touch per node.
    if (!first && node <= previous_node) {
      throw std::invalid_argument(
          "RicPool::append: touching entries not sorted by node");
    }
    previous_node = node;
    first = false;
  }
  check_capacity(1);
  sample_arena_.append(sample.touching.data(),
                       sample.touching.data() + sample.touching.size());
  register_metadata(sample.community, sample.threshold,
                    sample.touching.size());
  merge_fresh_into_index(1, nullptr);
  ++grows_;
}

RicSample RicPool::sample(std::uint32_t i) const {
  if (i >= thresholds_.size()) {
    throw std::out_of_range("RicPool::sample: index out of range");
  }
  RicSample s;
  s.community = source_community_[i];
  s.threshold = thresholds_[i];
  s.member_count =
      static_cast<std::uint32_t>(communities_->population(s.community));
  const auto touches = sample_touches(i);
  s.touching.assign(touches.begin(), touches.end());
  return s;
}

void RicPool::merge_fresh_into_index(unsigned chunks, ThreadPool* workers) {
  const std::uint64_t total_samples = size();
  const std::uint64_t fresh_begin = indexed_samples_;
  const std::uint64_t fresh = total_samples - fresh_begin;
  if (fresh == 0) return;
  const std::uint64_t n = graph_->node_count();
  const std::uint64_t parts =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(chunks, fresh));
  // Chunk p owns the contiguous fresh sample ids [part_begin(p),
  // part_begin(p+1)) — the SAME split in the counting and scatter passes.
  const auto part_begin = [&](std::uint64_t p) {
    return fresh_begin + fresh * p / parts;
  };

  // Pass 1 — count: how many fresh touches each (chunk, node) contributes.
  std::vector<std::uint64_t> cursors(parts * n, 0);
  const auto count_range = [&](std::uint64_t begin, std::uint64_t end,
                               unsigned) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::uint64_t* counts = cursors.data() + p * n;
      for (std::uint64_t g = part_begin(p); g < part_begin(p + 1); ++g) {
        for (const auto& [node, mask] :
             sample_touches(static_cast<std::uint32_t>(g))) {
          (void)mask;
          ++counts[node];
        }
      }
    }
  };

  // Exclusive prefix-sum — runs per node as: old touches, then chunk 0's
  // fresh touches, then chunk 1's, ... Sample ids ascend within each run
  // and across runs, so the merged CSR equals the serial append order for
  // ANY chunk count: the keystone of deterministic parallel rebuilds.
  ArenaVector<std::uint64_t> new_offsets(n + 1, 0);
  ArenaVector<Touch> new_arena;
  const std::span<const std::uint64_t> old_offsets = touch_offsets_.span();
  const auto prefix_sum = [&] {
    std::uint64_t total = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      new_offsets[v] = total;
      std::uint64_t running =
          total + (old_offsets[v + 1] - old_offsets[v]);
      for (std::uint64_t p = 0; p < parts; ++p) {
        const std::uint64_t count = cursors[p * n + v];
        cursors[p * n + v] = running;  // becomes the chunk's write cursor
        running += count;
      }
      total = running;
    }
    new_offsets[n] = total;
    new_arena.resize(total);  // sized exactly from the counting pass
  };

  // Pass 2a — relocate each node's existing run into its new position.
  const std::span<const Touch> old_touches = touches_.span();
  const auto relocate_range = [&](std::uint64_t begin, std::uint64_t end,
                                  unsigned) {
    for (std::uint64_t v = begin; v < end; ++v) {
      std::copy(old_touches.begin() +
                    static_cast<std::ptrdiff_t>(old_offsets[v]),
                old_touches.begin() +
                    static_cast<std::ptrdiff_t>(old_offsets[v + 1]),
                new_arena.begin() + new_offsets[v]);
    }
  };
  // Pass 2b — scatter fresh touches at the per-(chunk, node) cursors.
  const auto scatter_range = [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
    for (std::uint64_t p = begin; p < end; ++p) {
      std::uint64_t* cursor = cursors.data() + p * n;
      for (std::uint64_t g = part_begin(p); g < part_begin(p + 1); ++g) {
        const auto id = static_cast<std::uint32_t>(g);
        const std::uint32_t threshold = thresholds_[g];
        for (const auto& [node, mask] : sample_touches(id)) {
          new_arena[cursor[node]++] = Touch{id, threshold, mask};
        }
      }
    }
  };

  if (parts > 1 && workers != nullptr) {
    parallel_for(*workers, parts, count_range);
    prefix_sum();
    if (!touches_.empty()) parallel_for(*workers, n, relocate_range);
    parallel_for(*workers, parts, scatter_range);
  } else {
    count_range(0, parts, 0);
    prefix_sum();
    if (!touches_.empty()) relocate_range(0, n, 0);
    scatter_range(0, parts, 0);
  }

  touches_ = std::move(new_arena);
  touch_offsets_ = std::move(new_offsets);
  indexed_samples_ = total_samples;
}

RicPool::SnapshotView RicPool::snapshot_view() const {
  SnapshotView view;
  view.thresholds = thresholds_.span();
  view.source_community = source_community_.span();
  view.community_frequency = community_frequency_.span();
  view.sample_offsets = sample_offsets_.span();
  view.sample_arena = sample_arena_.span();
  view.touch_offsets = touch_offsets_.span();
  view.touches = touches_.span();
  view.epoch = grow_epoch();
  view.model = model_;
  return view;
}

RicPool RicPool::restore_snapshot(const Graph& graph,
                                  const CommunitySet& communities,
                                  DiffusionModel model, PoolEpoch epoch,
                                  PoolArenas&& arenas) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("RicPool::restore_snapshot: " + what);
  };
  const std::uint64_t samples = arenas.thresholds.size();
  if (arenas.source_community.size() != samples) {
    fail("metadata arenas disagree on the sample count");
  }
  if (epoch.samples != samples) {
    fail("epoch watermark does not match the sample count");
  }
  if (samples > std::numeric_limits<std::uint32_t>::max()) {
    fail("sample count overflows 32-bit sample ids");
  }
  if (arenas.sample_offsets.size() != samples + 1 ||
      arenas.sample_offsets.span()[0] != 0 ||
      arenas.sample_offsets.back() != arenas.sample_arena.size()) {
    fail("sample-major offsets inconsistent with the arena");
  }
  // Monotonicity of both offset tables is load-bearing for the loader's
  // content checks and for every solve: sample_touches()/touches_of()
  // compute spans as offsets[i + 1] - offsets[i] in unsigned arithmetic,
  // so a non-monotone pair would wrap to a huge span and read out of
  // bounds. Endpoints + monotonicity bound every span by the arena size.
  const std::span<const std::uint64_t> sample_offsets =
      arenas.sample_offsets.span();
  for (std::uint64_t g = 0; g + 1 < sample_offsets.size(); ++g) {
    if (sample_offsets[g] > sample_offsets[g + 1]) {
      fail("sample-major offsets not monotone");
    }
  }
  if (arenas.community_frequency.size() != communities.size()) {
    fail("community frequency table does not match the community set");
  }
  if (arenas.touch_offsets.size() !=
          static_cast<std::uint64_t>(graph.node_count()) + 1 ||
      arenas.touch_offsets.span()[0] != 0 ||
      arenas.touch_offsets.back() != arenas.touches.size()) {
    fail("CSR offsets inconsistent with the graph / touch arena");
  }
  const std::span<const std::uint64_t> csr_offsets =
      arenas.touch_offsets.span();
  for (std::uint64_t v = 0; v + 1 < csr_offsets.size(); ++v) {
    if (csr_offsets[v] > csr_offsets[v + 1]) {
      fail("CSR offsets not monotone");
    }
  }

  RicPool pool(graph, communities, model);
  pool.thresholds_ = std::move(arenas.thresholds);
  pool.source_community_ = std::move(arenas.source_community);
  pool.community_frequency_ = std::move(arenas.community_frequency);
  pool.sample_offsets_ = std::move(arenas.sample_offsets);
  pool.sample_arena_ = std::move(arenas.sample_arena);
  pool.touch_offsets_ = std::move(arenas.touch_offsets);
  pool.touches_ = std::move(arenas.touches);
  pool.grows_ = epoch.grows;
  pool.repairs_ = epoch.repairs;
  pool.indexed_samples_ = samples;
  return pool;
}

RicPool::RepairStats RicPool::invalidate_and_repair(
    const DeltaEffects& effects, std::uint64_t seed, bool parallel,
    ThreadPool* workers) {
  RepairStats stats;
  stats.total = size();
  if (effects.empty()) return stats;
  for (const NodeId v : effects.changed_in_nodes) {
    if (v >= graph_->node_count()) {
      throw std::invalid_argument(
          "RicPool::invalidate_and_repair: effects name a node outside the "
          "bound graph");
    }
  }
  for (const CommunityId c : effects.changed_communities) {
    if (c >= communities_->size()) {
      throw std::invalid_argument(
          "RicPool::invalidate_and_repair: effects name a community outside "
          "the bound set");
    }
  }

  // Revalidate the mutated structures FIRST: constructing a sampler
  // enforces the ≤64-member community cap and the LT in-weight sums, so a
  // delta the sampler cannot serve throws here with the pool untouched.
  // The probe then replaces the cache wholesale — every cached sampler
  // baked pre-delta adjacency and membership into its scratch tables.
  {
    auto probe = std::make_unique<RicSampler>(*graph_, *communities_, model_);
    const std::lock_guard<std::mutex> lock(sampler_mutex_);
    sampler_cache_.clear();
    sampler_cache_.push_back(std::move(probe));
  }

  if (stats.total == 0) {
    ++repairs_;  // future samples may differ
    return stats;
  }

  // Affected = samples touching a changed in-adjacency head (their walk
  // examined that node's in-edges — see the header's identification rule)
  // ∪ samples sourced at a community whose member list moved (their mask
  // bit layout changed). Everything else replays bit-identically.
  std::vector<std::uint8_t> affected(stats.total, 0);
  for (const NodeId v : effects.changed_in_nodes) {
    for (const Touch& touch : touches_of(v)) affected[touch.sample] = 1;
  }
  if (!effects.changed_communities.empty()) {
    std::vector<std::uint8_t> moved(communities_->size(), 0);
    for (const CommunityId c : effects.changed_communities) moved[c] = 1;
    const std::span<const CommunityId> sources = source_community_.span();
    for (std::uint64_t g = 0; g < stats.total; ++g) {
      if (moved[sources[g]]) affected[g] = 1;
    }
  }
  std::vector<std::uint32_t> repair_ids;
  for (std::uint64_t g = 0; g < stats.total; ++g) {
    if (affected[g]) repair_ids.push_back(static_cast<std::uint32_t>(g));
  }
  stats.repaired = repair_ids.size();
  if (repair_ids.empty()) {
    ++repairs_;
    return stats;
  }

  ThreadPool* const pool = sampling_pool(parallel, workers);

  // Regenerate the affected samples with their ORIGINAL substreams —
  // Rng(splitmix_of(seed, g)) is exactly what a rebuild-from-scratch
  // would feed sample g — through the same part loop growth uses, with
  // position j of the repair order mapped to sample repair_ids[j].
  const std::uint64_t count = repair_ids.size();
  std::vector<GeneratedPart> regenerated;
  generate_parts(
      count, seed, [&](std::uint64_t j) { return repair_ids[j]; }, pool,
      regenerated);

  // Flatten the parts (contiguous runs of repair order, so concatenation
  // IS repair order) into per-repaired-sample views for the patches.
  std::vector<const std::pair<NodeId, std::uint64_t>*> repaired_data(count);
  std::vector<const RicSampleMeta*> repaired_meta(count);
  {
    std::uint64_t j = 0;
    for (const GeneratedPart& part : regenerated) {
      std::uint64_t offset = 0;
      for (const RicSampleMeta& meta : part.metas) {
        repaired_data[j] = part.touches.data() + offset;
        repaired_meta[j] = &meta;
        offset += meta.touch_count;
        ++j;
      }
    }
  }

  // Every repaired sample's old pairs leave both arenas (each pair is one
  // CSR touch) and its regenerated pairs arrive in both.
  std::uint64_t dropped = 0;
  std::uint64_t inserted = 0;
  {
    const std::span<const std::uint64_t> offsets = sample_offsets_.span();
    for (std::uint64_t j = 0; j < count; ++j) {
      dropped += offsets[repair_ids[j] + 1] - offsets[repair_ids[j]];
      inserted += repaired_meta[j]->touch_count;
    }
  }

  // Everything that allocates happens here, before the first write into
  // the pool: a throw up to this point leaves the pool as it was.
  RowPatch<std::pair<NodeId, std::uint64_t>> sample_patch(
      sample_offsets_, sample_arena_, dropped, inserted);
  RowPatch<Touch> index_patch(touch_offsets_, touches_, dropped, inserted);
  const NodeId n = graph_->node_count();
  std::vector<std::uint64_t> fresh_offsets(n + 1, 0);
  std::vector<std::uint64_t> fresh_cursor(n, 0);
  std::vector<Touch> fresh_touches(inserted);

  // From here on nothing throws. The two arenas' patches are independent,
  // so one runs on a worker while the calling thread runs the other.
  const auto patch_samples = [&] {
    // A row is either kept whole or replaced whole, so the helper's merge
    // never compares two pairs.
    sample_patch.apply(
        [&](std::uint64_t g, const std::pair<NodeId, std::uint64_t>&) {
          return affected[g] == 0;
        },
        [&](std::uint64_t g) -> std::span<const std::pair<NodeId,
                                                          std::uint64_t>> {
          if (affected[g] == 0) return {};
          const std::uint64_t j = static_cast<std::uint64_t>(
              std::lower_bound(repair_ids.begin(), repair_ids.end(), g) -
              repair_ids.begin());
          return {repaired_data[j], repaired_meta[j]->touch_count};
        },
        [](const std::pair<NodeId, std::uint64_t>& a,
           const std::pair<NodeId, std::uint64_t>& b) {
          return a.first < b.first;
        });
    for (std::uint64_t j = 0; j < count; ++j) {
      thresholds_[repair_ids[j]] = repaired_meta[j]->threshold;
      source_community_[repair_ids[j]] = repaired_meta[j]->community;
    }
  };
  const auto patch_index = [&] {
    // Bucket the regenerated touches by node straight from the part
    // arenas. Repair order is ascending sample id, so every bucket comes
    // out sorted, as the CSR rows are.
    for (std::uint64_t j = 0; j < count; ++j) {
      for (std::uint64_t i = 0; i < repaired_meta[j]->touch_count; ++i) {
        ++fresh_offsets[repaired_data[j][i].first + 1];
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      fresh_offsets[v + 1] += fresh_offsets[v];
      fresh_cursor[v] = fresh_offsets[v];
    }
    for (std::uint64_t j = 0; j < count; ++j) {
      const RicSampleMeta& meta = *repaired_meta[j];
      for (std::uint64_t i = 0; i < meta.touch_count; ++i) {
        const auto& [node, mask] = repaired_data[j][i];
        fresh_touches[fresh_cursor[node]++] =
            Touch{repair_ids[j], meta.threshold, mask};
      }
    }
    index_patch.apply(
        [&](std::uint64_t, const Touch& touch) {
          return affected[touch.sample] == 0;
        },
        [&](std::uint64_t v) -> std::span<const Touch> {
          return {fresh_touches.data() + fresh_offsets[v],
                  fresh_offsets[v + 1] - fresh_offsets[v]};
        },
        [](const Touch& a, const Touch& b) { return a.sample < b.sample; });
  };
  if (pool == nullptr) {
    patch_samples();
    patch_index();
  } else {
    std::future<void> index_lane = pool->submit(patch_index);
    patch_samples();
    help_wait(*pool, index_lane);
  }

  // Counters recomputed from the repaired metadata, never drifted.
  community_frequency_.assign(communities_->size(), 0);
  for (const CommunityId c : source_community_.span()) {
    ++community_frequency_[c];
  }

  ++repairs_;
  return stats;
}

std::vector<RicPool::SampleShard> RicPool::selection_shards(
    std::uint64_t samples, unsigned shards) {
  std::vector<SampleShard> out;
  if (samples == 0) return out;
  if (shards == 0) shards = 1;
  // Near-equal spans, rounded UP to whole 64-sample saturation words; the
  // rounding can only reduce the shard count, never add a runt shard.
  const std::uint64_t span = ceil_div(ceil_div(samples, shards), 64) * 64;
  out.reserve(static_cast<std::size_t>(ceil_div(samples, span)));
  for (std::uint64_t begin = 0; begin < samples; begin += span) {
    out.push_back(SampleShard{static_cast<std::uint32_t>(begin),
                              static_cast<std::uint32_t>(
                                  std::min(samples, begin + span))});
  }
  return out;
}

std::uint64_t RicPool::influenced_count(std::span<const NodeId> seeds) const {
  const EvalScratch& scratch = accumulate_masks(*this, seeds);
  std::uint64_t influenced = 0;
  for (const std::uint32_t id : scratch.dirty) {
    const CoveredSlot& slot = scratch.slots[id];
    if (static_cast<std::uint32_t>(popcount64(slot.mask)) >= slot.threshold) {
      ++influenced;
    }
  }
  return influenced;
}

double RicPool::c_hat(std::span<const NodeId> seeds) const {
  if (size() == 0) return 0.0;
  return total_benefit_ * static_cast<double>(influenced_count(seeds)) /
         static_cast<double>(size());
}

double RicPool::nu(std::span<const NodeId> seeds) const {
  if (size() == 0) return 0.0;
  const EvalScratch& scratch = accumulate_masks(*this, seeds);
  const double* table = nu_fraction_row(0);
  KahanSum sum;
  for (const std::uint32_t id : scratch.dirty) {
    const CoveredSlot& slot = scratch.slots[id];
    const auto count = static_cast<std::uint32_t>(popcount64(slot.mask));
    // Table rows hold the exact min(count/h, 1) doubles: bit-identical.
    sum.add(table[slot.threshold * (kMaxNuThreshold + 1) + count]);
  }
  return total_benefit_ * sum.value() / static_cast<double>(size());
}

}  // namespace imc
