#include "sampling/ric_pool.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sampling/row_patch.h"
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

/// Tasks per lane for the tail scan and the patch of a delta repair: enough
/// that the lanes balance uneven chunks by taking the next one as they
/// finish.
constexpr unsigned kRepairTasksPerLane = 4;

/// Runs body(0), ..., body(tasks - 1): on the calling thread when `pool`
/// is null, else as one pool task each, the caller help-running. Either
/// way every task runs exactly once (one that cannot be queued runs on
/// the caller).
void for_each_task(ThreadPool* pool, unsigned tasks,
                   const std::function<void(unsigned)>& body) {
  if (pool == nullptr) {
    for (unsigned t = 0; t < tasks; ++t) body(t);
  } else {
    parallel_for_shards(*pool, tasks, body);
  }
}

/// X(S) of one sample from its touch list: the OR of the seeds' member
/// masks reaches the threshold.
bool seeds_reach(const TouchPair* touches, std::uint64_t count,
                 std::uint32_t threshold,
                 std::span<const std::uint8_t> is_seed) {
  std::uint64_t reached = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (is_seed[touches[i].first]) reached |= touches[i].second;
  }
  return static_cast<std::uint32_t>(popcount64(reached)) >= threshold;
}

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
      indexed_samples_(other.indexed_samples_),
      tail_(std::move(other.tail_)) {}

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
  tail_ = std::move(other.tail_);
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
  drop_tail();
  ThreadPool* const pool = sampling_pool(parallel, workers);
  const std::uint64_t base = size();
  std::vector<GeneratedPart> parts;
  generate_parts(
      count, seed, [base](std::uint64_t i) { return base + i; }, pool, parts);

  // Stitch the part arenas into the sample-major arena in part order
  // (= global sample order): prefix-sum the part sizes, bulk-copy each
  // part into its slot and release it, then append the metadata serially.
  // The bytes do not depend on the part count. Released parts are not
  // resident beside the CSR the merge below lengthens.
  std::vector<std::uint64_t> part_base(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    part_base[p + 1] = part_base[p] + parts[p].touches.size();
  }
  const std::uint64_t old_arena = sample_arena_.size();
  sample_arena_.resize_for_overwrite(old_arena + part_base.back());
  const auto stitch_parts = [&](std::uint64_t begin, std::uint64_t end,
                                unsigned /*chunk*/) {
    for (std::uint64_t p = begin; p < end; ++p) {
      RicSampler::TouchArena& touches = parts[p].touches;
      std::copy(touches.begin(), touches.end(),
                sample_arena_.data() + old_arena + part_base[p]);
      touches = RicSampler::TouchArena();
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
  // exactly once. One chunk per worker plus one for the caller, which
  // help-runs chunks while it waits, so a one-worker pool merges on two
  // lanes (the merged index does not depend on the chunk count).
  merge_fresh_into_index(pool == nullptr ? 1 : pool->size() + 1, pool);
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
  drop_tail();
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

  // Pass 2 — one right-to-left sweep over the nodes, in place. The arena
  // is first lengthened by the fresh touches (a mapped arena grows without
  // a copy, util/arena_vector.h), then row v's old run moves right by the
  // fresh touches of rows < v. Rows to its right have already moved, and
  // rows to its left start at or before its old begin, so no row
  // overwrites one it has yet to move; consecutive rows with the same
  // shift move as one block. Each row then reads as: old touches, chunk
  // 0's fresh touches, chunk 1's, ... Sample ids ascend within each run
  // and across runs, so the merged CSR equals the serial append order for
  // ANY chunk count: the keystone of deterministic parallel rebuilds. The
  // (chunk, node) counts become the chunks' write cursors.
  const std::uint64_t old_total = touches_.size();
  std::uint64_t shift =
      sample_offsets_.back() - sample_offsets_[fresh_begin];  // F(< n)
  touches_.resize_for_overwrite(old_total + shift);  // before any row moves
  const auto shift_rows = [&] {
    std::uint64_t* const offsets = touch_offsets_.data();
    Touch* const arena = touches_.data();
    // The pending block: old positions [block_begin, block_end), all
    // moving right by block_shift.
    std::uint64_t block_begin = old_total;
    std::uint64_t block_end = old_total;
    std::uint64_t block_shift = shift;
    const auto flush = [&] {
      if (block_shift > 0 && block_end > block_begin) {
        std::memmove(static_cast<void*>(arena + block_begin + block_shift),
                     static_cast<const void*>(arena + block_begin),
                     (block_end - block_begin) * sizeof(Touch));
      }
    };
    offsets[n] = old_total + shift;
    for (std::uint64_t v = n; v-- > 0;) {
      std::uint64_t fresh_v = 0;
      for (std::uint64_t p = 0; p < parts; ++p) fresh_v += cursors[p * n + v];
      shift -= fresh_v;  // now F(< v)
      const std::uint64_t old_begin = offsets[v];
      if (shift != block_shift) {
        flush();
        block_end = block_begin;
        block_shift = shift;
      }
      const std::uint64_t begin = old_begin + shift;
      std::uint64_t running = begin + (block_begin - old_begin);
      block_begin = old_begin;
      for (std::uint64_t p = 0; p < parts; ++p) {
        const std::uint64_t count = cursors[p * n + v];
        cursors[p * n + v] = running;  // becomes the chunk's write cursor
        running += count;
      }
      offsets[v] = begin;
    }
    flush();
  };

  // Pass 3 — scatter fresh touches at the per-(chunk, node) cursors.
  const auto scatter_range = [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
    Touch* const arena = touches_.data();
    for (std::uint64_t p = begin; p < end; ++p) {
      std::uint64_t* cursor = cursors.data() + p * n;
      for (std::uint64_t g = part_begin(p); g < part_begin(p + 1); ++g) {
        const auto id = static_cast<std::uint32_t>(g);
        const std::uint32_t threshold = thresholds_[g];
        for (const auto& [node, mask] : sample_touches(id)) {
          arena[cursor[node]++] = Touch{id, threshold, mask};
        }
      }
    }
  };

  if (parts > 1 && workers != nullptr) {
    parallel_for(*workers, parts, count_range);
    shift_rows();
    parallel_for(*workers, parts, scatter_range);
  } else {
    count_range(0, parts, 0);
    shift_rows();
    scatter_range(0, parts, 0);
  }
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

  // A tail kept under another seed would be repaired from the wrong
  // stream.
  if (seed != tail_.seed) drop_tail();

  ThreadPool* const pool = sampling_pool(parallel, workers);
  // Every fan-out below runs one task when serial, else one or a few per
  // lane (the workers plus the calling thread, which help-runs).
  const unsigned lanes = pool == nullptr ? 1 : pool->size() + 1;
  const unsigned tasks = pool == nullptr ? 1 : lanes * kRepairTasksPerLane;

  // Affected = samples touching a changed in-adjacency head (their walk
  // examined that node's in-edges — see the header's identification rule)
  // ∪ samples sourced at a community whose member list moved (their mask
  // bit layout changed). Everything else replays bit-identically.
  std::vector<std::uint8_t> moved;
  if (!effects.changed_communities.empty()) {
    moved.assign(communities_->size(), 0);
    for (const CommunityId c : effects.changed_communities) moved[c] = 1;
  }
  std::vector<std::uint8_t> affected(stats.total, 0);
  for (const NodeId v : effects.changed_in_nodes) {
    for (const Touch& touch : touches_of(v)) affected[touch.sample] = 1;
  }
  if (!moved.empty()) {
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

  // The tail's affected samples, by the same rule. It has no CSR, so its
  // arena is scanned against a bitmap of the changed in-nodes, one slice
  // per task; the slices' ids concatenate in position order.
  const std::uint64_t tail_total = tail_.thresholds.size();
  std::vector<std::uint32_t> tail_ids;
  if (tail_total > 0) {
    std::vector<std::uint8_t> changed(graph_->node_count(), 0);
    for (const NodeId v : effects.changed_in_nodes) changed[v] = 1;
    const std::span<const std::uint64_t> offsets = tail_.sample_offsets.span();
    const std::span<const TouchPair> pairs = tail_.sample_arena.span();
    const std::span<const CommunityId> sources = tail_.source_community.span();
    const auto slices =
        static_cast<unsigned>(std::min<std::uint64_t>(tail_total, tasks));
    std::vector<std::vector<std::uint32_t>> found(slices);
    for_each_task(pool, slices, [&](unsigned slice) {
      const std::uint64_t end = tail_total * (slice + 1) / slices;
      for (std::uint64_t t = tail_total * slice / slices; t < end; ++t) {
        bool hit = !moved.empty() && moved[sources[t]];
        for (std::uint64_t i = offsets[t]; !hit && i < offsets[t + 1]; ++i) {
          hit = changed[pairs[i].first] != 0;
        }
        if (hit) found[slice].push_back(static_cast<std::uint32_t>(t));
      }
    });
    for (const std::vector<std::uint32_t>& ids : found) {
      tail_ids.insert(tail_ids.end(), ids.begin(), ids.end());
    }
  }
  if (repair_ids.empty() && tail_ids.empty()) {
    ++repairs_;  // future samples may differ
    return stats;
  }

  // Regenerate the affected samples with their ORIGINAL substreams —
  // Rng(splitmix_of(seed, g)) is exactly what a rebuild-from-scratch
  // would feed sample g — through the same part loop growth uses, in one
  // batch: position j of the repair order maps to pool sample
  // repair_ids[j], then to tail sample tail_ids[j - count], which is
  // stream position size() + tail_ids[j - count].
  const std::uint64_t count = repair_ids.size();
  const std::uint64_t tail_count = tail_ids.size();
  std::vector<GeneratedPart> regenerated;
  generate_parts(
      count + tail_count, seed,
      [&](std::uint64_t j) -> std::uint64_t {
        return j < count ? repair_ids[j] : stats.total + tail_ids[j - count];
      },
      pool, regenerated);

  // Flatten the parts (contiguous runs of repair order, so concatenation
  // IS repair order) into per-repaired-sample views for the patches.
  ArenaVector<const TouchPair*> repaired_data;
  ArenaVector<const RicSampleMeta*> repaired_meta;
  repaired_data.resize_for_overwrite(count + tail_count);
  repaired_meta.resize_for_overwrite(count + tail_count);
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

  // The CSR rows that change: per node, the touches its regenerated
  // samples bring, counted per block of the repair order (one block per
  // lane), and those their old sample-major rows held, counted by one more
  // task into a single array (first in the queue, as it is the longest).
  // The inserted counts then become each block's write cursors into the
  // node's bucket of regenerated touches.
  const NodeId n = graph_->node_count();
  const auto blocks =
      static_cast<unsigned>(std::clamp<std::uint64_t>(count, 1, lanes));
  const auto block_begin = [&](std::uint64_t b) { return count * b / blocks; };
  std::vector<std::uint64_t> block_inserted(std::uint64_t{blocks} * n, 0);
  std::vector<std::uint64_t> dropped(n, 0);
  for_each_task(pool, blocks + 1, [&](unsigned t) {
    if (t == 0) {
      for (std::uint64_t j = 0; j < count; ++j) {
        for (const TouchPair& pair : sample_touches(repair_ids[j])) {
          ++dropped[pair.first];
        }
      }
      return;
    }
    std::uint64_t* const inserted =
        block_inserted.data() + std::uint64_t{t - 1} * n;
    for (std::uint64_t j = block_begin(t - 1); j < block_begin(t); ++j) {
      for (std::uint64_t i = 0; i < repaired_meta[j]->touch_count; ++i) {
        ++inserted[repaired_data[j][i].first];
      }
    }
  });
  // Each pass over the counts streams through one block's array.
  std::vector<std::uint64_t> fresh_offsets(n + 1, 0);
  for (unsigned b = 0; b < blocks; ++b) {
    const std::uint64_t* const inserted =
        block_inserted.data() + std::uint64_t{b} * n;
    for (NodeId v = 0; v < n; ++v) fresh_offsets[v + 1] += inserted[v];
  }
  std::vector<ChangedRow> index_rows;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t inserted = fresh_offsets[v + 1];
    fresh_offsets[v + 1] += fresh_offsets[v];
    if (inserted != 0 || dropped[v] != 0) {
      index_rows.push_back(ChangedRow{
          v, touch_offsets_[v + 1] - touch_offsets_[v] - dropped[v] +
                 inserted});
    }
  }
  // The drop counts are spent: the array now holds the running cursor.
  std::vector<std::uint64_t>& next = dropped;
  std::copy_n(fresh_offsets.begin(), n, next.begin());
  for (unsigned b = 0; b < blocks; ++b) {
    std::uint64_t* const cursor = block_inserted.data() + std::uint64_t{b} * n;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t brought = cursor[v];
      cursor[v] = next[v];
      next[v] += brought;
    }
  }
  // Bucket the regenerated touches by node straight from the part arenas.
  // Repair order is ascending sample id, so every bucket comes out sorted,
  // as the CSR rows are.
  ArenaVector<Touch> fresh_touches;
  fresh_touches.resize_for_overwrite(fresh_offsets[n]);
  for_each_task(pool, blocks, [&](unsigned b) {
    std::uint64_t* const cursor = block_inserted.data() + std::uint64_t{b} * n;
    for (std::uint64_t j = block_begin(b); j < block_begin(b + 1); ++j) {
      const RicSampleMeta& meta = *repaired_meta[j];
      for (std::uint64_t i = 0; i < meta.touch_count; ++i) {
        const auto& [node, mask] = repaired_data[j][i];
        fresh_touches[cursor[node]++] =
            Touch{repair_ids[j], meta.threshold, mask};
      }
    }
  });

  // A repaired sample's sample-major row is replaced whole.
  const auto replaced_rows = [&](const std::vector<std::uint32_t>& ids,
                                 std::uint64_t first) {
    std::vector<ChangedRow> rows(ids.size());
    for (std::uint64_t j = 0; j < ids.size(); ++j) {
      rows[j] = ChangedRow{ids[j], repaired_meta[first + j]->touch_count};
    }
    return rows;
  };
  const std::vector<ChangedRow> sample_rows = replaced_rows(repair_ids, 0);
  const std::vector<ChangedRow> tail_rows = replaced_rows(tail_ids, count);

  // Chunks per arena in proportion to its work, a CSR element (a bitmap
  // test and a merge step) weighing two sample-major ones.
  const std::uint64_t index_work = 2 * touches_.size();
  const std::uint64_t sample_work = sample_arena_.size();
  const std::uint64_t tail_work = tail_.sample_arena.size();
  const auto chunks_for = [&](std::uint64_t work) {
    return static_cast<unsigned>(std::max<std::uint64_t>(
        1, tasks * work / std::max<std::uint64_t>(
                              1, index_work + sample_work + tail_work)));
  };

  // Everything that allocates happens up to here, before the first write
  // into the pool: a throw up to this point leaves the pool as it was.
  RowPatch<Touch> index_patch(touch_offsets_, touches_, index_rows,
                              chunks_for(index_work),
                              /*reads_old=*/true);
  RowPatch<TouchPair> sample_patch(sample_offsets_, sample_arena_,
                                   sample_rows,
                                   chunks_for(sample_work),
                                   /*reads_old=*/false);
  RowPatch<TouchPair> tail_patch(tail_.sample_offsets, tail_.sample_arena,
                                 tail_rows,
                                 chunks_for(tail_work),
                                 /*reads_old=*/false);

  // From here on nothing throws. Every chunk of the three arenas is one
  // task, the CSR's (the heaviest) first.
  const auto merge_index_row = [&](std::uint64_t j, std::span<const Touch> old,
                                   Touch* out) {
    // Survivors and the node's bucket are both ascending by sample id;
    // their merge is the row a rebuild writes.
    const NodeId v = static_cast<NodeId>(index_rows[j].row);
    const Touch* add = fresh_touches.data() + fresh_offsets[v];
    const Touch* const add_end = fresh_touches.data() + fresh_offsets[v + 1];
    for (const Touch& touch : old) {
      if (affected[touch.sample] != 0) continue;
      while (add != add_end && add->sample < touch.sample) *out++ = *add++;
      *out++ = touch;
    }
    std::copy(add, add_end, out);
  };
  const auto replace_rows = [&](RowPatch<TouchPair>& patch, unsigned chunk,
                                 const std::vector<std::uint32_t>& ids,
                                 std::uint64_t first,
                                 ArenaVector<std::uint32_t>& thresholds,
                                 ArenaVector<CommunityId>& sources) {
    patch.run(chunk, [&](std::uint64_t j, std::span<const TouchPair>,
                         TouchPair* out) {
      const RicSampleMeta& meta = *repaired_meta[first + j];
      std::copy_n(repaired_data[first + j], meta.touch_count, out);
      thresholds[ids[j]] = meta.threshold;
      sources[ids[j]] = meta.community;
    });
  };
  const unsigned index_chunks = index_patch.chunks();
  const unsigned sample_chunks = sample_patch.chunks();
  for_each_task(
      pool, index_chunks + sample_chunks + tail_patch.chunks(),
      [&](unsigned t) {
        if (t < index_chunks) {
          index_patch.run(t, merge_index_row);
        } else if (t < index_chunks + sample_chunks) {
          replace_rows(sample_patch, t - index_chunks, repair_ids, 0,
                       thresholds_, source_community_);
        } else {
          replace_rows(tail_patch, t - index_chunks - sample_chunks, tail_ids,
                       count, tail_.thresholds, tail_.source_community);
        }
      });
  index_patch.finish();
  sample_patch.finish();
  tail_patch.finish();

  // Counters recomputed from the repaired metadata, never drifted.
  if (count > 0) {
    community_frequency_.assign(communities_->size(), 0);
    for (const CommunityId c : source_community_.span()) {
      ++community_frequency_[c];
    }
  }

  ++repairs_;
  return stats;
}

void RicPool::drop_tail() {
  tail_.thresholds.clear();
  tail_.source_community.clear();
  tail_.sample_offsets.assign(1, 0);
  tail_.sample_arena.clear();
}

EstimateTail RicPool::estimate_tail(std::uint64_t seed) {
  if (seed != tail_.seed) {
    drop_tail();
    tail_.seed = seed;
  }
  return EstimateTail(*this);
}

RicPool::TailView RicPool::tail_view() const {
  return TailView{tail_.seed, tail_.thresholds.span(),
                  tail_.source_community.span(), tail_.sample_offsets.span(),
                  tail_.sample_arena.span()};
}

void EstimateTail::serve(std::uint64_t from, std::uint64_t to,
                         std::span<const std::uint8_t> is_seed,
                         std::vector<std::uint8_t>& x, Fill& fill) const {
  const RicPool::TailStore& tail = pool_->tail_;
  const std::uint64_t base = begin();
  assert(base <= from && fill.parts_.empty());
  std::uint64_t p = from;
  for (; p < std::min(to, kept_end()); ++p) {
    const std::uint64_t t = p - base;
    const std::uint64_t first = tail.sample_offsets[t];
    x.push_back(seeds_reach(tail.sample_arena.data() + first,
                            tail.sample_offsets[t + 1] - first,
                            tail.thresholds[t], is_seed)
                    ? 1
                    : 0);
  }
  if (p >= to) return;
  fill.begin_ = p;
  pool_->generate_parts(
      to - p, tail.seed, [p](std::uint64_t i) { return p + i; }, nullptr,
      fill.parts_);
  const RicPool::GeneratedPart& part = fill.parts_.front();
  std::uint64_t offset = 0;
  for (const RicSampleMeta& meta : part.metas) {
    x.push_back(seeds_reach(part.touches.data() + offset, meta.touch_count,
                            meta.threshold, is_seed)
                    ? 1
                    : 0);
    offset += meta.touch_count;
  }
}

void EstimateTail::commit(std::span<Fill> fills) {
  RicPool::TailStore& tail = pool_->tail_;
  bool contiguous = true;
  for (Fill& fill : fills) {
    if (fill.parts_.empty()) continue;
    contiguous = contiguous && fill.begin_ == kept_end();
    if (contiguous) {
      const RicPool::GeneratedPart& part = fill.parts_.front();
      tail.sample_arena.append(part.touches.data(),
                               part.touches.data() + part.touches.size());
      for (const RicSampleMeta& meta : part.metas) {
        tail.thresholds.push_back(meta.threshold);
        tail.source_community.push_back(meta.community);
        tail.sample_offsets.push_back(tail.sample_offsets.back() +
                                      meta.touch_count);
      }
    }
    fill.parts_.clear();
  }
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
