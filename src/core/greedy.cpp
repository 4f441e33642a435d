#include "core/greedy.h"

#include <algorithm>
#include <mutex>
#include <queue>
#include <stdexcept>

#include "core/objective.h"

namespace imc {

namespace {

/// Nodes that touch at least one sample — the only useful candidates.
/// One linear walk over the CSR offsets, no per-node span construction.
[[nodiscard]] std::vector<NodeId> candidate_nodes(const RicPool& pool) {
  const std::span<const std::uint64_t> offsets = pool.touch_offsets();
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < pool.graph().node_count(); ++v) {
    if (offsets[v + 1] > offsets[v]) candidates.push_back(v);
  }
  return candidates;
}

/// Tops the seed set up to k with untouched nodes (deterministically) when
/// there are fewer candidates than seats; marginals there are all zero.
void fill_to_k(const RicPool& pool, std::uint32_t k,
               std::vector<NodeId>& seeds) {
  std::vector<std::uint8_t> used(pool.graph().node_count(), 0);
  for (const NodeId v : seeds) used[v] = 1;
  for (NodeId v = 0; v < pool.graph().node_count() && seeds.size() < k; ++v) {
    if (!used[v]) seeds.push_back(v);
  }
}

void check_k(const RicPool& pool, std::uint32_t k) {
  if (k == 0 || k > pool.graph().node_count()) {
    throw std::invalid_argument("greedy: need 1 <= k <= node count");
  }
}

GreedyResult finish(const RicPool& pool, std::vector<NodeId> seeds) {
  GreedyResult result;
  result.c_hat = pool.c_hat(seeds);
  result.nu = pool.nu(seeds);
  result.seeds = std::move(seeds);
  return result;
}

/// Resolves the sweep pool and whether the parallel path applies to a
/// candidate set of `count` entries.
[[nodiscard]] ThreadPool* sweep_pool(const GreedyOptions& options,
                                     std::size_t count) {
  if (!options.parallel || count < options.min_parallel_candidates) {
    return nullptr;
  }
  return options.pool != nullptr ? options.pool : &default_pool();
}

/// One ν argmax sweep over `candidates`, serial or chunked on `pool`. The
/// per-chunk winners are merged under `beats_nu` — a strict total order —
/// so the merged winner is chunking-independent and equals the serial one.
[[nodiscard]] CandidateScore sweep_best_nu(
    const CoverageState& state, std::span<const NodeId> candidates,
    ThreadPool* pool) {
  if (pool == nullptr) {
    return state.best_candidate_nu(candidates, 0, candidates.size());
  }
  CandidateScore best;
  std::mutex merge_mutex;
  parallel_for(*pool, candidates.size(),
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 const CandidateScore chunk_best = state.best_candidate_nu(
                     candidates, static_cast<std::size_t>(begin),
                     static_cast<std::size_t>(end));
                 const std::lock_guard<std::mutex> lock(merge_mutex);
                 if (beats_nu(chunk_best, best)) best = chunk_best;
               });
  return best;
}

/// Shard count for the parallel row work: the override, else one per
/// worker.
[[nodiscard]] unsigned shard_target(const ThreadPool& sweep,
                                    std::size_t shards) {
  return shards != 0 ? static_cast<unsigned>(shards) : sweep.size();
}

/// Adds the `shards` per-shard rows of `scratch` into `gains`, ascending
/// shard, ascending node. The rows hold integers (modulo 2^64), so the
/// totals are the same for any decomposition.
void fold_shard_rows(ThreadPool& sweep, std::size_t shards,
                     const std::vector<std::uint64_t>& scratch,
                     std::vector<std::uint64_t>& gains) {
  const std::size_t n = gains.size();
  // The fold is a handful of streaming adds per node — below this many
  // cells the submit/wake/wait round trip of a parallel_for costs more
  // than the fold itself, so run it inline.
  constexpr std::size_t kSerialFoldCells = std::size_t{1} << 22;
  if (shards * n <= kSerialFoldCells) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t* slab = scratch.data() + s * n;
      for (std::size_t v = 0; v < n; ++v) gains[v] += slab[v];
    }
    return;
  }
  parallel_for(sweep, n,
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 for (std::size_t s = 0; s < shards; ++s) {
                   const std::uint64_t* slab = scratch.data() + s * n;
                   for (std::uint64_t v = begin; v < end; ++v) {
                     gains[v] += slab[v];
                   }
                 }
               });
}

/// The ν/appearance tie-break over the max-gain candidates, given every
/// node's influenced gain for the round. Equivalent to a candidate-major
/// sweep under `beats_c_hat`: it orders by influenced gain first, so the
/// winner is always among the max-gain candidates, and their ν gains and
/// appearance counts are computed exactly as such a sweep computes them.
[[nodiscard]] CandidateScore best_from_gains(
    const CoverageState& state, std::span<const NodeId> candidates,
    const std::vector<std::uint64_t>& gains) {
  const RicPool& pool = state.pool();
  std::uint64_t max_gain = 0;
  bool any = false;
  for (const NodeId v : candidates) {
    if (state.is_seed(v)) continue;
    any = true;
    max_gain = std::max(max_gain, gains[v]);
  }
  CandidateScore best;
  if (!any) return best;
  for (const NodeId v : candidates) {
    if (state.is_seed(v) || gains[v] != max_gain) continue;
    CandidateScore score;
    score.node = v;
    score.influenced_gain = max_gain;
    score.nu_gain = state.marginal_nu(v);
    score.appearance = pool.appearance_count(v);
    if (beats_c_hat(score, best)) best = score;
  }
  return best;
}

}  // namespace

void CHatGainRow::compute(const CoverageState& state, ThreadPool* sweep,
                          std::size_t shards) {
  const RicPool& pool = state.pool();
  const auto samples = static_cast<std::uint32_t>(pool.size());
  const std::size_t n = pool.graph().node_count();
  gains.assign(n, 0);
  if (sweep == nullptr) {
    state.accumulate_influenced_gains(0, samples, gains.data());
    return;
  }
  // 64-aligned sample slabs, one per worker by default so slab -> worker
  // affinity holds; each slab sweeps into its own private row.
  const std::vector<RicPool::SampleShard> slabs =
      RicPool::selection_shards(samples, shard_target(*sweep, shards));
  if (slabs.size() <= 1) {
    state.accumulate_influenced_gains(0, samples, gains.data());
    return;
  }
  scratch.assign(slabs.size() * n, 0);
  parallel_for_shards(
      *sweep, static_cast<unsigned>(slabs.size()), [&](unsigned s) {
        state.accumulate_influenced_gains(
            slabs[s].begin, slabs[s].end,
            scratch.data() + static_cast<std::size_t>(s) * n);
      });
  fold_shard_rows(*sweep, slabs.size(), scratch, gains);
}

void CHatGainRow::update(const CoverageState& state, NodeId seed,
                         ThreadPool* sweep, std::size_t shards) {
  const std::size_t touches = state.pool().appearance_count(seed);
  const std::size_t chunks =
      sweep == nullptr
          ? 1
          : std::min<std::size_t>(touches, shard_target(*sweep, shards));
  if (chunks <= 1) {
    state.update_influenced_gains(seed, 0, touches, gains.data());
    return;
  }
  // One contiguous chunk of the seed's CSR span per shard. The span holds
  // each sample at most once, so no two chunks touch the same sample and
  // each chunk's signed deltas are independent of the others'.
  const std::size_t n = gains.size();
  scratch.assign(chunks * n, 0);
  parallel_for_shards(
      *sweep, static_cast<unsigned>(chunks), [&](unsigned s) {
        state.update_influenced_gains(
            seed, touches * s / chunks, touches * (s + 1) / chunks,
            scratch.data() + static_cast<std::size_t>(s) * n);
      });
  fold_shard_rows(*sweep, chunks, scratch, gains);
}

GreedyResult greedy_c_hat(const RicPool& pool, std::uint32_t k,
                          const GreedyOptions& options) {
  check_k(pool, k);
  CoverageState state(pool);
  const std::vector<NodeId> candidates = candidate_nodes(pool);
  ThreadPool* sweep = sweep_pool(options, candidates.size());

  // Round 0 sweeps the pool; every later round reads the row the previous
  // pick's update left behind.
  CHatGainRow row;
  row.compute(state, sweep, options.shards);
  for (std::uint32_t round = 0;
       round < k && state.seeds().size() < candidates.size(); ++round) {
    const CandidateScore best = best_from_gains(state, candidates, row.gains);
    if (!best.valid()) break;
    if (round + 1 < k) row.update(state, best.node, sweep, options.shards);
    state.add_seed(best.node);
  }

  std::vector<NodeId> seeds = state.seeds();
  fill_to_k(pool, k, seeds);
  return finish(pool, std::move(seeds));
}

GreedyResult plain_greedy_nu(const RicPool& pool, std::uint32_t k,
                             const GreedyOptions& options) {
  check_k(pool, k);
  CoverageState state(pool);
  const std::vector<NodeId> candidates = candidate_nodes(pool);
  ThreadPool* sweep = sweep_pool(options, candidates.size());
  for (std::uint32_t round = 0;
       round < k && state.seeds().size() < candidates.size(); ++round) {
    const CandidateScore best = sweep_best_nu(state, candidates, sweep);
    if (!best.valid()) break;
    state.add_seed(best.node);
  }
  std::vector<NodeId> seeds = state.seeds();
  fill_to_k(pool, k, seeds);
  return finish(pool, std::move(seeds));
}

namespace {

struct CelfEntry {
  double gain;
  NodeId node;
  std::uint32_t round;  // round at which `gain` was computed
};

struct CelfLess {
  bool operator()(const CelfEntry& a, const CelfEntry& b) const noexcept {
    if (a.gain != b.gain) return a.gain < b.gain;  // max-heap on gain
    return a.node > b.node;  // ties: smaller node id pops first
  }
};

/// Relative width of the stale-bound drift guard. ν marginals are
/// non-increasing in exact arithmetic (submodularity), but marginal_nu is
/// a plain-double sum of fraction-table deltas, so a node's true gain can
/// drift a few ulps ABOVE its cached CELF bound as the covered masks
/// change underneath it (relative error of a non-negative T-term sum is
/// O(T·eps), ~1e-11 for the largest pools). A fresh heap top may then beat
/// a buried near-tie whose true gain is actually higher, diverging from
/// plain_greedy_nu. Before trusting a fresh top, every stale entry within
/// this band of it is refreshed; 1e-9 is ~100x the worst-case drift while
/// still far below any meaningful gain difference, so the extra refreshes
/// only hit (near-)exact ties.
inline constexpr double kCelfDriftGuard = 1e-9;

using CelfHeap = std::priority_queue<CelfEntry, std::vector<CelfEntry>,
                                     CelfLess>;

}  // namespace

GreedyResult celf_greedy_nu(const RicPool& pool, std::uint32_t k,
                            const GreedyOptions& options) {
  check_k(pool, k);
  CoverageState state(pool);
  const std::vector<NodeId> candidates = candidate_nodes(pool);
  ThreadPool* sweep = sweep_pool(options, candidates.size());

  CelfHeap heap;
  {
    // Initial gains are chunking-independent per node, so the parallel
    // build feeds the heap the exact values the serial build would. The
    // serial build itself goes sample-major — one sequential pass over the
    // pool instead of a random covered probe per touch — which is
    // bit-identical to per-node marginal_nu over the full range (see
    // CoverageState::accumulate_nu_gains).
    std::vector<double> gains(candidates.size(), 0.0);
    if (sweep != nullptr) {
      parallel_for(*sweep, candidates.size(),
                   [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                     for (std::uint64_t i = begin; i < end; ++i) {
                       gains[i] = state.marginal_nu(candidates[i]);
                     }
                   });
    } else {
      std::vector<double> node_gains(pool.graph().node_count(), 0.0);
      state.accumulate_nu_gains(node_gains.data());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        gains[i] = node_gains[candidates[i]];
      }
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      heap.push(CelfEntry{gains[i], candidates[i], 0});
    }
  }

  // Refresh burst size: enough stale entries per batch to feed every
  // worker, small enough to avoid refreshing far below the eventual
  // winner. Purely a scheduling knob — selection is unaffected.
  const std::size_t burst =
      sweep != nullptr ? std::max<std::size_t>(32, sweep->size() * 8) : 1;
  std::vector<CelfEntry> stale;
  stale.reserve(burst);
  std::vector<CelfEntry> band;

  std::uint32_t round = 0;
  while (round < k && !heap.empty()) {
    if (heap.top().round == round) {
      // Fresh top: stale entries cache upper bounds (submodularity), BUT
      // floating-point drift can push a buried entry's true gain a few
      // ulps above its cached bound (see kCelfDriftGuard). Drain the whole
      // guard band — including fresh ties, which can hide a one-ulp-lower
      // stale bound beneath them — refresh the stale ones, and only trust
      // the top once no refresh outranked it.
      //
      // Zero-gain top short-circuits the drain: a zero marginal is a sum
      // whose every term is zero (the fraction-table deltas are exact
      // doubles), so neither cached nor fresh zeros carry drift, and the
      // heap's id tie-break already matches the reference ordering. This
      // keeps the exhausted tail O(log n) per pick instead of re-draining
      // every zero entry each round.
      CelfEntry top = heap.top();
      heap.pop();
      if (top.gain > 0.0) {
        bool refreshed_stale = false;
        const double guard = kCelfDriftGuard * (1.0 + top.gain);
        band.clear();
        while (!heap.empty() && heap.top().gain >= top.gain - guard) {
          CelfEntry entry = heap.top();
          heap.pop();
          if (entry.round != round) {
            entry.gain = state.marginal_nu(entry.node);
            entry.round = round;
            refreshed_stale = true;
          }
          band.push_back(entry);
        }
        for (const CelfEntry& entry : band) heap.push(entry);
        if (refreshed_stale && !heap.empty() &&
            CelfLess{}(top, heap.top())) {
          heap.push(top);  // a refreshed entry won; pick it next iteration
          continue;
        }
      }
      state.add_seed(top.node);
      ++round;
      continue;
    }
    // Pop a burst of stale tops and recompute their gains — serially one
    // at a time, or batched across the pool. Re-pushed entries carry
    // chunking-independent gains, so both paths select identical seeds.
    stale.clear();
    while (!heap.empty() && heap.top().round != round &&
           stale.size() < burst) {
      stale.push_back(heap.top());
      heap.pop();
    }
    const auto refresh_range = [&](std::uint64_t begin, std::uint64_t end,
                                   unsigned) {
      for (std::uint64_t i = begin; i < end; ++i) {
        stale[i].gain = state.marginal_nu(stale[i].node);
        stale[i].round = round;
      }
    };
    if (sweep != nullptr && stale.size() >= sweep->size()) {
      parallel_for(*sweep, stale.size(), refresh_range);
    } else {
      refresh_range(0, stale.size(), 0);
    }
    for (const CelfEntry& entry : stale) heap.push(entry);
  }

  std::vector<NodeId> seeds = state.seeds();
  fill_to_k(pool, k, seeds);
  return finish(pool, std::move(seeds));
}

}  // namespace imc
