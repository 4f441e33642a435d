// Reverse Influenceable Community (RIC) sampling — the paper's Alg. 1 and
// the foundation of every IMC algorithm in this library.
//
// A RIC sample g is drawn by (1) choosing a source community C_g with
// probability ρ(C_i) = b_i / b, (2) realizing a live-edge sample graph via
// a backward BFS seeded with ALL of C_g (each edge flipped at most once),
// and (3) recording, for every node v in the realized region, WHICH members
// of C_g it can reach (the transpose of the per-member reverse-reachable
// sets R_g(u) of the paper). g is influenced by S iff S reaches at least
// h_g distinct members, i.e. popcount(OR of member masks over S) >= h_g.
//
// Member sets are stored as 64-bit masks: the library requires community
// populations of at most 64, which the paper's experiments always satisfy
// (communities are size-capped at s = 8 by default and s <= 32 in sweeps).
//
// Engine notes (DESIGN.md §9, "Sampling engine"):
//   * Live-edge realization uses geometric skipping on nodes whose
//     in-edges share one probability (every node under weighted cascade):
//     one uniform draw jumps straight to the next realized edge instead of
//     one Bernoulli per in-edge. Mixed-weight nodes keep the per-edge path.
//   * Member reachability is computed by ONE bit-parallel worklist pass
//     that propagates all <= 64 member bits at once along realized edges —
//     O(live edges × rounds) instead of one DFS per member.
//   * Scratch is flat: realized in-edges live in a head/next arena (no
//     per-node heap vectors), and `generate_into` appends the touching
//     pairs straight into a caller-owned arena so pool growth never
//     materializes intermediate RicSample objects.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "community/community_set.h"
#include "diffusion/monte_carlo.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"

namespace imc {

/// Version of the sampler's RNG-consumption contract. The determinism unit
/// is unchanged — one substream per global sample index, derived as
/// splitmix_of(seed, base + i) — but the number of draws consumed PER
/// sample differs across versions, so pools generated from the same seed
/// are not comparable across them. v1: per-edge Bernoulli realization
/// (PRs 0–2). v2: geometric-skip realization on uniform-in-weight nodes
/// (golden-seed pins re-recorded once in maxr_determinism_test).
inline constexpr std::uint32_t kRicSamplerRngContract = 2;

/// One RIC sample. `touching` lists every node that can reach >= 1 member
/// of the source community in the realization, with the mask of members it
/// reaches; sorted by node id; members themselves appear with their own bit
/// set (u ∈ R_g(u)).
struct RicSample {
  CommunityId community = kInvalidCommunity;
  std::uint32_t threshold = 1;     // h_g
  std::uint32_t member_count = 0;  // |C_g| (<= 64)
  std::vector<std::pair<NodeId, std::uint64_t>> touching;

  /// Mask of members reached from `v`, 0 if v does not touch the sample.
  [[nodiscard]] std::uint64_t mask_of(NodeId v) const;

  /// Number of members of C_g reachable from seed set S = |I_g(S)|.
  [[nodiscard]] std::uint32_t members_reached(
      std::span<const NodeId> seeds) const;

  /// X_g(S): 1 iff S reaches >= h_g members.
  [[nodiscard]] bool influenced_by(std::span<const NodeId> seeds) const {
    return members_reached(seeds) >= threshold;
  }
};

/// Per-sample metadata the arena-direct generation path emits alongside the
/// touching pairs — everything RicPool stores besides the pairs themselves.
struct RicSampleMeta {
  CommunityId community = kInvalidCommunity;
  std::uint32_t threshold = 1;     // h_g
  std::uint32_t member_count = 0;  // |C_g| (<= 64)
  std::uint32_t touch_count = 0;   // pairs appended to the arena
};

/// Reusable generator (owns scratch buffers; one instance per thread).
///
/// Supports both diffusion models (the paper's §II-A remark): under IC each
/// in-edge of a dequeued node is realized independently; under LT each
/// node realizes AT MOST ONE live in-edge, chosen with probability equal
/// to its weight (the classic LT live-edge distribution), so the reverse
/// region is a union of in-trees.
class RicSampler {
 public:
  /// The arena type `generate_into` appends to: (node, member mask) pairs.
  using TouchArena = std::vector<std::pair<NodeId, std::uint64_t>>;

  /// Requires every community population <= kMaxCommunityPopulation and a
  /// non-empty community set; throws std::invalid_argument otherwise.
  /// For kLinearThreshold the incoming weights of every node must sum to
  /// at most 1 (checked eagerly).
  RicSampler(const Graph& graph, const CommunitySet& communities,
             DiffusionModel model = DiffusionModel::kIndependentCascade);

  /// Draws one sample (paper Alg. 1). Deterministic given rng state.
  [[nodiscard]] RicSample generate(Rng& rng);

  /// Draws a sample with a forced source community (used by tests and by
  /// stratified ablations).
  [[nodiscard]] RicSample generate_for_community(CommunityId community,
                                                 Rng& rng);

  /// Arena-direct variant: appends the sample's touching pairs (sorted by
  /// node id) to `out` and returns the metadata. Pool growth uses this to
  /// emit straight into per-thread arenas with zero intermediate copies.
  /// Templated over the arena so the pool's serial fast path can emit
  /// straight into an ArenaVector slab (heap or mmap) while per-part
  /// scratch keeps using TouchArena; instantiated in ric_sample.cpp for
  /// exactly those two types.
  template <typename Arena>
  RicSampleMeta generate_into(Rng& rng, Arena& out);

  /// Arena-direct variant of generate_for_community.
  template <typename Arena>
  RicSampleMeta generate_for_community_into(CommunityId community, Rng& rng,
                                            Arena& out);

  /// X_g(S) of one fresh draw: true iff the seeds flagged in `is_seed`
  /// (indexed by node id, size >= node_count) reach at least h_g members
  /// of the drawn sample. Equals generate(rng).influenced_by(S) and leaves
  /// `rng` in the same state — the draw and the live-edge BFS are the
  /// same code and the only RNG consumers — but builds no sample: a region
  /// without seeds returns before mask propagation, and propagation stops
  /// as soon as the seeds cover h_g members. No sort, no allocation once
  /// the scratch has grown. The estimators' inner loop (DESIGN.md §9).
  [[nodiscard]] bool draw_influenced(Rng& rng,
                                     std::span<const std::uint8_t> is_seed);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const CommunitySet& communities() const noexcept {
    return *communities_;
  }

  [[nodiscard]] DiffusionModel model() const noexcept { return model_; }

  /// Test-only: forces the visit-epoch counter so the wrap branch
  /// (epoch_ == UINT32_MAX → full refill, restart at 1) can be exercised
  /// without generating 2^32 samples.
  void set_visit_epoch_for_test(std::uint32_t value) noexcept {
    epoch_ = value;
  }
  [[nodiscard]] std::uint32_t visit_epoch_for_test() const noexcept {
    return epoch_;
  }

 private:
  /// Sentinel for "no (more) realized in-edges" in the live-edge arena.
  static constexpr std::uint32_t kNoLiveEdge = 0xFFFFFFFFU;

  /// Phase 1 of every draw: starts a new visit epoch and realizes the
  /// live-edge region reverse-reachable from `members` into region_ and
  /// the live-edge arena. Shared by generate_for_community_into and
  /// draw_influenced, so both consume the RNG identically.
  void realize(std::span<const NodeId> members, Rng& rng);
  /// Phase 2: propagates member masks along the realized live edges to
  /// their fixpoint. `on_grow(v)` runs after every member's initial bit
  /// and every mask update; returning true stops propagation early (the
  /// undrained worklist is reset) and makes propagate return true.
  template <typename OnGrow>
  bool propagate(std::span<const NodeId> members, OnGrow on_grow);
  /// Clears the live-edge arena for the next sample.
  void reset_live_edges();

  /// Marks v visited (epoch trick) and enqueues it for the BFS. Inline:
  /// called once per realized edge, millions of times per grow().
  void visit(NodeId v) {
    if (visit_epoch_[v] != epoch_) {
      visit_epoch_[v] = epoch_;
      mask_[v] = 0;
      queue_.push_back(v);
      region_.push_back(v);
    }
  }
  /// Records realized live edge tail -> head in the flat arena. Inline for
  /// the same reason as visit().
  void add_live_edge(NodeId head, NodeId tail) {
    if (live_head_[head] == kNoLiveEdge) live_touched_.push_back(head);
    live_next_.push_back(live_head_[head]);
    live_tail_.push_back(tail);
    live_head_[head] = static_cast<std::uint32_t>(live_tail_.size() - 1);
  }

  const Graph* graph_;
  const CommunitySet* communities_;
  DiffusionModel model_ = DiffusionModel::kIndependentCascade;
  DiscreteDistribution rho_;  // ρ(C_i) = b_i / b

  // Scratch (cleared per sample via the epoch trick — no O(n) reset).
  std::vector<std::uint32_t> visit_epoch_;
  std::vector<std::uint64_t> mask_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;   // phase-1 BFS queue, reused as the phase-2
                                // worklist (both drained head-to-tail)
  std::vector<NodeId> region_;  // all visited nodes, BFS order

  // Realized live edges INTO each node, as a flat head/next linked arena:
  // live_head_[v] indexes the first entry for v (kNoLiveEdge when none),
  // entries chain through live_next_, tails live in live_tail_. Replaces
  // the former vector<vector<NodeId>> — zero per-node heap churn, O(live
  // edges) reset via live_touched_.
  std::vector<std::uint32_t> live_head_;
  std::vector<NodeId> live_tail_;
  std::vector<std::uint32_t> live_next_;
  std::vector<NodeId> live_touched_;  // heads with live in-edges this sample

  // Phase-2 worklist membership flags (all false between samples: every
  // queued node is popped exactly once per queue residency, and an early
  // exit clears the undrained tail).
  std::vector<std::uint8_t> in_worklist_;
};

}  // namespace imc
