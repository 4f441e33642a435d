// A disjoint collection of communities over the nodes of a graph, together
// with each community's activation threshold h_i and benefit b_i — the
// `Com` input of the IMC problem (paper §II-A).
//
// Not every node must belong to a community (nodes outside any community can
// still relay influence); communities must be pairwise disjoint and
// non-empty, which the constructor enforces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace imc {

/// Largest community population the RIC sampler supports: a sample records
/// the members it reached as one 64-bit mask. The sampler rejects larger
/// communities, and apply_delta rejects moves that would create one.
inline constexpr std::uint32_t kMaxCommunityPopulation = 64;

class CommunitySet {
 public:
  CommunitySet() = default;

  /// From explicit member lists. Throws std::invalid_argument if any group
  /// is empty, any node id >= node_count, or any node appears twice.
  CommunitySet(NodeId node_count, std::vector<std::vector<NodeId>> groups);

  /// From a per-node assignment (kInvalidCommunity = not in any community).
  /// Community ids must be dense [0, r); empty ids are rejected.
  static CommunitySet from_assignment(NodeId node_count,
                                      std::span<const CommunityId> assignment);

  [[nodiscard]] CommunityId size() const noexcept {
    return static_cast<CommunityId>(groups_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return groups_.empty(); }
  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }

  [[nodiscard]] std::span<const NodeId> members(CommunityId c) const;
  [[nodiscard]] NodeId population(CommunityId c) const {
    return static_cast<NodeId>(members(c).size());
  }

  /// Community containing `v`, or kInvalidCommunity.
  [[nodiscard]] CommunityId community_of(NodeId v) const;

  /// Moves `v` into community `to` (a GraphDelta membership move). `v`
  /// must currently belong to some OTHER community that stays non-empty —
  /// and whose threshold stays ≤ its shrunken population — after the move;
  /// `v` is appended to the target's member list (mask bit positions of
  /// existing members are preserved, only the target community's samples
  /// gain a bit). Throws std::invalid_argument when any of that fails;
  /// the set is unchanged on throw.
  void move_member(NodeId v, CommunityId to);

  // -- thresholds ---------------------------------------------------------
  [[nodiscard]] std::uint32_t threshold(CommunityId c) const;
  void set_threshold(CommunityId c, std::uint32_t h);
  /// Maximum threshold over all communities (the paper's h); 0 if empty.
  [[nodiscard]] std::uint32_t max_threshold() const;

  // -- benefits -----------------------------------------------------------
  [[nodiscard]] double benefit(CommunityId c) const;
  void set_benefit(CommunityId c, double b);
  /// Σ b_i (the paper's b).
  [[nodiscard]] double total_benefit() const;
  /// min b_i (the paper's β); 0 if empty.
  [[nodiscard]] double min_benefit() const;

  /// Benefits as a contiguous span (drives the ρ distribution of RIC).
  [[nodiscard]] std::span<const double> benefits() const noexcept {
    return benefits_;
  }

  /// Fraction of nodes assigned to some community.
  [[nodiscard]] double coverage() const noexcept;

  /// Order-stable 64-bit digest of the full structure: memberships,
  /// thresholds and benefit bit patterns. Pool snapshots
  /// (sampling/pool_snapshot.h) store it so a pool can refuse to attach
  /// to a community structure it was not sampled from. O(n + r).
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] std::string summary() const;

 private:
  void check_community(CommunityId c) const;
  void rebuild_membership();

  NodeId node_count_ = 0;
  std::vector<std::vector<NodeId>> groups_;
  std::vector<CommunityId> community_of_;   // node -> community
  std::vector<std::uint32_t> thresholds_;
  std::vector<double> benefits_;
};

}  // namespace imc
