// Streaming mutations for dynamic graphs (DESIGN.md §16).
//
// A GraphDelta batches edge upserts/removals, weight changes and community
// membership moves; apply_delta() validates the whole batch, applies it to
// a Graph + CommunitySet pair, and reports the DeltaEffects — the minimal
// description of what changed that RicPool::invalidate_and_repair needs to
// regenerate exactly the affected samples:
//
//   * changed_in_nodes    — nodes whose in-adjacency changed. A reverse
//                           RIC walk only examines a node's in-edges when
//                           it dequeues that node, and every dequeued node
//                           is recorded in the sample's touch set — so the
//                           samples whose realizations could differ are
//                           exactly those touching a changed head.
//   * changed_communities — communities whose member list changed. Their
//                           samples re-derive the source mask / threshold;
//                           the ρ = b_i/b source distribution depends only
//                           on benefits, which moves do not alter, so all
//                           other samples are untouched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace imc {

class Graph;
class CommunitySet;

/// Moves `node` out of its current community into `to`.
struct MemberMove {
  NodeId node = 0;
  CommunityId to = 0;

  friend bool operator==(const MemberMove&, const MemberMove&) = default;
};

/// One batch of graph/community mutations, applied atomically by
/// apply_delta(). Build with the fluent helpers or fill the vectors
/// directly; within the batch the last edge update per (source, target)
/// wins and moves apply in order.
struct GraphDelta {
  std::vector<EdgeUpdate> edges;
  std::vector<MemberMove> moves;

  GraphDelta& upsert_edge(NodeId source, NodeId target, double weight) {
    edges.push_back(EdgeUpdate{source, target, weight});
    return *this;
  }
  GraphDelta& remove_edge(NodeId source, NodeId target) {
    edges.push_back(EdgeUpdate{source, target, 0.0});
    return *this;
  }
  GraphDelta& move_member(NodeId node, CommunityId to) {
    moves.push_back(MemberMove{node, to});
    return *this;
  }
  [[nodiscard]] bool empty() const noexcept {
    return edges.empty() && moves.empty();
  }
};

/// What a delta actually changed — the repair frontier. Both lists are
/// sorted and deduplicated; an all-no-op delta yields empty().
struct DeltaEffects {
  std::vector<NodeId> changed_in_nodes;
  std::vector<CommunityId> changed_communities;

  [[nodiscard]] bool empty() const noexcept {
    return changed_in_nodes.empty() && changed_communities.empty();
  }
};

/// Validates the whole delta up front (edge endpoints and weights against
/// the graph; the move sequence simulated against the community set so a
/// mid-batch failure cannot leave a half-applied state), then applies edge
/// updates and membership moves. Throws std::invalid_argument without
/// mutating anything when validation fails — including a move that would
/// push a community past the sampler's kMaxCommunityPopulation members.
/// LT in-weight sums are not checked here: the pool repair's sampler probe
/// rejects them.
DeltaEffects apply_delta(Graph& graph, CommunitySet& communities,
                         const GraphDelta& delta);

/// Parses a delta replay file (imc_cli --apply-deltas): one op per line,
///   E <source> <target> <weight>   upsert (weight 0 removes)
///   M <node> <community>           membership move
///   #...                           comment; blank lines skipped
/// A blank-line-separated group of ops forms ONE GraphDelta batch.
/// Throws std::invalid_argument on malformed lines.
std::vector<GraphDelta> parse_delta_stream(const std::string& text);

}  // namespace imc
