#include "graph/delta.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "community/community_set.h"
#include "graph/graph.h"

namespace imc {

namespace {

/// Replays the move sequence against the CURRENT community set without
/// touching it, throwing on the first move that could not apply. Mirrors
/// CommunitySet::move_member's checks exactly, plus the sampler's
/// kMaxCommunityPopulation cap on the target, and accounts for earlier
/// moves in the same batch, so a mid-batch failure is detected before
/// anything mutates.
void validate_moves(const CommunitySet& communities,
                    const std::vector<MemberMove>& moves) {
  std::unordered_map<NodeId, CommunityId> where;       // batch overrides
  std::unordered_map<CommunityId, std::int64_t> drift;  // population deltas
  for (const MemberMove& m : moves) {
    if (m.node >= communities.node_count()) {
      throw std::invalid_argument("apply_delta: move node out of range");
    }
    if (m.to >= communities.size()) {
      throw std::invalid_argument(
          "apply_delta: move target community out of range");
    }
    const auto hit = where.find(m.node);
    const CommunityId from =
        hit != where.end() ? hit->second : communities.community_of(m.node);
    if (from == kInvalidCommunity) {
      throw std::invalid_argument(
          "apply_delta: moved node belongs to no community");
    }
    if (from == m.to) {
      throw std::invalid_argument(
          "apply_delta: moved node already in target community");
    }
    const std::int64_t population =
        static_cast<std::int64_t>(communities.population(from)) + drift[from];
    if (population <= 1) {
      throw std::invalid_argument(
          "apply_delta: source community would become empty");
    }
    if (communities.threshold(from) > population - 1) {
      throw std::invalid_argument(
          "apply_delta: source threshold would exceed its shrunken "
          "population");
    }
    const std::int64_t target_population =
        static_cast<std::int64_t>(communities.population(m.to)) +
        drift[m.to];
    if (target_population + 1 > kMaxCommunityPopulation) {
      throw std::invalid_argument(
          "apply_delta: target community would exceed " +
          std::to_string(kMaxCommunityPopulation) +
          " members (the sampler's mask width)");
    }
    where[m.node] = m.to;
    --drift[from];
    ++drift[m.to];
  }
}

}  // namespace

DeltaEffects apply_delta(Graph& graph, CommunitySet& communities,
                         const GraphDelta& delta) {
  // Order of operations gives the batch a strong guarantee: moves are
  // pre-validated (above), apply_edge_updates validates the whole edge
  // batch before its first write, and the moves themselves can no longer
  // fail once the simulation passed.
  validate_moves(communities, delta.moves);

  DeltaEffects effects;
  effects.changed_in_nodes = graph.apply_edge_updates(delta.edges);

  effects.changed_communities.reserve(delta.moves.size() * 2);
  for (const MemberMove& m : delta.moves) {
    const CommunityId from = communities.community_of(m.node);
    communities.move_member(m.node, m.to);
    effects.changed_communities.push_back(from);
    effects.changed_communities.push_back(m.to);
  }
  std::sort(effects.changed_communities.begin(),
            effects.changed_communities.end());
  effects.changed_communities.erase(
      std::unique(effects.changed_communities.begin(),
                  effects.changed_communities.end()),
      effects.changed_communities.end());
  return effects;
}

std::vector<GraphDelta> parse_delta_stream(const std::string& text) {
  std::vector<GraphDelta> batches;
  GraphDelta current;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("delta stream line " +
                                std::to_string(line_no) + ": " + why);
  };
  while (std::getline(stream, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op)) {  // blank line: batch boundary
      if (!current.empty()) {
        batches.push_back(std::move(current));
        current = GraphDelta{};
      }
      continue;
    }
    if (op.front() == '#') continue;
    const auto reject_trailing = [&] {
      std::string extra;
      if (fields >> extra) fail("unexpected trailing token '" + extra + "'");
    };
    if (op == "E") {
      std::int64_t source = -1;
      std::int64_t target = -1;
      double weight = -1.0;
      if (!(fields >> source >> target >> weight) || source < 0 ||
          target < 0) {
        fail("expected 'E <source> <target> <weight>'");
      }
      reject_trailing();
      current.upsert_edge(static_cast<NodeId>(source),
                          static_cast<NodeId>(target), weight);
    } else if (op == "M") {
      std::int64_t node = -1;
      std::int64_t community = -1;
      if (!(fields >> node >> community) || node < 0 || community < 0) {
        fail("expected 'M <node> <community>'");
      }
      reject_trailing();
      current.move_member(static_cast<NodeId>(node),
                          static_cast<CommunityId>(community));
    } else {
      fail("unknown op '" + op + "' (expected E or M)");
    }
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

}  // namespace imc
