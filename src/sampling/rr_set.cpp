#include "sampling/rr_set.h"

#include <algorithm>
#include <stdexcept>

namespace imc {

RrSet generate_rr_set(const Graph& graph, Rng& rng) {
  if (graph.empty()) {
    throw std::invalid_argument("generate_rr_set: empty graph");
  }
  RrSet result;
  result.root = static_cast<NodeId>(rng.below(graph.node_count()));

  std::vector<NodeId> stack{result.root};
  // Visited marks double as membership; graphs here are small enough for a
  // dense bitmap, and the pool reuses nothing across sets by design (each
  // RR set must be an independent realization).
  std::vector<std::uint8_t> seen(graph.node_count(), 0);
  seen[result.root] = 1;
  result.nodes.push_back(result.root);

  // Each node is popped once; each in-edge of a popped node is flipped once,
  // so every edge of the graph is realized at most once per RR set.
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Neighbor& nb : graph.in_neighbors(u)) {
      if (!seen[nb.node] && rng.bernoulli(static_cast<double>(nb.weight))) {
        seen[nb.node] = 1;
        result.nodes.push_back(nb.node);
        stack.push_back(nb.node);
      }
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  return result;
}

RrSet generate_rr_set_lt(const Graph& graph, Rng& rng) {
  if (graph.empty()) {
    throw std::invalid_argument("generate_rr_set_lt: empty graph");
  }
  RrSet result;
  result.root = static_cast<NodeId>(rng.below(graph.node_count()));
  result.nodes.push_back(result.root);

  // Walk backwards: each node yields at most one live in-edge; stop when
  // no edge survives or the walk bites its own tail.
  std::vector<std::uint8_t> seen(graph.node_count(), 0);
  seen[result.root] = 1;
  NodeId current = result.root;
  for (;;) {
    double x = rng.uniform();
    NodeId parent = kInvalidNode;
    for (const Neighbor& nb : graph.in_neighbors(current)) {
      x -= static_cast<double>(nb.weight);
      if (x < 0.0) {
        parent = nb.node;
        break;
      }
    }
    if (parent == kInvalidNode || seen[parent]) break;
    seen[parent] = 1;
    result.nodes.push_back(parent);
    current = parent;
  }
  std::sort(result.nodes.begin(), result.nodes.end());
  return result;
}

void RrPool::grow(std::uint64_t count, Rng& rng) {
  index_.resize(graph_->node_count());
  sets_.reserve(sets_.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto set_id = static_cast<std::uint32_t>(sets_.size());
    sets_.push_back(generate_rr_set(*graph_, rng));
    for (const NodeId v : sets_.back().nodes) {
      index_[v].push_back(set_id);
    }
  }
}

const std::vector<std::uint32_t>& RrPool::sets_containing(NodeId v) const {
  return index_.at(v);
}

double RrPool::estimate_spread(std::span<const NodeId> seeds) const {
  if (sets_.empty()) return 0.0;
  std::vector<std::uint8_t> hit(sets_.size(), 0);
  std::uint64_t covered = 0;
  for (const NodeId v : seeds) {
    for (const std::uint32_t set_id : sets_containing(v)) {
      if (!hit[set_id]) {
        hit[set_id] = 1;
        ++covered;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(sets_.size()) *
         static_cast<double>(graph_->node_count());
}

}  // namespace imc
