#include "testing/reference_oracles.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace imc::testing {

namespace {

/// Live out-adjacency realized for one sample: live[u] lists heads v with
/// a realized edge u -> v.
using LiveEdges = std::vector<std::vector<NodeId>>;

/// Realizes the WHOLE graph's live-edge sample (not just the backward
/// region the optimized sampler restricts itself to — unrealized edges
/// outside the region never influence the touching set, so the
/// distributions coincide while the implementations share nothing).
LiveEdges realize_live_edges(const Graph& graph, DiffusionModel model,
                             Rng& rng) {
  LiveEdges live(graph.node_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (model == DiffusionModel::kIndependentCascade) {
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        if (rng.bernoulli(static_cast<double>(nb.weight))) {
          live[nb.node].push_back(v);
        }
      }
    } else {
      // LT: each node keeps at most one live in-edge, picked with
      // probability equal to its weight.
      double x = rng.uniform();
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        x -= static_cast<double>(nb.weight);
        if (x < 0.0) {
          live[nb.node].push_back(v);
          break;
        }
      }
    }
  }
  return live;
}

/// Nodes forward-reachable from `start` over the live edges (iterative
/// DFS; includes `start`).
void forward_reach(const LiveEdges& live, NodeId start,
                   std::vector<std::uint8_t>& seen,
                   std::vector<NodeId>& stack) {
  std::fill(seen.begin(), seen.end(), 0);
  stack.clear();
  stack.push_back(start);
  seen[start] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId v : live[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
}

}  // namespace

RicSample naive_ric_sample(const Graph& graph,
                           const CommunitySet& communities,
                           DiffusionModel model, CommunityId community,
                           Rng& rng) {
  const auto members = communities.members(community);
  if (members.size() > kMaxCommunityPopulation) {
    throw std::invalid_argument("naive_ric_sample: community too large");
  }
  RicSample sample;
  sample.community = community;
  sample.threshold = communities.threshold(community);

  const LiveEdges live = realize_live_edges(graph, model, rng);

  // One forward DFS per node: bit j set iff the node reaches members[j].
  std::vector<std::uint8_t> seen(graph.node_count(), 0);
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    forward_reach(live, v, seen, stack);
    std::uint64_t mask = 0;
    for (std::uint32_t j = 0; j < members.size(); ++j) {
      if (seen[members[j]]) mask |= 1ULL << j;
    }
    if (mask != 0) sample.touching.emplace_back(v, mask);
  }
  return sample;  // touching is sorted by node id by construction
}

RicSample replay_ric_sample(const Graph& graph,
                            const CommunitySet& communities,
                            DiffusionModel model, CommunityId community,
                            Rng& rng) {
  const auto members = communities.members(community);
  RicSample sample;
  sample.community = community;
  sample.threshold = communities.threshold(community);

  LiveEdges live(graph.node_count());
  std::vector<std::uint8_t> visited(graph.node_count(), 0);
  std::deque<NodeId> queue;
  const auto visit = [&](NodeId v) {
    if (!visited[v]) {
      visited[v] = 1;
      queue.push_back(v);
    }
  };
  for (const NodeId u : members) visit(u);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const auto in = graph.in_neighbors(v);
    const float p = graph.in_uniform_weights()[v];
    if (model == DiffusionModel::kLinearThreshold) {
      double x = rng.uniform();
      for (const Neighbor& nb : in) {
        x -= static_cast<double>(nb.weight);
        if (x < 0.0) {
          live[nb.node].push_back(v);
          visit(nb.node);
          break;
        }
      }
    } else if (p > 0.0F) {
      const double inv_log1p = graph.in_uniform_inv_log1ps()[v];
      for (std::uint64_t i = rng.geometric_skip(inv_log1p); i < in.size();
           i += 1 + rng.geometric_skip(inv_log1p)) {
        live[in[i].node].push_back(v);
        visit(in[i].node);
      }
    } else if (p < 0.0F) {
      for (const Neighbor& nb : in) {
        if (rng.bernoulli(static_cast<double>(nb.weight))) {
          live[nb.node].push_back(v);
          visit(nb.node);
        }
      }
    }
  }

  std::vector<std::uint8_t> seen(graph.node_count(), 0);
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!visited[v]) continue;
    forward_reach(live, v, seen, stack);
    std::uint64_t mask = 0;
    for (std::uint32_t j = 0; j < members.size(); ++j) {
      if (seen[members[j]]) mask |= 1ULL << j;
    }
    if (mask != 0) sample.touching.emplace_back(v, mask);
  }
  return sample;
}

RicSample naive_ric_sample(const Graph& graph,
                           const CommunitySet& communities,
                           DiffusionModel model, Rng& rng) {
  // Plain CDF scan over benefits (the alias-table-free rho draw).
  const auto benefits = communities.benefits();
  double total = 0.0;
  for (const double b : benefits) total += b;
  double x = rng.uniform() * total;
  CommunityId community = 0;
  for (CommunityId c = 0; c < communities.size(); ++c) {
    x -= benefits[c];
    if (x < 0.0) {
      community = c;
      break;
    }
    if (c + 1 == communities.size()) community = c;  // rounding tail
  }
  return naive_ric_sample(graph, communities, model, community, rng);
}

ReferencePool::ReferencePool(const Graph& graph,
                             const CommunitySet& communities)
    : graph_(&graph),
      communities_(&communities),
      total_benefit_(communities.total_benefit()),
      index_(graph.node_count()) {}

void ReferencePool::add(RicSample sample) {
  const auto id = static_cast<std::uint32_t>(samples_.size());
  for (const auto& [node, mask] : sample.touching) {
    index_.at(node).push_back(Touch{id, sample.threshold, mask});
  }
  samples_.push_back(std::move(sample));
}

std::uint32_t ReferencePool::community_frequency(CommunityId c) const {
  std::uint32_t count = 0;
  for (const RicSample& sample : samples_) {
    if (sample.community == c) ++count;
  }
  return count;
}

std::uint32_t ReferencePool::members_reached(std::span<const NodeId> seeds,
                                             std::uint32_t g) const {
  return samples_[g].members_reached(seeds);
}

std::uint64_t ReferencePool::influenced_count(
    std::span<const NodeId> seeds) const {
  std::uint64_t influenced = 0;
  for (std::uint32_t g = 0; g < samples_.size(); ++g) {
    if (members_reached(seeds, g) >= samples_[g].threshold) ++influenced;
  }
  return influenced;
}

double ReferencePool::c_hat(std::span<const NodeId> seeds) const {
  if (samples_.empty()) return 0.0;
  return total_benefit_ * static_cast<double>(influenced_count(seeds)) /
         static_cast<double>(samples_.size());
}

double ReferencePool::nu_sum(std::span<const NodeId> seeds) const {
  double sum = 0.0;
  for (std::uint32_t g = 0; g < samples_.size(); ++g) {
    const double fraction = static_cast<double>(members_reached(seeds, g)) /
                            static_cast<double>(samples_[g].threshold);
    sum += std::min(fraction, 1.0);
  }
  return sum;
}

double ReferencePool::nu(std::span<const NodeId> seeds) const {
  if (samples_.empty()) return 0.0;
  return total_benefit_ * nu_sum(seeds) /
         static_cast<double>(samples_.size());
}

std::uint64_t ReferencePool::marginal_influenced(
    std::span<const NodeId> seeds, NodeId v) const {
  for (const NodeId s : seeds) {
    if (s == v) return 0;
  }
  std::vector<NodeId> with(seeds.begin(), seeds.end());
  with.push_back(v);
  std::uint64_t gain = 0;
  for (std::uint32_t g = 0; g < samples_.size(); ++g) {
    const std::uint32_t h = samples_[g].threshold;
    if (members_reached(seeds, g) < h && members_reached(with, g) >= h) {
      ++gain;
    }
  }
  return gain;
}

double ReferencePool::marginal_nu(std::span<const NodeId> seeds,
                                  NodeId v) const {
  for (const NodeId s : seeds) {
    if (s == v) return 0.0;
  }
  // Accumulate over v's touches in ascending sample id with the exact
  // per-sample delta the optimized sweep adds, so ties resolve the same.
  double gain = 0.0;
  for (const Touch& touch : index_.at(v)) {
    const RicSample& sample = samples_[touch.sample];
    std::uint64_t covered = 0;
    for (const NodeId s : seeds) covered |= sample.mask_of(s);
    const auto before =
        static_cast<std::uint32_t>(__builtin_popcountll(covered));
    const std::uint32_t h = sample.threshold;
    if (before >= h) continue;  // saturated: exactly 0
    const std::uint64_t after = covered | touch.mask;
    if (after == covered) continue;
    const auto count = static_cast<std::uint32_t>(__builtin_popcountll(after));
    const double before_frac =
        std::min(static_cast<double>(before) / static_cast<double>(h), 1.0);
    const double after_frac =
        std::min(static_cast<double>(count) / static_cast<double>(h), 1.0);
    gain += after_frac - before_frac;
  }
  return gain;
}

namespace {

struct RefScore {
  NodeId node = kInvalidNode;
  std::uint64_t influenced_gain = 0;
  double nu_gain = 0.0;
  std::uint32_t appearance = 0;
};

/// The documented ĉ tie-break: influenced gain, ν gain, appearance count,
/// smaller node id (greedy.h).
bool ref_beats_c_hat(const RefScore& a, const RefScore& b) {
  if (b.node == kInvalidNode) return a.node != kInvalidNode;
  if (a.node == kInvalidNode) return false;
  if (a.influenced_gain != b.influenced_gain) {
    return a.influenced_gain > b.influenced_gain;
  }
  if (a.nu_gain != b.nu_gain) return a.nu_gain > b.nu_gain;
  if (a.appearance != b.appearance) return a.appearance > b.appearance;
  return a.node < b.node;
}

bool ref_beats_nu(const RefScore& a, const RefScore& b) {
  if (b.node == kInvalidNode) return a.node != kInvalidNode;
  if (a.node == kInvalidNode) return false;
  if (a.nu_gain != b.nu_gain) return a.nu_gain > b.nu_gain;
  return a.node < b.node;
}

std::vector<NodeId> candidate_nodes(const ReferencePool& pool) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < pool.graph().node_count(); ++v) {
    if (pool.appearance_count(v) > 0) candidates.push_back(v);
  }
  return candidates;
}

void fill_to_k(const ReferencePool& pool, std::uint32_t k,
               std::vector<NodeId>& seeds) {
  std::vector<std::uint8_t> used(pool.graph().node_count(), 0);
  for (const NodeId v : seeds) used[v] = 1;
  for (NodeId v = 0; v < pool.graph().node_count() && seeds.size() < k;
       ++v) {
    if (!used[v]) seeds.push_back(v);
  }
}

std::vector<NodeId> reference_greedy(const ReferencePool& pool,
                                     std::uint32_t k, bool on_c_hat) {
  if (k == 0 || k > pool.graph().node_count()) {
    throw std::invalid_argument(
        "reference_greedy: need 1 <= k <= node count");
  }
  const std::vector<NodeId> candidates = candidate_nodes(pool);
  std::vector<NodeId> seeds;
  std::vector<std::uint8_t> is_seed(pool.graph().node_count(), 0);
  for (std::uint32_t round = 0;
       round < k && seeds.size() < candidates.size(); ++round) {
    RefScore best;
    for (const NodeId v : candidates) {
      if (is_seed[v]) continue;
      RefScore score;
      score.node = v;
      score.influenced_gain =
          on_c_hat ? pool.marginal_influenced(seeds, v) : 0;
      score.nu_gain = pool.marginal_nu(seeds, v);
      score.appearance = pool.appearance_count(v);
      if (on_c_hat ? ref_beats_c_hat(score, best)
                   : ref_beats_nu(score, best)) {
        best = score;
      }
    }
    if (best.node == kInvalidNode) break;
    seeds.push_back(best.node);
    is_seed[best.node] = 1;
  }
  fill_to_k(pool, k, seeds);
  return seeds;
}

}  // namespace

std::vector<NodeId> reference_greedy_c_hat(const ReferencePool& pool,
                                           std::uint32_t k) {
  return reference_greedy(pool, k, /*on_c_hat=*/true);
}

std::vector<NodeId> reference_greedy_nu(const ReferencePool& pool,
                                        std::uint32_t k) {
  return reference_greedy(pool, k, /*on_c_hat=*/false);
}

namespace {

/// Evaluates both objectives for one fully determined live-edge outcome.
void accumulate_outcome(const Graph& graph, const CommunitySet& communities,
                        std::span<const NodeId> seeds, const LiveEdges& live,
                        double probability, ExactObjectives& totals) {
  // Forward BFS from the seed set over the live edges.
  std::vector<std::uint8_t> active(graph.node_count(), 0);
  std::vector<NodeId> queue;
  for (const NodeId s : seeds) {
    if (!active[s]) {
      active[s] = 1;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId v : live[queue[head]]) {
      if (!active[v]) {
        active[v] = 1;
        queue.push_back(v);
      }
    }
  }
  for (CommunityId c = 0; c < communities.size(); ++c) {
    std::uint32_t reached = 0;
    for (const NodeId member : communities.members(c)) {
      reached += active[member];
    }
    const std::uint32_t h = communities.threshold(c);
    const double b = communities.benefit(c);
    if (reached >= h) totals.c += probability * b;
    totals.nu +=
        probability * b *
        std::min(static_cast<double>(reached) / static_cast<double>(h), 1.0);
  }
}

}  // namespace

std::optional<ExactObjectives> enumerate_exact(
    const Graph& graph, const CommunitySet& communities,
    std::span<const NodeId> seeds, DiffusionModel model,
    std::uint64_t max_outcomes) {
  ExactObjectives totals;
  if (model == DiffusionModel::kIndependentCascade) {
    const EdgeList edges = graph.to_edge_list();  // merged, self-loop-free
    if (edges.size() >= 63 ||
        (1ULL << edges.size()) > max_outcomes) {
      return std::nullopt;
    }
    const std::uint64_t outcomes = 1ULL << edges.size();
    for (std::uint64_t outcome = 0; outcome < outcomes; ++outcome) {
      double probability = 1.0;
      LiveEdges live(graph.node_count());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if ((outcome >> e) & 1ULL) {
          probability *= edges[e].weight;
          live[edges[e].source].push_back(edges[e].target);
        } else {
          probability *= 1.0 - edges[e].weight;
        }
      }
      if (probability == 0.0) continue;
      accumulate_outcome(graph, communities, seeds, live, probability,
                         totals);
    }
    return totals;
  }

  // LT: each node independently keeps one live in-edge (or none); the
  // outcome space is the mixed-radix product of per-node choices. The
  // per-choice probability must mirror the samplers' CDF walk (one uniform
  // u in [0, 1), subtract weights until u goes negative): when the CSR's
  // FLOAT weights sum to slightly more than 1 the walk silently truncates
  // the tail, so choice i gets min(prefix_{i+1}, 1) - min(prefix_i, 1),
  // not its raw weight — otherwise the "exact" mass exceeds 1 and the
  // oracle flags correct samplers.
  std::uint64_t outcomes = 1;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const std::uint64_t radix = graph.in_neighbors(v).size() + 1;
    if (outcomes > max_outcomes / radix) return std::nullopt;
    outcomes *= radix;
  }
  const auto choice_probability = [&graph](NodeId v, std::uint32_t choice) {
    const auto in = graph.in_neighbors(v);
    double prefix = 0.0;
    for (std::uint32_t i = 0; i + 1 < choice; ++i) {
      prefix += static_cast<double>(in[i].weight);
    }
    if (choice == 0) {  // no live in-edge
      for (const Neighbor& nb : in) prefix += static_cast<double>(nb.weight);
      return 1.0 - std::min(prefix, 1.0);
    }
    const double next = prefix + static_cast<double>(in[choice - 1].weight);
    return std::min(next, 1.0) - std::min(prefix, 1.0);
  };
  std::vector<std::uint32_t> choice(graph.node_count(), 0);  // 0 = none
  for (std::uint64_t outcome = 0; outcome < outcomes; ++outcome) {
    double probability = 1.0;
    LiveEdges live(graph.node_count());
    for (NodeId v = 0; v < graph.node_count() && probability > 0.0; ++v) {
      probability *= choice_probability(v, choice[v]);
      if (choice[v] != 0) {
        live[graph.in_neighbors(v)[choice[v] - 1].node].push_back(v);
      }
    }
    if (probability > 0.0) {
      accumulate_outcome(graph, communities, seeds, live, probability,
                         totals);
    }
    // Increment the mixed-radix counter.
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      if (++choice[v] <= graph.in_neighbors(v).size()) break;
      choice[v] = 0;
    }
  }
  return totals;
}

}  // namespace imc::testing
