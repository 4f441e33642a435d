// GraphDelta streaming updates (DESIGN.md §16): apply_edge_updates against
// a from-scratch rebuild, community membership moves, batch validation
// (strong guarantee, including the sampler's member cap) and the
// replay-file parser.
#include "graph/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/ubg.h"
#include "graph/builder.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "sampling/pool_equality.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace imc {
namespace {

Graph random_graph(std::uint64_t seed, NodeId nodes = 40) {
  Rng rng(seed);
  BarabasiAlbertConfig config;
  config.nodes = nodes;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

/// Full structural equality: both CSRs, both uniform-in-weight caches and
/// the fingerprint. Any drift between the incremental path and a rebuild
/// shows up here.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto a_out = a.out_neighbors(v);
    const auto b_out = b.out_neighbors(v);
    ASSERT_EQ(a_out.size(), b_out.size()) << "out-degree of " << v;
    for (std::size_t i = 0; i < a_out.size(); ++i) {
      EXPECT_EQ(a_out[i].node, b_out[i].node) << "out edge " << v;
      EXPECT_EQ(a_out[i].weight, b_out[i].weight) << "out weight " << v;
    }
    const auto a_in = a.in_neighbors(v);
    const auto b_in = b.in_neighbors(v);
    ASSERT_EQ(a_in.size(), b_in.size()) << "in-degree of " << v;
    for (std::size_t i = 0; i < a_in.size(); ++i) {
      EXPECT_EQ(a_in[i].node, b_in[i].node) << "in edge " << v;
      EXPECT_EQ(a_in[i].weight, b_in[i].weight) << "in weight " << v;
    }
    ASSERT_EQ(a.in_weights_uniform(v), b.in_weights_uniform(v))
        << "uniformity of " << v;
    if (a.in_weights_uniform(v)) {
      EXPECT_EQ(a.in_uniform_weight(v), b.in_uniform_weight(v));
      EXPECT_DOUBLE_EQ(a.in_uniform_inv_log1p(v), b.in_uniform_inv_log1p(v));
    }
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(GraphDelta, ApplyEdgeUpdatesMatchesRebuildFromScratch) {
  for (std::uint64_t seed : {3ULL, 17ULL, 91ULL}) {
    Graph graph = random_graph(seed);
    Rng rng(seed ^ 0xD1CEULL);

    // A mixed batch: removals of existing edges, weight changes and brand
    // new edges, tracked in a map that models last-wins semantics.
    std::map<std::pair<NodeId, NodeId>, double> expected;
    for (const WeightedEdge& e : graph.to_edge_list()) {
      expected[{e.source, e.target}] = e.weight;
    }
    std::vector<EdgeUpdate> updates;
    for (int i = 0; i < 60; ++i) {
      const NodeId u = static_cast<NodeId>(rng.below(graph.node_count()));
      const NodeId v = static_cast<NodeId>(rng.below(graph.node_count()));
      if (u == v) continue;
      const double w = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.05, 0.95);
      updates.push_back(EdgeUpdate{u, v, w});
      if (w == 0.0) {
        expected.erase({u, v});
      } else {
        expected[{u, v}] = static_cast<float>(w);
      }
    }

    graph.apply_edge_updates(updates);

    EdgeList rebuilt_edges;
    for (const auto& [key, weight] : expected) {
      rebuilt_edges.push_back(WeightedEdge{key.first, key.second, weight});
    }
    const Graph rebuilt(graph.node_count(), rebuilt_edges);
    expect_same_graph(graph, rebuilt);
  }
}

TEST(GraphDelta, ApplyEdgeUpdatesReportsChangedInHeads) {
  Graph graph = test::path_graph(6, 0.5);  // 0->1->...->5
  std::vector<EdgeUpdate> updates{
      EdgeUpdate{0, 1, 0.5},   // no-op: same weight
      EdgeUpdate{1, 2, 0.0},   // removal: head 2 changes
      EdgeUpdate{0, 3, 0.7},   // insertion: head 3 changes
      EdgeUpdate{2, 2, 0.9},   // self-loop: inert
      EdgeUpdate{4, 5, 0.5},   // shadowed by the later update...
      EdgeUpdate{4, 5, 0.25},  // ...last wins: head 5 changes
  };
  const std::vector<NodeId> heads = graph.apply_edge_updates(updates);
  EXPECT_EQ(heads, (std::vector<NodeId>{2, 3, 5}));
  EXPECT_FALSE(graph.has_edge(1, 2));
  EXPECT_FLOAT_EQ(static_cast<float>(graph.weight(0, 3)), 0.7F);
  EXPECT_FLOAT_EQ(static_cast<float>(graph.weight(4, 5)), 0.25F);
  EXPECT_FALSE(graph.has_edge(2, 2));

  // Removing an absent edge is a no-op, not an error.
  EXPECT_TRUE(
      graph.apply_edge_updates(std::vector<EdgeUpdate>{EdgeUpdate{3, 0, 0.0}})
          .empty());
}

TEST(GraphDelta, ApplyEdgeUpdatesValidatesBeforeMutating) {
  Graph graph = test::cycle_graph(5, 0.4);
  const std::uint64_t before = graph.fingerprint();
  // A valid update followed by an invalid one: nothing may be applied.
  std::vector<EdgeUpdate> bad_endpoint{EdgeUpdate{0, 1, 0.9},
                                       EdgeUpdate{0, 99, 0.5}};
  EXPECT_THROW((void)graph.apply_edge_updates(bad_endpoint),
               std::invalid_argument);
  std::vector<EdgeUpdate> bad_weight{EdgeUpdate{0, 1, 0.9},
                                     EdgeUpdate{1, 2, 1.5}};
  EXPECT_THROW((void)graph.apply_edge_updates(bad_weight),
               std::invalid_argument);
  std::vector<EdgeUpdate> negative{EdgeUpdate{1, 2, -0.1}};
  EXPECT_THROW((void)graph.apply_edge_updates(negative),
               std::invalid_argument);
  EXPECT_EQ(graph.fingerprint(), before);
}

TEST(GraphDelta, MoveMemberRelabelsAndPreservesMaskPositions) {
  CommunitySet communities(8, {{0, 1, 2}, {3, 4}, {5, 6, 7}});
  communities.move_member(1, 2);
  EXPECT_EQ(communities.community_of(1), 2U);
  // Source keeps its order with the mover erased; target appends, so the
  // existing members keep their group-vector positions (= mask bits).
  EXPECT_EQ(std::vector<NodeId>(communities.members(0).begin(),
                                communities.members(0).end()),
            (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(std::vector<NodeId>(communities.members(2).begin(),
                                communities.members(2).end()),
            (std::vector<NodeId>{5, 6, 7, 1}));
}

TEST(GraphDelta, MoveMemberValidation) {
  CommunitySet communities(6, {{0, 1, 2}, {3}, {4, 5}});
  communities.set_threshold(2, 2);
  // Last member cannot leave (communities must stay non-empty).
  EXPECT_THROW(communities.move_member(3, 0), std::invalid_argument);
  // Threshold 2 with 2 members: a departure would make h > |C|.
  EXPECT_THROW(communities.move_member(4, 0), std::invalid_argument);
  // Moving to the community the node is already in is an error, as is an
  // unknown node or target.
  EXPECT_THROW(communities.move_member(0, 0), std::invalid_argument);
  EXPECT_THROW(communities.move_member(99, 0), std::out_of_range);
  EXPECT_THROW(communities.move_member(0, 9), std::out_of_range);
  EXPECT_EQ(communities.community_of(3), 1U);
  EXPECT_EQ(communities.community_of(4), 2U);
}

TEST(GraphDelta, ApplyDeltaIsAtomicAcrossTheBatch) {
  Graph graph = test::cycle_graph(6, 0.3);
  CommunitySet communities(6, {{0, 1, 2}, {3, 4, 5}});
  const std::uint64_t graph_before = graph.fingerprint();
  const std::uint64_t comm_before = communities.fingerprint();

  // First move is fine; the second drains community 0 below its last
  // member — the simulation must reject the WHOLE batch up front.
  GraphDelta delta;
  delta.upsert_edge(0, 3, 0.8)
      .move_member(1, 1)
      .move_member(2, 1)
      .move_member(0, 1);
  EXPECT_THROW((void)apply_delta(graph, communities, delta),
               std::invalid_argument);
  EXPECT_EQ(graph.fingerprint(), graph_before);
  EXPECT_EQ(communities.fingerprint(), comm_before);
}

TEST(GraphDelta, OverCapMoveIsRejectedBeforeAnythingMutates) {
  // Community 0 sits one member below the sampler's cap. The batch's first
  // move fills it, the second would push it past the cap: the simulation
  // must reject the whole batch before the edge update or either move
  // mutates anything, so an engine over these structures keeps a pool that
  // still matches them.
  constexpr NodeId kNodes = kMaxCommunityPopulation + 16;
  Graph graph = random_graph(5, kNodes);
  std::vector<NodeId> nearly_full(kMaxCommunityPopulation - 1);
  std::iota(nearly_full.begin(), nearly_full.end(), 0);
  std::vector<NodeId> rest(kNodes - nearly_full.size());
  std::iota(rest.begin(), rest.end(), kMaxCommunityPopulation - 1);
  CommunitySet communities(kNodes, {nearly_full, rest});

  ImcafConfig config;
  config.max_samples = 400;
  config.seed = 7;
  config.parallel_sampling = false;
  ImcEngine engine(graph, communities, config);
  (void)engine.solve(2, UbgSolver{});
  const RicPool::PoolEpoch epoch = engine.pool().grow_epoch();
  const std::uint64_t graph_before = graph.fingerprint();
  const std::uint64_t comm_before = communities.fingerprint();

  GraphDelta delta;
  delta.upsert_edge(0, kNodes - 1, 0.25)
      .move_member(kNodes - 1, 0)
      .move_member(kNodes - 2, 0);
  EXPECT_THROW((void)apply_delta(graph, communities, delta),
               std::invalid_argument);
  EXPECT_THROW((void)engine.apply_delta(graph, communities, delta),
               std::invalid_argument);
  EXPECT_EQ(graph.fingerprint(), graph_before);
  EXPECT_EQ(communities.fingerprint(), comm_before);
  EXPECT_EQ(engine.pool().grow_epoch(), epoch);
  RicPool rebuilt(graph, communities);
  rebuilt.grow(engine.pool().size(), config.seed, /*parallel=*/false);
  test::expect_same_pool(engine.pool(), rebuilt);

  // Filling the community exactly to the cap is still allowed.
  GraphDelta fill;
  fill.move_member(kNodes - 1, 0);
  (void)engine.apply_delta(graph, communities, fill);
  EXPECT_EQ(communities.population(0), kMaxCommunityPopulation);
}

TEST(GraphDelta, ApplyDeltaReportsSortedUniqueEffects) {
  Graph graph = test::cycle_graph(9, 0.3);
  CommunitySet communities(9, {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}});
  GraphDelta delta;
  delta.upsert_edge(0, 7, 0.5)
      .remove_edge(4, 5)
      .move_member(1, 1)   // touches communities 0 and 1
      .move_member(6, 1);  // touches communities 2 and 1 (dup with above)
  const DeltaEffects effects = apply_delta(graph, communities, delta);
  EXPECT_EQ(effects.changed_in_nodes, (std::vector<NodeId>{5, 7}));
  EXPECT_EQ(effects.changed_communities, (std::vector<CommunityId>{0, 1, 2}));
  EXPECT_FALSE(effects.empty());

  // An empty delta and an all-no-op delta both report empty effects.
  EXPECT_TRUE(apply_delta(graph, communities, GraphDelta{}).empty());
  GraphDelta noop;
  noop.upsert_edge(0, 1, graph.weight(0, 1));
  EXPECT_TRUE(apply_delta(graph, communities, noop).empty());
}

TEST(GraphDelta, ParseDeltaStreamBatchesAndErrors) {
  const std::string text =
      "# replay file\n"
      "E 0 1 0.5\n"
      "M 3 2\n"
      "\n"
      "E 1 2 0\n"
      "\n"
      "\n"
      "M 4 0\n";
  const std::vector<GraphDelta> stream = parse_delta_stream(text);
  ASSERT_EQ(stream.size(), 3U);
  ASSERT_EQ(stream[0].edges.size(), 1U);
  EXPECT_EQ(stream[0].edges[0], (EdgeUpdate{0, 1, 0.5}));
  ASSERT_EQ(stream[0].moves.size(), 1U);
  EXPECT_EQ(stream[0].moves[0], (MemberMove{3, 2}));
  ASSERT_EQ(stream[1].edges.size(), 1U);
  EXPECT_EQ(stream[1].edges[0], (EdgeUpdate{1, 2, 0.0}));
  EXPECT_TRUE(stream[1].moves.empty());
  ASSERT_EQ(stream[2].moves.size(), 1U);
  EXPECT_EQ(stream[2].moves[0], (MemberMove{4, 0}));

  EXPECT_TRUE(parse_delta_stream("").empty());
  EXPECT_TRUE(parse_delta_stream("# only comments\n\n").empty());

  EXPECT_THROW((void)parse_delta_stream("X 1 2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_delta_stream("E 1 2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_delta_stream("M 1 2 3\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_delta_stream("E a b 0.5\n"), std::invalid_argument);
  try {
    (void)parse_delta_stream("E 0 1 0.5\n\nM nope 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace imc
