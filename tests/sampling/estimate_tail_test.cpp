// EstimateTail (DESIGN.md §15): the full RIC samples a capped pool keeps
// at the stream positions past it, so that a repeated Estimate reads X(S)
// from them instead of redrawing. The tail keeps every position an
// Estimate reads through it, is repaired with its pool (DESIGN.md §16), is
// dropped by growth, attach and a seed change, and never shows in the
// pool's own state. Every tail-backed estimate must equal the tail-less
// one field for field.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/ubg.h"
#include "estimation/dagum.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/pool_equality.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

constexpr std::uint64_t kSeed = 2024;
constexpr std::uint64_t kPoolSize = 1500;

Graph make_graph() {
  Rng rng(77);
  BarabasiAlbertConfig config;
  config.nodes = 150;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

CommunitySet make_communities() {
  CommunitySet communities = test::chunk_communities(150, 6);
  apply_constant_thresholds(communities, 2);
  apply_population_benefits(communities);
  return communities;
}

/// The estimate of the positions right past a kPoolSize pool. ε′ = 0.1
/// puts Λ′ near 950 influenced draws, so T spans many blocks.
DagumOptions tail_options() {
  DagumOptions options;
  options.eps_prime = 0.1;
  options.delta_prime = 0.1;
  options.max_samples = 200'000;
  options.seed = kSeed;
  options.first = kPoolSize;
  return options;
}

std::uint64_t kept(const RicPool& pool) {
  return pool.tail_view().thresholds.size();
}

/// The tail's bytes, copied out for before/after comparisons.
struct TailBytes {
  std::vector<std::uint32_t> thresholds;
  std::vector<CommunityId> sources;
  std::vector<std::uint64_t> offsets;
  std::vector<TouchPair> pairs;
  friend bool operator==(const TailBytes&, const TailBytes&) = default;
};

TailBytes tail_bytes(const RicPool& pool) {
  const RicPool::TailView view = pool.tail_view();
  return {{view.thresholds.begin(), view.thresholds.end()},
          {view.source_community.begin(), view.source_community.end()},
          {view.sample_offsets.begin(), view.sample_offsets.end()},
          {view.sample_arena.begin(), view.sample_arena.end()}};
}

/// The tail a fresh sampler on the pool's current structures draws: sample
/// t at stream position size() + t, for as many samples as the pool keeps.
TailBytes rebuilt_tail(const RicPool& pool) {
  TailBytes want;
  want.offsets.push_back(0);
  RicSampler sampler(pool.graph(), pool.communities(), pool.model());
  RicSampler::TouchArena pairs;
  for (std::uint64_t t = 0; t < kept(pool); ++t) {
    Rng rng(splitmix_of(pool.tail_view().seed, pool.size() + t));
    const RicSampleMeta meta = sampler.generate_into(rng, pairs);
    want.thresholds.push_back(meta.threshold);
    want.sources.push_back(meta.community);
    want.offsets.push_back(pairs.size());
  }
  want.pairs.assign(pairs.begin(), pairs.end());
  return want;
}

void expect_same_estimate(const DagumEstimate& got, const DagumEstimate& want,
                          const std::string& where) {
  EXPECT_EQ(got.value, want.value) << where;
  EXPECT_EQ(got.samples, want.samples) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(got.reached_deadline, want.reached_deadline) << where;
}

class EstimateTailTest : public ::testing::Test {
 protected:
  EstimateTailTest() { pool_.grow(kPoolSize, kSeed, /*parallel=*/false); }

  DagumEstimate estimate(std::vector<NodeId> seeds, ThreadPool* workers,
                         const ExecutionContext& context = {}) {
    EstimateTail tail = pool_.estimate_tail(kSeed);
    return dagum_estimate_benefit(graph_, communities_, seeds, tail_options(),
                                  context, workers, &tail);
  }

  DagumEstimate tail_less(std::vector<NodeId> seeds,
                          const ExecutionContext& context = {}) {
    return dagum_estimate_benefit(graph_, communities_, seeds, tail_options(),
                                  context);
  }

  Graph graph_ = make_graph();
  CommunitySet communities_ = make_communities();
  RicPool pool_{graph_, communities_};
};

TEST_F(EstimateTailTest, FillsOnTheFirstReadAndOnlyReadsAfterThat) {
  const std::vector<NodeId> seeds = {1, 3, 0};
  const std::vector<NodeId> wider = {1, 3, 0, 8};
  const DagumEstimate want = tail_less(seeds);
  ASSERT_TRUE(want.converged);
  ASSERT_GT(want.samples, 2 * kDagumBlockDraws);
  ThreadPool two(2);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &two}) {
    const std::string where = workers == nullptr ? "serial" : "threads=2";
    RicPool fresh(graph_, communities_);  // a fresh tail for each leg
    fresh.grow(kPoolSize, kSeed, false);
    pool_ = std::move(fresh);

    // The first read keeps every block it drew: each position it read,
    // and the rest of the round it converged in.
    expect_same_estimate(estimate(seeds, workers), want, where + " read 1");
    EXPECT_GE(kept(pool_), want.samples) << where;
    EXPECT_LT(kept(pool_), want.samples + 3 * kDagumBlockDraws) << where;
    EXPECT_EQ(kept(pool_) % kDagumBlockDraws, 0U) << where;
    EXPECT_EQ(tail_bytes(pool_), rebuilt_tail(pool_)) << where;

    // The second read only looks up.
    const TailBytes before = tail_bytes(pool_);
    expect_same_estimate(estimate(seeds, workers), want, where + " read 2");
    EXPECT_EQ(tail_bytes(pool_), before) << where;

    // Another seed set reads the kept samples and keeps the positions past
    // them that it needs.
    const DagumEstimate want_wider = tail_less(wider);
    expect_same_estimate(estimate(wider, workers), want_wider,
                         where + " wider read");
    EXPECT_GE(kept(pool_), std::max(want.samples, want_wider.samples))
        << where;
    EXPECT_EQ(tail_bytes(pool_), rebuilt_tail(pool_)) << where;
  }
}

TEST_F(EstimateTailTest, GrowAppendAndASeedChangeDropTheTail) {
  const std::vector<NodeId> seeds = {1, 3, 0};
  const auto fill = [&] {
    (void)estimate(seeds, nullptr);
    ASSERT_GT(kept(pool_), 0U);
  };
  const auto expect_dropped = [&](const char* by) {
    EXPECT_EQ(kept(pool_), 0U) << by;
    EXPECT_EQ(pool_.tail_view().sample_offsets.size(), 1U) << by;
    EXPECT_TRUE(pool_.tail_view().sample_arena.empty()) << by;
  };

  fill();
  (void)pool_.estimate_tail(kSeed + 1);
  expect_dropped("seed change");
  EXPECT_EQ(pool_.tail_view().seed, kSeed + 1);

  fill();
  pool_.grow(0, kSeed);  // no growth operation, so the tail stays
  EXPECT_GT(kept(pool_), 0U);
  pool_.grow(64, kSeed);
  expect_dropped("grow");

  // The tail now starts past the grown pool; a dagum read of a position
  // below it is refused.
  EstimateTail tail = pool_.estimate_tail(kSeed);
  EXPECT_THROW((void)dagum_estimate_benefit(graph_, communities_, seeds,
                                            tail_options(), ExecutionContext{},
                                            nullptr, &tail),
               std::invalid_argument);

  DagumOptions past = tail_options();
  past.first = pool_.size();
  EstimateTail again = pool_.estimate_tail(kSeed);
  (void)dagum_estimate_benefit(graph_, communities_, seeds, past,
                               ExecutionContext{}, nullptr, &again);
  ASSERT_GT(kept(pool_), 0U);
  pool_.grow(1, kSeed);  // one sample is a growth operation too
  expect_dropped("grow by one");
}

TEST_F(EstimateTailTest, RefusesATailOfAnotherStreamOrStructure) {
  const std::vector<NodeId> seeds = {1, 3, 0};
  (void)estimate(seeds, nullptr);
  const std::uint64_t kept_before = kept(pool_);
  ASSERT_GT(kept_before, 0U);
  EstimateTail tail = pool_.estimate_tail(kSeed);
  const auto refused = [&](const DagumOptions& options, const Graph& graph,
                           const CommunitySet& communities) {
    EXPECT_THROW((void)dagum_estimate_benefit(graph, communities, seeds,
                                              options, ExecutionContext{},
                                              nullptr, &tail),
                 std::invalid_argument);
  };
  DagumOptions other_seed = tail_options();
  other_seed.seed = kSeed + 7;
  refused(other_seed, graph_, communities_);
  DagumOptions other_model = tail_options();
  other_model.model = DiffusionModel::kLinearThreshold;
  refused(other_model, graph_, communities_);
  const Graph other_graph = make_graph();
  refused(tail_options(), other_graph, communities_);
  const CommunitySet other_communities = make_communities();
  refused(tail_options(), graph_, other_communities);
  // A first draw past the kept prefix would leave a gap in it.
  DagumOptions gap = tail_options();
  gap.first = tail.kept_end() + 1;
  refused(gap, graph_, communities_);
  EXPECT_EQ(kept(pool_), kept_before);

  // A first draw right at the end of the kept prefix, or inside it, is
  // read (the first of these extends the prefix).
  for (const std::uint64_t first :
       {tail.kept_end(), std::uint64_t{kPoolSize + 5}}) {
    DagumOptions inside = tail_options();
    inside.first = first;
    expect_same_estimate(
        dagum_estimate_benefit(graph_, communities_, seeds, inside,
                               ExecutionContext{}, nullptr, &tail),
        dagum_estimate_benefit(graph_, communities_, seeds, inside),
        "first = " + std::to_string(first));
  }
  EXPECT_GT(kept(pool_), kept_before);
  EXPECT_EQ(tail_bytes(pool_), rebuilt_tail(pool_));
}

TEST_F(EstimateTailTest, AttachDropsTheTail) {
  // An engine whose pool is at its cap estimates through the tail and
  // fills it; attaching a snapshot replaces the pool and its tail.
  ImcafConfig config;
  config.max_samples = kPoolSize;
  config.seed = kSeed;
  config.parallel_sampling = false;
  ImcEngine engine(graph_, communities_, config);
  const UbgSolver solver;
  (void)engine.solve(8, solver);
  ASSERT_EQ(engine.pool().size(), kPoolSize);
  (void)engine.solve(8, solver);
  ASSERT_GT(kept(engine.pool()), 0U);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("imc_tail_attach." + std::to_string(::getpid()) + ".snap"))
          .string();
  save_ric_pool_snapshot(path, engine.pool());
  engine.attach_pool(path);
  std::filesystem::remove(path);
  EXPECT_EQ(kept(engine.pool()), 0U);
}

TEST_F(EstimateTailTest, ExpiredDeadlineStillScansExactlyOneBlock) {
  // Tail-less, filling the tail and reading it: the first block never
  // polls, and every later one sees the expired deadline, at every
  // thread count.
  const std::vector<NodeId> seeds = {1, 3, 0};
  ExecutionContext expired;
  expired.deadline = Deadline(1e-9);
  const DagumEstimate want = tail_less(seeds, expired);
  EXPECT_EQ(want.samples, kDagumBlockDraws);
  EXPECT_TRUE(want.reached_deadline);
  EXPECT_FALSE(want.converged);
  ThreadPool one(1);
  ThreadPool two(2);
  for (ThreadPool* workers :
       {static_cast<ThreadPool*>(nullptr), &one, &two}) {
    RicPool fresh(graph_, communities_);
    fresh.grow(kPoolSize, kSeed, false);
    pool_ = std::move(fresh);
    for (const char* state : {"filling", "kept"}) {
      const std::string where =
          std::string(state) + (workers == nullptr ? " serial" : " pooled");
      expect_same_estimate(estimate(seeds, workers, expired), want, where);
      EXPECT_GE(kept(pool_), kDagumBlockDraws) << where;
    }
  }
}

TEST_F(EstimateTailTest, NeverShowsInThePoolsOwnState) {
  // The pool's snapshot bytes do not move, and equal those of a pool
  // grown alike that never kept a tail.
  const auto snapshot_bytes = [](const RicPool& pool) {
    std::ostringstream out;
    write_ric_pool_snapshot(out, pool);
    return out.str();
  };
  const std::string before = snapshot_bytes(pool_);
  RicPool plain(graph_, communities_);
  plain.grow(kPoolSize, kSeed, false);
  (void)estimate({1, 3, 0}, nullptr);
  ASSERT_GT(kept(pool_), 0U);
  EXPECT_EQ(pool_.size(), kPoolSize);
  EXPECT_EQ(pool_.grow_epoch(), plain.grow_epoch());
  EXPECT_EQ(pool_.touch_arena().size(), plain.touch_arena().size());
  EXPECT_EQ(pool_.sample_arena().size(), plain.sample_arena().size());
  EXPECT_TRUE(snapshot_bytes(pool_) == before);
  EXPECT_TRUE(snapshot_bytes(plain) == before);

  GraphDelta delta;
  delta.upsert_edge(0, 57, 0.4).remove_edge(1, 0).move_member(7, 5);
  const DeltaEffects effects = apply_delta(graph_, communities_, delta);
  const RicPool::RepairStats with_tail =
      pool_.invalidate_and_repair(effects, kSeed, false);
  const RicPool::RepairStats without =
      plain.invalidate_and_repair(effects, kSeed, false);
  EXPECT_GT(kept(pool_), 0U);
  EXPECT_EQ(with_tail.repaired, without.repaired);
  EXPECT_EQ(with_tail.total, without.total);
  EXPECT_EQ(pool_.grow_epoch(), plain.grow_epoch());
  test::expect_same_pool(pool_, plain);

  // An engine at its cap reads through the tail, grows nothing and counts
  // no generated samples.
  ImcafConfig config;
  config.max_samples = kPoolSize;
  config.seed = kSeed;
  ImcEngine engine(graph_, communities_, config);
  const UbgSolver solver;
  (void)engine.solve(8, solver);
  for (int query = 0; query < 2; ++query) {
    const ImcafResult result = engine.solve(8, solver);
    EXPECT_EQ(result.samples_generated, 0U);
    EXPECT_EQ(result.samples_used, kPoolSize);
  }
  EXPECT_GT(kept(engine.pool()), 0U);
}

TEST_F(EstimateTailTest, RepairedTailEqualsARebuiltOne) {
  ThreadPool two(2);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &two}) {
    const std::string where = workers == nullptr ? "serial" : "threads=2";
    Graph graph = make_graph();
    CommunitySet communities = make_communities();
    RicPool pool(graph, communities);
    pool.grow(kPoolSize, kSeed, false);
    EstimateTail tail = pool.estimate_tail(kSeed);
    (void)dagum_estimate_benefit(graph, communities,
                                 std::vector<NodeId>{1, 3, 0}, tail_options(),
                                 ExecutionContext{}, workers, &tail);
    ASSERT_GT(kept(pool), 0U) << where;

    // Edge updates, then a move (its source community's samples are
    // affected whatever they touch), stacked.
    GraphDelta edges;
    edges.upsert_edge(0, 57, 0.4).remove_edge(1, 0).upsert_edge(90, 3, 0.15);
    GraphDelta moves;
    moves.move_member(7, 5).move_member(30, 0);
    for (const GraphDelta& delta : {edges, moves}) {
      const TailBytes before = tail_bytes(pool);
      const DeltaEffects effects = apply_delta(graph, communities, delta);
      (void)pool.invalidate_and_repair(effects, kSeed, workers != nullptr,
                                       workers);
      EXPECT_NE(tail_bytes(pool), before) << where;  // the tail was hit
      EXPECT_EQ(tail_bytes(pool), rebuilt_tail(pool)) << where;
    }

    // A repair under another seed cannot repair the tail: it drops it.
    GraphDelta more;
    more.upsert_edge(5, 9, 0.2);
    const DeltaEffects effects = apply_delta(graph, communities, more);
    (void)pool.invalidate_and_repair(effects, kSeed + 1, false);
    EXPECT_EQ(kept(pool), 0U) << where;
  }
}

}  // namespace
}  // namespace imc
