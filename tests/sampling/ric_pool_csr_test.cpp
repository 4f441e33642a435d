// Equivalence tests for the flat CSR/SoA pool layout: after any interleaving
// of grow() (serial and parallel) and restores of hand-built samples
// (testing::pool_of_samples), the CSR inverted index, the sample-major
// arena, the appearance counts, and the community frequencies must match a
// straightforward nested-vector reference rebuilt from the materialized
// per-sample views. Also pins the uint32 sample-id overflow guard.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "community/threshold_policy.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "test_support.h"
#include "testing/sample_pool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

using testing::draw_sample;
using testing::pool_of_samples;
using testing::pool_sample;
using testing::pool_samples;
using testing::RicSample;

struct RefTouch {
  std::uint32_t sample;
  std::uint32_t threshold;
  std::uint64_t mask;
};

/// The pre-refactor representation: one vector of touches per node, built
/// by a direct walk over the samples in insertion order.
std::vector<std::vector<RefTouch>> reference_index(const RicPool& pool) {
  std::vector<std::vector<RefTouch>> index(pool.graph().node_count());
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    const RicSample sample = pool_sample(pool, g);
    for (const auto& [node, mask] : sample.touching) {
      index[node].push_back(RefTouch{g, sample.threshold, mask});
    }
  }
  return index;
}

void expect_matches_reference(const RicPool& pool) {
  const auto reference = reference_index(pool);
  const auto offsets = pool.touch_offsets();
  ASSERT_EQ(offsets.size(), pool.graph().node_count() + 1);
  EXPECT_EQ(offsets.front(), 0U);

  std::uint64_t total = 0;
  for (NodeId v = 0; v < pool.graph().node_count(); ++v) {
    ASSERT_LE(offsets[v], offsets[v + 1]) << "offsets must be monotone";
    const auto touches = pool.touches_of(v);
    ASSERT_EQ(touches.size(), reference[v].size()) << "node " << v;
    EXPECT_EQ(pool.appearance_count(v), reference[v].size());
    for (std::size_t i = 0; i < touches.size(); ++i) {
      EXPECT_EQ(touches[i].sample, reference[v][i].sample)
          << "node " << v << " touch " << i;
      EXPECT_EQ(touches[i].threshold, reference[v][i].threshold);
      EXPECT_EQ(touches[i].mask, reference[v][i].mask);
    }
    total += touches.size();
  }
  EXPECT_EQ(offsets.back(), total);
  EXPECT_EQ(pool.touch_arena().size(), total);

  // The sample-major arena serves exactly the AoS touching lists.
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    const auto span = pool.sample_touches(g);
    const RicSample sample = pool_sample(pool, g);
    ASSERT_EQ(span.size(), sample.touching.size()) << "sample " << g;
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i].first, sample.touching[i].first);
      EXPECT_EQ(span[i].second, sample.touching[i].second);
    }
    EXPECT_EQ(pool.threshold_of(g), sample.threshold);
    EXPECT_EQ(pool.source_communities()[g], sample.community);
  }

  // Community frequencies match a direct count of source communities.
  std::vector<std::uint32_t> frequency(pool.communities().size(), 0);
  for (const CommunityId c : pool.source_communities()) ++frequency[c];
  for (CommunityId c = 0; c < pool.communities().size(); ++c) {
    EXPECT_EQ(pool.community_frequency(c), frequency[c]) << "community " << c;
  }
}

class RicPoolCsrTest : public ::testing::Test {
 protected:
  static Graph make_graph() {
    Rng rng(42);
    BarabasiAlbertConfig config;
    config.nodes = 80;
    config.attach = 3;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }

  static CommunitySet make_communities() {
    CommunitySet communities = test::chunk_communities(80, 5);
    apply_constant_thresholds(communities, 2);
    apply_population_benefits(communities);
    return communities;
  }

  Graph graph_ = make_graph();
  CommunitySet communities_ = make_communities();
};

TEST_F(RicPoolCsrTest, InterleavedGrowAndAppendMatchesReference) {
  RicPool pool(graph_, communities_);
  RicSampler sampler(graph_, communities_);
  Rng rng(7);
  // The pool's samples plus `count` fresh draws, restored into a new pool
  // through the validator (its CSR built by counting).
  const auto extend = [&](const RicPool& from, int count) {
    std::vector<RicSample> samples = pool_samples(from);
    for (int i = 0; i < count; ++i) {
      samples.push_back(draw_sample(sampler, rng));
    }
    return pool_of_samples(graph_, communities_, samples);
  };

  // Interleave serial growth, parallel growth, and restores with extra
  // hand-built samples; the index must match the reference after every
  // step, exercising the merge after both grow() and a restore.
  pool.grow(60, 11, /*parallel=*/false);
  expect_matches_reference(pool);

  pool = extend(pool, 17);
  expect_matches_reference(pool);

  pool.grow(90, 11, /*parallel=*/true);
  expect_matches_reference(pool);

  pool = extend(pool, 5);
  pool.grow(40, 23, /*parallel=*/true);  // merge right after a restore
  expect_matches_reference(pool);

  pool.grow(25, 31, /*parallel=*/false);
  pool = extend(pool, 9);
  expect_matches_reference(pool);
}

TEST_F(RicPoolCsrTest, SerialAndParallelGrowthProduceIdenticalPools) {
  RicPool serial(graph_, communities_);
  serial.grow(150, 13, /*parallel=*/false);
  RicPool parallel(graph_, communities_);
  parallel.grow(70, 13, /*parallel=*/true);
  parallel.grow(80, 13, /*parallel=*/true);

  ASSERT_EQ(serial.size(), parallel.size());
  const auto serial_offsets = serial.touch_offsets();
  const auto parallel_offsets = parallel.touch_offsets();
  ASSERT_EQ(serial_offsets.size(), parallel_offsets.size());
  for (std::size_t i = 0; i < serial_offsets.size(); ++i) {
    EXPECT_EQ(serial_offsets[i], parallel_offsets[i]);
  }
  const auto serial_arena = serial.touch_arena();
  const auto parallel_arena = parallel.touch_arena();
  ASSERT_EQ(serial_arena.size(), parallel_arena.size());
  for (std::size_t i = 0; i < serial_arena.size(); ++i) {
    EXPECT_EQ(serial_arena[i].sample, parallel_arena[i].sample);
    EXPECT_EQ(serial_arena[i].threshold, parallel_arena[i].threshold);
    EXPECT_EQ(serial_arena[i].mask, parallel_arena[i].mask);
  }
}

/// Every byte of every arena the two pools own, CSR included.
void expect_same_bytes(const RicPool& a, const RicPool& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  EXPECT_TRUE(same(a.thresholds(), b.thresholds()));
  EXPECT_TRUE(same(a.source_communities(), b.source_communities()));
  EXPECT_TRUE(same(a.community_frequencies(), b.community_frequencies()));
  EXPECT_TRUE(same(a.sample_offsets(), b.sample_offsets()));
  EXPECT_TRUE(same(a.sample_arena(), b.sample_arena()));
  EXPECT_TRUE(same(a.touch_offsets(), b.touch_offsets()));
  EXPECT_TRUE(same(a.touch_arena(), b.touch_arena()));
}

TEST_F(RicPoolCsrTest, StagedGrowthEqualsOneGrowByteForByte) {
  // grow(a); grow(b) merges b's touches into a's CSR in place: every old
  // row moves right, the fresh touches land behind it. The result must be
  // the bytes of grow(a + b) for merge chunk counts 1 (serial), 2 (one
  // worker and the caller) and 5 (four workers and the caller), and
  // after a snapshot attach. The pools' arenas pass 1 MiB, so the second
  // grow extends mapped slabs.
  constexpr std::uint64_t kFirst = 3'000;
  constexpr std::uint64_t kSecond = 5'000;
  constexpr std::uint64_t kSeed = 13;
  RicPool whole(graph_, communities_);
  whole.grow(kFirst + kSecond, kSeed, /*parallel=*/false);
  ASSERT_GT(whole.touch_arena().size_bytes(), detail::kMappedSlabBytes);

  for (const unsigned workers : {0U, 1U, 4U}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    RicPool staged(graph_, communities_);
    staged.grow(kFirst, kSeed, workers > 0, pool.get());
    const std::string path = ::testing::TempDir() + "/imc_staged_growth." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(workers) + ".snap";
    save_ric_pool_snapshot(path, staged);
    staged.grow(kSecond, kSeed, workers > 0, pool.get());
    expect_same_bytes(staged, whole);

    RicPool attached = attach_ric_pool_snapshot(path, graph_, communities_);
    std::remove(path.c_str());
    attached.grow(kSecond, kSeed, workers > 0, pool.get());
    expect_same_bytes(attached, whole);
  }
}

TEST_F(RicPoolCsrTest, GrowEpochWatermarksEveryGrowthPath) {
  RicPool pool(graph_, communities_);
  const RicPool::PoolEpoch start = pool.grow_epoch();
  EXPECT_EQ(start, (RicPool::PoolEpoch{0, 0, 0}));

  pool.grow(60, 11, /*parallel=*/false);
  const RicPool::PoolEpoch after_serial = pool.grow_epoch();
  EXPECT_EQ(after_serial, (RicPool::PoolEpoch{60, 1, 0}));

  // Parallel grow() advances the watermark too.
  pool.grow(40, 23, /*parallel=*/true);
  EXPECT_EQ(pool.grow_epoch(), (RicPool::PoolEpoch{100, 2, 0}));
  EXPECT_TRUE(pool.grow_epoch() == pool.grow_epoch());

  // A pool rebuilt to the same size in fewer growth steps is a different
  // lineage: its watermark differs in the grow counter alone. So is a
  // restore of the same samples, which counts as one growth operation.
  RicPool rebuilt(graph_, communities_);
  rebuilt.grow(100, 11, /*parallel=*/false);
  EXPECT_EQ(rebuilt.grow_epoch().samples, pool.grow_epoch().samples);
  EXPECT_FALSE(rebuilt.grow_epoch() == pool.grow_epoch());
  const RicPool restored =
      pool_of_samples(graph_, communities_, pool_samples(pool));
  EXPECT_EQ(restored.grow_epoch(), (RicPool::PoolEpoch{100, 1, 0}));
}

TEST_F(RicPoolCsrTest, GrowRejectsSampleIdOverflow) {
  RicPool pool(graph_, communities_);
  const std::uint64_t too_many =
      static_cast<std::uint64_t>(std::numeric_limits<std::uint32_t>::max()) +
      1;
  // The guard must fire BEFORE any generation or allocation happens.
  EXPECT_THROW(pool.grow(too_many, 1), std::length_error);
  try {
    pool.grow(too_many, 1);
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
        << "overflow message should explain the sample-id limit: "
        << e.what();
  }
  EXPECT_EQ(pool.size(), 0U);
}

}  // namespace
}  // namespace imc
