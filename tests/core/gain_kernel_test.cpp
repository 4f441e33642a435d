// Bit-identity contract of the gain-kernel layer (core/gain_kernels.h,
// DESIGN.md §14): every kernel variant available on the host must produce
// BIT-IDENTICAL sweep gains, ν marginals, and greedy/CELF seed selections
// to the scalar reference — including slab-boundary pool sizes (0, 1, 63,
// 64, 65 — the saturation-word edges) and touch counts that are not a
// multiple of any vector width (SIMD tail handling). Also pins the
// dispatch API itself: parse/name round trips, unsupported kinds are
// rejected, and the sharded parallel selection is invariant under kernel
// x shard-count x thread-count. The ĉ row greedy keeps across rounds
// (CHatGainRow) must equal a fresh sweep after every pick, under the same
// kernel x shard x thread matrix.
#include "core/gain_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "community/threshold_policy.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

/// Forces one kernel for a scope, restoring the previous one on exit so a
/// failing test cannot leak its variant into the rest of the binary.
class KernelGuard {
 public:
  explicit KernelGuard(GainKernelKind kind)
      : saved_(active_gain_kernel()) {
    EXPECT_TRUE(set_gain_kernel(kind));
  }
  ~KernelGuard() { set_gain_kernel(saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  GainKernelKind saved_;
};

/// Exact-representation equality: the bit-identity claim is stronger than
/// double ==, so compare raw bytes.
template <typename T>
::testing::AssertionResult bits_equal(const std::vector<T>& a,
                                      const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
        return ::testing::AssertionFailure()
               << "first divergence at index " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Graph make_graph() {
  Rng rng(77);
  BarabasiAlbertConfig config;
  config.nodes = 150;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  return Graph(config.nodes, edges);
}

RicPool make_pool(const Graph& graph, std::uint64_t samples,
                  std::uint32_t h, std::uint64_t seed) {
  CommunitySet communities = test::chunk_communities(150, 6);
  apply_constant_thresholds(communities, h);
  apply_population_benefits(communities);
  RicPool pool(graph, communities);
  if (samples > 0) pool.grow(samples, seed, /*parallel=*/false);
  return pool;
}

class GainKernelTest : public ::testing::Test {
 protected:
  Graph graph_ = make_graph();
};

TEST_F(GainKernelTest, ParseAndNameRoundTrip) {
  for (const GainKernelKind kind : supported_gain_kernels()) {
    const auto parsed = parse_gain_kernel(gain_kernel_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  // The three tiers, whether or not this host runs them.
  EXPECT_EQ(parse_gain_kernel("scalar"), GainKernelKind::kScalar);
  EXPECT_EQ(parse_gain_kernel("avx2"), GainKernelKind::kAvx2);
  EXPECT_EQ(parse_gain_kernel("avx512"), GainKernelKind::kAvx512);
  EXPECT_STREQ(gain_kernel_name(GainKernelKind::kAvx2), "avx2");
  EXPECT_STREQ(gain_kernel_name(GainKernelKind::kAvx512), "avx512");
  // Hardware popcount is the build baseline, not a tier.
  EXPECT_FALSE(parse_gain_kernel("popcnt").has_value());
  EXPECT_FALSE(parse_gain_kernel("").has_value());
  EXPECT_FALSE(parse_gain_kernel("sse2").has_value());
  EXPECT_FALSE(parse_gain_kernel("AVX2").has_value());  // case-sensitive
}

TEST_F(GainKernelTest, ScalarAlwaysSupportedAndSelectable) {
  ASSERT_TRUE(gain_kernel_supported(GainKernelKind::kScalar));
  const KernelGuard guard(GainKernelKind::kScalar);
  EXPECT_EQ(active_gain_kernel(), GainKernelKind::kScalar);
  EXPECT_EQ(active_gain_kernel_ops().kind, GainKernelKind::kScalar);
  EXPECT_STREQ(active_gain_kernel_ops().name, "scalar");
}

TEST_F(GainKernelTest, UnsupportedKindIsRejected) {
  const std::vector<GainKernelKind> supported = supported_gain_kernels();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), GainKernelKind::kScalar);
  // Every tier, plus one value past the last: that one is never built.
  const int past_last = static_cast<int>(GainKernelKind::kAvx512) + 1;
  for (int raw = 0; raw <= past_last; ++raw) {
    const auto kind = static_cast<GainKernelKind>(raw);
    const bool listed =
        std::find(supported.begin(), supported.end(), kind) !=
        supported.end();
    EXPECT_EQ(listed, gain_kernel_supported(kind)) << raw;
    EXPECT_FALSE(raw == past_last && listed);
    if (listed) {
      EXPECT_NO_THROW((void)gain_kernel_ops(kind));
      continue;
    }
    const GainKernelKind before = active_gain_kernel();
    EXPECT_FALSE(set_gain_kernel(kind));
    EXPECT_EQ(active_gain_kernel(), before);  // unchanged on failure
    EXPECT_THROW((void)gain_kernel_ops(kind), std::invalid_argument);
  }
}

TEST_F(GainKernelTest, OpsTableMatchesKind) {
  for (const GainKernelKind kind : supported_gain_kernels()) {
    const GainKernelOps& ops = gain_kernel_ops(kind);
    EXPECT_EQ(ops.kind, kind);
    EXPECT_STREQ(ops.name, gain_kernel_name(kind));
    EXPECT_NE(ops.accumulate_influenced, nullptr);
    EXPECT_NE(ops.accumulate_nu, nullptr);
    EXPECT_NE(ops.update_influenced, nullptr);
    EXPECT_NE(ops.marginal_nu, nullptr);
  }
}

// Every supported variant must reproduce the scalar sweep gains and ν
// marginals bit for bit — across saturation-word boundary pool sizes,
// with and without seeds folded in (seeds exercise the saturated-sample
// skip), and over chunked sub-ranges whose cuts are NOT slab-aligned.
TEST_F(GainKernelTest, SweepGainsBitIdenticalAcrossKernels) {
  const std::vector<GainKernelKind> kinds = supported_gain_kernels();
  const auto n = static_cast<std::size_t>(graph_.node_count());
  for (const std::uint64_t samples : {0ULL, 1ULL, 63ULL, 64ULL, 65ULL,
                                      130ULL, 1200ULL}) {
    const RicPool pool = make_pool(graph_, samples, 2, samples + 5);
    const auto size = static_cast<std::uint32_t>(pool.size());
    for (const int seeded : {0, 1}) {
      CoverageState state(pool);
      if (seeded != 0) {
        for (const NodeId v : {3U, 11U, 42U}) state.add_seed(v);
      }
      // Scalar reference: full range plus an unaligned chunking.
      std::vector<std::uint64_t> ref_influenced(n, 0);
      std::vector<double> ref_nu(n, 0.0);
      std::vector<double> ref_marginal(n, 0.0);
      {
        const KernelGuard guard(GainKernelKind::kScalar);
        state.accumulate_influenced_gains(0, size, ref_influenced.data());
        state.accumulate_nu_gains(ref_nu.data());
        for (NodeId v = 0; v < n; ++v) {
          ref_marginal[v] = state.marginal_nu(v);
        }
      }
      for (const GainKernelKind kind : kinds) {
        const KernelGuard guard(kind);
        std::vector<std::uint64_t> influenced(n, 0);
        std::vector<double> nu(n, 0.0);
        state.accumulate_influenced_gains(0, size, influenced.data());
        state.accumulate_nu_gains(nu.data());
        EXPECT_TRUE(bits_equal(ref_influenced, influenced))
            << gain_kernel_name(kind) << " influenced, samples=" << samples
            << " seeded=" << seeded;
        EXPECT_TRUE(bits_equal(ref_nu, nu))
            << gain_kernel_name(kind) << " nu, samples=" << samples
            << " seeded=" << seeded;
        std::vector<double> marginal(n, 0.0);
        for (NodeId v = 0; v < n; ++v) marginal[v] = state.marginal_nu(v);
        EXPECT_TRUE(bits_equal(ref_marginal, marginal))
            << gain_kernel_name(kind) << " marginal_nu, samples="
            << samples << " seeded=" << seeded;
        // Chunked ĉ ranges with word-straddling cuts sum to the full pass
        // (integer gains are partition-independent) — this drives the
        // kernels' partial-word masks at both ends of a range.
        if (size >= 2) {
          std::vector<std::uint64_t> chunked(n, 0);
          const std::uint32_t cut1 = std::min<std::uint32_t>(1, size);
          const std::uint32_t cut2 =
              std::min<std::uint32_t>(65, size - 1);
          state.accumulate_influenced_gains(0, cut1, chunked.data());
          state.accumulate_influenced_gains(std::min(cut1, cut2), cut2,
                                            chunked.data());
          state.accumulate_influenced_gains(cut2, size, chunked.data());
          EXPECT_TRUE(bits_equal(ref_influenced, chunked))
              << gain_kernel_name(kind) << " chunked, samples=" << samples
              << " seeded=" << seeded;
        }
      }
    }
  }
}

// Selection end to end: greedy_c_hat and celf_greedy_nu must pick the
// bit-identical seed sets (and ν/ĉ values) under every kernel variant,
// thread count, and shard override — also at k = n on a small pool,
// where the selection runs past exhaustion and fill_to_k tops up the
// seeds.
TEST_F(GainKernelTest, SelectionInvariantUnderKernelShardsThreads) {
  const auto n = static_cast<std::uint32_t>(graph_.node_count());
  struct Case {
    std::uint64_t samples;
    std::uint32_t k;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{1200, 8, 9}, Case{65, n, 86}}) {
    const std::uint64_t samples = c.samples;
    const std::uint32_t k = c.k;
    const RicPool pool = make_pool(graph_, samples, 2, c.seed);
    GreedyResult ref_c_hat;
    GreedyResult ref_celf;
    {
      const KernelGuard guard(GainKernelKind::kScalar);
      ref_c_hat = greedy_c_hat(pool, k, GreedyOptions{});
      ref_celf = celf_greedy_nu(pool, k, GreedyOptions{});
    }
    ASSERT_EQ(ref_c_hat.seeds.size(), k);
    for (const GainKernelKind kind : supported_gain_kernels()) {
      const KernelGuard guard(kind);
      SCOPED_TRACE(::testing::Message() << gain_kernel_name(kind)
                                        << " samples=" << samples
                                        << " k=" << k);
      const GreedyResult serial_c = greedy_c_hat(pool, k, GreedyOptions{});
      EXPECT_EQ(serial_c.seeds, ref_c_hat.seeds);
      EXPECT_EQ(serial_c.c_hat, ref_c_hat.c_hat);
      EXPECT_EQ(serial_c.nu, ref_c_hat.nu);
      const GreedyResult serial_nu =
          celf_greedy_nu(pool, k, GreedyOptions{});
      EXPECT_EQ(serial_nu.seeds, ref_celf.seeds);
      EXPECT_EQ(serial_nu.nu, ref_celf.nu);
      for (const unsigned threads : {2U, 8U}) {
        ThreadPool workers(threads);
        for (const std::size_t shards : {0UL, 1UL, 3UL, 7UL}) {
          GreedyOptions options;
          options.parallel = true;
          options.pool = &workers;
          options.min_parallel_candidates = 1;
          options.shards = shards;
          const GreedyResult par_c = greedy_c_hat(pool, k, options);
          EXPECT_EQ(par_c.seeds, ref_c_hat.seeds)
              << "threads=" << threads << " shards=" << shards;
          EXPECT_EQ(par_c.c_hat, ref_c_hat.c_hat)
              << "threads=" << threads << " shards=" << shards;
          const GreedyResult par_nu = celf_greedy_nu(pool, k, options);
          EXPECT_EQ(par_nu.seeds, ref_celf.seeds)
              << "threads=" << threads << " shards=" << shards;
          EXPECT_EQ(par_nu.nu, ref_celf.nu)
              << "threads=" << threads << " shards=" << shards;
        }
      }
    }
  }
}

/// Full-range scalar sweep: the reference the kept row must equal.
std::vector<std::uint64_t> fresh_gains(const CoverageState& state) {
  const KernelGuard guard(GainKernelKind::kScalar);
  std::vector<std::uint64_t> gains(state.pool().graph().node_count(), 0);
  state.accumulate_influenced_gains(
      0, static_cast<std::uint32_t>(state.pool().size()), gains.data());
  return gains;
}

// Every variant's update entry must produce the scalar entry's row bit for
// bit, for every possible next pick — over unaligned chunks of the pick's
// touch span too — and applying it must land exactly on a fresh sweep of
// the grown seed set.
TEST_F(GainKernelTest, UpdateEntryBitIdenticalToScalar) {
  const auto n = static_cast<std::size_t>(graph_.node_count());
  for (const std::uint64_t samples : {1ULL, 63ULL, 64ULL, 65ULL, 600ULL}) {
    const RicPool pool = make_pool(graph_, samples, 2, samples + 11);
    for (const int seeded : {0, 1}) {
      CoverageState state(pool);
      if (seeded != 0) {
        for (const NodeId v : {3U, 11U, 42U}) state.add_seed(v);
      }
      const std::vector<std::uint64_t> before = fresh_gains(state);
      for (NodeId s = 0; s < n; ++s) {
        if (state.is_seed(s)) continue;
        const std::size_t touches = pool.appearance_count(s);
        std::vector<std::uint64_t> ref = before;
        {
          const KernelGuard guard(GainKernelKind::kScalar);
          state.update_influenced_gains(s, 0, touches, ref.data());
        }
        CoverageState grown = state;
        grown.add_seed(s);
        ASSERT_TRUE(bits_equal(fresh_gains(grown), ref))
            << "scalar update, samples=" << samples << " seed=" << s;
        for (const GainKernelKind kind : supported_gain_kernels()) {
          const KernelGuard guard(kind);
          std::vector<std::uint64_t> row = before;
          state.update_influenced_gains(s, 0, touches, row.data());
          EXPECT_TRUE(bits_equal(ref, row))
              << gain_kernel_name(kind) << " samples=" << samples
              << " seed=" << s;
          std::vector<std::uint64_t> chunked = before;
          const std::size_t cut = touches / 3;
          state.update_influenced_gains(s, 0, cut, chunked.data());
          state.update_influenced_gains(s, cut, touches, chunked.data());
          EXPECT_TRUE(bits_equal(ref, chunked))
              << gain_kernel_name(kind) << " chunked, samples=" << samples
              << " seed=" << s;
        }
      }
    }
  }
}

// The row greedy_c_hat keeps across rounds: after every pick — through
// k = n, past the point where the pool is exhausted and the picks touch
// nothing — it must equal a fresh full sweep, under every kernel, serial
// and sharded (threads x shard overrides), at the slab-boundary sizes.
TEST_F(GainKernelTest, KeptRowEqualsFreshSweepEveryRound) {
  const auto n = static_cast<std::uint32_t>(graph_.node_count());
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const unsigned threads : {2U, 8U}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const std::uint64_t samples : {1ULL, 63ULL, 64ULL, 65ULL, 300ULL}) {
    const RicPool pool = make_pool(graph_, samples, 2, samples + 3);
    std::vector<NodeId> picks;
    {
      const KernelGuard guard(GainKernelKind::kScalar);
      picks = greedy_c_hat(pool, n).seeds;  // k = n: every node, in order
    }
    ASSERT_EQ(picks.size(), n);
    for (const GainKernelKind kind : supported_gain_kernels()) {
      const KernelGuard guard(kind);
      std::vector<std::pair<ThreadPool*, std::size_t>> configs = {
          {nullptr, 0}};
      for (const auto& workers : pools) {
        for (const std::size_t shards : {0UL, 1UL, 3UL, 7UL}) {
          configs.emplace_back(workers.get(), shards);
        }
      }
      for (const auto& [sweep, shards] : configs) {
        const unsigned threads = sweep != nullptr ? sweep->size() : 0;
        CoverageState state(pool);
        CHatGainRow row;
        row.compute(state, sweep, shards);
        ASSERT_TRUE(bits_equal(fresh_gains(state), row.gains))
            << gain_kernel_name(kind) << " round 0, samples=" << samples
            << " threads=" << threads << " shards=" << shards;
        for (std::size_t round = 0; round < picks.size(); ++round) {
          row.update(state, picks[round], sweep, shards);
          state.add_seed(picks[round]);
          ASSERT_TRUE(bits_equal(fresh_gains(state), row.gains))
              << gain_kernel_name(kind) << " after pick " << round
              << ", samples=" << samples << " threads=" << threads
              << " shards=" << shards;
        }
      }
    }
  }
}

TEST(SelectionShardsTest, CoversRangeWithAlignedBoundaries) {
  for (const std::uint64_t samples :
       {1ULL, 63ULL, 64ULL, 65ULL, 129ULL, 1000ULL, 40000ULL}) {
    for (const unsigned shards : {1U, 2U, 3U, 7U, 8U, 64U}) {
      const auto out = RicPool::selection_shards(samples, shards);
      ASSERT_FALSE(out.empty()) << samples << "/" << shards;
      EXPECT_LE(out.size(), static_cast<std::size_t>(shards));
      EXPECT_EQ(out.front().begin, 0U);
      EXPECT_EQ(out.back().end, samples);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LT(out[i].begin, out[i].end);
        if (i > 0) {
          EXPECT_EQ(out[i].begin, out[i - 1].end);
        }
        // Every interior boundary owns whole saturation words.
        if (i + 1 < out.size()) {
          EXPECT_EQ(out[i].end % 64, 0U);
        }
      }
    }
  }
}

TEST(SelectionShardsTest, EdgeCases) {
  EXPECT_TRUE(RicPool::selection_shards(0, 4).empty());
  // shards == 0 behaves like 1.
  const auto one = RicPool::selection_shards(100, 0);
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(one[0].begin, 0U);
  EXPECT_EQ(one[0].end, 100U);
  // More shards than samples: no empty shards, still full coverage.
  const auto tiny = RicPool::selection_shards(3, 16);
  ASSERT_EQ(tiny.size(), 1U);  // rounding to 64 merges them
  EXPECT_EQ(tiny[0].end, 3U);
}

}  // namespace
}  // namespace imc
