#include "util/arena_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace imc {
namespace {

/// How a vector comes to hold its first elements before the operations
/// under test: appended into a growing slab (kRam), or sized once with
/// resize_for_overwrite and written in place, as a snapshot attach loads
/// each section (kLoaded).
enum class Start { kRam, kLoaded };

template <typename T>
ArenaVector<T> start_with(Start start, const std::vector<T>& prefix) {
  ArenaVector<T> arena;
  if (start == Start::kLoaded) {
    arena.resize_for_overwrite(prefix.size());
    std::copy(prefix.begin(), prefix.end(), arena.begin());
  } else {
    arena.append(prefix.data(), prefix.data() + prefix.size());
  }
  return arena;
}

class ArenaVectorBackends : public ::testing::TestWithParam<Start> {};

INSTANTIATE_TEST_SUITE_P(Backends, ArenaVectorBackends,
                         ::testing::Values(Start::kRam, Start::kLoaded),
                         [](const auto& info) {
                           return info.param == Start::kRam ? "Ram"
                                                            : "Loaded";
                         });

TEST_P(ArenaVectorBackends, PushBackGrowthPreservesContents) {
  std::vector<std::uint64_t> prefix(100);
  for (std::uint64_t i = 0; i < prefix.size(); ++i) prefix[i] = i * i;
  ArenaVector<std::uint64_t> arena = start_with(GetParam(), prefix);
  for (std::uint64_t i = prefix.size(); i < 10'000; ++i) {
    arena.push_back(i * i);
  }
  ASSERT_EQ(arena.size(), 10'000U);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(arena[i], i * i) << "slot " << i;
  }
  EXPECT_EQ(arena.back(), 9'999ULL * 9'999ULL);
}

TEST_P(ArenaVectorBackends, VectorShapedOperations) {
  ArenaVector<int> arena = start_with(GetParam(), std::vector<int>(5, 7));
  ASSERT_EQ(arena.size(), 5U);
  EXPECT_EQ(std::as_const(arena)[4], 7);
  arena.resize(8, -1);
  EXPECT_EQ(arena[4], 7);
  EXPECT_EQ(arena[7], -1);
  arena.clear();
  EXPECT_TRUE(arena.empty());
  const int block[3] = {1, 2, 3};
  arena.append(block, block + 3);
  ASSERT_EQ(arena.size(), 3U);
  EXPECT_EQ(arena[2], 3);
  EXPECT_EQ(arena.span().size(), 3U);
  EXPECT_EQ(arena.span()[0], 1);
  arena.assign(4, 9);
  ASSERT_EQ(arena.size(), 4U);
  EXPECT_EQ(arena[3], 9);
}

TEST_P(ArenaVectorBackends, PairElementsSurviveGrowth) {
  // The sample arena's element type — the one that motivated kArenaSafe
  // (libstdc++ std::pair is not trivially copyable, but is memcpy-safe).
  using Pair = std::pair<std::uint32_t, std::uint64_t>;
  std::vector<Pair> prefix;
  for (std::uint32_t i = 0; i < 10; ++i) {
    prefix.emplace_back(i, ~std::uint64_t{i});
  }
  ArenaVector<Pair> arena = start_with(GetParam(), prefix);
  for (std::uint32_t i = 10; i < 5'000; ++i) {
    arena.emplace_back(i, ~std::uint64_t{i});
  }
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    ASSERT_EQ(arena[i].first, i);
    ASSERT_EQ(arena[i].second, ~std::uint64_t{i});
  }
}

TEST_P(ArenaVectorBackends, MoveTransfersOwnership) {
  ArenaVector<int> arena = start_with(GetParam(), std::vector<int>(100, 9));
  const int* before = std::as_const(arena).data();
  ArenaVector<int> moved = std::move(arena);
  EXPECT_EQ(std::as_const(moved).data(), before);
  ASSERT_EQ(moved.size(), 100U);
  EXPECT_EQ(std::as_const(moved)[99], 9);
  EXPECT_EQ(arena.size(), 0U);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace imc
