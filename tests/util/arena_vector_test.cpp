#include "util/arena_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
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
  // The type that motivated kArenaSafe: libstdc++ std::pair is not
  // trivially copyable, but is memcpy-safe.
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

bool aligned_64(const void* data) {
  return reinterpret_cast<std::uintptr_t>(data) % 64 == 0;
}

/// Elements of a slab at least detail::kMappedSlabBytes long.
constexpr std::size_t kMappedWords =
    detail::kMappedSlabBytes / sizeof(std::uint64_t);

TEST_P(ArenaVectorBackends, GrowthAcrossTheMappedSlabBoundary) {
  // From an aligned_alloc slab, across 1 MiB into a page mapping, then
  // through several in-place (mremap) doublings of the mapping.
  std::vector<std::uint64_t> prefix(1'000);
  for (std::uint64_t i = 0; i < prefix.size(); ++i) prefix[i] = i * 3 + 1;
  ArenaVector<std::uint64_t> arena = start_with(GetParam(), prefix);
  ASSERT_TRUE(aligned_64(std::as_const(arena).data()));
  const std::uint64_t total = 5 * kMappedWords + 17;
  for (std::uint64_t i = prefix.size(); i < total; ++i) {
    arena.push_back(i * 3 + 1);
    if (i % 4'096 == 0) {
      ASSERT_TRUE(aligned_64(std::as_const(arena).data())) << "size " << i;
    }
  }
  ASSERT_EQ(arena.size(), total);
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(arena[i], i * 3 + 1) << "slot " << i;
  }
}

TEST_P(ArenaVectorBackends, MappedSlabsMoveReleaseAndResize) {
  // A vector that starts on a mapped slab: sized once with
  // resize_for_overwrite (as a snapshot attach loads a large section) or
  // appended in one block.
  std::vector<std::uint64_t> prefix(2 * kMappedWords);
  for (std::uint64_t i = 0; i < prefix.size(); ++i) prefix[i] = ~i;
  ArenaVector<std::uint64_t> arena = start_with(GetParam(), prefix);
  ASSERT_TRUE(aligned_64(std::as_const(arena).data()));

  // resize_for_overwrite grows the mapping and keeps the prefix; shrinking
  // keeps the slab.
  arena.resize_for_overwrite(3 * kMappedWords);
  ASSERT_TRUE(aligned_64(std::as_const(arena).data()));
  for (std::uint64_t i = 0; i < prefix.size(); ++i) {
    ASSERT_EQ(arena[i], ~i) << "slot " << i;
  }
  const std::uint64_t* slab = std::as_const(arena).data();
  arena.resize_for_overwrite(10);
  EXPECT_EQ(std::as_const(arena).data(), slab);
  EXPECT_EQ(arena[9], ~std::uint64_t{9});

  // Move construction and move assignment hand the mapping over; the
  // assigned-to vector's own mapping is released.
  ArenaVector<std::uint64_t> moved = std::move(arena);
  EXPECT_EQ(std::as_const(moved).data(), slab);
  EXPECT_EQ(arena.size(), 0U);  // NOLINT(bugprone-use-after-move)
  ArenaVector<std::uint64_t> other = start_with(GetParam(), prefix);
  other = std::move(moved);
  EXPECT_EQ(std::as_const(other).data(), slab);
  ASSERT_EQ(other.size(), 10U);
  EXPECT_EQ(other[0], ~std::uint64_t{0});

  // A released vector starts over from nothing, below the mapping size.
  other = ArenaVector<std::uint64_t>();
  EXPECT_TRUE(other.empty());
  other.push_back(7);
  EXPECT_EQ(other[0], 7U);
  EXPECT_TRUE(aligned_64(std::as_const(other).data()));
}

TEST(ArenaVector, GrowthKeepsEveryByteOfAPair) {
  // Growth copies slabs with memcpy or remaps them, so every byte of an
  // element survives it, padding included, on both sides of the mapping
  // size.
  using Pair = std::pair<std::uint32_t, std::uint64_t>;
  static_assert(sizeof(Pair) == 16);
  ArenaVector<Pair> arena;
  const std::size_t total = 3 * detail::kMappedSlabBytes / sizeof(Pair);
  const auto bytes_of = [](std::size_t i) {
    std::array<unsigned char, sizeof(Pair)> bytes{};
    for (std::size_t b = 0; b < bytes.size(); ++b) {
      bytes[b] = static_cast<unsigned char>(i * 31 + b);
    }
    return bytes;
  };
  for (std::size_t i = 0; i < total; ++i) {
    arena.resize_for_overwrite(i + 1);
    const auto bytes = bytes_of(i);
    std::memcpy(static_cast<void*>(arena.data() + i), bytes.data(),
                bytes.size());
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(std::memcmp(arena.data() + i, bytes_of(i).data(), sizeof(Pair)),
              0)
        << "pair " << i;
  }
}

}  // namespace
}  // namespace imc
