#include "util/mmap_arena.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace imc {
namespace {

/// Writes `bytes` to a temp file, maps it read-only and unlinks it: the
/// mapping alone keeps the contents alive, as for an attached snapshot.
std::shared_ptr<const MmapStorage> map_bytes(const std::string& name,
                                             const void* bytes,
                                             std::size_t size) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(static_cast<const char*>(bytes),
              static_cast<std::streamsize>(size));
  }
  auto map =
      std::make_shared<const MmapStorage>(MmapStorage::open_readonly(path));
  std::remove(path.c_str());
  return map;
}

/// Borrowed view over a mapped file holding `values`.
template <typename T>
ArenaVector<T> borrowed_copy_of(const std::vector<T>& values,
                                const std::string& name) {
  auto map = map_bytes(name, values.data(), values.size() * sizeof(T));
  const auto* base = reinterpret_cast<const T*>(map->data());
  return ArenaVector<T>::borrowed(base, values.size(), std::move(map));
}

TEST(MmapStorage, OpenReadonlyServesTheFileBytes) {
  const char text[] = "persisted-through-the-page-cache";
  const auto map = map_bytes("imc_mmap_read_test.bin", text, 32);
  ASSERT_TRUE(map->valid());
  ASSERT_EQ(map->size(), 32U);
  EXPECT_EQ(std::memcmp(map->data(), text, 32), 0);
}

TEST(MmapStorage, OpenReadonlyOnEmptyFileIsEmptyNotMapped) {
  const auto map = map_bytes("imc_mmap_empty_test.bin", "", 0);
  EXPECT_FALSE(map->valid());
  EXPECT_EQ(map->size(), 0U);
}

TEST(MmapStorage, OpenReadonlyRejectsMissingFile) {
  EXPECT_THROW((void)MmapStorage::open_readonly("/no/such/mapping.bin"),
               std::runtime_error);
}

/// How a vector starts out before the operations under test: an owned
/// heap slab (kRam), or a borrowed view into a read-only file mapping
/// (kMmap) that the first mutation must copy-on-write into a heap slab.
enum class Start { kRam, kMmap };

template <typename T>
ArenaVector<T> start_with(Start start, const std::vector<T>& prefix) {
  if (start == Start::kMmap) {
    return borrowed_copy_of(prefix, "imc_arena_start.bin");
  }
  ArenaVector<T> arena;
  arena.append(prefix.data(), prefix.data() + prefix.size());
  return arena;
}

class ArenaVectorBackends : public ::testing::TestWithParam<Start> {};

INSTANTIATE_TEST_SUITE_P(Backends, ArenaVectorBackends,
                         ::testing::Values(Start::kRam, Start::kMmap),
                         [](const auto& info) {
                           return info.param == Start::kRam ? "Ram" : "Mmap";
                         });

TEST_P(ArenaVectorBackends, PushBackGrowthPreservesContents) {
  std::vector<std::uint64_t> prefix(100);
  for (std::uint64_t i = 0; i < prefix.size(); ++i) prefix[i] = i * i;
  ArenaVector<std::uint64_t> arena = start_with(GetParam(), prefix);
  for (std::uint64_t i = prefix.size(); i < 10'000; ++i) {
    arena.push_back(i * i);
  }
  EXPECT_FALSE(arena.is_borrowed());
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
  EXPECT_FALSE(arena.is_borrowed());
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
  const bool borrowed = arena.is_borrowed();
  EXPECT_EQ(borrowed, GetParam() == Start::kMmap);
  const int* before = std::as_const(arena).data();
  ArenaVector<int> moved = std::move(arena);
  EXPECT_EQ(std::as_const(moved).data(), before);
  EXPECT_EQ(moved.is_borrowed(), borrowed);
  ASSERT_EQ(moved.size(), 100U);
  EXPECT_EQ(std::as_const(moved)[99], 9);
  EXPECT_EQ(arena.size(), 0U);  // NOLINT(bugprone-use-after-move)
}

TEST(ArenaVector, BorrowedViewServesReadsZeroCopy) {
  std::vector<std::uint64_t> values(64);
  std::iota(values.begin(), values.end(), 100);
  auto map = map_bytes("imc_arena_zero_copy.bin", values.data(),
                       values.size() * sizeof(std::uint64_t));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());
  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 64, std::move(map));
  EXPECT_TRUE(view.is_borrowed());
  // Const access is genuinely zero-copy (non-const data() would
  // copy-on-write materialize — that is the next test).
  EXPECT_EQ(std::as_const(view).data(), slab);
  EXPECT_EQ(std::as_const(view)[63], 163U);
  EXPECT_TRUE(view.is_borrowed());
}

TEST(ArenaVector, BorrowedViewMaterializesOnFirstMutation) {
  std::vector<std::uint64_t> values(16);
  std::iota(values.begin(), values.end(), 0);
  auto map = map_bytes("imc_arena_cow.bin", values.data(),
                       values.size() * sizeof(std::uint64_t));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());
  std::weak_ptr<const MmapStorage> watcher = map;

  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 16, std::move(map));
  view.push_back(16);  // first mutation: copy-on-write
  EXPECT_FALSE(view.is_borrowed());
  EXPECT_NE(view.data(), slab);
  ASSERT_EQ(view.size(), 17U);
  for (std::uint64_t i = 0; i < 17; ++i) ASSERT_EQ(view[i], i);
  // The keepalive was released with the borrow — nothing pins the mapping.
  EXPECT_TRUE(watcher.expired());
}

TEST(ArenaVector, BorrowedKeepaliveOutlivesTheSourceHandle) {
  std::vector<std::uint64_t> values(8, 0);
  values[7] = 777;
  auto map = map_bytes("imc_arena_keepalive.bin", values.data(),
                       values.size() * sizeof(std::uint64_t));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());
  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 8, map);
  map.reset();  // the view's keepalive must keep the mapping alive
  EXPECT_EQ(std::as_const(view)[7], 777U);
}

}  // namespace
}  // namespace imc
