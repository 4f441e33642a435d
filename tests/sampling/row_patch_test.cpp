// RowPatch (sampling/row_patch.h, DESIGN.md §16): the one-pass in-place
// row mover behind delta repair, checked against an out-of-place
// reference over offset patterns that move rows both ways, at several
// chunk counts, with the chunks run serially in reverse and shuffled
// order and concurrently on a thread pool.
#include "sampling/row_patch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "util/arena_vector.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

using Row = std::vector<std::uint64_t>;

/// One changed row: old element i is dropped when drop_every > 0 and
/// i % drop_every == 0, and `inserted` new elements are merged in.
struct Change {
  std::uint64_t row = 0;
  std::uint64_t drop_every = 0;
  std::uint64_t inserted = 0;
};

/// The old row sizes of a patch and its changed rows, ascending.
struct Pattern {
  std::vector<std::uint64_t> old_sizes;
  std::vector<Change> changes;
};

// An element is (row << 32 | key), new ones flagged in bit 63. Rows merge
// by key: old keys are odd and ascending, inserted keys even.
std::uint64_t key_of(std::uint64_t element) { return element & 0xffffffffu; }

Row old_row(std::uint64_t r, std::uint64_t size) {
  Row row(size);
  for (std::uint64_t i = 0; i < size; ++i) row[i] = (r << 32) | (2 * i + 1);
  return row;
}

bool dropped(const Change& change, std::uint64_t element) {
  return change.drop_every > 0 &&
         ((key_of(element) - 1) / 2) % change.drop_every == 0;
}

Row inserted_elements(const Change& change, std::uint64_t old_size) {
  Row row(change.inserted);
  for (std::uint64_t m = 0; m < change.inserted; ++m) {
    row[m] = (std::uint64_t{1} << 63) | (change.row << 32) |
             (2 * (m * (old_size + 1) / change.inserted));
  }
  return row;
}

/// Merges the kept old elements with the inserted ones into `out` by key,
/// front to back (the CSR merge's shape).
void merge_row(const Change& change, std::span<const std::uint64_t> old,
               const Row& add, std::uint64_t* out) {
  std::size_t a = 0;
  for (const std::uint64_t element : old) {
    if (dropped(change, element)) continue;
    while (a < add.size() && key_of(add[a]) < key_of(element)) {
      *out++ = add[a++];
    }
    *out++ = element;
  }
  while (a < add.size()) *out++ = add[a++];
}

enum class Order { kReverse, kShuffled, kThreads };

void check_pattern(const Pattern& pattern) {
  const std::uint64_t rows = pattern.old_sizes.size();
  std::vector<Row> old_rows(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    old_rows[r] = old_row(r, pattern.old_sizes[r]);
  }
  std::vector<std::uint64_t> old_offsets{0};
  Row old_flat;
  for (const Row& row : old_rows) {
    old_flat.insert(old_flat.end(), row.begin(), row.end());
    old_offsets.push_back(old_flat.size());
  }
  // The out-of-place reference, and the changed rows RowPatch takes.
  std::vector<Row> adds;
  std::vector<ChangedRow> changed;
  std::vector<Row> final_rows = old_rows;
  for (const Change& change : pattern.changes) {
    const Row& old = old_rows[change.row];
    adds.push_back(inserted_elements(change, old.size()));
    const auto kept = static_cast<std::uint64_t>(std::count_if(
        old.begin(), old.end(),
        [&](std::uint64_t element) { return !dropped(change, element); }));
    changed.push_back({change.row, kept + change.inserted});
    Row row(changed.back().size);
    merge_row(change, old, adds.back(), row.data());
    final_rows[change.row] = row;
  }
  std::vector<std::uint64_t> expected_offsets{0};
  Row expected;
  for (const Row& row : final_rows) {
    expected.insert(expected.end(), row.begin(), row.end());
    expected_offsets.push_back(expected.size());
  }

  ThreadPool pool(3);
  for (const bool reads_old : {true, false}) {
    for (const unsigned chunks : {1U, 2U, 3U, 8U, 64U}) {
      for (const Order order : {Order::kReverse, Order::kShuffled,
                                Order::kThreads}) {
        SCOPED_TRACE("reads_old=" + std::to_string(reads_old) +
                     " chunks=" + std::to_string(chunks) +
                     " order=" + std::to_string(static_cast<int>(order)));
        ArenaVector<std::uint64_t> offsets(1, 0);
        ArenaVector<std::uint64_t> arena;
        for (const Row& row : old_rows) {
          arena.append(row.data(), row.data() + row.size());
          offsets.push_back(arena.size());
        }
        RowPatch<std::uint64_t> patch(offsets, arena, changed, chunks,
                                      reads_old);
        ASSERT_EQ(patch.chunks(), chunks);
        // Planning writes nothing into the arena or the offsets.
        EXPECT_EQ(std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
                  old_offsets);
        EXPECT_EQ(Row(arena.begin(), arena.end()), old_flat);
        // Without old elements, a changed row is written out whole from
        // the reference (the sample-major patch's shape).
        const auto compose = [&](std::uint64_t j,
                                 std::span<const std::uint64_t> old,
                                 std::uint64_t* out) {
          const ChangedRow& row = changed[j];
          if (!reads_old) {
            EXPECT_TRUE(old.empty());
            std::copy(final_rows[row.row].begin(), final_rows[row.row].end(),
                      out);
            return;
          }
          EXPECT_EQ(Row(old.begin(), old.end()), old_rows[row.row]);
          merge_row(pattern.changes[j], old, adds[j], out);
        };
        std::vector<unsigned> sequence(chunks);
        std::iota(sequence.begin(), sequence.end(), 0U);
        if (order == Order::kReverse) {
          std::reverse(sequence.begin(), sequence.end());
        } else if (order == Order::kShuffled) {
          std::shuffle(sequence.begin(), sequence.end(),
                       std::mt19937(chunks));
        }
        if (order == Order::kThreads) {
          parallel_for_shards(pool, chunks,
                              [&](unsigned c) { patch.run(c, compose); });
        } else {
          for (const unsigned c : sequence) patch.run(c, compose);
        }
        patch.finish();
        EXPECT_EQ(std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
                  expected_offsets);
        EXPECT_EQ(Row(arena.begin(), arena.end()), expected);
      }
    }
  }
}

/// Old rows of sizes in [min_size, max_size], drawn from `seed`.
std::vector<std::uint64_t> random_sizes(std::uint64_t rows,
                                        std::uint64_t min_size,
                                        std::uint64_t max_size,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> sizes(rows);
  for (std::uint64_t& size : sizes) {
    size = min_size + rng() % (max_size - min_size + 1);
  }
  return sizes;
}

TEST(RowPatch, AllRowsGrow) {
  Pattern pattern;
  pattern.old_sizes = random_sizes(90, 0, 12, 1);
  for (std::uint64_t r = 0; r < 90; ++r) {
    // Drops a third of the row and inserts more than that.
    const std::uint64_t old = pattern.old_sizes[r];
    pattern.changes.push_back({r, 3, (old + 2) / 3 + 1 + r % 7});
  }
  check_pattern(pattern);
}

TEST(RowPatch, AllRowsShrink) {
  Pattern pattern;
  pattern.old_sizes = random_sizes(90, 1, 12, 2);
  for (std::uint64_t r = 0; r < 90; ++r) {
    pattern.changes.push_back({r, 2, r % 3 == 0 ? 0 : 1 + r % 2});
  }
  for (Change& change : pattern.changes) {
    // Keep every row strictly shrinking: it drops ceil(old / 2).
    change.inserted =
        std::min(change.inserted, (pattern.old_sizes[change.row] + 1) / 2 - 1);
  }
  check_pattern(pattern);
}

TEST(RowPatch, AlternatingSigns) {
  Pattern pattern;
  pattern.old_sizes = random_sizes(90, 0, 12, 3);
  for (std::uint64_t r = 0; r < 90; ++r) {
    pattern.changes.push_back(r % 2 == 0 ? Change{r, 0, 4} : Change{r, 2, 0});
  }
  check_pattern(pattern);
}

TEST(RowPatch, SignsAlternateInLongRuns) {
  // Runs of growing rows and runs of shrinking ones, with unchanged rows
  // between them: the final offsets swing far right, then far left.
  Pattern pattern;
  pattern.old_sizes = random_sizes(120, 0, 10, 4);
  for (std::uint64_t r = 0; r < 120; ++r) {
    if (r % 5 == 4) continue;
    pattern.changes.push_back((r / 20) % 2 == 0 ? Change{r, 4, 6}
                                                : Change{r, 1, 1});
  }
  check_pattern(pattern);
}

TEST(RowPatch, OneRowTakesEveryInsert) {
  for (const std::uint64_t taker : {0, 37, 79}) {
    SCOPED_TRACE("taker=" + std::to_string(taker));
    Pattern pattern;
    pattern.old_sizes = random_sizes(80, 1, 9, 5);
    for (std::uint64_t r = 0; r < 80; ++r) {
      // Every other row loses its first element.
      pattern.changes.push_back(r == taker ? Change{r, 0, 79 + 40}
                                           : Change{r, 1000, 0});
    }
    check_pattern(pattern);
  }
}

TEST(RowPatch, EmptyRows) {
  Pattern pattern;
  pattern.old_sizes = random_sizes(100, 0, 6, 6);
  for (std::uint64_t r = 0; r < 100; r += 3) pattern.old_sizes[r] = 0;
  for (std::uint64_t r = 0; r < 100; ++r) {
    if (r % 6 == 0) {
      pattern.changes.push_back({r, 0, 1 + r % 5});  // empty -> filled
    } else if (r % 6 == 1) {
      pattern.changes.push_back({r, 1, 0});  // emptied
    } else if (r % 6 == 3) {
      pattern.changes.push_back({r, 0, 0});  // empty stays empty
    }
  }
  check_pattern(pattern);
}

TEST(RowPatch, EveryRowEmptyBeforeOrAfter) {
  Pattern filled;
  filled.old_sizes.assign(40, 0);
  for (std::uint64_t r = 0; r < 40; ++r) {
    filled.changes.push_back({r, 0, r % 4});
  }
  check_pattern(filled);
  Pattern emptied;
  emptied.old_sizes = random_sizes(40, 0, 5, 7);
  for (std::uint64_t r = 0; r < 40; ++r) emptied.changes.push_back({r, 1, 0});
  check_pattern(emptied);
}

TEST(RowPatch, ChangesOnlyInTheFirstOrLastRow) {
  for (const bool grow : {true, false}) {
    const Change change = grow ? Change{0, 2, 25} : Change{0, 1, 1};
    Pattern first;
    first.old_sizes = random_sizes(60, 2, 8, 8);
    first.changes.push_back(change);
    check_pattern(first);
    Pattern last;
    last.old_sizes = random_sizes(60, 2, 8, 9);
    last.changes.push_back(change);
    last.changes.back().row = 59;
    check_pattern(last);
  }
}

TEST(RowPatch, SparseChangesMoveTheRowsBetweenThemAsBlocks) {
  // The repair shape: a few changed rows, long runs of unchanged ones.
  Pattern pattern;
  pattern.old_sizes = random_sizes(400, 0, 20, 10);
  std::mt19937_64 rng(11);
  for (std::uint64_t r = 0; r < 400; ++r) {
    if (rng() % 13 != 0) continue;
    const std::uint64_t drop_every[] = {0, 1, 2, 3, 5};
    pattern.changes.push_back({r, drop_every[rng() % 5], rng() % 9});
  }
  check_pattern(pattern);
}

TEST(RowPatch, DenseMergesWithSmallShifts) {
  // The CSR shape: long rows, nearly all changed, each losing and gaining
  // a few elements, so the final offsets drift a little either way.
  Pattern pattern;
  pattern.old_sizes = random_sizes(200, 20, 60, 13);
  std::mt19937_64 rng(14);
  for (std::uint64_t r = 0; r < 200; ++r) {
    if (rng() % 10 == 0) continue;
    pattern.changes.push_back({r, 8 + rng() % 8, rng() % 8});
  }
  check_pattern(pattern);
}

TEST(RowPatch, NoChangedRowsLeavesTheArenaAsItIs) {
  Pattern pattern;
  pattern.old_sizes = random_sizes(30, 0, 5, 12);
  check_pattern(pattern);
  Pattern no_rows;
  check_pattern(no_rows);
}

}  // namespace
}  // namespace imc
