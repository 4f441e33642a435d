// One-pass, chunk-parallel in-place patch of a row-major arena (DESIGN.md
// §16): an offset table over rows and one flat element arena, the shape
// of both of RicPool's big arenas (sample-major: rows = samples; CSR
// index: rows = nodes) and of the estimate tail's.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/arena_vector.h"

namespace imc {

/// A row whose elements a RowPatch replaces and its final element count.
/// Every other row keeps its elements as they are.
struct ChangedRow {
  std::uint64_t row = 0;
  std::uint64_t size = 0;
};

/// Moves every row of an arena once, straight from its old offset to its
/// final one, in chunks of rows that may run concurrently and in any
/// order. Construction plans the patch and is the only step that may
/// throw: it reads the final offsets off the changed rows, splits the rows
/// into chunks of about equal old size, saves the elements at each chunk's
/// ends that a neighbour chunk overwrites, sizes one row buffer per chunk
/// and reserves room for max(old, new) elements. It writes nothing into
/// the arena or the offset table. run() then patches one chunk without
/// allocating; once every chunk ran, finish() sets the final size.
template <typename T>
class RowPatch {
 public:
  /// Plans the patch of `arena` under `offsets` (rows + 1 entries, the
  /// first 0, the last the arena size). `changed` is ascending by row.
  /// With `reads_old`, run() copies the old elements of each changed row
  /// into the chunk's row buffer and hands compose that copy; without it,
  /// compose gets an empty span.
  RowPatch(ArenaVector<std::uint64_t>& offsets, ArenaVector<T>& arena,
           std::span<const ChangedRow> changed, unsigned chunks,
           bool reads_old)
      : offsets_(offsets.data()),
        arena_(arena),
        old_size_(arena.size()),
        reads_old_(reads_old) {
    const std::uint64_t rows = offsets.size() - 1;
    changed_.resize(changed.size());
    shift_.resize(changed.size() + 1);
    shift_[0] = 0;
    for (std::size_t j = 0; j < changed.size(); ++j) {
      assert(changed[j].row < rows &&
             (j == 0 || changed[j - 1].row < changed[j].row));
      const std::uint64_t begin = offsets_[changed[j].row];
      const std::uint64_t end = offsets_[changed[j].row + 1];
      changed_[j] = Changed{changed[j].row, begin, end};
      shift_[j + 1] = shift_[j] + static_cast<std::int64_t>(changed[j].size) -
                      static_cast<std::int64_t>(end - begin);
    }
    new_size_ = shifted(old_size_, shift_.back());

    // Chunk k holds rows [lo, hi): lo is the first row whose old begin
    // reaches k/chunks of the old arena.
    chunks = std::max(1U, chunks);
    chunks_.resize(chunks);
    std::uint64_t scratch = 0;
    std::uint64_t lo = 0;
    for (unsigned k = 0; k < chunks; ++k) {
      const std::uint64_t hi =
          k + 1 == chunks
              ? rows
              : std::max<std::uint64_t>(
                    lo, static_cast<std::uint64_t>(
                            std::lower_bound(offsets_, offsets_ + rows + 1,
                                             old_size_ * (k + 1) / chunks) -
                            offsets_));
      Chunk& c = chunks_[k];
      c.lo = lo;
      c.hi = hi;
      c.first = first_changed_at_or_after(c.lo);
      c.last = first_changed_at_or_after(c.hi);
      c.old_lo = offsets_[c.lo];
      c.old_hi = offsets_[c.hi];
      // The chunk writes [new_lo, new_hi) and reads [old_lo, old_hi).
      // Its reads outside its own writes are a prefix, which chunks to
      // its left overwrite when its rows move right, and a suffix, which
      // chunks to its right overwrite when they move left. Both are saved.
      const std::uint64_t new_lo = shifted(c.old_lo, shift_[c.first]);
      const std::uint64_t new_hi = shifted(c.old_hi, shift_[c.last]);
      c.prefix_end =
          new_lo > c.old_lo ? std::min(new_lo, c.old_hi) : c.old_lo;
      c.suffix_begin =
          new_hi < c.old_hi ? std::max(new_hi, c.old_lo) : c.old_hi;
      c.prefix_at = scratch;
      scratch += c.prefix_end - c.old_lo;
      c.suffix_at = scratch;
      scratch += c.old_hi - c.suffix_begin;
      c.buffer_at = scratch;
      if (reads_old) {
        std::uint64_t longest = 0;
        for (std::uint64_t j = c.first; j < c.last; ++j) {
          longest = std::max(longest, changed_[j].end - changed_[j].begin);
        }
        scratch += longest;
      }
      lo = c.hi;
    }
    scratch_.resize_for_overwrite(scratch);
    arena.reserve(std::max(old_size_, new_size_));
    for (const Chunk& c : chunks_) {
      copy(scratch_.data() + c.prefix_at, arena.data() + c.old_lo,
           c.prefix_end - c.old_lo);
      copy(scratch_.data() + c.suffix_at, arena.data() + c.suffix_begin,
           c.old_hi - c.suffix_begin);
    }
  }

  [[nodiscard]] unsigned chunks() const noexcept {
    return static_cast<unsigned>(chunks_.size());
  }

  /// Patches chunk `chunk`: moves each of its rows to its final offset and
  /// rewrites its offset entries. compose(j, old, out) writes the
  /// changed[j].size final elements of changed row j to [out, out + size),
  /// given its old elements `old`, a copy in the chunk's row buffer; it
  /// must not throw. Chunks may run concurrently, each at most once.
  ///
  /// Order: a row whose final begin lies right of its old begin (shift
  /// > 0) moves right to left together with the run of such rows after it;
  /// every other row starts a new run, and runs go left to right. A row of
  /// a run writes only over its own old elements and those of rows right
  /// of it in the run, which went before it; a row that starts a run
  /// writes only over its own and those of earlier runs. Unchanged rows
  /// between two changed ones share one shift and move as one block.
  template <typename Compose>
  void run(unsigned chunk, const Compose& compose) noexcept {
    const Chunk& c = chunks_[chunk];
    // Pieces, left to right: gap 0, changed row first, gap 1, ..., the
    // last gap. Piece p starts at shift shift_[c.first + p / 2].
    const std::uint64_t pieces = 2 * (c.last - c.first) + 1;
    const auto moves_right = [&](std::uint64_t p) {
      return shift_[c.first + p / 2] > 0;
    };
    std::uint64_t run_begin = 0;
    for (std::uint64_t p = 1; p <= pieces; ++p) {
      if (p < pieces && moves_right(p)) continue;
      for (std::uint64_t q = p; q-- > run_begin;) {
        if (q % 2 == 0) {
          move_gap(c, q / 2);
        } else {
          move_changed(c, c.first + q / 2, compose);
        }
      }
      run_begin = p;
    }

    std::uint64_t row = c.lo + 1;
    for (std::uint64_t j = c.first; j <= c.last; ++j) {
      const std::uint64_t stop = j < c.last ? changed_[j].row : c.hi;
      const auto shift = static_cast<std::uint64_t>(shift_[j]);
      if (shift == 0) {
        row = std::max(row, stop + 1);
        continue;
      }
      for (; row <= stop; ++row) offsets_[row] += shift;  // mod 2^64
    }
  }

  /// Sets the arena to its final size once every chunk ran (no
  /// allocation: the constructor reserved the room).
  void finish() noexcept { arena_.resize_for_overwrite(new_size_); }

 private:
  struct Changed {
    std::uint64_t row;
    std::uint64_t begin;  // old offsets
    std::uint64_t end;
  };
  struct Chunk {
    std::uint64_t lo = 0, hi = 0;        // rows [lo, hi)
    std::uint64_t first = 0, last = 0;   // changed_ indices [first, last)
    std::uint64_t old_lo = 0, old_hi = 0;
    std::uint64_t prefix_end = 0;    // [old_lo, prefix_end) is saved
    std::uint64_t suffix_begin = 0;  // [suffix_begin, old_hi) is saved
    std::uint64_t prefix_at = 0, suffix_at = 0, buffer_at = 0;  // scratch_
  };

  static std::uint64_t shifted(std::uint64_t at, std::int64_t shift) {
    return at + static_cast<std::uint64_t>(shift);  // mod 2^64
  }

  static void copy(T* to, const T* from, std::uint64_t count) noexcept {
    // void* casts: GCC's -Wclass-memaccess flags memcpy into types with a
    // non-trivial copy-assignment; ArenaVector's element contract allows it.
    if (count > 0) {
      std::memcpy(static_cast<void*>(to), static_cast<const void*>(from),
                  count * sizeof(T));
    }
  }

  [[nodiscard]] std::uint64_t first_changed_at_or_after(
      std::uint64_t row) const {
    return static_cast<std::uint64_t>(
        std::partition_point(changed_.begin(), changed_.end(),
                             [row](const Changed& x) { return x.row < row; }) -
        changed_.begin());
  }

  /// Copies the old elements [begin, end) of chunk `c` to `to`, the saved
  /// ones from their save. The arena part moves first: the
  /// saves are never written, so it cannot overwrite what they serve.
  void move_old(const Chunk& c, std::uint64_t begin, std::uint64_t end,
                T* to) noexcept {
    T* const data = arena_.data();
    const std::uint64_t mid_begin = std::max(begin, c.prefix_end);
    const std::uint64_t mid_end = std::min(end, c.suffix_begin);
    if (mid_begin < mid_end && to + (mid_begin - begin) != data + mid_begin) {
      std::memmove(static_cast<void*>(to + (mid_begin - begin)),
                   static_cast<const void*>(data + mid_begin),
                   (mid_end - mid_begin) * sizeof(T));
    }
    if (begin < c.prefix_end) {
      copy(to, scratch_.data() + c.prefix_at + (begin - c.old_lo),
           std::min(end, c.prefix_end) - begin);
    }
    if (end > c.suffix_begin) {
      const std::uint64_t from = std::max(begin, c.suffix_begin);
      copy(to + (from - begin),
           scratch_.data() + c.suffix_at + (from - c.suffix_begin),
           end - from);
    }
  }

  /// Gap t of chunk `c`: the unchanged rows before changed row
  /// c.first + t (after the last changed row when t == c.last - c.first).
  void move_gap(const Chunk& c, std::uint64_t t) noexcept {
    const std::uint64_t j = c.first + t;
    const std::uint64_t begin = t == 0 ? c.old_lo : changed_[j - 1].end;
    const std::uint64_t end = j == c.last ? c.old_hi : changed_[j].begin;
    if (begin == end || shift_[j] == 0) return;
    move_old(c, begin, end, arena_.data() + shifted(begin, shift_[j]));
  }

  template <typename Compose>
  void move_changed(const Chunk& c, std::uint64_t j,
                    const Compose& compose) noexcept {
    const Changed& row = changed_[j];
    T* const data = arena_.data();
    const std::uint64_t out = shifted(row.begin, shift_[j]);
    if (!reads_old_) {
      compose(j, std::span<const T>(), data + out);
      return;
    }
    T* const buffer = scratch_.data() + c.buffer_at;
    move_old(c, row.begin, row.end, buffer);
    compose(j, std::span<const T>(buffer, row.end - row.begin), data + out);
  }

  std::uint64_t* offsets_;
  ArenaVector<T>& arena_;
  std::uint64_t old_size_;
  std::uint64_t new_size_ = 0;
  bool reads_old_;
  std::vector<Changed> changed_;
  std::vector<std::int64_t> shift_;  // shift_[j]: shift before changed j
  std::vector<Chunk> chunks_;
  // Per chunk: the saved prefix, the saved suffix, the row buffer.
  ArenaVector<T> scratch_;
};

}  // namespace imc
