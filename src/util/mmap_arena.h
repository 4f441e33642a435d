// Arena storage for RicPool's flat arrays (DESIGN.md §13, "Pool
// persistence").
//
// Two layers:
//   * MmapStorage  — a read-only mapping of a whole existing file: the
//     zero-copy snapshot-attach path.
//   * ArenaVector<T> — a std::vector-shaped container for memcpy-safe
//     element types that is either an owned 64-byte-aligned heap slab or a
//     BORROWED read-only view into a MmapStorage (a pool snapshot opened
//     with mmap). Borrowed vectors serve reads zero-copy and materialize an
//     owned heap copy on the first mutation (copy-on-write), so attaching a
//     multi-gigabyte pool costs page-table setup, not a pass over the data.
//
// Lifetime contract for borrowed vectors: the view pins the mapping via a
// shared_ptr<const MmapStorage> keepalive, so the file mapping lives
// exactly as long as the last vector (or pool) that still reads from it —
// callers never manage the mapping's lifetime by hand.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

namespace imc {

class MmapStorage {
 public:
  MmapStorage() = default;
  ~MmapStorage();

  MmapStorage(MmapStorage&& other) noexcept;
  MmapStorage& operator=(MmapStorage&& other) noexcept;
  MmapStorage(const MmapStorage&) = delete;
  MmapStorage& operator=(const MmapStorage&) = delete;

  /// Maps an existing file read-only, whole length. The snapshot-attach
  /// path: reads fault pages straight from the page cache / disk, no copy.
  /// An empty file yields an empty, unmapped storage (size() == 0) so the
  /// caller's own format check reports it. Throws std::runtime_error when
  /// the file cannot be opened or mapped.
  [[nodiscard]] static MmapStorage open_readonly(const std::string& path);

  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(address_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_; }
  [[nodiscard]] bool valid() const noexcept { return address_ != nullptr; }

 private:
  void reset() noexcept;

  void* address_ = nullptr;
  std::size_t bytes_ = 0;
  int fd_ = -1;
};

namespace detail {
/// The arena element contract: memcpy-safe. std::is_trivially_copyable
/// would be the textbook trait, but libstdc++'s std::pair (the sample
/// arena's element type) has a non-trivial assignment operator while still
/// being bitwise-relocatable — so the contract is expressed through the
/// copy-construction/destruction traits that actually license memcpy here.
template <typename T>
inline constexpr bool kArenaSafe = std::is_trivially_copy_constructible_v<T> &&
                                   std::is_trivially_destructible_v<T>;

/// Drops the whole pages inside [begin, end) of a read-only file mapping
/// from the resident set (madvise MADV_DONTNEED). Best effort.
void drop_mapped_pages(const void* begin, const void* end) noexcept;
}  // namespace detail

template <typename T>
class ArenaVector {
  static_assert(detail::kArenaSafe<T>,
                "ArenaVector requires memcpy-safe element types");

 public:
  ArenaVector() = default;
  ArenaVector(std::size_t count, const T& value) { resize(count, value); }

  /// Zero-copy view over `count` elements inside an externally owned
  /// mapping. Reads are served in place; the first mutation (or an
  /// explicit ensure_owned()) copies the contents into an owned heap slab.
  /// The keepalive pins the mapping while any view of it is alive.
  [[nodiscard]] static ArenaVector borrowed(
      const T* data, std::size_t count,
      std::shared_ptr<const MmapStorage> keepalive) {
    ArenaVector v;
    v.data_ = const_cast<T*>(data);  // never written while borrowed_
    v.size_ = count;
    v.capacity_ = count;
    v.keepalive_ = std::move(keepalive);
    v.borrowed_ = true;
    return v;
  }

  ~ArenaVector() { release(); }

  ArenaVector(ArenaVector&& other) noexcept { steal(other); }
  ArenaVector& operator=(ArenaVector&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool is_borrowed() const noexcept { return borrowed_; }

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T* data() {
    ensure_owned();
    return data_;
  }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T* begin() {
    ensure_owned();
    return data_;
  }
  [[nodiscard]] T* end() {
    ensure_owned();
    return data_ + size_;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    ensure_owned();
    return data_[i];
  }
  [[nodiscard]] const T& back() const noexcept {
    assert(size_ > 0);
    return data_[size_ - 1];
  }

  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_, size_};
  }

  void reserve(std::size_t count) {
    ensure_owned();
    if (count > capacity_) grow_capacity(count);
  }

  void resize(std::size_t count, const T& value = T{}) {
    ensure_owned();
    if (count > capacity_) grow_capacity(count);
    for (std::size_t i = size_; i < count; ++i) data_[i] = value;
    size_ = count;
  }

  /// resize() without the fill: elements past the old size are left
  /// uninitialised for the caller to overwrite. Shrinking never allocates.
  void resize_for_overwrite(std::size_t count) {
    ensure_owned();
    if (count > capacity_) grow_capacity(count);
    size_ = count;
  }

  void assign(std::size_t count, const T& value) {
    ensure_owned();
    size_ = 0;
    resize(count, value);
  }

  void clear() {
    ensure_owned();
    size_ = 0;
  }

  void push_back(const T& value) {
    ensure_owned();
    if (size_ == capacity_) grow_capacity(size_ + 1);
    data_[size_++] = value;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  /// Bulk append of a contiguous range (the insert-at-end pattern).
  void append(const T* first, const T* last) {
    const auto count = static_cast<std::size_t>(last - first);
    ensure_owned();
    if (size_ + count > capacity_) grow_capacity(size_ + count);
    // void* casts: GCC's -Wclass-memaccess flags memcpy into types with a
    // non-trivial copy-assignment (std::pair); kArenaSafe licenses it.
    if (count > 0) {
      std::memcpy(static_cast<void*>(data_ + size_),
                  static_cast<const void*>(first), count * sizeof(T));
    }
    size_ += count;
  }

  /// Residency hint for a streaming reader of a borrowed view that is done
  /// with elements [first, last): their whole pages leave the resident
  /// set. The view stays valid — a later read refaults the unchanged bytes
  /// from the file. No-op for owned vectors.
  void drop_pages(std::size_t first, std::size_t last) const noexcept {
    if (borrowed_) detail::drop_mapped_pages(data_ + first, data_ + last);
  }

  /// Copy-on-write materialization: after this call the contents live in
  /// an owned heap slab and the keepalive (if any) is released.
  void ensure_owned() {
    if (borrowed_) materialize();
  }

 private:
  void steal(ArenaVector& other) noexcept {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    borrowed_ = other.borrowed_;
    heap_ = other.heap_;
    keepalive_ = std::move(other.keepalive_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    other.heap_ = nullptr;
    other.borrowed_ = false;
  }

  void release() noexcept {
    if (heap_ != nullptr) std::free(heap_);
    heap_ = nullptr;
    keepalive_.reset();
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    borrowed_ = false;
  }

  void materialize();
  void grow_capacity(std::size_t min_count);

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  bool borrowed_ = false;

  void* heap_ = nullptr;  // owned slab (aligned_alloc)
  std::shared_ptr<const MmapStorage> keepalive_;  // borrowed mode
};

namespace detail {
[[nodiscard]] inline std::size_t round_up_64(std::size_t bytes) noexcept {
  return (bytes + 63) & ~static_cast<std::size_t>(63);
}
[[noreturn]] void throw_bad_arena_alloc(std::size_t bytes);
[[nodiscard]] void* aligned_slab(std::size_t bytes);
}  // namespace detail

template <typename T>
void ArenaVector<T>::grow_capacity(std::size_t min_count) {
  assert(!borrowed_);
  std::size_t target = capacity_ < 8 ? 8 : capacity_ * 2;
  if (target < min_count) target = min_count;
  const std::size_t bytes = detail::round_up_64(target * sizeof(T));
  void* slab = detail::aligned_slab(bytes);
  if (size_ > 0) {
    std::memcpy(slab, static_cast<const void*>(data_), size_ * sizeof(T));
  }
  if (heap_ != nullptr) std::free(heap_);
  heap_ = slab;
  data_ = static_cast<T*>(slab);
  capacity_ = bytes / sizeof(T);
}

template <typename T>
void ArenaVector<T>::materialize() {
  assert(borrowed_);
  const T* source = data_;
  const std::size_t count = size_;
  borrowed_ = false;
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  if (count > 0) {
    grow_capacity(count);
    std::memcpy(static_cast<void*>(data_), static_cast<const void*>(source),
                count * sizeof(T));
    size_ = count;
  }
  keepalive_.reset();
}

}  // namespace imc
