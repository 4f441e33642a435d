// Arena storage for RicPool's flat arrays (DESIGN.md §13, "Pool
// persistence").
//
// ArenaVector<T> is a std::vector-shaped container for memcpy-safe element
// types over one owned, 64-byte-aligned slab. Slabs below kMappedSlabBytes
// come from aligned_alloc and growth relocates them with memcpy. Larger
// slabs are private anonymous page mappings, and growth extends them with
// mremap: the kept pages are neither copied nor faulted in again, so a
// doubling pool arena does not hold its old and new slab at once.
// resize_for_overwrite() sizes a vector without filling it, so a snapshot
// attach or a delta repair can write every element exactly once.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace imc {

namespace detail {
/// The arena element contract: memcpy-safe. std::is_trivially_copyable
/// would be the textbook trait, but libstdc++'s std::pair has a
/// non-trivial assignment operator while still being bitwise-relocatable —
/// so the contract is expressed through the copy-construction/destruction
/// traits that actually license memcpy here.
template <typename T>
inline constexpr bool kArenaSafe = std::is_trivially_copy_constructible_v<T> &&
                                   std::is_trivially_destructible_v<T>;
}  // namespace detail

template <typename T>
class ArenaVector {
  static_assert(detail::kArenaSafe<T>,
                "ArenaVector requires memcpy-safe element types");

 public:
  ArenaVector() = default;
  ArenaVector(std::size_t count, const T& value) { resize(count, value); }

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

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }

  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
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
    if (count > capacity_) grow_capacity(count);
  }

  void resize(std::size_t count, const T& value = T{}) {
    if (count > capacity_) grow_capacity(count);
    for (std::size_t i = size_; i < count; ++i) data_[i] = value;
    size_ = count;
  }

  /// resize() without the fill: elements past the old size are left
  /// uninitialised for the caller to overwrite. Shrinking never allocates.
  void resize_for_overwrite(std::size_t count) {
    if (count > capacity_) grow_capacity(count);
    size_ = count;
  }

  void assign(std::size_t count, const T& value) {
    size_ = 0;
    resize(count, value);
  }

  void clear() noexcept { size_ = 0; }

  void push_back(const T& value) {
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
    if (size_ + count > capacity_) grow_capacity(size_ + count);
    // void* casts: GCC's -Wclass-memaccess flags memcpy into types with a
    // non-trivial copy-assignment (std::pair); kArenaSafe licenses it.
    if (count > 0) {
      std::memcpy(static_cast<void*>(data_ + size_),
                  static_cast<const void*>(first), count * sizeof(T));
    }
    size_ += count;
  }

 private:
  void steal(ArenaVector& other) noexcept {
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    slab_bytes_ = std::exchange(other.slab_bytes_, 0);
  }

  void release() noexcept;

  void grow_capacity(std::size_t min_count);

  T* data_ = nullptr;  // owned slab (see detail::resize_slab)
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t slab_bytes_ = 0;  // length of the slab behind data_
};

namespace detail {
/// Slabs of at least this many bytes are page mappings that grow in place
/// (mremap); smaller ones are aligned_alloc blocks.
inline constexpr std::size_t kMappedSlabBytes = std::size_t{1} << 20;

[[nodiscard]] inline std::size_t round_up_64(std::size_t bytes) noexcept {
  return (bytes + 63) & ~static_cast<std::size_t>(63);
}
/// The slab length that holds `bytes`: a multiple of 64, and of the page
/// size once it reaches kMappedSlabBytes.
[[nodiscard]] std::size_t slab_bytes_for(std::size_t bytes);
/// Moves the first `used` bytes of `slab` (`old_bytes` long; nullptr when
/// 0) into a slab `new_bytes` long (from slab_bytes_for, > old_bytes) and
/// returns it. A mapped slab that stays mapped is extended with mremap and
/// not copied. Throws std::runtime_error with `slab` still valid.
[[nodiscard]] void* resize_slab(void* slab, std::size_t old_bytes,
                                std::size_t used, std::size_t new_bytes);
void free_slab(void* slab, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
void ArenaVector<T>::release() noexcept {
  detail::free_slab(data_, slab_bytes_);
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  slab_bytes_ = 0;
}

template <typename T>
void ArenaVector<T>::grow_capacity(std::size_t min_count) {
  std::size_t target = capacity_ < 8 ? 8 : capacity_ * 2;
  if (target < min_count) target = min_count;
  const std::size_t bytes = detail::slab_bytes_for(target * sizeof(T));
  data_ = static_cast<T*>(
      detail::resize_slab(data_, slab_bytes_, size_ * sizeof(T), bytes));
  slab_bytes_ = bytes;
  capacity_ = bytes / sizeof(T);
}

}  // namespace imc
