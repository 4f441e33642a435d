// Arena storage for RicPool's flat arrays (DESIGN.md §13, "Pool
// persistence").
//
// ArenaVector<T> is a std::vector-shaped container for memcpy-safe element
// types over one owned, 64-byte-aligned heap slab. Growth relocates with
// memcpy, and resize_for_overwrite() sizes a vector without filling it, so
// a snapshot attach or a delta repair can write every element exactly once.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace imc {

namespace detail {
/// The arena element contract: memcpy-safe. std::is_trivially_copyable
/// would be the textbook trait, but libstdc++'s std::pair (the sample
/// arena's element type) has a non-trivial assignment operator while still
/// being bitwise-relocatable — so the contract is expressed through the
/// copy-construction/destruction traits that actually license memcpy here.
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
  }

  void release() noexcept {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  void grow_capacity(std::size_t min_count);

  T* data_ = nullptr;  // owned slab (aligned_alloc)
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

namespace detail {
[[nodiscard]] inline std::size_t round_up_64(std::size_t bytes) noexcept {
  return (bytes + 63) & ~static_cast<std::size_t>(63);
}
[[nodiscard]] void* aligned_slab(std::size_t bytes);
}  // namespace detail

template <typename T>
void ArenaVector<T>::grow_capacity(std::size_t min_count) {
  std::size_t target = capacity_ < 8 ? 8 : capacity_ * 2;
  if (target < min_count) target = min_count;
  const std::size_t bytes = detail::round_up_64(target * sizeof(T));
  void* slab = detail::aligned_slab(bytes);
  if (size_ > 0) {
    std::memcpy(slab, static_cast<const void*>(data_), size_ * sizeof(T));
  }
  std::free(data_);
  data_ = static_cast<T*>(slab);
  capacity_ = bytes / sizeof(T);
}

}  // namespace imc
