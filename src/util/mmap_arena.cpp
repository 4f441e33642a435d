#include "util/mmap_arena.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace imc {

namespace detail {

void throw_bad_arena_alloc(std::size_t bytes) {
  throw std::runtime_error("mmap_arena: allocation of " +
                           std::to_string(bytes) + " bytes failed");
}

void drop_mapped_pages(const void* begin, const void* end) noexcept {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t first =
      (reinterpret_cast<std::uintptr_t>(begin) + page - 1) & ~(page - 1);
  const std::uintptr_t last =
      reinterpret_cast<std::uintptr_t>(end) & ~(page - 1);
  if (last > first) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_DONTNEED);
  }
}

void* aligned_slab(std::size_t bytes) {
  // aligned_alloc demands size % alignment == 0; round_up_64 upstream
  // guarantees it.
  void* slab = std::aligned_alloc(64, bytes);
  if (slab == nullptr) throw_bad_arena_alloc(bytes);
  return slab;
}

}  // namespace detail

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("mmap_arena: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

MmapStorage::~MmapStorage() { reset(); }

void MmapStorage::reset() noexcept {
  if (address_ != nullptr) ::munmap(address_, bytes_);
  if (fd_ >= 0) ::close(fd_);
  address_ = nullptr;
  bytes_ = 0;
  fd_ = -1;
}

MmapStorage::MmapStorage(MmapStorage&& other) noexcept
    : address_(std::exchange(other.address_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      fd_(std::exchange(other.fd_, -1)) {}

MmapStorage& MmapStorage::operator=(MmapStorage&& other) noexcept {
  if (this != &other) {
    reset();
    address_ = std::exchange(other.address_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

MmapStorage MmapStorage::open_readonly(const std::string& path) {
  MmapStorage storage;
  storage.fd_ = ::open(path.c_str(), O_RDONLY);
  if (storage.fd_ < 0) fail_errno("cannot open " + path);
  struct stat st{};
  if (::fstat(storage.fd_, &st) != 0) fail_errno("cannot stat " + path);
  if (st.st_size == 0) return storage;  // mmap rejects zero-length maps
  storage.bytes_ = static_cast<std::size_t>(st.st_size);
  void* address =
      ::mmap(nullptr, storage.bytes_, PROT_READ, MAP_PRIVATE, storage.fd_, 0);
  if (address == MAP_FAILED) fail_errno("cannot map " + path);
  storage.address_ = address;
  return storage;
}

}  // namespace imc
