#include "util/arena_vector.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace imc::detail {

namespace {

std::size_t page_bytes() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

[[noreturn]] void allocation_failed(std::size_t bytes) {
  throw std::runtime_error("arena_vector: allocation of " +
                           std::to_string(bytes) + " bytes failed");
}

bool mapped(std::size_t slab_bytes) { return slab_bytes >= kMappedSlabBytes; }

void* allocate(std::size_t bytes) {
  void* slab = nullptr;
  if (mapped(bytes)) {
    slab = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (slab == MAP_FAILED) slab = nullptr;
  } else {
    // aligned_alloc demands size % alignment == 0; slab_bytes_for
    // guarantees it.
    slab = std::aligned_alloc(64, bytes);
  }
  if (slab == nullptr) allocation_failed(bytes);
  return slab;
}

}  // namespace

std::size_t slab_bytes_for(std::size_t bytes) {
  const std::size_t rounded = round_up_64(bytes);
  if (!mapped(rounded)) return rounded;
  const std::size_t page = page_bytes();
  return (rounded + page - 1) / page * page;
}

void* resize_slab(void* slab, std::size_t old_bytes, std::size_t used,
                  std::size_t new_bytes) {
  if (mapped(old_bytes)) {
    // Page-aligned in and out: the mapping keeps the 64-byte contract.
    void* moved = ::mremap(slab, old_bytes, new_bytes, MREMAP_MAYMOVE);
    if (moved == MAP_FAILED) allocation_failed(new_bytes);
    return moved;
  }
  void* fresh = allocate(new_bytes);
  if (used > 0) std::memcpy(fresh, slab, used);
  free_slab(slab, old_bytes);
  return fresh;
}

void free_slab(void* slab, std::size_t bytes) noexcept {
  if (slab == nullptr) return;
  if (mapped(bytes)) {
    ::munmap(slab, bytes);
  } else {
    std::free(slab);
  }
}

}  // namespace imc::detail
