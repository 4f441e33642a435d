#include "util/arena_vector.h"

#include <stdexcept>
#include <string>

namespace imc::detail {

void* aligned_slab(std::size_t bytes) {
  // aligned_alloc demands size % alignment == 0; round_up_64 upstream
  // guarantees it.
  void* slab = std::aligned_alloc(64, bytes);
  if (slab == nullptr) {
    throw std::runtime_error("arena_vector: allocation of " +
                             std::to_string(bytes) + " bytes failed");
  }
  return slab;
}

}  // namespace imc::detail
