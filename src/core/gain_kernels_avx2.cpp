// AVX2 gain-kernel variant: cov | mask + popcount batched 4 samples per
// iteration using the vpshufb nibble-LUT popcount. Compiled with -mavx2
// on top of the POPCNT baseline (see src/CMakeLists.txt); the dispatcher
// only selects this table after __builtin_cpu_supports("avx2") confirms
// the host.
#include "core/gain_kernels_registry.h"

#if defined(__AVX2__)

#define IMC_GK_NAMESPACE avx2
#define IMC_GK_NAME "avx2"
#define IMC_GK_KIND GainKernelKind::kAvx2
#define IMC_GK_VECTOR 256
#include "core/gain_kernels_impl.h"

namespace imc {
namespace gain_detail {

const GainKernelOps* avx2_ops() noexcept { return &avx2::ops(); }

}  // namespace gain_detail
}  // namespace imc

#else  // AVX2 flags not applied to this TU

namespace imc {
namespace gain_detail {

const GainKernelOps* avx2_ops() noexcept { return nullptr; }

}  // namespace gain_detail
}  // namespace imc

#endif
