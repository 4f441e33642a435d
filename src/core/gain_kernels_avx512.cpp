// AVX-512 gain-kernel variant: 8 samples per iteration with native
// vpopcntq, plus a gather-based marginal_nu batch. Compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq on top of the POPCNT
// baseline (see src/CMakeLists.txt); the dispatcher only selects this
// table after __builtin_cpu_supports confirms all four AVX-512 features.
#include "core/gain_kernels_registry.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__)

#define IMC_GK_NAMESPACE avx512
#define IMC_GK_NAME "avx512"
#define IMC_GK_KIND GainKernelKind::kAvx512
#define IMC_GK_VECTOR 512
#include "core/gain_kernels_impl.h"

namespace imc {
namespace gain_detail {

const GainKernelOps* avx512_ops() noexcept { return &avx512::ops(); }

}  // namespace gain_detail
}  // namespace imc

#else  // AVX-512 flags not applied to this TU

namespace imc {
namespace gain_detail {

const GainKernelOps* avx512_ops() noexcept { return nullptr; }

}  // namespace gain_detail
}  // namespace imc

#endif
