// Scalar gain-kernel variant: compiled with the project's baseline flags
// only (hardware popcount on x86-64), so it is the reference
// implementation every SIMD variant is pinned against. See
// gain_kernels_impl.h for the shared code.
#include "core/gain_kernels_registry.h"

#define IMC_GK_NAMESPACE scalar
#define IMC_GK_NAME "scalar"
#define IMC_GK_KIND GainKernelKind::kScalar
#define IMC_GK_VECTOR 0
#include "core/gain_kernels_impl.h"

namespace imc {
namespace gain_detail {

const GainKernelOps* scalar_ops() noexcept { return &scalar::ops(); }

}  // namespace gain_detail
}  // namespace imc
