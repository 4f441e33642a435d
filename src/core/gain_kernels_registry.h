// Internal registry contract between the gain-kernel dispatcher
// (gain_kernels.cpp) and the per-variant translation units. Each variant
// TU implements its getter unconditionally: it returns the variant's ops
// table when the TU was compiled with the required ISA flags, and nullptr
// otherwise (non-x86 hosts, or a toolchain where the per-file flags were
// not applied). Runtime __builtin_cpu_supports gating happens in the
// dispatcher on top of this build-time availability check.
#pragma once

#include "core/gain_kernels.h"

namespace imc {
namespace gain_detail {

const GainKernelOps* scalar_ops() noexcept;  // never nullptr
const GainKernelOps* avx2_ops() noexcept;
const GainKernelOps* avx512_ops() noexcept;

}  // namespace gain_detail
}  // namespace imc
