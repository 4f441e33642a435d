// Runtime dispatch for the gain-kernel variants: an explicit atomic
// ops-table pointer guarded by __builtin_cpu_supports. It decides only the
// SIMD width (hardware popcount is in the build baseline), works the same
// in sanitizer builds, and tests can flip the active kernel with
// set_gain_kernel().
#include "core/gain_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/gain_kernels_registry.h"

namespace imc {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
// __builtin_cpu_supports requires literal feature names.
bool host_supports(GainKernelKind kind) noexcept {
  switch (kind) {
    case GainKernelKind::kScalar:
      return true;
    case GainKernelKind::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case GainKernelKind::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
  return false;
}
#else
bool host_supports(GainKernelKind kind) noexcept {
  return kind == GainKernelKind::kScalar;
}
#endif

/// Build-time availability: the variant TU compiled its implementation.
const GainKernelOps* built_ops(GainKernelKind kind) noexcept {
  switch (kind) {
    case GainKernelKind::kScalar:
      return gain_detail::scalar_ops();
    case GainKernelKind::kAvx2:
      return gain_detail::avx2_ops();
    case GainKernelKind::kAvx512:
      return gain_detail::avx512_ops();
  }
  return nullptr;
}

/// Every variant the library knows, in ascending strength.
constexpr GainKernelKind kAllKinds[] = {
    GainKernelKind::kScalar, GainKernelKind::kAvx2, GainKernelKind::kAvx512};

/// Strongest supported variant — scalar is always built and supported.
const GainKernelOps* best_supported() noexcept {
  const GainKernelOps* best = gain_detail::scalar_ops();
  for (const GainKernelKind kind : kAllKinds) {
    if (gain_kernel_supported(kind)) best = built_ops(kind);
  }
  return best;
}

/// First-use resolution: honor IMC_KERNEL when it names a supported
/// variant, otherwise warn once on stderr and fall back to the best one.
const GainKernelOps* resolve_initial() noexcept {
  const char* env = std::getenv("IMC_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    const std::optional<GainKernelKind> kind = parse_gain_kernel(env);
    if (kind.has_value() && gain_kernel_supported(*kind)) {
      return built_ops(*kind);
    }
    std::fprintf(stderr,
                 "imc: IMC_KERNEL=%s is %s on this host; using %s\n", env,
                 kind.has_value() ? "not supported" : "not recognized",
                 best_supported()->name);
  }
  return best_supported();
}

std::atomic<const GainKernelOps*> g_active{nullptr};

}  // namespace

bool gain_kernel_supported(GainKernelKind kind) noexcept {
  return built_ops(kind) != nullptr && host_supports(kind);
}

std::vector<GainKernelKind> supported_gain_kernels() {
  std::vector<GainKernelKind> kinds;
  for (const GainKernelKind kind : kAllKinds) {
    if (gain_kernel_supported(kind)) kinds.push_back(kind);
  }
  return kinds;
}

const GainKernelOps& gain_kernel_ops(GainKernelKind kind) {
  if (!gain_kernel_supported(kind)) {
    throw std::invalid_argument(
        std::string("gain kernel not supported on this host: ") +
        gain_kernel_name(kind));
  }
  return *built_ops(kind);
}

const GainKernelOps& active_gain_kernel_ops() noexcept {
  const GainKernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Resolved once (thread-safe static), so concurrent first uses agree
    // and the IMC_KERNEL note prints once.
    static const GainKernelOps* const initial = resolve_initial();
    ops = initial;
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

GainKernelKind active_gain_kernel() noexcept {
  return active_gain_kernel_ops().kind;
}

bool set_gain_kernel(GainKernelKind kind) noexcept {
  if (!gain_kernel_supported(kind)) return false;
  g_active.store(built_ops(kind), std::memory_order_release);
  return true;
}

const char* gain_kernel_name(GainKernelKind kind) noexcept {
  switch (kind) {
    case GainKernelKind::kScalar:
      return "scalar";
    case GainKernelKind::kAvx2:
      return "avx2";
    case GainKernelKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<GainKernelKind> parse_gain_kernel(
    std::string_view name) noexcept {
  if (name == "scalar") return GainKernelKind::kScalar;
  if (name == "avx2") return GainKernelKind::kAvx2;
  if (name == "avx512") return GainKernelKind::kAvx512;
  return std::nullopt;
}

}  // namespace imc
