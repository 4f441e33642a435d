// Strategy interface for MAXR solvers (paper §IV), pluggable into the
// IMCAF framework (Alg. 5): UBG, MAF, BT, MB — and any future algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.h"
#include "sampling/ric_pool.h"

namespace imc {

struct MaxrSolution {
  std::vector<NodeId> seeds;
  double c_hat = 0.0;  // ĉ_R(seeds) on the pool it was solved against
};

class MaxrSolver {
 public:
  virtual ~MaxrSolver() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Approximation guarantee α for the MAXR problem, used by the Ψ sample
  /// cap (eq. 22). May depend on k and instance parameters (r, h).
  [[nodiscard]] virtual double alpha(const RicPool& pool,
                                     std::uint32_t k) const = 0;

  [[nodiscard]] virtual MaxrSolution solve(const RicPool& pool,
                                           std::uint32_t k) const = 0;
};

enum class MaxrAlgorithm { kUbg, kMaf, kBt, kMb };

/// Cross-cutting solver knobs the factory threads into the per-algorithm
/// configs (UBG's greedy sweeps, MAF's evaluation overlap). Algorithms
/// without a parallelizable selection step (BT, MB) ignore `parallel`.
struct MaxrSolverOptions {
  /// Deterministic-parallel marginal-gain sweeps where supported; seed
  /// sets are bit-identical to the serial path for any thread count.
  bool parallel = false;
  /// MAF's in-community member picks (Alg. 3 line 5).
  std::uint64_t maf_seed = 1234;
};

/// Factory with default configurations (see the per-algorithm headers for
/// tunable variants).
[[nodiscard]] std::unique_ptr<MaxrSolver> make_maxr_solver(
    MaxrAlgorithm algorithm, const MaxrSolverOptions& options = {});

[[nodiscard]] std::string to_string(MaxrAlgorithm algorithm);

}  // namespace imc
