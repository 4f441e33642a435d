// Upper Bound Greedy (paper Alg. 2) — the Sandwich Approximation solver.
//
// Runs greedy twice: once on the non-submodular objective ĉ_R, once on its
// tight submodular upper bound ν_R (Lemma 3; equality when all h_g = 1,
// Lemma 4), and returns whichever seed set scores higher under ĉ_R. The
// data-dependent guarantee is (ĉ_R(S_ν) / ν_R(S_ν)) · (1 − 1/e)
// (Theorem 2); `sandwich_ratio` of the result reports that leading factor.
//
// Two lanes (DESIGN.md §5): the two greedies share only the const pool, so
// `fork_join` runs the ν branch on a free worker of GreedyOptions::pool
// (default_pool() when unset) while the caller runs the ĉ branch. Each
// branch is serial in itself, so results are identical to running them
// back to back. With every worker busy, the caller runs ν after ĉ — the
// serial schedule; it never help-runs unrelated queued work.
#pragma once

#include "core/greedy.h"
#include "core/maxr_solver.h"

namespace imc {

struct UbgSolution : MaxrSolution {
  double sandwich_ratio = 0.0;  // ĉ_R(S_ν) / ν_R(S_ν), the Fig. 8 quantity
  GreedyResult from_c_hat;      // S_c of Alg. 2
  GreedyResult from_nu;         // S_ν of Alg. 2
};

/// `options` drives both greedy sweeps (serial or deterministic-parallel)
/// and names the pool the ν lane runs on. Throws std::invalid_argument for
/// k outside [1, node count] before any job is submitted.
[[nodiscard]] UbgSolution ubg_solve(const RicPool& pool, std::uint32_t k,
                                    const GreedyOptions& options = {});

class UbgSolver final : public MaxrSolver {
 public:
  UbgSolver() = default;
  explicit UbgSolver(const GreedyOptions& options) : options_(options) {}
  [[nodiscard]] std::string name() const override { return "UBG"; }
  /// α of the ν-side analysis: 1 − 1/e (the data-dependent ratio is
  /// reported per solve; see §V-B "How to integrate the MAXR algorithms").
  [[nodiscard]] double alpha(const RicPool&, std::uint32_t) const override {
    return 1.0 - 1.0 / 2.718281828459045;
  }
  [[nodiscard]] MaxrSolution solve(const RicPool& pool,
                                   std::uint32_t k) const override {
    return ubg_solve(pool, k, options_);
  }

 private:
  GreedyOptions options_;
};

}  // namespace imc
