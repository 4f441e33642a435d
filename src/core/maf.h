// Most Appearance First (paper Alg. 3).
//
// S_1: walk communities in descending order of how often they are the
// SOURCE of a sample in R; for each, claim h_C random members until the k
// seats are filled. S_2: the k nodes that appear in (touch) the most
// samples. Return the better of the two under ĉ_R. Theorem 3:
// ĉ_R(S) >= (1/r)·⌊k/h⌋·ĉ_R(OPT) (driven by S_1; S_2 carries no guarantee
// but often wins in practice — both facts are covered by tests).
#pragma once

#include "core/greedy.h"
#include "core/maxr_solver.h"
#include "util/rng.h"

namespace imc {

struct MafSolution : MaxrSolution {
  std::vector<NodeId> s1;  // community-frequency seeds
  std::vector<NodeId> s2;  // node-appearance seeds
  bool chose_s1 = false;
};

/// `seed` drives the random member picks inside communities (line 5).
/// MAF has no marginal-gain sweep; `options.parallel` only overlaps the
/// two independent ĉ_R evaluations of line 8 (selection is unaffected).
[[nodiscard]] MafSolution maf_solve(const RicPool& pool, std::uint32_t k,
                                    std::uint64_t seed = 1234,
                                    const GreedyOptions& options = {});

class MafSolver final : public MaxrSolver {
 public:
  explicit MafSolver(std::uint64_t seed = 1234,
                     const GreedyOptions& options = {})
      : seed_(seed), options_(options) {}
  [[nodiscard]] std::string name() const override { return "MAF"; }
  /// Theorem 3: α = (1/r)·⌊k/h⌋ (clamped into (0, 1]).
  [[nodiscard]] double alpha(const RicPool& pool,
                             std::uint32_t k) const override;
  [[nodiscard]] MaxrSolution solve(const RicPool& pool,
                                   std::uint32_t k) const override {
    return maf_solve(pool, k, seed_, options_);
  }

 private:
  std::uint64_t seed_;
  GreedyOptions options_;
};

}  // namespace imc
