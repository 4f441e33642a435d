// Sample-complexity bounds from the paper §V-A:
//   * Lemma 6 martingale tail bounds on ĉ_R vs c,
//   * Corollaries 1 & 2 minimum |R| values,
//   * Theorem 6 / eq. (22): the hard cap Ψ on the number of RIC samples,
//     using the optimum lower bound c(S*) >= β·k/h,
//   * Λ of Alg. 5 (SSA stop-stage trigger) and Λ' of Alg. 6 (Dagum).
#pragma once

#include <cstdint>

namespace imc {

/// ε/δ split used by IMCAF. Ψ (eq. 22) takes paper §VI-A's halves:
/// ε1 = ε2 = ε/2 and δ1 = δ2 = δ/2. The SSA loop of Alg. 5 splits ε by
/// cost instead of §VI-A's ε/4 each: ε1 = ε/5, ε2 = 3ε/8, and ε3 takes
/// the rest of line 3's budget ε >= ε1 + ε2 + ε3 + ε1·ε2. Theorem 7's
/// proof needs only (1+ε1)(1+ε2)(1−ε) <= 1−ε3, which line 3 implies
/// (DESIGN.md §15); the split is chosen in EXPERIMENTS.md, deviation 8.
struct ApproxParams {
  double epsilon = 0.2;
  double delta = 0.2;

  [[nodiscard]] double eps1() const noexcept { return epsilon / 2; }
  [[nodiscard]] double eps2() const noexcept { return epsilon / 2; }
  [[nodiscard]] double delta1() const noexcept { return delta / 2; }
  [[nodiscard]] double delta2() const noexcept { return delta / 2; }

  /// Line 10's over-estimate tolerance.
  [[nodiscard]] double ssa_eps1() const noexcept { return epsilon / 5; }
  /// The Estimate's ε′ (Alg. 6).
  [[nodiscard]] double ssa_eps2() const noexcept { return epsilon * 3 / 8; }
  /// The pool's lower-tail slack on the optimum, behind Λ (line 4).
  [[nodiscard]] double ssa_eps3() const noexcept {
    const double e1 = ssa_eps1();
    const double e2 = ssa_eps2();
    return epsilon - e1 - e2 - e1 * e2;
  }
};

/// Lemma 6 upper-tail bound: Pr[ĉ(S) > (1+ε)·c(S)] <= exp(−R ε² c(S) / (3b)).
[[nodiscard]] double lemma6_upper_tail(double samples, double eps, double b,
                                       double c_of_s);

/// Lemma 6 lower-tail bound: Pr[ĉ(S) < (1−ε)·c(S)] <= exp(−R ε² c(S) / (2b)).
[[nodiscard]] double lemma6_lower_tail(double samples, double eps, double b,
                                       double c_of_s);

/// Corollary 1: |R| >= 2 b ln(1/δ1) / (ε1² c(S*)).
[[nodiscard]] double corollary1_samples(double b, double c_opt_lower,
                                        double eps1, double delta1);

/// Corollary 2: |R| >= 3 b ln(C(n,k)/δ2) / (α² ε2² c(S*)).
[[nodiscard]] double corollary2_samples(std::uint64_t n, std::uint32_t k,
                                        double b, double c_opt_lower,
                                        double alpha, double eps2,
                                        double delta2);

/// Ψ of eq. (22): the max of the two corollary bounds with the optimum
/// replaced by its lower bound c(S*) >= β·k/h (β = min benefit, h = max
/// threshold). Requires k >= 1; saturates instead of overflowing.
[[nodiscard]] std::uint64_t psi_sample_cap(std::uint64_t n, std::uint32_t k,
                                           double b, double beta,
                                           std::uint32_t h, double alpha,
                                           const ApproxParams& params);

/// Λ of Alg. 5 line 4: (1+ε1)(1+ε2) · (3/ε3²) · ln(3/(2δ)); the minimum
/// number of INFLUENCED samples required before a stop-stage check fires.
[[nodiscard]] double ssa_lambda(const ApproxParams& params);

/// δ′ of a stop stage's Estimate: δ/(3·L) with L = max(1, ⌈log2(Ψ/Λ)⌉),
/// the number of stages whose pool lies below Ψ, so the Estimates of all
/// of them share δ/3 (DESIGN.md §15).
[[nodiscard]] double ssa_stage_delta(const ApproxParams& params, double psi,
                                     double lambda);

/// T_max of a stop stage's Estimate on a pool of `pool_size` samples:
/// |R|·(1+ε2)/(1−ε2)·ε3²/ε2², at least 1000. An Estimate that needs more
/// draws rejects the stage; the cap plays no part in the guarantee.
[[nodiscard]] std::uint64_t ssa_estimate_max_samples(
    const ApproxParams& params, std::uint64_t pool_size);

/// Λ' of Alg. 6 (Dagum stopping rule):
/// 1 + 4(e−2)·ln(2/δ')·(1+ε')/ε'².
[[nodiscard]] double dagum_lambda_prime(double eps_prime, double delta_prime);

}  // namespace imc
