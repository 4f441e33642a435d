#include "estimation/concentration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace imc {
namespace {

TEST(ApproxParams, PaperSplits) {
  ApproxParams params;  // defaults: ε = δ = 0.2
  // Ψ keeps paper §VI-A's halves.
  EXPECT_DOUBLE_EQ(params.eps1(), 0.1);
  EXPECT_DOUBLE_EQ(params.eps2(), 0.1);
  EXPECT_DOUBLE_EQ(params.delta1(), 0.1);
  // The SSA loop's cost-chosen split: ε/5, 3ε/8 and line 3's remainder.
  EXPECT_DOUBLE_EQ(params.ssa_eps1(), 0.04);
  EXPECT_DOUBLE_EQ(params.ssa_eps2(), 0.075);
  EXPECT_NEAR(params.ssa_eps3(), 0.2 - 0.04 - 0.075 - 0.04 * 0.075, 1e-15);
}

TEST(ApproxParams, SsaSplitMeetsLineThreeAndTheoremSeven) {
  // For every ε in (0, 1): Alg. 5 line 3, ε >= ε1 + ε2 + ε3 + ε1·ε2, and
  // the constraint Theorem 7's proof needs (DESIGN.md §15),
  // (1+ε1)(1+ε2)(1−ε) <= 1−ε3, with every part positive and ε2 < 1 so
  // that the Estimate's (ε′, δ′) rule applies.
  for (int i = 1; i < 1000; ++i) {
    ApproxParams params;
    params.epsilon = i / 1000.0;
    const double eps = params.epsilon;
    const double e1 = params.ssa_eps1();
    const double e2 = params.ssa_eps2();
    const double e3 = params.ssa_eps3();
    SCOPED_TRACE("eps=" + std::to_string(eps));
    EXPECT_GT(e1, 0.0);
    EXPECT_GT(e2, 0.0);
    EXPECT_LT(e2, 1.0);
    EXPECT_GT(e3, 0.0);
    // ε3 is line 3's remainder, so line 3 holds with equality up to the
    // rounding of the four-term sum.
    EXPECT_LE(e1 + e2 + e3 + e1 * e2, eps * (1.0 + 1e-14));
    EXPECT_LE((1.0 + e1) * (1.0 + e2) * (1.0 - eps), 1.0 - e3);
  }
}

TEST(SsaStageDelta, SharesAThirdOverTheStagesBelowPsi) {
  ApproxParams params;  // δ = 0.2
  // Λ·2^(t−1) < Ψ for t = 1..⌈log2(Ψ/Λ)⌉: three stages at Ψ/Λ = 5.
  EXPECT_DOUBLE_EQ(ssa_stage_delta(params, 500.0, 100.0), 0.2 / 9.0);
  EXPECT_DOUBLE_EQ(ssa_stage_delta(params, 400.0, 100.0), 0.2 / 6.0);
  // A pool that starts at or beyond Ψ leaves one share.
  EXPECT_DOUBLE_EQ(ssa_stage_delta(params, 150.0, 100.0), 0.2 / 3.0);
  EXPECT_DOUBLE_EQ(ssa_stage_delta(params, 50.0, 100.0), 0.2 / 3.0);
}

TEST(SsaEstimateMaxSamples, MatchesFormulaAndFloor) {
  ApproxParams params;
  const double e2 = params.ssa_eps2();
  const double e3 = params.ssa_eps3();
  const double want =
      100000.0 * (1.0 + e2) / (1.0 - e2) * (e3 * e3) / (e2 * e2);
  EXPECT_EQ(ssa_estimate_max_samples(params, 100000),
            static_cast<std::uint64_t>(std::ceil(want)));
  EXPECT_EQ(ssa_estimate_max_samples(params, 10), 1000U);
}

TEST(Lemma6, TailsShrinkWithSamples) {
  const double few = lemma6_upper_tail(100, 0.1, 10.0, 2.0);
  const double many = lemma6_upper_tail(10000, 0.1, 10.0, 2.0);
  EXPECT_LT(many, few);
  EXPECT_LE(many, 1.0);
  EXPECT_GE(many, 0.0);
}

TEST(Lemma6, LowerTailTighterThanUpper) {
  // exp(-Rε²c/2b) <= exp(-Rε²c/3b).
  EXPECT_LE(lemma6_lower_tail(1000, 0.1, 10.0, 2.0),
            lemma6_upper_tail(1000, 0.1, 10.0, 2.0));
}

TEST(Lemma6, DegenerateInputsSaturate) {
  EXPECT_DOUBLE_EQ(lemma6_upper_tail(1000, 0.1, 0.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(lemma6_lower_tail(1000, 0.1, 10.0, 0.0), 1.0);
}

TEST(Corollary1, ExactFormula) {
  // 2·b·ln(1/δ)/(ε²·c*) with b=10, c*=2, ε=0.1, δ=0.1.
  const double expected = 2.0 * 10.0 * std::log(10.0) / (0.01 * 2.0);
  EXPECT_NEAR(corollary1_samples(10.0, 2.0, 0.1, 0.1), expected, 1e-6);
}

TEST(Corollary1, RejectsBadArguments) {
  EXPECT_THROW((void)corollary1_samples(0.0, 1.0, 0.1, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)corollary1_samples(1.0, 1.0, 0.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)corollary1_samples(1.0, 1.0, 0.1, 1.5),
               std::invalid_argument);
}

TEST(Corollary2, GrowsWithNAndK) {
  const double base = corollary2_samples(100, 5, 10.0, 2.0, 0.5, 0.1, 0.1);
  EXPECT_GT(corollary2_samples(10000, 5, 10.0, 2.0, 0.5, 0.1, 0.1), base);
  EXPECT_GT(corollary2_samples(100, 20, 10.0, 2.0, 0.5, 0.1, 0.1), base);
}

TEST(Corollary2, ShrinksWithAlpha) {
  const double weak = corollary2_samples(100, 5, 10.0, 2.0, 0.1, 0.1, 0.1);
  const double strong = corollary2_samples(100, 5, 10.0, 2.0, 0.9, 0.1, 0.1);
  EXPECT_GT(weak, strong);
}

TEST(Psi, CombinesBothCorollaries) {
  ApproxParams params;
  const std::uint64_t psi = psi_sample_cap(1000, 10, 100.0, 1.0, 4, 0.5,
                                           params);
  const double c_lower = 1.0 * 10.0 / 4.0;
  const double c1 = corollary1_samples(100.0, c_lower, params.eps1(),
                                       params.delta1());
  const double c2 = corollary2_samples(1000, 10, 100.0, c_lower, 0.5,
                                       params.eps2(), params.delta2());
  EXPECT_EQ(psi, static_cast<std::uint64_t>(std::ceil(std::max(c1, c2))));
}

TEST(Psi, RejectsZeroKOrH) {
  ApproxParams params;
  EXPECT_THROW((void)psi_sample_cap(10, 0, 1.0, 1.0, 1, 0.5, params),
               std::invalid_argument);
  EXPECT_THROW((void)psi_sample_cap(10, 1, 1.0, 1.0, 0, 0.5, params),
               std::invalid_argument);
}

TEST(Psi, SaturatesInsteadOfOverflowing) {
  ApproxParams params;
  // Absurdly weak alpha drives the bound sky-high; must not overflow.
  const std::uint64_t psi =
      psi_sample_cap(1'000'000, 100, 1e9, 1e-9, 64, 1e-12, params);
  EXPECT_GT(psi, 0U);
}

TEST(SsaLambda, MatchesFormula) {
  ApproxParams params;  // ε1 = 0.04, ε2 = 0.075, ε3 = 0.082, δ = 0.2
  const double expected = (1.04) * (1.075) * (3.0 / (0.082 * 0.082)) *
                          std::log(3.0 / 0.4);
  EXPECT_NEAR(ssa_lambda(params), expected, 1e-9);
}

TEST(DagumLambdaPrime, MatchesFormula) {
  const double expected =
      1.0 + 4.0 * (std::exp(1.0) - 2.0) * std::log(2.0 / 0.1) * 1.1 / 0.01;
  EXPECT_NEAR(dagum_lambda_prime(0.1, 0.1), expected, 1e-9);
  EXPECT_THROW((void)dagum_lambda_prime(0.0, 0.1), std::invalid_argument);
}

TEST(DagumLambdaPrime, TighterEpsNeedsMoreSamples) {
  EXPECT_GT(dagum_lambda_prime(0.01, 0.1), dagum_lambda_prime(0.1, 0.1));
  EXPECT_GT(dagum_lambda_prime(0.1, 0.01), dagum_lambda_prime(0.1, 0.1));
}

}  // namespace
}  // namespace imc
