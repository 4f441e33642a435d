#include "estimation/concentration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/mathx.h"

namespace imc {

namespace {

void check_eps_delta(double eps, double delta, const char* where) {
  if (eps <= 0.0 || eps >= 1.0 || delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument(std::string(where) +
                                ": eps and delta must be in (0, 1)");
  }
}

}  // namespace

double lemma6_upper_tail(double samples, double eps, double b,
                         double c_of_s) {
  if (b <= 0.0 || c_of_s <= 0.0) return 1.0;
  return std::exp(-samples * eps * eps * c_of_s / (3.0 * b));
}

double lemma6_lower_tail(double samples, double eps, double b,
                         double c_of_s) {
  if (b <= 0.0 || c_of_s <= 0.0) return 1.0;
  return std::exp(-samples * eps * eps * c_of_s / (2.0 * b));
}

double corollary1_samples(double b, double c_opt_lower, double eps1,
                          double delta1) {
  check_eps_delta(eps1, delta1, "corollary1_samples");
  if (b <= 0.0 || c_opt_lower <= 0.0) {
    throw std::invalid_argument("corollary1_samples: b, c(S*) must be > 0");
  }
  return 2.0 * b * std::log(1.0 / delta1) / (eps1 * eps1 * c_opt_lower);
}

double corollary2_samples(std::uint64_t n, std::uint32_t k, double b,
                          double c_opt_lower, double alpha, double eps2,
                          double delta2) {
  check_eps_delta(eps2, delta2, "corollary2_samples");
  if (b <= 0.0 || c_opt_lower <= 0.0 || alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument(
        "corollary2_samples: b, c(S*) > 0 and alpha in (0, 1] required");
  }
  const double log_choose = log_binomial(n, k);
  return 3.0 * b * (log_choose + std::log(1.0 / delta2)) /
         (alpha * alpha * eps2 * eps2 * c_opt_lower);
}

std::uint64_t psi_sample_cap(std::uint64_t n, std::uint32_t k, double b,
                             double beta, std::uint32_t h, double alpha,
                             const ApproxParams& params) {
  if (k == 0 || h == 0) {
    throw std::invalid_argument("psi_sample_cap: k and h must be >= 1");
  }
  // c(S*) >= β·k/h (paper §V-A): with k seeds we can fully pay the
  // threshold of at least floor(k/h) communities, each worth >= β.
  const double c_opt_lower =
      beta * static_cast<double>(k) / static_cast<double>(h);
  const double bound =
      std::max(corollary1_samples(b, c_opt_lower, params.eps1(),
                                  params.delta1()),
               corollary2_samples(n, k, b, c_opt_lower, alpha, params.eps2(),
                                  params.delta2()));
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max() / 2);
  if (!(bound < kMax)) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(std::ceil(bound));
}

double ssa_lambda(const ApproxParams& params) {
  const double e1 = params.ssa_eps1();
  const double e2 = params.ssa_eps2();
  const double e3 = params.ssa_eps3();
  return (1.0 + e1) * (1.0 + e2) * (3.0 / (e3 * e3)) *
         std::log(3.0 / (2.0 * params.delta));
}

double ssa_stage_delta(const ApproxParams& params, double psi,
                       double lambda) {
  const double stages =
      std::max(1.0, std::ceil(std::log2(std::max(1.0, psi / lambda))));
  return params.delta / (3.0 * stages);
}

std::uint64_t ssa_estimate_max_samples(const ApproxParams& params,
                                       std::uint64_t pool_size) {
  const double e2 = params.ssa_eps2();
  const double e3 = params.ssa_eps3();
  return std::max<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(pool_size) * (1.0 + e2) /
                    (1.0 - e2) * (e3 * e3) / (e2 * e2))),
      1000);
}

double dagum_lambda_prime(double eps_prime, double delta_prime) {
  check_eps_delta(eps_prime, delta_prime, "dagum_lambda_prime");
  constexpr double kE = 2.718281828459045;
  return 1.0 + 4.0 * (kE - 2.0) * std::log(2.0 / delta_prime) *
                   (1.0 + eps_prime) / (eps_prime * eps_prime);
}

}  // namespace imc
