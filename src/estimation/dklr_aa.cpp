#include "estimation/dklr_aa.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sampling/ric_sample.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace imc {

namespace {

constexpr double kE = 2.718281828459045;

struct Budget {
  std::uint64_t remaining;
  bool exhausted = false;

  bool take() noexcept {
    if (remaining == 0) {
      exhausted = true;
      return false;
    }
    --remaining;
    return true;
  }
};

/// Phase 1: DKLR stopping rule for mean estimation with (eps, delta).
/// Returns 0 mean if the budget dies first.
double stopping_rule(const std::function<double()>& draw, double eps,
                     double delta, Budget& budget, std::uint64_t& used) {
  const double upsilon =
      4.0 * (kE - 2.0) * std::log(2.0 / delta) / (eps * eps);
  const double upsilon1 = 1.0 + (1.0 + eps) * upsilon;
  double sum = 0.0;
  std::uint64_t t = 0;
  while (sum < upsilon1) {
    if (!budget.take()) return 0.0;
    sum += draw();
    ++t;
  }
  used += t;
  return upsilon1 / static_cast<double>(t);
}

}  // namespace

DklrAaEstimate dklr_aa_estimate(const std::function<double()>& draw,
                                const DklrAaOptions& options) {
  const double eps = options.epsilon;
  const double delta = options.delta;
  if (eps <= 0.0 || eps >= 1.0 || delta <= 0.0 || delta >= 1.0) {
    throw std::invalid_argument("dklr_aa_estimate: eps, delta in (0, 1)");
  }

  DklrAaEstimate result;
  Budget budget{options.max_samples};
  std::uint64_t used = 0;

  // --- Phase 1: rough mean with loosened accuracy min(1/2, sqrt(eps)).
  const double eps1 = std::min(0.5, std::sqrt(eps));
  result.mu_hat = stopping_rule(draw, eps1, delta / 3.0, budget, used);
  if (budget.exhausted || result.mu_hat <= 0.0) {
    result.samples = options.max_samples - budget.remaining;
    return result;  // converged stays false
  }

  // --- Phase 2: variance proxy from paired differences.
  const double upsilon =
      4.0 * (kE - 2.0) * std::log(2.0 / (delta / 3.0)) / (eps * eps);
  const double upsilon2 = 2.0 * (1.0 + std::sqrt(eps)) *
                          (1.0 + 2.0 * std::sqrt(eps)) *
                          (1.0 + std::log(1.5) / std::log(2.0 / delta)) *
                          upsilon;
  const auto pairs = static_cast<std::uint64_t>(
      std::ceil(std::max(1.0, upsilon2 * eps / result.mu_hat)));
  KahanSum spread;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    if (!budget.take() || !budget.take()) {
      result.samples = options.max_samples - budget.remaining;
      return result;
    }
    const double a = draw();
    const double b = draw();
    spread.add((a - b) * (a - b) / 2.0);
    used += 2;
  }
  result.rho_hat = std::max(spread.value() / static_cast<double>(pairs),
                            eps * result.mu_hat);

  // --- Phase 3: final mean with the variance-tuned sample count.
  const auto final_count = static_cast<std::uint64_t>(std::ceil(
      std::max(1.0, upsilon2 * result.rho_hat /
                        (result.mu_hat * result.mu_hat))));
  KahanSum total;
  for (std::uint64_t i = 0; i < final_count; ++i) {
    if (!budget.take()) {
      result.samples = options.max_samples - budget.remaining;
      return result;
    }
    total.add(draw());
    ++used;
  }
  result.value = total.value() / static_cast<double>(final_count);
  result.samples = used;
  result.converged = true;
  return result;
}

DklrAaEstimate dklr_aa_estimate_benefit(const Graph& graph,
                                        const CommunitySet& communities,
                                        std::span<const NodeId> seeds,
                                        const DklrAaOptions& options) {
  DklrAaEstimate empty;
  if (communities.empty()) return empty;

  std::vector<std::uint8_t> is_seed(graph.node_count(), 0);
  for (const NodeId v : seeds) is_seed.at(v) = 1;

  RicSampler sampler(graph, communities, options.model);
  Rng rng(options.seed);
  const auto draw = [&]() -> double {
    return sampler.draw_influenced(rng, is_seed) ? 1.0 : 0.0;
  };

  DklrAaEstimate result = dklr_aa_estimate(draw, options);
  const double b = communities.total_benefit();
  result.value *= b;  // Lemma 1 scaling: c(S) = b·E[X]
  return result;
}

}  // namespace imc
