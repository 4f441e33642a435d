#include "core/baselines/imm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/baselines/im_ris.h"
#include "sampling/rr_set.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace imc {

namespace {

/// Fraction of RR sets covered by `seeds`.
double coverage_fraction(const RrPool& pool,
                         const std::vector<NodeId>& seeds) {
  if (pool.size() == 0) return 0.0;
  std::vector<std::uint8_t> hit(pool.size(), 0);
  std::uint64_t covered = 0;
  for (const NodeId v : seeds) {
    for (const std::uint32_t id : pool.sets_containing(v)) {
      if (!hit[id]) {
        hit[id] = 1;
        ++covered;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(pool.size());
}

}  // namespace

ImmResult imm_select(const Graph& graph, std::uint32_t k,
                     const ImmConfig& config) {
  const auto n = static_cast<double>(graph.node_count());
  if (k == 0 || k > graph.node_count()) {
    throw std::invalid_argument("imm_select: need 1 <= k <= |V|");
  }
  const double eps = config.epsilon;
  if (eps <= 0.0 || eps >= 1.0) {
    throw std::invalid_argument("imm_select: epsilon in (0, 1)");
  }
  // Effective ℓ so the union bound over the sampling phase holds
  // (IMM paper, Theorem 2 discussion): ℓ' = ℓ·(1 + log 2 / log n).
  const double ell = config.ell * (1.0 + std::log(2.0) / std::log(n));

  const double log_nk = log_binomial(graph.node_count(), k);
  const double eps_prime = std::sqrt(2.0) * eps;

  ImmResult result;
  RrPool pool(graph);
  Rng rng(config.seed);

  // --- Phase 1: estimate a lower bound LB of OPT --------------------------
  double lower_bound = 1.0;
  const auto max_rounds =
      static_cast<std::uint32_t>(std::max(1.0, std::log2(n) - 1.0));
  const double lambda_prime =
      (2.0 + 2.0 * eps_prime / 3.0) *
      (log_nk + ell * std::log(n) + std::log(std::log2(n))) * n /
      (eps_prime * eps_prime);

  bool certified = false;
  for (std::uint32_t i = 1; i <= max_rounds; ++i) {
    const double x = n / std::pow(2.0, static_cast<double>(i));
    const auto theta_i = static_cast<std::uint64_t>(
        std::min(static_cast<double>(config.max_rr_sets),
                 std::ceil(lambda_prime / x)));
    if (pool.size() < theta_i) pool.grow(theta_i - pool.size(), rng);
    const std::vector<NodeId> greedy_seeds = rr_greedy_max_coverage(pool, k);
    const double fraction = coverage_fraction(pool, greedy_seeds);
    if (n * fraction >= (1.0 + eps_prime) * x) {
      lower_bound = n * fraction / (1.0 + eps_prime);
      certified = true;
      break;
    }
    if (pool.size() >= config.max_rr_sets) break;
  }
  if (!certified) lower_bound = std::max(1.0, static_cast<double>(k));
  result.opt_lower_bound = lower_bound;

  // --- Phase 2: final sample count θ = λ* / LB -----------------------------
  const double alpha = std::sqrt(ell * std::log(n) + std::log(2.0));
  const double beta = std::sqrt((1.0 - 1.0 / 2.718281828459045) *
                                (log_nk + ell * std::log(n) + std::log(2.0)));
  const double lambda_star =
      2.0 * n *
      ((1.0 - 1.0 / 2.718281828459045) * alpha + beta) *
      ((1.0 - 1.0 / 2.718281828459045) * alpha + beta) / (eps * eps);
  const auto theta = static_cast<std::uint64_t>(
      std::min(static_cast<double>(config.max_rr_sets),
               std::ceil(lambda_star / lower_bound)));
  if (pool.size() < theta) pool.grow(theta - pool.size(), rng);

  result.seeds = rr_greedy_max_coverage(pool, k);
  result.estimated_spread = pool.estimate_spread(result.seeds);
  result.rr_sets_used = pool.size();
  return result;
}

}  // namespace imc
