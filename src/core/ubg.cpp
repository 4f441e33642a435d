#include "core/ubg.h"

#include <stdexcept>

#include "util/thread_pool.h"

namespace imc {

namespace {

/// Line 3 of Alg. 2: keep whichever seed set scores higher under ĉ_R.
void pick_better(UbgSolution& solution) {
  solution.sandwich_ratio =
      solution.from_nu.nu > 0.0
          ? solution.from_nu.c_hat / solution.from_nu.nu
          : 0.0;
  if (solution.from_c_hat.c_hat >= solution.from_nu.c_hat) {
    solution.seeds = solution.from_c_hat.seeds;
    solution.c_hat = solution.from_c_hat.c_hat;
  } else {
    solution.seeds = solution.from_nu.seeds;
    solution.c_hat = solution.from_nu.c_hat;
  }
}

/// Runs Alg. 2's two greedies on two lanes with `fork_join`: the ĉ branch
/// on the caller, the ν branch on a free worker of the options' pool
/// (default_pool() when unset, as for the parallel sweeps). The branches
/// share only the const pool, and each stays serial in itself, so the
/// result is the serial one. With no free worker the caller runs ν after
/// ĉ: the serial schedule.
template <typename CHatBranch, typename NuBranch>
UbgSolution two_lanes(const RicPool& pool, std::uint32_t k,
                      const GreedyOptions& options, CHatBranch&& c_hat_branch,
                      NuBranch&& nu_branch) {
  // Validate before forking: a bad k throws here, with no job queued.
  if (k == 0 || k > pool.graph().node_count()) {
    throw std::invalid_argument("ubg: need 1 <= k <= node count");
  }
  ThreadPool& lane = options.pool != nullptr ? *options.pool : default_pool();
  UbgSolution solution;
  fork_join(
      lane, [&] { solution.from_c_hat = c_hat_branch(); },
      [&] { solution.from_nu = nu_branch(); });
  pick_better(solution);
  return solution;
}

}  // namespace

UbgSolution ubg_solve(const RicPool& pool, std::uint32_t k,
                      const GreedyOptions& options) {
  return two_lanes(
      pool, k, options, [&] { return greedy_c_hat(pool, k, options); },
      [&] { return celf_greedy_nu(pool, k, options); });
}

UbgSolution ubg_resume(const RicPool& pool, std::uint32_t k,
                       const GreedyOptions& options, UbgResume& state) {
  return two_lanes(
      pool, k, options,
      [&] { return greedy_c_hat_resumable(pool, k, options, state.c_hat); },
      [&] { return celf_greedy_nu_resumable(pool, k, options, state.nu); });
}

}  // namespace imc
