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

}  // namespace

/// Runs Alg. 2's two greedies on two lanes with `fork_join`: the ĉ branch
/// on the caller, the ν branch on a free worker of the options' pool
/// (default_pool() when unset, as for the parallel sweeps). The branches
/// share only the const pool, and each stays serial in itself, so the
/// result is the serial one. With no free worker the caller runs ν after
/// ĉ: the serial schedule.
UbgSolution ubg_solve(const RicPool& pool, std::uint32_t k,
                      const GreedyOptions& options) {
  // Validate before forking: a bad k throws here, with no job queued.
  if (k == 0 || k > pool.graph().node_count()) {
    throw std::invalid_argument("ubg: need 1 <= k <= node count");
  }
  ThreadPool& lane = options.pool != nullptr ? *options.pool : default_pool();
  UbgSolution solution;
  fork_join(
      lane, [&] { solution.from_c_hat = greedy_c_hat(pool, k, options); },
      [&] { solution.from_nu = celf_greedy_nu(pool, k, options); });
  pick_better(solution);
  return solution;
}

}  // namespace imc
