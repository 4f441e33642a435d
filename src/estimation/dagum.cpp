#include "estimation/dagum.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "estimation/concentration.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imc {

DagumEstimate dagum_estimate_benefit(const Graph& graph,
                                     const CommunitySet& communities,
                                     std::span<const NodeId> seeds,
                                     const DagumOptions& options) {
  return dagum_estimate_benefit(graph, communities, seeds, options,
                                ExecutionContext{});
}

DagumEstimate dagum_estimate_benefit(const Graph& graph,
                                     const CommunitySet& communities,
                                     std::span<const NodeId> seeds,
                                     const DagumOptions& options,
                                     const ExecutionContext& context,
                                     ThreadPool* workers,
                                     EstimateTail* tail) {
  DagumEstimate result;
  if (communities.empty()) return result;
  if (tail != nullptr &&
      (&tail->pool().graph() != &graph ||
       &tail->pool().communities() != &communities ||
       tail->pool().model() != options.model ||
       tail->seed() != options.seed || options.first < tail->begin() ||
       options.first > tail->kept_end())) {
    throw std::invalid_argument(
        "dagum_estimate_benefit: the estimate tail belongs to another "
        "graph, community set, model or stream, or does not reach the "
        "first draw");
  }

  const double lambda_prime =
      dagum_lambda_prime(options.eps_prime, options.delta_prime);
  const double b = communities.total_benefit();

  // Dense seed bitmap for O(1) membership tests inside the draws.
  std::vector<std::uint8_t> is_seed(graph.node_count(), 0);
  for (const NodeId v : seeds) is_seed.at(v) = 1;

  // Each round draws `lanes` consecutive blocks, lane l the l-th, each into
  // its own X buffer, either through the tail (with its own fill) or with
  // its own sampler, built on the lane's first draw.
  const unsigned lanes = workers == nullptr ? 1 : workers->size() + 1;
  std::vector<std::unique_ptr<RicSampler>> samplers(lanes);
  std::vector<std::vector<std::uint8_t>> blocks(lanes);
  std::vector<EstimateTail::Fill> fills(tail != nullptr ? lanes : 0);

  std::uint64_t influenced = 0;
  std::uint64_t t = 0;  // draws scanned
  while (t < options.max_samples) {
    const auto draw_block = [&](unsigned lane) {
      const std::uint64_t begin = t + lane * kDagumBlockDraws;
      const std::uint64_t end =
          std::min(options.max_samples, begin + kDagumBlockDraws);
      std::vector<std::uint8_t>& x = blocks[lane];
      x.clear();
      if (begin >= end || (begin > 0 && context.stop_requested())) return;
      const std::uint64_t p_end = options.first + end;
      if (tail != nullptr) {
        tail->serve(options.first + begin, p_end, is_seed, x, fills[lane]);
        return;
      }
      if (samplers[lane] == nullptr) {
        samplers[lane] =
            std::make_unique<RicSampler>(graph, communities, options.model);
      }
      for (std::uint64_t p = options.first + begin; p < p_end; ++p) {
        Rng rng(splitmix_of(options.seed, p));
        // X_g(S) of Alg. 6 (tmp >= h_g), decided without building the
        // sample.
        x.push_back(samplers[lane]->draw_influenced(rng, is_seed) ? 1 : 0);
      }
    };
    if (lanes == 1) {
      draw_block(0);
    } else {
      parallel_for_shards(*workers, lanes, draw_block);
    }
    if (tail != nullptr) tail->commit(fills);
    // Scan in position order: T is the first position where the count
    // reaches Λ', whichever lane drew it.
    for (const std::vector<std::uint8_t>& x : blocks) {
      if (x.empty()) {
        result.reached_deadline = t < options.max_samples;
        break;
      }
      for (const std::uint8_t hit : x) {
        ++t;
        influenced += hit;
        if (static_cast<double>(influenced) >= lambda_prime) {
          result.samples = t;
          result.value = b * lambda_prime / static_cast<double>(t);
          result.converged = true;
          return result;
        }
      }
    }
    if (result.reached_deadline) break;
  }
  // T_max exhausted (or the deadline hit): report the plain unbiased
  // running estimate.
  result.samples = t;
  result.value = t == 0 ? 0.0
                        : b * static_cast<double>(influenced) /
                              static_cast<double>(t);
  return result;
}

}  // namespace imc
