#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "estimation/concentration.h"
#include "estimation/dagum.h"
#include "sampling/pool_snapshot.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace imc {

namespace {

const CommunitySet& require_communities(const CommunitySet& communities) {
  if (communities.empty()) {
    throw std::invalid_argument("imcaf_solve: no communities");
  }
  return communities;
}

}  // namespace

ImcEngine::ImcEngine(const Graph& graph, const CommunitySet& communities,
                     ImcafConfig config, ExecutionContext context)
    : graph_(&graph),
      communities_(&require_communities(communities)),
      config_(config),
      context_(context),
      pool_(graph, communities, config_.model) {}

void ImcEngine::attach_pool(const std::string& path) {
  RicPool loaded = attach_ric_pool_snapshot(path, *graph_, *communities_);
  if (loaded.model() != config_.model) {
    throw std::invalid_argument(
        "ImcEngine::attach_pool: pool file was sampled under a different "
        "diffusion model than the engine is configured for");
  }
  pool_ = std::move(loaded);
  log(LogLevel::kDebug) << "IMCAF attach: |R|=" << pool_.size();
}

RicPool::RepairStats ImcEngine::apply_delta(Graph& graph,
                                            CommunitySet& communities,
                                            const GraphDelta& delta) {
  if (&graph != graph_ || &communities != communities_) {
    throw std::invalid_argument(
        "ImcEngine::apply_delta: graph/communities must be the exact "
        "objects this engine was constructed over");
  }
  const DeltaEffects effects = imc::apply_delta(graph, communities, delta);
  const Stopwatch watch;
  const RicPool::RepairStats stats = pool_.invalidate_and_repair(
      effects, config_.seed, config_.parallel_sampling, context_.workers);
  log(LogLevel::kDebug) << "IMCAF delta: repaired " << stats.repaired << "/"
                        << stats.total << " samples in "
                        << watch.elapsed_seconds() << " s, |R|="
                        << pool_.size();
  return stats;
}

double ImcEngine::timed_grow(std::uint64_t count) {
  const Stopwatch grow_watch;
  pool_.grow(count, config_.seed, config_.parallel_sampling,
             context_.workers);
  const double seconds = grow_watch.elapsed_seconds();
  log(LogLevel::kDebug) << "IMCAF grow: " << count << " samples in "
                        << seconds << " s ("
                        << (seconds > 0.0
                                ? static_cast<double>(count) / seconds
                                : 0.0)
                        << " samples/s), |R|=" << pool_.size();
  return seconds;
}

ImcafResult ImcEngine::solve(std::uint32_t k, const MaxrSolver& solver) {
  if (k == 0 || k > graph_->node_count()) {
    throw std::invalid_argument("imcaf_solve: need 1 <= k <= |V|");
  }

  const Stopwatch watch;
  ImcafResult result;
  const ApproxParams& params = config_.params;

  const double alpha = solver.alpha(pool_, k);
  const double b = communities_->total_benefit();
  const double beta = communities_->min_benefit();
  const std::uint32_t h = communities_->max_threshold();

  result.lambda = ssa_lambda(params);
  result.psi = static_cast<double>(
      psi_sample_cap(graph_->node_count(), k, b, beta, h, alpha, params));

  std::uint64_t cap = static_cast<std::uint64_t>(
      std::min(result.psi, 1e18));
  if (config_.max_samples > 0) cap = std::min(cap, config_.max_samples);

  // The per-stage Estimates share δ/3 over the stages below Ψ.
  const double delta_stage =
      ssa_stage_delta(params, result.psi, result.lambda);

  // Stage 1 grows the pool up to Λ (capped). A shared pool a previous
  // query already grew past that point is reused as-is — the per-sample
  // RNG substreams make any grow partitioning produce the identical pool,
  // so a fresh engine reproduces the single-shot growth bit-for-bit.
  const auto initial = static_cast<std::uint64_t>(
      std::ceil(result.lambda));
  const std::uint64_t first_target = std::min(initial, cap);
  std::uint64_t stage_samples = 0;
  double stage_sampling = 0.0;
  if (pool_.size() < first_target) {
    stage_samples = first_target - pool_.size();
    stage_sampling = timed_grow(stage_samples);
  }

  // The one place a finished stage row is recorded. Every ImcafResult
  // total is folded from the rows here, so the rows always sum to it.
  const auto record_stage = [&](const StageMetrics& metrics) {
    result.sampling_seconds += metrics.sampling_seconds;
    result.samples_generated += metrics.samples_added;
    result.solver_seconds += metrics.solver_seconds;
    result.estimate_seconds += metrics.estimate_seconds;
    context_.record_stage(metrics);
  };

  // Every Estimate (Alg. 6) reads the config seed's RIC positions past the
  // pool it certifies: a stage's draw j is position |R| + j, so S, which
  // depends only on [0, |R|), is independent of its estimate (DESIGN.md
  // §15). `unread` is the first position no estimate of this stage read;
  // the cap/deadline exit estimate starts there. With parallel sampling
  // the draws run on the caller and the sampling workers. A pool at its
  // cap never grows again, so its Estimates go through the pool's
  // estimate tail: a repeated query reads kept samples of the positions an
  // earlier one read, instead of redrawing them.
  ThreadPool* const estimate_workers =
      !config_.parallel_sampling ? nullptr
      : context_.workers != nullptr ? context_.workers
                                    : &default_pool();
  std::uint64_t unread = 0;
  const auto estimate = [&](std::span<const NodeId> seeds,
                            std::uint64_t max_samples,
                            StageMetrics& metrics) {
    DagumOptions dagum;
    dagum.eps_prime = params.ssa_eps2();
    dagum.delta_prime = delta_stage;
    dagum.max_samples = max_samples;
    dagum.seed = config_.seed;
    dagum.first = unread;
    dagum.model = config_.model;
    const Stopwatch estimate_watch;
    EstimateTail tail = pool_.estimate_tail(config_.seed);
    const DagumEstimate drawn = dagum_estimate_benefit(
        *graph_, *communities_, seeds, dagum, context_, estimate_workers,
        pool_.size() >= cap ? &tail : nullptr);
    metrics.estimate_seconds += estimate_watch.elapsed_seconds();
    metrics.estimate_samples += drawn.samples;
    unread += drawn.samples;
    return drawn;
  };

  // The row of the stage in progress. A terminal stage's row is recorded
  // after the loop, so it also carries the cap/deadline-exit estimate.
  MaxrSolution solution;
  StageMetrics metrics;
  for (;;) {
    ++result.stop_stages;
    metrics = StageMetrics{};
    metrics.stage = result.stop_stages;
    metrics.pool_size = pool_.size();
    metrics.samples_added = stage_samples;
    metrics.sampling_seconds = stage_sampling;
    unread = pool_.size();

    const Stopwatch solve_watch;
    solution = solver.solve(pool_, k);
    metrics.solver_seconds = solve_watch.elapsed_seconds();
    log(LogLevel::kDebug) << "IMCAF stage " << result.stop_stages << ": |R|="
                          << pool_.size() << " c_hat=" << solution.c_hat;

    // Line 8 of Alg. 5: (|R|/b)·ĉ_R(S) = #influenced samples >= Λ.
    const std::uint64_t influenced = pool_.influenced_count(solution.seeds);
    if (static_cast<double>(influenced) >= result.lambda) {
      // Line 9: independent estimate of c(S) on fresh samples (Alg. 6).
      const DagumEstimate stage_estimate = estimate(
          solution.seeds, ssa_estimate_max_samples(params, pool_.size()),
          metrics);
      // Line 10: accept when the pool does not over-estimate the benefit.
      if (stage_estimate.converged &&
          solution.c_hat <= (1.0 + params.ssa_eps1()) * stage_estimate.value) {
        result.estimated_benefit = stage_estimate.value;
        metrics.accepted = true;
        break;
      }
    }

    // Wind-down checks run only after a completed solve, so the partial
    // result always carries a real candidate seed set.
    if (context_.stop_requested()) {
      result.reached_deadline = true;
      break;
    }
    if (pool_.size() >= cap) {
      result.reached_cap = true;
      break;
    }
    record_stage(metrics);

    // Stage boundary: double the pool, clamped to the cap.
    stage_samples = std::min(cap, pool_.size() * 2) - pool_.size();
    stage_sampling = timed_grow(stage_samples);
  }

  result.seeds = std::move(solution.seeds);
  result.c_hat = solution.c_hat;
  result.samples_used = pool_.size();
  if (result.estimated_benefit == 0.0 && !result.seeds.empty()) {
    // Cap/deadline exit: still report an independent estimate.
    result.estimated_benefit =
        estimate(result.seeds, std::max<std::uint64_t>(pool_.size(), 10'000),
                 metrics)
            .value;
  }
  record_stage(metrics);
  result.runtime_seconds = watch.elapsed_seconds();
  return result;
}

std::vector<ImcafResult> ImcEngine::solve_many(
    std::span<const EngineQuery> queries) {
  std::vector<ImcafResult> results;
  results.reserve(queries.size());
  for (const EngineQuery& query : queries) {
    if (query.solver == nullptr) {
      throw std::invalid_argument("ImcEngine::solve_many: null solver");
    }
    results.push_back(solve(query.k, *query.solver));
  }
  return results;
}

}  // namespace imc
