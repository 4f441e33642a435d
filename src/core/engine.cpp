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

  // Number of doubling rounds bounds the union-bound split of δ for the
  // per-stage Estimate calls (paper: δ / (3 log2(Ψ/Λ))).
  const double stages_bound = std::max(
      1.0, std::log2(std::max(2.0, result.psi / result.lambda)));
  const double delta_stage = params.delta / (3.0 * stages_bound);

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
    result.overlap_seconds += metrics.overlap_seconds;
    result.speculative_samples_committed +=
        metrics.speculative_samples_committed;
    result.speculative_samples_discarded +=
        metrics.speculative_samples_discarded;
    context_.record_stage(metrics);
  };

  // Pipelined schedule state (DESIGN.md §15). While this stage's solve and
  // estimate run, the NEXT doubling batch generates in the background into
  // `staging` — a sampler-owned buffer that never touches the live pool —
  // and the stage boundary either commits it (bit-identical to the grow()
  // it replaces: same substreams, same stitched order, one watermark bump)
  // or discards it when the stop condition won the race. Declaration order
  // matters: `spec_job` must die before the staging locals its body writes,
  // and its destructor cancel+joins, so an exception unwinding out of the
  // solver or the Estimate can never leave the job running over freed
  // state.
  PoolStagingArena staging;
  double staged_seconds = 0.0;  // generation wall time inside the job
  BackgroundJob spec_job;
  ThreadPool* const spec_workers =
      context_.workers != nullptr ? context_.workers : &default_pool();

  // Speculation policy: the next target is min(cap, |R|·2) — computable
  // before the solve because the pool is immutable until the boundary —
  // so a committed batch always matches the grow() the serial schedule
  // would have issued. No launch when the pool is already at cap (the next
  // stage, if any, grows nothing) or the run is winding down.
  const auto launch_speculation = [&]() {
    if (!config_.pipeline || spec_job.valid()) return;
    if (pool_.size() >= cap || context_.stop_requested()) return;
    const std::uint64_t count = std::min(cap, pool_.size() * 2) - pool_.size();
    spec_job = submit_job(
        *spec_workers,
        [this, count, &staging, &staged_seconds](
            const std::atomic<bool>& cancel) {
          const Stopwatch stage_watch;
          pool_.stage_samples(
              count, config_.seed, config_.parallel_sampling,
              context_.workers,
              [this, &cancel] {
                return cancel.load(std::memory_order_acquire) ||
                       context_.stop_requested();
              },
              staging);
          staged_seconds = stage_watch.elapsed_seconds();
        });
  };

  // Pipeline fields of the NEXT stage's metrics row, set at the boundary
  // that feeds it (mirrors the stage_samples/stage_sampling carry).
  bool stage_pipelined = false;
  double stage_overlap = 0.0;
  std::uint64_t stage_committed = 0;
  std::uint64_t stage_discarded = 0;

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
    metrics.pipelined = stage_pipelined;
    metrics.overlap_seconds = stage_overlap;
    metrics.speculative_samples_committed = stage_committed;
    metrics.speculative_samples_discarded = stage_discarded;
    stage_samples = 0;
    stage_sampling = 0.0;
    stage_pipelined = false;
    stage_overlap = 0.0;
    stage_committed = 0;
    stage_discarded = 0;

    launch_speculation();

    const Stopwatch solve_watch;
    solution = solver.solve(pool_, k);
    metrics.solver_seconds = solve_watch.elapsed_seconds();
    log(LogLevel::kDebug) << "IMCAF stage " << result.stop_stages << ": |R|="
                          << pool_.size() << " c_hat=" << solution.c_hat;

    // Line 8 of Alg. 5: (|R|/b)·ĉ_R(S) = #influenced samples >= Λ.
    const std::uint64_t influenced = pool_.influenced_count(solution.seeds);
    if (static_cast<double>(influenced) >= result.lambda) {
      // Line 9: independent estimate of c(S) on FRESH samples (Alg. 6).
      DagumOptions dagum;
      dagum.eps_prime = params.ssa_eps2();
      dagum.delta_prime = delta_stage;
      dagum.seed = config_.seed ^ (0xABCD1234ULL * result.stop_stages);
      dagum.model = config_.model;
      const double e2 = params.ssa_eps2();
      const double e3 = params.ssa_eps3();
      dagum.max_samples = static_cast<std::uint64_t>(std::ceil(
          static_cast<double>(pool_.size()) * (1.0 + e2) / (1.0 - e2) *
          (e3 * e3) / (e2 * e2)));
      dagum.max_samples = std::max<std::uint64_t>(dagum.max_samples, 1000);
      const Stopwatch estimate_watch;
      const DagumEstimate estimate = dagum_estimate_benefit(
          *graph_, *communities_, solution.seeds, dagum, context_);
      metrics.estimate_seconds = estimate_watch.elapsed_seconds();
      metrics.estimate_samples = estimate.samples;
      // Line 10: accept when the pool does not over-estimate the benefit.
      if (estimate.converged &&
          solution.c_hat <= (1.0 + params.ssa_eps1()) * estimate.value) {
        result.estimated_benefit = estimate.value;
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

    // Stage boundary: the serial schedule grows here; the pipelined one
    // harvests the background batch instead. The speculation is valid
    // exactly when it targeted THIS boundary's grow (base/count/seed all
    // match — a solve never mutates the pool, so only a cancelled staging
    // can miss); anything else falls back to the synchronous grow, which
    // regenerates the identical samples from the same substreams.
    const std::uint64_t target = std::min(cap, pool_.size() * 2);
    stage_samples = target - pool_.size();
    bool committed = false;
    if (spec_job.valid()) {
      const Stopwatch wait_watch;
      spec_job.join();
      const double wait_seconds = wait_watch.elapsed_seconds();
      if (staging.complete() && staging.base() == pool_.size() &&
          staging.count() == stage_samples &&
          staging.seed() == config_.seed &&
          staging.epoch() == pool_.grow_epoch()) {
        const Stopwatch commit_watch;
        pool_.commit_staged(std::move(staging), config_.parallel_sampling,
                            context_.workers);
        const double commit_seconds = commit_watch.elapsed_seconds();
        // sampling_seconds stays "time spent generating + splicing" so the
        // realized-throughput numbers compare across schedules; the hidden
        // slice (generation minus what the boundary actually waited) is
        // reported separately as overlap.
        stage_sampling = staged_seconds + commit_seconds;
        stage_overlap = std::max(0.0, staged_seconds - wait_seconds);
        stage_pipelined = true;
        stage_committed = stage_samples;
        committed = true;
        log(LogLevel::kDebug)
            << "IMCAF commit: " << stage_samples << " staged samples in "
            << commit_seconds << " s (" << stage_overlap
            << " s generation hidden), |R|=" << pool_.size();
      } else {
        // Cancelled mid-staging (deadline raced the stop check): drop the
        // partial batch and regrow synchronously — identical samples by
        // the substream contract. The next row carries the discard count.
        stage_discarded = staging.staged_count();
        staging.clear();
      }
    }
    if (!committed) stage_sampling = timed_grow(stage_samples);
  }

  // The terminal stage (accept/deadline/cap) invalidates the in-flight
  // speculation: cancel, join, and account the partial batch as discarded
  // on its row (nothing launches at cap). Regenerating later (a subsequent
  // query on the shared pool) reproduces the identical samples by the
  // substream contract, so discarding loses work, never determinism.
  if (spec_job.valid()) {
    spec_job.cancel();
    spec_job.join();
    metrics.speculative_samples_discarded += staging.staged_count();
    staging.clear();
  }
  result.seeds = std::move(solution.seeds);
  result.c_hat = solution.c_hat;
  result.samples_used = pool_.size();
  if (result.estimated_benefit == 0.0 && !result.seeds.empty()) {
    // Cap/deadline exit: still report an independent estimate.
    DagumOptions dagum;
    dagum.eps_prime = params.ssa_eps2();
    dagum.delta_prime = delta_stage;
    dagum.seed = config_.seed ^ 0xFEEDFACEULL;
    dagum.model = config_.model;
    dagum.max_samples = std::max<std::uint64_t>(pool_.size(), 10'000);
    const Stopwatch estimate_watch;
    const DagumEstimate estimate = dagum_estimate_benefit(
        *graph_, *communities_, result.seeds, dagum, context_);
    metrics.estimate_seconds += estimate_watch.elapsed_seconds();
    metrics.estimate_samples += estimate.samples;
    result.estimated_benefit = estimate.value;
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
