// ImcEngine — the staged IMCAF driver (paper Alg. 5) behind imcaf_solve.
//
// The engine owns the RIC sample pool and runs the SSA-style doubling loop
// as three layers, one after another at every stop stage (DESIGN.md §15):
//   sampling   — RicPool growth to the stage's size (parallel on the
//                sampling workers when ImcafConfig::parallel_sampling);
//   core       — the MAXR solver, run cold on the pool at every stage;
//   estimation — the stop-stage Dagum Estimate on the RIC positions past
//                the pool, on the caller plus the sampling workers, and
//                deadline-aware through the ExecutionContext.
// Keeping the pool in the engine (instead of a local of imcaf_solve) is
// what enables solve_many: several (k, solver) queries amortize one
// sample pool, each paying only the growth its own stop stages demand.
//
// Determinism: the pool position p is drawn from the substream
// splitmix_of(config.seed, p) whether the pool or an Estimate reads it,
// and every layer reduces in position order, so an ImcafResult is the
// same at every thread count and with parallel_sampling on or off; golden
// pins in tests/core/engine_test.cpp hold the recorded outputs. The
// ExecutionContext adds only *optional* behavior (deadline, cancellation,
// metrics) that is inert by default.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "community/community_set.h"
#include "core/imcaf.h"
#include "core/maxr_solver.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "sampling/ric_pool.h"
#include "util/context.h"

namespace imc {

/// One (k, solver) query for ImcEngine::solve_many. The solver pointer is
/// borrowed and must outlive the call.
struct EngineQuery {
  std::uint32_t k = 0;
  const MaxrSolver* solver = nullptr;
};

class ImcEngine {
 public:
  /// Throws std::invalid_argument on empty communities. The graph,
  /// community set, and context-referenced objects are borrowed and must
  /// outlive the engine.
  ImcEngine(const Graph& graph, const CommunitySet& communities,
            ImcafConfig config = {},
            ExecutionContext context = ExecutionContext{});

  /// Runs Alg. 5 for one query on the shared pool. Throws
  /// std::invalid_argument on k = 0 or k > |V|. The pool keeps whatever
  /// size the run grew it to; a later query starts from there (its stage-1
  /// solve simply sees a larger |R|).
  [[nodiscard]] ImcafResult solve(std::uint32_t k, const MaxrSolver& solver);

  /// Runs the queries in order against the shared pool.
  [[nodiscard]] std::vector<ImcafResult> solve_many(
      std::span<const EngineQuery> queries);

  /// Replaces the engine's pool with a v4 snapshot read into owned
  /// memory (attach_ric_pool_snapshot, which verifies the payload checksum
  /// and every per-sample invariant). The file must have been saved
  /// against the SAME graph and community structure (fingerprint-checked)
  /// and the same diffusion model as config().model. The restored
  /// PoolEpoch watermark equals the saved pool's.
  /// Throws std::runtime_error / std::invalid_argument on any mismatch;
  /// the current pool is untouched on failure.
  void attach_pool(const std::string& path);

  /// Streaming update: mutates the graph/community structure through the
  /// free apply_delta(), then repairs the shared pool in place with
  /// RicPool::invalidate_and_repair so the next solve() sees a pool
  /// bit-identical to a from-scratch rebuild on the mutated inputs.
  /// `graph` and `communities` MUST be the exact objects this engine was
  /// constructed over (identity-checked; the engine holds const views, so
  /// the caller supplies the mutable aliases) — std::invalid_argument
  /// otherwise, nothing mutated. A repair bumps PoolEpoch::repairs.
  /// A move that would grow a community past kMaxCommunityPopulation is
  /// rejected by the free apply_delta() before anything mutates. One case
  /// still gives only the basic guarantee: on an LT engine, an edge update
  /// that pushes a node's in-weight sum past 1 passes apply_delta() and
  /// makes the repair throw — the graph is then already mutated but the
  /// pool is untouched, and now inconsistent with it; the engine must not
  /// be used further. Not thread-safe against a
  /// concurrent solve(). Returns the repair statistics (samples
  /// regenerated vs pool size).
  RicPool::RepairStats apply_delta(Graph& graph, CommunitySet& communities,
                                   const GraphDelta& delta);

  [[nodiscard]] const RicPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const ImcafConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ExecutionContext& context() const noexcept {
    return context_;
  }

 private:
  /// Synchronous growth with its debug log; returns the wall seconds.
  [[nodiscard]] double timed_grow(std::uint64_t count);

  const Graph* graph_;
  const CommunitySet* communities_;
  ImcafConfig config_;
  ExecutionContext context_;
  RicPool pool_;
};

}  // namespace imc
