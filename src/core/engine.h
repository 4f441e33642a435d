// ImcEngine — the staged IMCAF driver (paper Alg. 5) behind imcaf_solve.
//
// The engine owns the RIC sample pool and runs the SSA-style doubling loop
// as three cooperating layers:
//   sampling   — RicPool growth, watermarked by PoolEpoch so downstream
//                consumers know exactly which sample range is new;
//   core       — the MAXR solver, warm-started across stages through
//                MaxrSolver::resume (bit-identical to cold solves by
//                contract; ImcafConfig::warm_start turns it off);
//   estimation — the stop-stage Dagum Estimate, deadline-aware through
//                the ExecutionContext.
// Keeping the pool in the engine (instead of a local of imcaf_solve) is
// what enables solve_many: several (k, solver) queries amortize one
// sample pool, each paying only the growth its own stop stages demand.
//
// Determinism: for a fresh engine, solve(k, solver) reproduces the
// pre-engine imcaf_solve bit-for-bit — same seed derivations, same growth
// schedule, same stage math; golden pins in tests/core/engine_test.cpp
// hold the recorded outputs. The ExecutionContext adds only *optional*
// behavior (deadline, cancellation, metrics) that is inert by default.
//
// Pipelining (ImcafConfig::pipeline, DESIGN.md §15): each stage's solve
// and stop-estimate overlap with speculative background generation of the
// next doubling batch into a PoolStagingArena; the stage boundary commits
// the batch through the regular merge (or discards it when the stop
// condition fired first). The speculative batch uses the same per-sample
// RNG substreams and stitched order as the grow() it replaces, so the
// pipelined schedule is bit-identical to the serial one — the golden pins
// hold with the pipeline on and off, at any thread count.
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
#include "sampling/pool_snapshot.h"
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

  /// Runs the queries in order against the shared pool. Solver warm-start
  /// state is per-query (a solver appearing twice gets fresh state each
  /// time — the pool size differs between its runs).
  [[nodiscard]] std::vector<ImcafResult> solve_many(
      std::span<const EngineQuery> queries);

  /// Replaces the engine's pool with a v3 snapshot attached zero-copy via
  /// mmap (attach_ric_pool_snapshot). The file must have been saved
  /// against the SAME graph and community structure (fingerprint-checked)
  /// and the same diffusion model as config().model. Payloads are
  /// checksum- and invariant-verified by default; pass
  /// SnapshotTrust::kTrustPayload for files this host wrote to keep attach
  /// cost independent of pool size. The restored PoolEpoch watermark means
  /// solver warm-start carriers captured against the saved pool validate
  /// against the reloaded one.
  /// Throws std::runtime_error / std::invalid_argument on any mismatch;
  /// the current pool is untouched on failure.
  void attach_pool(const std::string& path,
                   SnapshotTrust trust = SnapshotTrust::kVerifyPayload);

  /// Streaming update: mutates the graph/community structure through the
  /// free apply_delta(), then repairs the shared pool in place with
  /// RicPool::invalidate_and_repair so the next solve() sees a pool
  /// bit-identical to a from-scratch rebuild on the mutated inputs.
  /// `graph` and `communities` MUST be the exact objects this engine was
  /// constructed over (identity-checked; the engine holds const views, so
  /// the caller supplies the mutable aliases) — std::invalid_argument
  /// otherwise, nothing mutated. A repair bumps PoolEpoch::repairs, which
  /// invalidates every outstanding warm-start carrier (solvers fall back
  /// cold via their samples_since guard) and any staged speculative batch
  /// (the pipeline's commit check rejects it and regrows synchronously).
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
  /// All growth funnels through here: throughput accounting + debug log.
  void timed_grow(std::uint64_t count, ImcafResult& result);

  const Graph* graph_;
  const CommunitySet* communities_;
  ImcafConfig config_;
  ExecutionContext context_;
  RicPool pool_;
};

}  // namespace imc
