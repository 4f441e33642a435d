// Stage-schedule tests (DESIGN.md §15): every stop stage grows, solves and
// estimates one after another, and the result does not depend on how many
// threads do that work. The pool's samples and the Estimate's draws read
// positional RNG substreams and every reduction runs in position order, so
// an ImcafResult must be equal at threads {1, 2, 8} and with parallel
// sampling on and off.
//
// The golden expectations reuse the engine pins from engine_test.cpp: the
// engine must land on exactly those values at every thread count, with
// parallel sampling on and off.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "core/maxr_solver.h"
#include "core/ubg.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/context.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

class PipelineEngineTest : public ::testing::Test {
 protected:
  static Graph make_graph() {
    Rng rng(77);
    BarabasiAlbertConfig config;
    config.nodes = 150;
    config.attach = 3;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }

  static CommunitySet make_communities(std::uint32_t h) {
    CommunitySet communities = test::chunk_communities(150, 6);
    apply_constant_thresholds(communities, h);
    apply_population_benefits(communities);
    return communities;
  }

  /// The engine golden-pin configuration (see engine_test.cpp), with
  /// parallel sampling toggled per test.
  static ImcafConfig pinned_config(bool parallel_sampling) {
    ImcafConfig config;
    config.max_samples = 6000;
    config.seed = 2024;
    config.parallel_sampling = parallel_sampling;
    return config;
  }

  Graph graph_ = make_graph();
};

struct GoldenPin {
  std::uint32_t h;
  MaxrAlgorithm algorithm;
  std::vector<NodeId> seeds;
  double c_hat;  // exact hexfloat value on the final pool
};

// The UBG/MAF engine pins from engine_test.cpp (same recording).
const std::vector<GoldenPin>& golden_pins() {
  static const std::vector<GoldenPin> pins = {
      {1, MaxrAlgorithm::kUbg, {1, 3, 0, 6, 8, 40, 97, 10},
       0x1.2373333333333p+7},
      {1, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4}, 0x1.22cp+7},
      {2, MaxrAlgorithm::kUbg, {1, 3, 0, 8, 6, 10, 20, 40}, 0x1.fap+6},
      {2, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.f59999999999ap+6},
  };
  return pins;
}

TEST_F(PipelineEngineTest, GoldenPinsHoldAtEveryThreadCountOnAndOff) {
  for (const GoldenPin& pin : golden_pins()) {
    const CommunitySet communities = make_communities(pin.h);
    const auto solver = make_maxr_solver(pin.algorithm);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      ExecutionContext context;
      context.workers = &workers;
      for (const bool parallel : {true, false}) {
        ImcEngine engine(graph_, communities, pinned_config(parallel),
                         context);
        const ImcafResult result = engine.solve(8, *solver);
        const std::string where = "h=" + std::to_string(pin.h) + " " +
                                  to_string(pin.algorithm) + " threads=" +
                                  std::to_string(threads) +
                                  (parallel ? " parallel" : " serial");
        EXPECT_EQ(result.seeds, pin.seeds) << where;
        EXPECT_EQ(result.samples_used, 6000U) << where;
        EXPECT_EQ(result.stop_stages, 3U) << where;
        EXPECT_EQ(result.c_hat, pin.c_hat) << where;
        EXPECT_EQ(engine.pool().grow_epoch(),
                  (RicPool::PoolEpoch{6000, 3})) << where;
      }
    }
  }
}

/// Every deterministic field of a result: the seeds, ĉ, the independent
/// estimate, the sample and stage accounting.
void expect_same_result(const ImcafResult& a, const ImcafResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.seeds, b.seeds) << where;
  EXPECT_EQ(a.c_hat, b.c_hat) << where;
  EXPECT_EQ(a.estimated_benefit, b.estimated_benefit) << where;
  EXPECT_EQ(a.samples_used, b.samples_used) << where;
  EXPECT_EQ(a.samples_generated, b.samples_generated) << where;
  EXPECT_EQ(a.stop_stages, b.stop_stages) << where;
  EXPECT_EQ(a.reached_cap, b.reached_cap) << where;
  EXPECT_EQ(a.lambda, b.lambda) << where;
  EXPECT_EQ(a.psi, b.psi) << where;
}

TEST_F(PipelineEngineTest, ResultIsIdenticalAcrossThreadsAndParallelSampling) {
  // Full-result comparison, the per-stage rows' sample accounting
  // included: the pool grows on the caller plus the workers and each
  // Estimate draws its blocks on both lanes, yet every number must equal
  // the serial run's bit for bit, whichever lane UBG's ν greedy lands on.
  for (const std::uint32_t h : {1U, 2U}) {
    const CommunitySet communities = make_communities(h);
    for (const MaxrAlgorithm algorithm :
         {MaxrAlgorithm::kUbg, MaxrAlgorithm::kMaf}) {
      const auto solver = make_maxr_solver(algorithm);
      const auto run = [&](ThreadPool* workers, bool parallel,
                           std::vector<StageMetrics>& rows) {
        RecordingMetricsSink sink;
        ExecutionContext context;
        context.workers = workers;
        context.metrics = &sink;
        ImcEngine engine(graph_, communities, pinned_config(parallel),
                         context);
        const ImcafResult result = engine.solve(8, *solver);
        rows = sink.stages();
        return result;
      };
      std::vector<StageMetrics> serial_rows;
      const ImcafResult serial = run(nullptr, false, serial_rows);
      for (const unsigned threads : {1U, 2U, 8U}) {
        ThreadPool workers(threads);
        for (const bool parallel : {true, false}) {
          const std::string where =
              "h=" + std::to_string(h) + " " + to_string(algorithm) +
              " threads=" + std::to_string(threads) +
              (parallel ? " parallel" : " serial");
          std::vector<StageMetrics> rows;
          expect_same_result(run(&workers, parallel, rows), serial, where);
          ASSERT_EQ(rows.size(), serial_rows.size()) << where;
          for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].pool_size, serial_rows[i].pool_size) << where;
            EXPECT_EQ(rows[i].samples_added, serial_rows[i].samples_added)
                << where;
            EXPECT_EQ(rows[i].estimate_samples,
                      serial_rows[i].estimate_samples)
                << where;
            EXPECT_EQ(rows[i].accepted, serial_rows[i].accepted) << where;
          }
        }
      }
    }
  }
}

TEST_F(PipelineEngineTest, SerialScheduleReportsNoSpeculation) {
  // The speculative-growth fields stay in the result and the rows for the
  // benchmark counter schema; nothing speculates, so they read zero.
  const CommunitySet communities = make_communities(2);
  const UbgSolver solver;
  ThreadPool workers(2);
  RecordingMetricsSink sink;
  ExecutionContext context;
  context.workers = &workers;
  context.metrics = &sink;
  ImcEngine engine(graph_, communities, pinned_config(true), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_EQ(result.speculative_samples_committed, 0U);
  EXPECT_EQ(result.speculative_samples_discarded, 0U);
  EXPECT_EQ(result.overlap_seconds, 0.0);
  for (const StageMetrics& row : sink.stages()) {
    EXPECT_FALSE(row.pipelined);
    EXPECT_EQ(row.overlap_seconds, 0.0);
    EXPECT_EQ(row.speculative_samples_committed, 0U);
    EXPECT_EQ(row.speculative_samples_discarded, 0U);
  }
}

TEST_F(PipelineEngineTest, SolveManyIsIdenticalAcrossThreadsAndParallelSampling) {
  // Queries share one pool: the second query's stage-1 solve sees whatever
  // the first grew, and its estimates read the positions past that pool.
  // The hand-off must not depend on the thread count either.
  const CommunitySet communities = make_communities(1);
  const UbgSolver ubg;
  const MafSolver maf;
  const std::vector<EngineQuery> queries = {{8, &ubg}, {5, &maf}};
  ImcEngine serial(graph_, communities, pinned_config(false));
  const std::vector<ImcafResult> want = serial.solve_many(queries);
  for (const unsigned threads : {1U, 2U, 8U}) {
    ThreadPool workers(threads);
    ExecutionContext context;
    context.workers = &workers;
    ImcEngine engine(graph_, communities, pinned_config(true), context);
    const std::vector<ImcafResult> got = engine.solve_many(queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_result(got[i], want[i],
                         "threads=" + std::to_string(threads) + " query " +
                             std::to_string(i));
    }
    EXPECT_EQ(engine.pool().grow_epoch(), serial.pool().grow_epoch());
  }
}

/// Collects the stage rows since the last take().
class RowSink final : public MetricsSink {
 public:
  void record_stage(const StageMetrics& metrics) override {
    rows_.push_back(metrics);
  }
  std::vector<StageMetrics> take() { return std::exchange(rows_, {}); }

 private:
  std::vector<StageMetrics> rows_;
};

/// Every row field but the seconds.
void expect_same_rows(const std::vector<StageMetrics>& got,
                      const std::vector<StageMetrics>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stage, want[i].stage) << where;
    EXPECT_EQ(got[i].pool_size, want[i].pool_size) << where;
    EXPECT_EQ(got[i].samples_added, want[i].samples_added) << where;
    EXPECT_EQ(got[i].estimate_samples, want[i].estimate_samples) << where;
    EXPECT_EQ(got[i].accepted, want[i].accepted) << where;
    EXPECT_EQ(got[i].pipelined, want[i].pipelined) << where;
    EXPECT_EQ(got[i].speculative_samples_committed,
              want[i].speculative_samples_committed)
        << where;
    EXPECT_EQ(got[i].speculative_samples_discarded,
              want[i].speculative_samples_discarded)
        << where;
  }
}

TEST_F(PipelineEngineTest, EstimateTailRunsMatchTailLessRuns) {
  // A pool at its cap estimates through its tail (DESIGN.md §15): repeated
  // queries read kept samples, and deltas repair the tail with the pool.
  // Every query must still equal a tail-less run — a serial engine that
  // attaches a snapshot of the same pool, so its Estimate reads those
  // positions for the first time — in the full result and in every stage
  // row but the seconds, at threads {1, 2, 8} with parallel sampling on
  // and off, through solve_many and across a stacked delta stream.
  const UbgSolver ubg;
  const MafSolver maf;
  const std::string path =
      ::testing::TempDir() + "/imc_tail_reference_" +
      std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".snap";
  struct Run {
    ImcafResult result;
    std::vector<StageMetrics> rows;
  };
  const auto tail_less = [&](const Graph& graph,
                             const CommunitySet& communities,
                             const RicPool& pool, const EngineQuery& query) {
    save_ric_pool_snapshot(path, pool);
    RowSink sink;
    ExecutionContext context;
    context.metrics = &sink;
    ImcEngine engine(graph, communities, pinned_config(false), context);
    engine.attach_pool(path);
    Run run{engine.solve(query.k, *query.solver), {}};
    run.rows = sink.take();
    return run;
  };

  std::vector<GraphDelta> deltas(3);
  deltas[0].upsert_edge(0, 57, 0.4).remove_edge(1, 0);
  deltas[1].move_member(7, 5).upsert_edge(90, 3, 0.15);
  deltas[2].remove_edge(3, 1).move_member(30, 0);
  const std::vector<EngineQuery> queries = {{8, &ubg}, {5, &maf}, {8, &ubg}};

  for (const unsigned threads : {1U, 2U, 8U}) {
    ThreadPool workers(threads);
    for (const bool parallel : {true, false}) {
      const std::string leg = "threads=" + std::to_string(threads) +
                              (parallel ? " parallel" : " serial");
      Graph graph = graph_;
      CommunitySet communities = make_communities(1);
      RowSink sink;
      ExecutionContext context;
      context.workers = &workers;
      context.metrics = &sink;
      ImcEngine engine(graph, communities, pinned_config(parallel), context);

      // The first query grows the pool to its cap; solve_many then
      // queries the capped pool, each query against its tail-less twin.
      (void)engine.solve(8, ubg);
      ASSERT_EQ(engine.pool().size(), 6000U) << leg;
      std::vector<Run> want;
      for (const EngineQuery& query : queries) {
        want.push_back(tail_less(graph, communities, engine.pool(), query));
      }
      (void)sink.take();
      const std::vector<ImcafResult> got = engine.solve_many(queries);
      const std::vector<StageMetrics> rows = sink.take();
      ASSERT_EQ(got.size(), want.size()) << leg;
      std::size_t row = 0;
      for (std::size_t q = 0; q < got.size(); ++q) {
        const std::string where = leg + " solve_many query " +
                                  std::to_string(q);
        expect_same_result(got[q], want[q].result, where);
        EXPECT_EQ(got[q].reached_deadline, want[q].result.reached_deadline)
            << where;
        const std::vector<StageMetrics> query_rows(
            rows.begin() + static_cast<std::ptrdiff_t>(row),
            rows.begin() +
                static_cast<std::ptrdiff_t>(row + got[q].stop_stages));
        row += got[q].stop_stages;
        expect_same_rows(query_rows, want[q].rows, where);
      }
      EXPECT_GT(engine.pool().tail_view().thresholds.size(), 0U) << leg;

      for (std::size_t d = 0; d < deltas.size(); ++d) {
        (void)engine.apply_delta(graph, communities, deltas[d]);
        for (const EngineQuery& query :
             {EngineQuery{8, &ubg}, EngineQuery{5, &maf}}) {
          const std::string where = leg + " delta " + std::to_string(d) +
                                    " k=" + std::to_string(query.k);
          const Run reference =
              tail_less(graph, communities, engine.pool(), query);
          (void)sink.take();
          const ImcafResult result = engine.solve(query.k, *query.solver);
          expect_same_result(result, reference.result, where);
          EXPECT_EQ(result.reached_deadline, reference.result.reached_deadline)
              << where;
          expect_same_rows(sink.take(), reference.rows, where);
        }
      }
      EXPECT_GT(engine.pool().tail_view().thresholds.size(), 0U) << leg;
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace imc
