// ImcEngine regression and behavior tests.
//
// The golden pins below were first recorded from the PRE-engine
// imcaf_solve (the monolithic driver, cold solve every stage) on a fixed
// BA-150 scenario, and re-recorded once when Alg. 5's ε1/ε2/ε3 split
// moved from ε/4 each to the cost-chosen split (DESIGN.md §15). The
// engine must reproduce them exactly: seed order, final |R|, stop-stage
// count, and ĉ down to the last bit (hexfloat literals). Any engine,
// solver, or pool-epoch change that perturbs a draw sequence or a
// floating-point accumulation shows up here as a changed pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/imcaf.h"
#include "core/maf.h"
#include "core/maxr_solver.h"
#include "core/ubg.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/ric_pool.h"
#include "test_support.h"
#include "util/context.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

class ImcEngineTest : public ::testing::Test {
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

  /// The exact configuration the pins were captured under.
  static ImcafConfig pinned_config() {
    ImcafConfig config;
    config.max_samples = 6000;
    config.seed = 2024;
    config.parallel_sampling = false;
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

// See the header comment. Every pinned run accepts at its third stage,
// |R| = 4 * ceil(Λ) = 4024; its second stage's Estimate runs out of T_max.
const std::vector<GoldenPin>& golden_pins() {
  static const std::vector<GoldenPin> pins = {
      {1, MaxrAlgorithm::kUbg, {1, 3, 0, 6, 10, 40, 8, 109},
       0x1.23935707a25a9p+7},
      {1, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.22750ec26ae0fp+7},
      {1, MaxrAlgorithm::kBt, {1, 3, 0, 10, 8, 2, 4, 20},
       0x1.2228b7387e38p+7},
      {1, MaxrAlgorithm::kMb, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.22750ec26ae0fp+7},
      {2, MaxrAlgorithm::kUbg, {1, 3, 0, 8, 6, 20, 44, 24},
       0x1.f99dc5fae918fp+6},
      {2, MaxrAlgorithm::kMaf, {1, 3, 0, 8, 10, 6, 2, 4},
       0x1.f4b221972834fp+6},
      {2, MaxrAlgorithm::kBt, {1, 3, 0, 10, 8, 2, 20, 40},
       0x1.f76135707a25bp+6},
      {2, MaxrAlgorithm::kMb, {1, 3, 0, 10, 8, 2, 20, 40},
       0x1.f76135707a25bp+6},
  };
  return pins;
}

TEST_F(ImcEngineTest, GoldenPinsMatchPreEngineDriver) {
  for (const GoldenPin& pin : golden_pins()) {
    const CommunitySet communities = make_communities(pin.h);
    const auto solver = make_maxr_solver(pin.algorithm);
    const ImcafResult result =
        imcaf_solve(graph_, communities, 8, *solver, pinned_config());
    const std::string where =
        "h=" + std::to_string(pin.h) + " " + to_string(pin.algorithm);
    EXPECT_EQ(result.seeds, pin.seeds) << where;
    EXPECT_EQ(result.samples_used, 4024U) << where;
    EXPECT_EQ(result.stop_stages, 3U) << where;
    EXPECT_EQ(result.c_hat, pin.c_hat) << where;
  }
}

TEST_F(ImcEngineTest, SolveManySharesOnePoolAcrossQueries) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver ubg;
  const MafSolver maf;
  ImcEngine engine(graph_, communities, pinned_config());
  const std::vector<EngineQuery> queries{{8, &ubg}, {8, &maf}, {4, &ubg}};
  const std::vector<ImcafResult> results = engine.solve_many(queries);
  ASSERT_EQ(results.size(), 3U);

  // The first query is exactly the single-shot run — golden pin holds.
  EXPECT_EQ(results[0].seeds, (std::vector<NodeId>{1, 3, 0, 6, 10, 40, 8,
                                                   109}));
  EXPECT_EQ(results[0].samples_used, 4024U);

  // The pool only ever grows; later queries start from the grown size.
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_LE(results[i].samples_used, results[i + 1].samples_used);
  }
  EXPECT_EQ(engine.pool().size(), results.back().samples_used);
  for (const ImcafResult& result : results) {
    EXPECT_FALSE(result.seeds.empty());
  }
}

TEST_F(ImcEngineTest, SolveManyRejectsNullSolver) {
  const CommunitySet communities = make_communities(1);
  ImcEngine engine(graph_, communities, pinned_config());
  const std::vector<EngineQuery> queries{{8, nullptr}};
  EXPECT_THROW((void)engine.solve_many(queries), std::invalid_argument);
}

TEST_F(ImcEngineTest, ValidatesArguments) {
  const CommunitySet empty(150, {});
  EXPECT_THROW(ImcEngine(graph_, empty, pinned_config()),
               std::invalid_argument);
  const CommunitySet communities = make_communities(1);
  ImcEngine engine(graph_, communities, pinned_config());
  const UbgSolver solver;
  EXPECT_THROW((void)engine.solve(0, solver), std::invalid_argument);
  EXPECT_THROW((void)engine.solve(151, solver), std::invalid_argument);
}

TEST_F(ImcEngineTest, ExpiredDeadlineReturnsPartialResultAfterOneStage) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  ExecutionContext context;
  context.deadline = Deadline(1e-9);  // effectively already expired
  ImcEngine engine(graph_, communities, pinned_config(), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_TRUE(result.reached_deadline);
  EXPECT_FALSE(result.reached_cap);
  EXPECT_EQ(result.stop_stages, 1U);
  // Stopping is only checked after a solve, so a real candidate survives.
  EXPECT_EQ(result.seeds.size(), 8U);
}

TEST_F(ImcEngineTest, CancellationFlagStopsAfterCurrentStage) {
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  const std::atomic<bool> cancel{true};
  ExecutionContext context;
  context.cancel = &cancel;
  ImcEngine engine(graph_, communities, pinned_config(), context);
  const ImcafResult result = engine.solve(8, solver);
  EXPECT_TRUE(result.reached_deadline);
  EXPECT_EQ(result.stop_stages, 1U);
  EXPECT_EQ(result.seeds.size(), 8U);
}

TEST_F(ImcEngineTest, MetricsSinkRecordsOneRowPerStopStage) {
  // Every way a run ends, each on the calling thread and with parallel
  // sampling on two workers: the rows follow the doubling schedule, and
  // every ImcafResult total is the sum of its rows — also the estimate a
  // cap or deadline exit draws last.
  enum class Exit { kAccepted, kCap, kDeadline };
  const CommunitySet communities = make_communities(1);
  const UbgSolver solver;
  ThreadPool workers(2);
  for (const Exit exit : {Exit::kAccepted, Exit::kCap, Exit::kDeadline}) {
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE("exit=" + std::to_string(static_cast<int>(exit)) +
                   (parallel ? " parallel" : " serial"));
      ImcafConfig config = pinned_config();
      config.parallel_sampling = parallel;
      // The pinned run accepts at its third stage (|R| = 4024), so a cap
      // of 2000 ends it at the second.
      if (exit == Exit::kCap) config.max_samples = 2000;
      RecordingMetricsSink metrics;
      ExecutionContext context;
      context.workers = &workers;
      context.metrics = &metrics;
      if (exit == Exit::kDeadline) context.deadline = Deadline(1e-9);
      ImcEngine engine(graph_, communities, config, context);
      const ImcafResult result = engine.solve(8, solver);

      EXPECT_EQ(result.seeds.size(), 8U);
      EXPECT_EQ(result.reached_cap, exit == Exit::kCap);
      EXPECT_EQ(result.reached_deadline, exit == Exit::kDeadline);
      const std::vector<StageMetrics> rows = metrics.stages();
      ASSERT_EQ(rows.size(), result.stop_stages);
      ASSERT_FALSE(rows.empty());
      EXPECT_EQ(rows.size() == 1, exit == Exit::kDeadline);
      EXPECT_EQ(rows.back().accepted, exit == Exit::kAccepted);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].stage, i + 1);
        EXPECT_GE(rows[i].solver_seconds, 0.0);
        if (i > 0) {
          // Alg. 5 doubles |R| at every stage, clamped to the sample cap.
          EXPECT_EQ(rows[i].pool_size,
                    std::min<std::uint64_t>(config.max_samples,
                                            2 * rows[i - 1].pool_size));
          EXPECT_EQ(rows[i].samples_added,
                    rows[i].pool_size - rows[i - 1].pool_size);
          EXPECT_FALSE(rows[i - 1].accepted);  // only the last row can
        } else {
          EXPECT_EQ(rows[i].samples_added, rows[i].pool_size);
        }
      }
      EXPECT_EQ(rows.back().pool_size, result.samples_used);
      // The exit estimate lands on the last row.
      EXPECT_GT(rows.back().estimate_samples, 0U);
      EXPECT_GT(result.estimated_benefit, 0.0);

      // Summed in row order, as the engine folds them: exact equality.
      StageMetrics sum;
      for (const StageMetrics& row : rows) {
        sum.sampling_seconds += row.sampling_seconds;
        sum.samples_added += row.samples_added;
        sum.solver_seconds += row.solver_seconds;
        sum.estimate_seconds += row.estimate_seconds;
        sum.overlap_seconds += row.overlap_seconds;
        sum.speculative_samples_committed +=
            row.speculative_samples_committed;
        sum.speculative_samples_discarded +=
            row.speculative_samples_discarded;
      }
      EXPECT_EQ(sum.sampling_seconds, result.sampling_seconds);
      EXPECT_EQ(sum.samples_added, result.samples_generated);
      EXPECT_EQ(sum.solver_seconds, result.solver_seconds);
      EXPECT_EQ(sum.estimate_seconds, result.estimate_seconds);
      EXPECT_EQ(sum.overlap_seconds, result.overlap_seconds);
      EXPECT_EQ(sum.speculative_samples_committed,
                result.speculative_samples_committed);
      EXPECT_EQ(sum.speculative_samples_discarded,
                result.speculative_samples_discarded);
      EXPECT_EQ(result.samples_generated, result.samples_used);

      std::ostringstream out;
      metrics.write_json(out);
      const std::string json = out.str();
      EXPECT_NE(json.find("\"stages\""), std::string::npos);
      std::size_t row_count = 0;
      for (std::size_t at = json.find("\"pool_size\"");
           at != std::string::npos;
           at = json.find("\"pool_size\"", at + 1)) {
        ++row_count;
      }
      EXPECT_EQ(row_count, rows.size());
    }
  }
}

}  // namespace
}  // namespace imc
