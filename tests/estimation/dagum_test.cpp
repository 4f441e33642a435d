#include "estimation/dagum.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "community/threshold_policy.h"
#include "diffusion/monte_carlo.h"
#include "estimation/concentration.h"
#include "test_support.h"
#include "util/context.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

TEST(Dagum, ExactOnDeterministicInstance) {
  // Certain path: seeding node 0 influences both singleton communities
  // every time, so c(S) = total benefit exactly.
  const Graph graph = test::path_graph(6, 1.0);
  CommunitySet communities(6, {{2}, {5}});
  communities.set_benefit(0, 2.0);
  communities.set_benefit(1, 3.0);
  const std::vector<NodeId> seeds{0};
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds);
  EXPECT_TRUE(estimate.converged);
  // The stopping rule returns b·Λ'/T with T = ceil(Λ') here, so the value
  // sits a hair below b; allow that quantization.
  EXPECT_NEAR(estimate.value, 5.0, 0.01);
}

TEST(Dagum, WithinEpsilonOfMonteCarlo) {
  const test::NonSubmodularGadget gadget(0.5);
  MonteCarloOptions mc;
  mc.simulations = 80000;
  const std::vector<NodeId> seeds{0, 1};
  const double truth =
      mc_expected_benefit(gadget.graph, gadget.communities, seeds, mc);

  DagumOptions options;
  options.eps_prime = 0.05;
  options.delta_prime = 0.05;
  const DagumEstimate estimate =
      dagum_estimate_benefit(gadget.graph, gadget.communities, seeds, options);
  ASSERT_TRUE(estimate.converged);
  EXPECT_NEAR(estimate.value, truth, truth * 0.12);
}

TEST(Dagum, ZeroBenefitSeedNeverConverges) {
  // Seeds that influence nothing: the stopping rule cannot accumulate
  // influenced samples and must hit T_max.
  const Graph graph = test::path_graph(4, 0.0);
  CommunitySet communities(4, {{3}});
  const std::vector<NodeId> seeds{0};  // no way to reach node 3
  DagumOptions options;
  options.max_samples = 2000;
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds, options);
  EXPECT_FALSE(estimate.converged);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
  EXPECT_EQ(estimate.samples, 2000U);
}

TEST(Dagum, TinyBudgetFallsBackToRunningMean) {
  const Graph graph = test::path_graph(4, 1.0);
  CommunitySet communities(4, {{3}});
  const std::vector<NodeId> seeds{0};
  DagumOptions options;
  options.max_samples = 5;  // far below Λ'
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds, options);
  EXPECT_FALSE(estimate.converged);
  // Every sample is influenced, so the running mean is exactly b.
  EXPECT_NEAR(estimate.value, 1.0, 1e-9);
}

TEST(Dagum, SampleCountNearLambdaPrimeOverMean) {
  // For a Bernoulli(p) benefit, T ≈ Λ'/p.
  GraphBuilder builder;
  builder.add_edge(0, 1, 0.25);
  const Graph graph = builder.build();
  CommunitySet communities(2, {{1}});
  const std::vector<NodeId> seeds{0};
  DagumOptions options;
  options.eps_prime = 0.1;
  options.delta_prime = 0.1;
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds, options);
  ASSERT_TRUE(estimate.converged);
  const double lambda_prime = dagum_lambda_prime(0.1, 0.1);
  EXPECT_NEAR(static_cast<double>(estimate.samples), lambda_prime / 0.25,
              lambda_prime / 0.25 * 0.2);
}

TEST(Dagum, RejectsOutOfRangeSeed) {
  const Graph graph = test::path_graph(3, 0.5);
  CommunitySet communities(3, {{2}});
  const std::vector<NodeId> seeds{10};
  EXPECT_THROW((void)dagum_estimate_benefit(graph, communities, seeds),
               std::out_of_range);
}

TEST(Dagum, InactiveContextIsBitIdentical) {
  // The context overload with no deadline/cancellation must not perturb
  // the draw sequence — the two overloads share one implementation.
  const test::NonSubmodularGadget gadget(0.5);
  const std::vector<NodeId> seeds{0, 1};
  DagumOptions options;
  options.max_samples = 5000;
  const DagumEstimate plain =
      dagum_estimate_benefit(gadget.graph, gadget.communities, seeds,
                             options);
  const ExecutionContext context;  // inactive deadline, no cancel flag
  const DagumEstimate with_context = dagum_estimate_benefit(
      gadget.graph, gadget.communities, seeds, options, context);
  EXPECT_EQ(plain.value, with_context.value);
  EXPECT_EQ(plain.samples, with_context.samples);
  EXPECT_EQ(plain.converged, with_context.converged);
  EXPECT_FALSE(with_context.reached_deadline);
}

TEST(Dagum, ExpiredDeadlineWindsDownWithPartialEstimate) {
  const test::NonSubmodularGadget gadget(0.5);
  const std::vector<NodeId> seeds{0, 1};
  const DagumOptions options;
  ExecutionContext context;
  context.deadline = Deadline(1e-9);  // effectively already expired
  const DagumEstimate estimate = dagum_estimate_benefit(
      gadget.graph, gadget.communities, seeds, options, context);
  EXPECT_TRUE(estimate.reached_deadline);
  EXPECT_FALSE(estimate.converged);
  // Polling runs before every block after the first, so the wind-down
  // happens right after the first block.
  EXPECT_EQ(estimate.samples, kDagumBlockDraws);
}

TEST(Dagum, CancellationFlagStopsDraws) {
  const test::NonSubmodularGadget gadget(0.5);
  const std::vector<NodeId> seeds{0, 1};
  const DagumOptions options;
  const std::atomic<bool> cancel{true};
  ExecutionContext context;
  context.cancel = &cancel;
  const DagumEstimate estimate = dagum_estimate_benefit(
      gadget.graph, gadget.communities, seeds, options, context);
  EXPECT_TRUE(estimate.reached_deadline);
  EXPECT_FALSE(estimate.converged);
  EXPECT_EQ(estimate.samples, kDagumBlockDraws);
}

TEST(Dagum, DrawJReadsPositionFirstPlusJ) {
  // Draw j reads position first + j, so the influenced draws of [0, n)
  // are those of [0, d) plus those of [d, n) for any split d, inside a
  // block or across block boundaries. A T_max far below Λ' never
  // converges and leaves the running mean b·Inf/T, which gives Inf back.
  const test::NonSubmodularGadget gadget(0.5);
  const std::vector<NodeId> seeds{0, 1};
  const double b = gadget.communities.total_benefit();
  const auto influenced_in = [&](std::uint64_t first, std::uint64_t count) {
    DagumOptions options;
    options.first = first;
    options.max_samples = count;
    const DagumEstimate running = dagum_estimate_benefit(
        gadget.graph, gadget.communities, seeds, options);
    EXPECT_FALSE(running.converged);
    EXPECT_EQ(running.samples, count);
    return std::llround(running.value * static_cast<double>(count) / b);
  };
  const long long whole = influenced_in(0, 700);
  EXPECT_GT(whole, 0);
  EXPECT_LT(whole, 700);
  for (const std::uint64_t d : {7ULL, 256ULL, 600ULL}) {
    EXPECT_EQ(influenced_in(0, d) + influenced_in(d, 700 - d), whole) << d;
  }
}

TEST(Dagum, WorkersGiveTheSerialEstimate) {
  const test::NonSubmodularGadget gadget(0.5);
  const std::vector<NodeId> seeds{0, 1};
  for (const std::uint64_t max_samples : {300ULL, 2'000'000ULL}) {
    DagumOptions options;
    options.max_samples = max_samples;  // 300: T_max inside round one
    options.first = 12345;
    const DagumEstimate serial = dagum_estimate_benefit(
        gadget.graph, gadget.communities, seeds, options);
    for (const unsigned threads : {1U, 2U, 8U}) {
      ThreadPool workers(threads);
      const DagumEstimate parallel =
          dagum_estimate_benefit(gadget.graph, gadget.communities, seeds,
                                 options, ExecutionContext{}, &workers);
      EXPECT_EQ(parallel.value, serial.value) << threads;
      EXPECT_EQ(parallel.samples, serial.samples) << threads;
      EXPECT_EQ(parallel.converged, serial.converged) << threads;
      EXPECT_FALSE(parallel.reached_deadline) << threads;
    }
  }
}

TEST(Dagum, EmptyCommunitiesGiveZero) {
  const Graph graph = test::path_graph(3, 0.5);
  CommunitySet communities;
  const std::vector<NodeId> seeds{0};
  const DagumEstimate estimate =
      dagum_estimate_benefit(graph, communities, seeds);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
}

}  // namespace
}  // namespace imc
