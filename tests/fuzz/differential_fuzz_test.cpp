// The differential fuzz suite (ctest label `fuzz`).
//
// DifferentialFuzz.Battery is the workhorse: IMC_FUZZ_CASES random
// instances (default 200 + a tiny-instance run biased toward exhaustive
// enumeration), every optimized hot path pitted against its reference
// oracle. On failure the log contains the shrunk instance and a
// self-contained repro snippet; re-run just that case with
// IMC_FUZZ_CASE_SEED=<seed printed in the log>.
//
// The remaining tests check the harness itself: the generator only emits
// valid specs, the shrinker reduces aggressively, and a deliberately
// broken oracle IS caught and shrinks to a hand-sized counterexample.
#include "testing/differential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "sampling/ric_pool.h"
#include "testing/instance_gen.h"
#include "testing/reference_oracles.h"
#include "testing/shrink.h"
#include "util/rng.h"

namespace imc::testing {
namespace {

TEST(DifferentialFuzz, Battery) {
  FuzzConfig config = fuzz_config_from_env();
  const std::vector<FuzzCheck> checks = default_checks();

  FuzzReport report = run_differential_fuzz(config, checks, &std::cerr);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases_run, config.case_seed_override ? 1 : config.cases);

  if (config.case_seed_override) return;  // single-case replay mode

  // Second pass biased toward enumerably tiny instances so the
  // sampler-vs-ground-truth check actually executes often (on the default
  // distribution most cases are too big to enumerate and are skipped).
  FuzzConfig tiny = config;
  tiny.cases = std::max<std::uint32_t>(1, config.cases / 8);
  tiny.base_seed = fuzz_case_seed(config.base_seed, 0xd157ULL);
  tiny.distribution.max_nodes = 6;
  tiny.distribution.max_community_size = 4;
  FuzzReport tiny_report = run_differential_fuzz(tiny, checks, &std::cerr);
  EXPECT_TRUE(tiny_report.ok()) << tiny_report.summary();
  EXPECT_GT(tiny_report.checks_run, 0U);
}

TEST(DifferentialFuzz, GeneratorOnlyEmitsValidSpecs) {
  InstanceDistribution dist;
  Rng rng(0xfab1eULL);
  for (int i = 0; i < 300; ++i) {
    const InstanceSpec spec = random_instance(dist, rng);
    ASSERT_TRUE(spec.valid()) << spec.summary();
    // Building must succeed wherever valid() said yes — valid() exists so
    // the shrinker can pre-filter without exceptions.
    EXPECT_NO_THROW({
      const Graph graph = spec.build_graph();
      const CommunitySet communities = spec.build_communities();
      EXPECT_EQ(graph.node_count(), spec.node_count);
      EXPECT_EQ(communities.size(), spec.groups.size());
    }) << spec.summary();
  }
}

TEST(DifferentialFuzz, GeneratorCoversEveryRegime) {
  InstanceDistribution dist;
  Rng rng(0xc0ffeeULL);
  int lt = 0;
  int mixed_weights = 0;
  std::vector<std::string> topologies;
  for (int i = 0; i < 200; ++i) {
    const InstanceSpec spec = random_instance(dist, rng);
    lt += spec.model == DiffusionModel::kLinearThreshold;
    topologies.push_back(spec.topology);
    const Graph graph = spec.build_graph();
    bool uniform = true;
    for (NodeId v = 0; v < graph.node_count() && uniform; ++v) {
      uniform = graph.in_weights_uniform(v);
    }
    mixed_weights += !uniform;
  }
  EXPECT_GT(lt, 10);
  EXPECT_GT(mixed_weights, 10);  // per-edge Bernoulli fallback exercised
  for (const char* label : {"er", "sbm", "ba"}) {
    EXPECT_NE(std::count(topologies.begin(), topologies.end(), label), 0)
        << label;
  }
}

TEST(DifferentialFuzz, ShrinkerReducesTrivialFailureToMinimum) {
  InstanceDistribution dist;
  Rng rng(0x5777ULL);
  const InstanceSpec spec = random_instance(dist, rng);
  ASSERT_TRUE(spec.valid());
  // A predicate that always fails shrinks as far as validity allows: one
  // node, one single-member community, zero edges.
  const ShrinkResult result = shrink_instance(
      spec, [](const InstanceSpec&, std::uint64_t) { return true; }, 0);
  EXPECT_EQ(result.spec.node_count, 1U);
  EXPECT_EQ(result.spec.groups.size(), 1U);
  EXPECT_TRUE(result.spec.edges.empty());
  EXPECT_TRUE(result.spec.valid());
}

TEST(DifferentialFuzz, ReproSnippetIsSelfContained) {
  InstanceDistribution dist;
  Rng rng(0xabcULL);
  const InstanceSpec spec = random_instance(dist, rng);
  const std::string snippet = repro_snippet(spec, 1234, "pool_layout");
  EXPECT_NE(snippet.find("IMC_FUZZ_CASE_SEED=1234"), std::string::npos);
  EXPECT_NE(snippet.find("imc::Graph graph(node_count, edges);"),
            std::string::npos);
  EXPECT_NE(snippet.find("communities.set_threshold("), std::string::npos);
  EXPECT_NE(snippet.find("pool_layout"), std::string::npos);
}

/// Deliberately broken oracle — the classic off-by-one: a sample counts as
/// influenced one reached member too early. The harness must flag the
/// disagreement with the real evaluator and shrink the counterexample to
/// hand size. This is the in-tree version of the "inject a bug, watch the
/// harness catch it" acceptance test.
std::optional<std::string> off_by_one_check(const InstanceSpec& spec,
                                            std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  RicPool pool(graph, communities, spec.model);
  pool.grow(24 + case_seed % 9, case_seed, /*parallel=*/false);
  const std::vector<NodeId> seeds{0};
  std::uint64_t broken = 0;
  for (std::uint32_t g = 0; g < pool.size(); ++g) {
    const RicSample sample = pool_sample(pool, g);
    if (sample.members_reached(seeds) + 1 >= sample.threshold) ++broken;
  }
  if (broken != pool.influenced_count(seeds)) {
    return "off-by-one influenced count " + std::to_string(broken) +
           " != " + std::to_string(pool.influenced_count(seeds));
  }
  return std::nullopt;
}

TEST(DifferentialFuzz, HarnessCatchesInjectedOffByOne) {
  FuzzConfig config;
  config.cases = 40;
  config.base_seed = 0xbadc0deULL;
  config.max_failures = 1;
  const std::vector<FuzzCheck> checks{{"off_by_one", off_by_one_check}};

  const FuzzReport report = run_differential_fuzz(config, checks, nullptr);
  ASSERT_FALSE(report.ok())
      << "injected off-by-one was NOT caught in 40 cases";
  const FuzzFailure& failure = report.failures.front();
  EXPECT_EQ(failure.check, "off_by_one");
  // Acceptance bar: the shrunk repro is hand-sized.
  EXPECT_LE(failure.shrunk.node_count, 10U)
      << "shrunk only to: " << failure.shrunk.summary();
  EXPECT_TRUE(failure.shrunk.valid());
  EXPECT_NE(failure.repro.find("IMC_FUZZ_CASE_SEED="), std::string::npos);
  // The shrunk spec must still fail the check — shrinking preserved the bug.
  EXPECT_TRUE(
      off_by_one_check(failure.shrunk, failure.case_seed).has_value());
}

TEST(DifferentialFuzz, CaseSeedOverrideRunsExactlyOneCase) {
  FuzzConfig config;
  config.cases = 50;
  config.case_seed_override = fuzz_case_seed(config.base_seed, 7);
  const std::vector<FuzzCheck> checks{
      {"noop", [](const InstanceSpec&, std::uint64_t)
                   -> std::optional<std::string> { return std::nullopt; }}};
  const FuzzReport report = run_differential_fuzz(config, checks, nullptr);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cases_run, 1U);
}

}  // namespace
}  // namespace imc::testing
