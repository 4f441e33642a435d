// Component micro-benchmarks (google-benchmark): substrate hot paths.
//
// Besides the console table, the binary writes a machine-readable summary
// (name, ns/op, iterations, pool_size/threads counters) to BENCH_micro.json
// — override the path with `--json <path>`, disable with `--json ""`. A run
// with --benchmark_filter writes no file unless --json names one, so a
// filtered run cannot replace the full baseline with its few rows.
// Fixture knobs:
//   IMC_BENCH_SCALE        small-fixture dataset scale       (default 0.12)
//   IMC_MICRO_LARGE_SCALE  large-fixture dataset scale       (default 1.0)
//   IMC_MICRO_POOL         large-fixture RIC pool size       (default 40000)
//   IMC_MICRO_HUGE_POOL    huge-fixture RIC pool size      (default 1000000)
// Kernel selection: IMC_KERNEL=scalar|avx2|avx512 pins the SIMD width of
// the gain kernels the selection benches run on (default: best
// supported); hardware popcount is in the build baseline either way.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "community/community_set.h"
#include "community/louvain.h"
#include "community/size_cap.h"
#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/imcaf.h"
#include "core/objective.h"
#include "core/ubg.h"
#include "diffusion/ic_model.h"
#include "estimation/dagum.h"
#include "graph/delta.h"
#include "graph/generators/dataset_catalog.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "sampling/rr_set.h"
#include "util/cli.h"
#include "util/context.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace imc;

double micro_scale() {
  static const double scale = env_double("IMC_BENCH_SCALE", 0.12);
  return scale;
}

double micro_large_scale() {
  static const double scale = env_double("IMC_MICRO_LARGE_SCALE", 1.0);
  return scale;
}

std::uint64_t micro_pool_samples() {
  static const auto samples =
      static_cast<std::uint64_t>(env_int("IMC_MICRO_POOL", 40000));
  return samples;
}

std::uint64_t micro_huge_pool_samples() {
  static const auto samples =
      static_cast<std::uint64_t>(env_int("IMC_MICRO_HUGE_POOL", 1000000));
  return samples;
}

CommunitySet standard_communities(const Graph& graph) {
  CommunitySet set = CommunitySet::from_assignment(
      graph.node_count(), louvain_communities(graph).assignment);
  Rng rng(1);
  set = cap_community_sizes(set, 8, rng);
  apply_population_benefits(set);
  apply_fraction_thresholds(set, 0.5);
  return set;
}

const Graph& facebook_graph() {
  static const Graph graph = make_dataset(DatasetId::kFacebook, micro_scale());
  return graph;
}

const CommunitySet& facebook_communities() {
  static const CommunitySet communities =
      standard_communities(facebook_graph());
  return communities;
}

// The "large" fixture: full-scale facebook stand-in with a pool sized so the
// covered/threshold working set exceeds L1/L2 — this is where the CSR arena
// layout and prefetching pay; the small fixture above is cache-resident.
const Graph& large_graph() {
  static const Graph graph =
      make_dataset(DatasetId::kFacebook, micro_large_scale());
  return graph;
}

const CommunitySet& large_communities() {
  static const CommunitySet communities = standard_communities(large_graph());
  return communities;
}

const RicPool& large_pool() {
  static const RicPool pool = [] {
    RicPool p(large_graph(), large_communities());
    p.grow(micro_pool_samples(), 17);
    return p;
  }();
  return pool;
}

void BM_GraphBuild(benchmark::State& state) {
  Rng rng(1);
  BarabasiAlbertConfig config;
  config.nodes = static_cast<NodeId>(state.range(0));
  config.attach = 4;
  const EdgeList edges = barabasi_albert_edges(config, rng);
  for (auto _ : state) {
    Graph graph(config.nodes, edges);
    benchmark::DoNotOptimize(graph.edge_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(5000);

void BM_IcSimulation(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  Rng rng(2);
  std::vector<NodeId> seeds{0, 1, 2, 3, 4};
  std::vector<std::uint8_t> active;
  std::vector<NodeId> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_ic_into(graph, seeds, rng, active, scratch));
  }
}
BENCHMARK(BM_IcSimulation);

void BM_RrSetGeneration(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_rr_set(graph, rng).nodes.size());
  }
}
BENCHMARK(BM_RrSetGeneration);

void BM_RicSampleGeneration(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  const CommunitySet& communities = facebook_communities();
  RicSampler sampler(graph, communities);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.generate(rng).touching.size());
  }
}
BENCHMARK(BM_RicSampleGeneration);

// Raw sampler throughput on the full-scale fixture (mean in-degree ~78
// under weighted cascade — the geometric-skip sweet spot), arena-direct:
// this is the per-sample cost that BM_PoolGrowLarge amortizes.
void BM_RicSampleGenerationLarge(benchmark::State& state) {
  const Graph& graph = large_graph();
  const CommunitySet& communities = large_communities();
  RicSampler sampler(graph, communities);
  RicSampler::TouchArena arena;
  Rng rng(4);
  for (auto _ : state) {
    arena.clear();
    benchmark::DoNotOptimize(sampler.generate_into(rng, arena).touch_count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RicSampleGenerationLarge);

// The Dagum stopping-rule estimate (paper Alg. 6) on the large fixture:
// fresh draws through RicSampler::draw_influenced until Λ' of them are
// influenced. Seeds are fixed — the ten highest out-degree nodes — and so
// is the estimator seed, so every iteration draws the same T samples.
// items/s is draws/s, the estimate layer's throughput; `samples` is T.
void BM_DagumEstimate(benchmark::State& state) {
  const Graph& graph = large_graph();
  const CommunitySet& communities = large_communities();
  std::vector<NodeId> seeds(graph.node_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + 10, seeds.end(),
                    [&graph](NodeId a, NodeId b) {
                      return graph.out_degree(a) != graph.out_degree(b)
                                 ? graph.out_degree(a) > graph.out_degree(b)
                                 : a < b;
                    });
  seeds.resize(10);
  DagumOptions options;
  options.seed = 5;
  std::uint64_t samples = 0;
  for (auto _ : state) {
    const DagumEstimate estimate =
        dagum_estimate_benefit(graph, communities, seeds, options);
    benchmark::DoNotOptimize(estimate.value);
    samples = estimate.samples;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples));
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_DagumEstimate)->Unit(benchmark::kMillisecond);

// End-to-end pool growth on the large fixture — the acceptance benchmark
// for the sampling engine (geometric skip + bit-parallel masks +
// arena-direct stitching). Arg 0 is the serial path; Arg N > 0 grows on a
// local N-thread pool. items/s is samples/s.
void BM_PoolGrowLarge(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::unique_ptr<ThreadPool> workers;
  if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
  const std::uint64_t count = micro_pool_samples();
  for (auto _ : state) {
    RicPool pool(large_graph(), large_communities());
    pool.grow(count, 17, /*parallel=*/threads > 0, workers.get());
    benchmark::DoNotOptimize(pool.touch_arena().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
  state.counters["pool_size"] = static_cast<double>(count);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_PoolGrowLarge)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Dynamic-update cost on the large fixture: a single-edge delta handled by
// invalidate_and_repair (regenerate only the samples touching the changed
// head, each from its original substream — DESIGN.md §16) vs a full
// from-scratch rebuild on the mutated graph. Both produce bit-identical
// pools; repaired_fraction is the share the repair had to regenerate. The
// edge head is chosen at median touch-popularity, so the frontier is
// representative rather than hub-degenerate or leaf-trivial.
// Args: {0 = repair | 1 = rebuild, threads (0 = serial)}.
void BM_DeltaRepairVsRebuild(benchmark::State& state) {
  const bool rebuild = state.range(0) != 0;
  const auto threads = static_cast<unsigned>(state.range(1));
  std::unique_ptr<ThreadPool> workers;
  if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
  // apply_delta mutates, so this bench owns private copies of the fixture.
  Graph graph = large_graph();
  CommunitySet communities = large_communities();
  const std::uint64_t count = micro_pool_samples();
  RicPool pool(graph, communities);
  pool.grow(count, 17, /*parallel=*/threads > 0, workers.get());

  const std::span<const std::uint64_t> offsets = pool.touch_offsets();
  std::vector<std::uint64_t> touch_counts;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (graph.in_degree(v) > 0) {
      touch_counts.push_back(offsets[v + 1] - offsets[v]);
    }
  }
  std::nth_element(touch_counts.begin(),
                   touch_counts.begin() + touch_counts.size() / 2,
                   touch_counts.end());
  const std::uint64_t median = touch_counts[touch_counts.size() / 2];
  NodeId head = 0;
  std::uint64_t best_gap = ~std::uint64_t{0};
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (graph.in_degree(v) == 0) continue;
    const std::uint64_t touches = offsets[v + 1] - offsets[v];
    const std::uint64_t gap =
        touches > median ? touches - median : median - touches;
    if (gap < best_gap) {
      best_gap = gap;
      head = v;
    }
  }
  const Neighbor in_edge = graph.in_neighbors(head)[0];
  const auto weight = static_cast<double>(in_edge.weight);

  double repaired = 0.0;
  bool shrink = true;
  for (auto _ : state) {
    // Alternate halving/restoring the weight: every iteration is a real
    // change with the same repair frontier, and scaling down can never
    // push an LT in-weight sum past 1.
    GraphDelta delta;
    delta.upsert_edge(in_edge.node, head, shrink ? weight * 0.5 : weight);
    shrink = !shrink;
    const DeltaEffects effects = apply_delta(graph, communities, delta);
    if (rebuild) {
      RicPool fresh(graph, communities);
      fresh.grow(count, 17, /*parallel=*/threads > 0, workers.get());
      benchmark::DoNotOptimize(fresh.touch_arena().size());
      repaired += static_cast<double>(count);
    } else {
      const RicPool::RepairStats stats =
          pool.invalidate_and_repair(effects, 17, /*parallel=*/threads > 0,
                                     workers.get());
      benchmark::DoNotOptimize(pool.touch_arena().size());
      repaired += static_cast<double>(stats.repaired);
    }
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["repaired_samples"] = repaired / iterations;
  state.counters["repaired_fraction"] =
      repaired / (iterations * static_cast<double>(count));
  state.counters["pool_size"] = static_cast<double>(count);
  state.counters["rebuild"] = rebuild ? 1.0 : 0.0;
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_DeltaRepairVsRebuild)
    ->Args({0, 0})
    ->Args({0, 8})
    ->Args({1, 0})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

void BM_PoolCHat(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  const CommunitySet& communities = facebook_communities();
  static RicPool pool = [&] {
    RicPool p(graph, communities);
    p.grow(5000, 5);
    return p;
  }();
  Rng rng(6);
  const auto seeds = rng.sample_without_replacement(graph.node_count(), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.c_hat(seeds));
  }
  state.counters["pool_size"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_PoolCHat);

void BM_PoolCHatLarge(benchmark::State& state) {
  const RicPool& pool = large_pool();
  Rng rng(6);
  const auto seeds =
      rng.sample_without_replacement(large_graph().node_count(), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.c_hat(seeds));
  }
  state.counters["pool_size"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_PoolCHatLarge);

// Binary snapshot persistence on the large (~40k sample) pool. Save is one
// sequential arena write plus the payload checksum. Load is the one attach
// mode: it reads every section into owned arenas (one copy, O(pool
// bytes)), then verifies the checksum, the structure and every per-sample
// invariant. Load keeps its Arg(1) so its row name stays comparable with
// earlier recordings.
void BM_PoolSnapshotSave(benchmark::State& state) {
  const RicPool& pool = large_pool();
  const std::string path = "/tmp/imc_bench_pool_save.snap";
  for (auto _ : state) {
    save_ric_pool_snapshot(path, pool);
  }
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  state.counters["pool_size"] = static_cast<double>(pool.size());
  state.counters["snapshot_bytes"] = static_cast<double>(probe.tellg());
  std::remove(path.c_str());
}
BENCHMARK(BM_PoolSnapshotSave)->Unit(benchmark::kMillisecond);

void BM_PoolSnapshotLoad(benchmark::State& state) {
  const RicPool& pool = large_pool();
  const std::string path = "/tmp/imc_bench_pool_load.snap";
  save_ric_pool_snapshot(path, pool);
  for (auto _ : state) {
    RicPool loaded =
        attach_ric_pool_snapshot(path, large_graph(), large_communities());
    benchmark::DoNotOptimize(loaded.size());
  }
  state.counters["pool_size"] = static_cast<double>(pool.size());
  std::remove(path.c_str());
}
BENCHMARK(BM_PoolSnapshotLoad)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CoverageMarginal(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  const CommunitySet& communities = facebook_communities();
  static RicPool pool = [&] {
    RicPool p(graph, communities);
    p.grow(5000, 7);
    return p;
  }();
  CoverageState cover(pool);
  cover.add_seed(0);
  NodeId v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cover.marginal_nu(v));
    v = (v + 1) % graph.node_count();
  }
  state.counters["pool_size"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_CoverageMarginal);

// Serial vs deterministic-parallel greedy selection (the UBG/MAF hot loop).
// Arg 0 runs the serial sweep; Arg N > 0 runs the same selection on an
// N-thread pool. Seed sets are bit-identical across all variants; compare
// wall time per iteration to read off the selection speedup.
void greedy_selection_bench(benchmark::State& state, const RicPool& pool,
                            GreedyResult (*engine)(const RicPool&,
                                                   std::uint32_t,
                                                   const GreedyOptions&)) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::unique_ptr<ThreadPool> workers;
  GreedyOptions options;
  if (threads > 0) {
    workers = std::make_unique<ThreadPool>(threads);
    options.parallel = true;
    options.pool = workers.get();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine(pool, 10, options).seeds.size());
  }
  // items/s = samples swept per second of selection, like the pool-grow
  // benches report samples grown per second.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.size()));
  state.counters["pool_size"] = static_cast<double>(pool.size());
  state.counters["threads"] = static_cast<double>(threads);
}

const RicPool& small_greedy_pool() {
  static const RicPool pool = [] {
    RicPool p(facebook_graph(), facebook_communities());
    p.grow(8000, 13);
    return p;
  }();
  return pool;
}

void BM_GreedyCHatSelect(benchmark::State& state) {
  greedy_selection_bench(state, small_greedy_pool(), &greedy_c_hat);
}
BENCHMARK(BM_GreedyCHatSelect)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

void BM_CelfGreedyNuSelect(benchmark::State& state) {
  greedy_selection_bench(state, small_greedy_pool(), &celf_greedy_nu);
}
BENCHMARK(BM_CelfGreedyNuSelect)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

// Large-fixture selection: the acceptance benchmark for the CSR/SoA layout
// and the SIMD gain kernels (DESIGN.md §14).
void BM_GreedyCHatSelectLarge(benchmark::State& state) {
  greedy_selection_bench(state, large_pool(), &greedy_c_hat);
}
BENCHMARK(BM_GreedyCHatSelectLarge)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CelfGreedyNuSelectLarge(benchmark::State& state) {
  greedy_selection_bench(state, large_pool(), &celf_greedy_nu);
}
BENCHMARK(BM_CelfGreedyNuSelectLarge)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// UBG (Alg. 2) on the large fixture. Arg 0 runs the two greedies back to
// back on the calling thread; Arg 1 is ubg_solve on a one-worker pool,
// the ν branch on the worker beside the caller's ĉ branch (DESIGN.md §5).
// Same seeds either way. Read the wall time (ns_per_op in the JSON): the
// caller's CPU time misses the branch that ran on the worker.
void BM_UbgSolveLarge(benchmark::State& state) {
  const RicPool& pool = large_pool();
  const bool lanes = state.range(0) != 0;
  ThreadPool worker(1);
  GreedyOptions options;
  options.pool = &worker;
  for (auto _ : state) {
    if (lanes) {
      benchmark::DoNotOptimize(ubg_solve(pool, 10, options).c_hat);
    } else {
      const GreedyResult c_hat = greedy_c_hat(pool, 10);
      const GreedyResult nu = celf_greedy_nu(pool, 10);
      benchmark::DoNotOptimize(std::max(c_hat.c_hat, nu.c_hat));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.size()));
  state.counters["pool_size"] = static_cast<double>(pool.size());
  state.counters["threads"] = lanes ? 1.0 : 0.0;
}
BENCHMARK(BM_UbgSolveLarge)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Huge fixture: ≥10⁶ samples (~25x the covered/arena working set of the
// large fixture — firmly DRAM-resident) on the same full-scale graph. This
// is the scale where the sharded slab sweep and the SIMD kernels are
// measured for acceptance; grown once, reused by both engines.
const RicPool& huge_pool() {
  static const RicPool pool = [] {
    RicPool p(large_graph(), large_communities());
    p.grow(micro_huge_pool_samples(), 23);
    return p;
  }();
  return pool;
}

void BM_GreedyCHatSelectHuge(benchmark::State& state) {
  greedy_selection_bench(state, huge_pool(), &greedy_c_hat);
}
BENCHMARK(BM_GreedyCHatSelectHuge)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CelfGreedyNuSelectHuge(benchmark::State& state) {
  greedy_selection_bench(state, huge_pool(), &celf_greedy_nu);
}
BENCHMARK(BM_CelfGreedyNuSelectHuge)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Fixture for the end-to-end IMCAF rows: a 2000-node BA graph under the
// weighted cascade, cut into consecutive 6-node communities with h = 2.
// The solve is a small share of each row's wall time (sampling and the
// Dagum estimate dominate), as on perfbench's cold_solve workload.
const Graph& ba_hub_graph() {
  static const Graph graph = [] {
    Rng rng(77);
    BarabasiAlbertConfig config;
    config.nodes = 2000;
    config.attach = 2;
    EdgeList edges = barabasi_albert_edges(config, rng);
    apply_weighted_cascade(edges, config.nodes);
    return Graph(config.nodes, edges);
  }();
  return graph;
}

const CommunitySet& ba_hub_communities() {
  static const CommunitySet communities = [] {
    const NodeId n = ba_hub_graph().node_count();
    std::vector<std::vector<NodeId>> groups;
    for (NodeId begin = 0; begin < n; begin += 6) {
      auto& group = groups.emplace_back();
      for (NodeId v = begin; v < std::min<NodeId>(begin + 6, n); ++v) {
        group.push_back(v);
      }
    }
    CommunitySet set(n, std::move(groups));
    apply_constant_thresholds(set, 2);
    apply_population_benefits(set);
    return set;
  }();
  return communities;
}

// End-to-end Alg. 5 runs, argument {threads}; every doubling stage grows,
// solves cold, then estimates, one after another (DESIGN.md §15).
// threads == 0 has no engine worker pool (UBG's ν lane still runs on
// default_pool(), DESIGN.md §5). Sampling and the stop-stage estimate stay
// SERIAL in the rows with 0 or >= 2 threads (parallel_sampling = false),
// so those rows differ only in where UBG's ν lane runs. The one-worker
// row /1 is the configuration perfbench runs (--workers 1): parallel
// sampling on a one-worker pool, where the caller that waits on a grow or
// an estimate block draws beside the worker. items_per_second = RIC
// samples generated end to end. The overlap, speculative_* and pipeline
// counters stay in the schema and read zero.
void BM_ImcafEndToEnd(benchmark::State& state) {
  const Graph& graph = ba_hub_graph();
  const CommunitySet& communities = ba_hub_communities();
  const UbgSolver solver;
  const auto threads = static_cast<unsigned>(state.range(0));
  ImcafConfig config;
  config.max_samples = 24000;  // 4 stop stages from Λ ≈ 1.0k to 8,048
  config.seed = 2024;
  config.parallel_sampling = threads == 1;
  std::unique_ptr<ThreadPool> workers;
  if (threads > 0) workers = std::make_unique<ThreadPool>(threads);
  double sampling_seconds = 0.0;
  double solver_seconds = 0.0;
  double estimate_seconds = 0.0;
  double overlap_seconds = 0.0;
  double committed = 0.0;
  double discarded = 0.0;
  double stop_stages = 0.0;
  std::int64_t samples = 0;
  for (auto _ : state) {
    ExecutionContext context;
    context.workers = workers.get();
    ImcEngine engine(graph, communities, config, context);
    const ImcafResult result = engine.solve(10, solver);
    benchmark::DoNotOptimize(result.seeds.size());
    sampling_seconds += result.sampling_seconds;
    solver_seconds += result.solver_seconds;
    estimate_seconds += result.estimate_seconds;
    overlap_seconds += result.overlap_seconds;
    committed += static_cast<double>(result.speculative_samples_committed);
    discarded += static_cast<double>(result.speculative_samples_discarded);
    stop_stages = static_cast<double>(result.stop_stages);
    samples += static_cast<std::int64_t>(result.samples_generated);
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(samples);
  state.counters["sampling_seconds"] = sampling_seconds / iterations;
  state.counters["solver_seconds"] = solver_seconds / iterations;
  state.counters["estimate_seconds"] = estimate_seconds / iterations;
  state.counters["overlap_seconds"] = overlap_seconds / iterations;
  state.counters["speculative_samples_committed"] = committed / iterations;
  state.counters["speculative_samples_discarded"] = discarded / iterations;
  state.counters["stop_stages"] = stop_stages;
  state.counters["pipeline"] = 0.0;
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ImcafEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Louvain(benchmark::State& state) {
  const Graph& graph = facebook_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(louvain_communities(graph).modularity);
  }
}
BENCHMARK(BM_Louvain);

// Console output as usual, plus a JSON record per finished run so perf
// tracking can diff BENCH_micro.json files across commits.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::ostringstream record;
      record << "    {\"name\": \"" << json_escape(run.benchmark_name())
             << "\", \"ns_per_op\": " << to_ns(run.GetAdjustedRealTime(), run)
             << ", \"cpu_ns_per_op\": " << to_ns(run.GetAdjustedCPUTime(), run)
             << ", \"iterations\": " << run.iterations;
      for (const auto& [name, counter] : run.counters) {
        record << ", \"" << json_escape(name) << "\": " << counter.value;
      }
      record << "}";
      records_.push_back(record.str());
    }
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro_components: cannot open " << path << "\n";
      return;
    }
    out << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << records_.size() << " benchmark records to "
              << path << "\n";
  }

 private:
  static double to_ns(double time, const Run& run) {
    switch (run.time_unit) {
      case benchmark::kNanosecond: return time;
      case benchmark::kMicrosecond: return time * 1e3;
      case benchmark::kMillisecond: return time * 1e6;
      case benchmark::kSecond: return time * 1e9;
    }
    return time;
  }

  std::vector<std::string> records_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  bool json_named = false;
  bool filtered = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      json_named = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
      json_named = true;
    } else {
      filtered = filtered || arg.rfind("--benchmark_filter", 0) == 0;
      passthrough.push_back(argv[i]);
    }
  }
  if (filtered && !json_named) json_path.clear();
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write(json_path);
  if (filtered && !json_named) {
    std::cout << "--benchmark_filter without --json: no JSON file written\n";
  }
  benchmark::Shutdown();
  return 0;
}
