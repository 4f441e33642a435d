// Ablation: RIC sample budget sensitivity.
//
//   1. Solution quality (independent Dagum score) of UBG as the pool grows
//      — how many samples the estimate actually needs vs the Ψ worst case.
//   2. Sampler throughput by dataset / threshold regime.
#include "bench_common.h"

#include "core/ubg.h"
#include "estimation/concentration.h"
#include "sampling/ric_pool.h"

int main(int argc, char** argv) {
  using namespace imc;
  using namespace imc::bench;
  const BenchContext ctx = BenchContext::from_args(argc, argv);
  banner("Ablation — RIC sampling budget");

  const Graph graph = load_dataset(DatasetId::kFacebook, ctx);
  const CommunitySet communities = standard_communities(
      graph, CommunityMethod::kLouvain,
      ThresholdRegime::kFractionOfPopulation);
  constexpr std::uint32_t k = 10;

  // Ψ for reference (the eq. 22 worst case the doubling scheme avoids).
  ApproxParams params;
  const double psi = static_cast<double>(psi_sample_cap(
      graph.node_count(), k, communities.total_benefit(),
      communities.min_benefit(), communities.max_threshold(),
      1.0 - 1.0 / 2.718281828, params));
  std::cout << "Psi (eq. 22 cap) for this instance: " << psi << "\n\n";

  Table table("UBG quality vs pool size",
              {"samples", "chat", "dagum_benefit", "gen_seconds",
               "solve_seconds"});
  RicPool pool(graph, communities);
  std::uint64_t have = 0;
  double generation_seconds = 0.0;
  for (const std::uint64_t target :
       {500ULL, 1000ULL, 2000ULL, 4000ULL, 8000ULL, 16000ULL, 32000ULL}) {
    Stopwatch watch;
    pool.grow(target - have, 0xAB1A2);
    generation_seconds += watch.elapsed_seconds();
    have = target;
    watch.restart();
    const UbgSolution solution = ubg_solve(pool, k);
    const double solve_seconds = watch.elapsed_seconds();
    const double score =
        evaluate_benefit(graph, communities, solution.seeds, target);
    table.add_row({static_cast<long long>(target), solution.c_hat, score,
                   generation_seconds, solve_seconds});
  }
  emit(ctx, table, "ablation_sampling_budget");

  Table throughput("RIC sampler throughput",
                   {"dataset", "regime", "samples_per_second",
                    "mean_touch_size"});
  for (const DatasetId dataset :
       {DatasetId::kFacebook, DatasetId::kWikiVote, DatasetId::kEpinions}) {
    const Graph g = load_dataset(dataset, ctx);
    for (const ThresholdRegime regime :
         {ThresholdRegime::kFractionOfPopulation,
          ThresholdRegime::kConstantBounded}) {
      const CommunitySet com =
          standard_communities(g, CommunityMethod::kLouvain, regime);
      RicSampler sampler(g, com);
      RicSampler::TouchArena arena;
      Rng rng(0xAB1A3);
      Stopwatch watch;
      std::uint64_t touches = 0;
      constexpr int kSamples = 3000;
      for (int i = 0; i < kSamples; ++i) {
        arena.clear();
        touches += sampler.generate_into(rng, arena).touch_count;
      }
      const double seconds = watch.elapsed_seconds();
      throughput.add_row(
          {dataset_info(dataset).name, std::string(to_string(regime)),
           seconds > 0 ? kSamples / seconds : 0.0,
           static_cast<double>(touches) / kSamples});
    }
  }
  emit(ctx, throughput, "ablation_sampling_throughput");
  return 0;
}
