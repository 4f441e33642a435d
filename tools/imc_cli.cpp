// imc_cli — command-line front end for the library.
//
// Usage:
//   imc_cli stats       [--dataset NAME | --graph FILE [--undirected]] [--scale S]
//   imc_cli communities [graph opts] [--method louvain|random|lpa]
//                       [--size-cap S] [--regime regular|bounded]
//   imc_cli solve       [graph opts] [community opts] --algo ubg|maf|bt|mb
//                       [--k K] [--max-samples N] [--model ic|lt]
//                       [--parallel] [--threads N] [--time-budget-s S]
//                       [--metrics-json FILE] [--no-pipeline]
//                       [--save-pool FILE]
//                       [--load-pool FILE]
//                       [--apply-deltas FILE]
//   imc_cli baseline    [graph opts] [community opts]
//                       --algo hbc|ks|im|imm|degree|random [--k K]
//   imc_cli simulate    [graph opts] [community opts] --seeds 1,2,3
//                       [--simulations N] [--model ic|lt]
//
// Graphs come either from the synthetic Table-I stand-ins (--dataset) or a
// SNAP edge-list file (--graph; weighted-cascade IC probabilities applied).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "imc/imc.h"

namespace {

using namespace imc;

/// Argument mistakes the CLI can diagnose up front (bad values, flags that
/// do not apply to the subcommand). main() prints the message plus the
/// usage text and exits 2, distinguishing operator error from runtime
/// failures (exit 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

Graph load_graph(const ArgParser& args) {
  if (args.has("graph")) {
    EdgeListOptions options;
    options.undirected = args.get_bool("undirected", false);
    LoadedEdgeList loaded =
        load_edge_list(args.get_string("graph", ""), options);
    apply_weighted_cascade(loaded.edges, loaded.node_count);
    return Graph(loaded.node_count, loaded.edges);
  }
  const std::string dataset = args.get_string("dataset", "facebook");
  const double scale = args.get_double("scale", 0.2);
  return make_dataset(dataset_from_name(dataset), scale);
}

CommunitySet load_communities(const ArgParser& args, const Graph& graph) {
  if (args.has("communities")) {
    CommunitySet loaded =
        imc::load_communities(args.get_string("communities", ""));
    if (loaded.node_count() != graph.node_count()) {
      throw std::invalid_argument(
          "--communities file does not match the graph's node count");
    }
    return loaded;
  }
  CommunityBuildConfig config;
  const std::string method = args.get_string("method", "louvain");
  if (method == "louvain") {
    config.method = CommunityMethod::kLouvain;
  } else if (method == "random") {
    config.method = CommunityMethod::kRandom;
  } else if (method == "lpa") {
    config.method = CommunityMethod::kLabelPropagation;
  } else {
    throw std::invalid_argument("unknown --method " + method);
  }
  config.size_cap =
      static_cast<NodeId>(args.get_int("size-cap", 8));
  const std::string regime = args.get_string("regime", "regular");
  if (regime == "regular") {
    config.regime = ThresholdRegime::kFractionOfPopulation;
    config.threshold_fraction = args.get_double("threshold-fraction", 0.5);
  } else if (regime == "bounded") {
    config.regime = ThresholdRegime::kConstantBounded;
    config.threshold_constant =
        static_cast<std::uint32_t>(args.get_int("threshold", 2));
  } else {
    throw std::invalid_argument("unknown --regime " + regime);
  }
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  return build_communities(graph, config);
}

DiffusionModel load_model(const ArgParser& args) {
  const std::string model = args.get_string("model", "ic");
  if (model == "ic") return DiffusionModel::kIndependentCascade;
  if (model == "lt") return DiffusionModel::kLinearThreshold;
  throw std::invalid_argument("unknown --model " + model);
}

std::vector<NodeId> parse_seed_list(const std::string& text) {
  std::vector<NodeId> seeds;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) {
      seeds.push_back(static_cast<NodeId>(std::stoul(token)));
    }
  }
  return seeds;
}

void print_seeds(const std::vector<NodeId>& seeds) {
  std::cout << "seeds:";
  for (const NodeId v : seeds) std::cout << ' ' << v;
  std::cout << "\n";
}

int cmd_stats(const ArgParser& args) {
  const Graph graph = load_graph(args);
  const auto stats = graph.degree_stats();
  Table table("graph statistics", {"metric", "value"});
  table.add_row({std::string("nodes"),
                 static_cast<long long>(graph.node_count())});
  table.add_row({std::string("edges"),
                 static_cast<long long>(graph.edge_count())});
  table.add_row({std::string("mean out-degree"), stats.mean_out});
  table.add_row({std::string("max out-degree"),
                 static_cast<long long>(stats.max_out)});
  table.add_row({std::string("max in-degree"),
                 static_cast<long long>(stats.max_in)});
  table.add_row({std::string("isolated nodes"),
                 static_cast<long long>(stats.isolated)});
  table.add_row({std::string("weak components"),
                 static_cast<long long>(
                     weakly_connected_components(graph).count)});
  table.add_row({std::string("strong components"),
                 static_cast<long long>(
                     strongly_connected_components(graph).count)});
  table.add_row({std::string("avg clustering coeff"),
                 average_clustering_coefficient(graph)});
  table.add_row({std::string("degeneracy (max core)"),
                 static_cast<long long>(degeneracy(graph))});
  table.add_row({std::string("power-law exponent (MLE)"),
                 power_law_exponent_mle(graph)});
  table.print(std::cout);
  return 0;
}

int cmd_communities(const ArgParser& args) {
  const Graph graph = load_graph(args);
  const CommunitySet communities = load_communities(args, graph);
  const auto sizes = community_size_stats(communities);
  Table table("community structure", {"metric", "value"});
  table.add_row({std::string("communities (r)"),
                 static_cast<long long>(communities.size())});
  table.add_row({std::string("coverage"), communities.coverage()});
  table.add_row({std::string("population min"),
                 static_cast<long long>(sizes.min)});
  table.add_row({std::string("population max"),
                 static_cast<long long>(sizes.max)});
  table.add_row({std::string("population mean"), sizes.mean});
  table.add_row({std::string("mean threshold h"), sizes.threshold_mean});
  table.add_row({std::string("total benefit b"),
                 communities.total_benefit()});
  table.add_row({std::string("internal edge fraction"),
                 internal_edge_fraction(graph, communities)});
  table.add_row({std::string("avg conductance"),
                 average_conductance(graph, communities)});
  table.print(std::cout);
  if (args.has("save")) {
    const std::string path = args.get_string("save", "");
    save_communities(path, communities);
    std::cout << "saved to " << path
              << " (reusable via --communities)\n";
  }
  return 0;
}

int cmd_solve(const ArgParser& args) {
  // Mutable: --apply-deltas streams GraphDelta batches into them.
  Graph graph = load_graph(args);
  CommunitySet communities = load_communities(args, graph);
  const auto k = static_cast<std::uint32_t>(args.get_int("k", 10));

  const std::string algo = args.get_string("algo", "ubg");
  MaxrAlgorithm algorithm;
  if (algo == "ubg") {
    algorithm = MaxrAlgorithm::kUbg;
  } else if (algo == "maf") {
    algorithm = MaxrAlgorithm::kMaf;
  } else if (algo == "bt") {
    algorithm = MaxrAlgorithm::kBt;
  } else if (algo == "mb") {
    algorithm = MaxrAlgorithm::kMb;
  } else {
    throw std::invalid_argument("unknown --algo " + algo);
  }
  MaxrSolverOptions solver_options;
  solver_options.parallel = args.get_bool("parallel", false);
  const auto solver = make_maxr_solver(algorithm, solver_options);

  ImcafConfig config;
  config.max_samples = static_cast<std::uint64_t>(
      args.get_int("max-samples", 20000));
  config.model = load_model(args);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  config.parallel_sampling = args.get_bool("parallel-sampling", true);
  config.pipeline = !args.get_bool("no-pipeline", false);

  const double time_budget = args.get_double("time-budget-s", 0.0);
  if (args.has("time-budget-s") && !(time_budget > 0.0)) {
    throw UsageError("--time-budget-s must be a positive number of seconds");
  }
  const std::string metrics_path = args.get_string("metrics-json", "");
  if (args.has("metrics-json") && metrics_path.empty()) {
    throw UsageError("--metrics-json requires a file path");
  }

  RecordingMetricsSink metrics;
  ExecutionContext context;
  context.seed = config.seed;
  // Construct the Deadline last so the clock starts as close to the run as
  // possible (the context doc's "build right before launching").
  if (time_budget > 0.0) context.deadline = Deadline(time_budget);
  if (!metrics_path.empty()) context.metrics = &metrics;

  ImcEngine engine(graph, communities, config, context);
  if (args.has("load-pool")) {
    const std::string pool_path = args.get_string("load-pool", "");
    if (pool_path.empty()) throw UsageError("--load-pool requires a path");
    engine.attach_pool(pool_path);
    std::cout << "attached pool " << pool_path << " (|R|="
              << engine.pool().size() << ")\n";
  }
  ImcafResult result = engine.solve(k, *solver);

  // Dynamic-graph replay (DESIGN.md §16): each blank-line-separated batch
  // in the file is applied as one GraphDelta — the shared pool is repaired
  // in place, then the query re-solves on the mutated instance. The final
  // printed result (and any --save-pool snapshot) reflects the last state.
  if (args.has("apply-deltas")) {
    const std::string delta_path = args.get_string("apply-deltas", "");
    if (delta_path.empty()) {
      throw UsageError("--apply-deltas requires a file path");
    }
    std::ifstream in(delta_path);
    if (!in) {
      throw std::runtime_error("cannot open --apply-deltas file " +
                               delta_path);
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::vector<GraphDelta> stream = parse_delta_stream(buffer.str());
    std::cout << "replaying " << stream.size() << " delta batch"
              << (stream.size() == 1 ? "" : "es") << " from " << delta_path
              << "\n";
    std::size_t batch_no = 0;
    for (const GraphDelta& delta : stream) {
      ++batch_no;
      const RicPool::RepairStats stats =
          engine.apply_delta(graph, communities, delta);
      result = engine.solve(k, *solver);
      std::cout << "batch " << batch_no << ": " << delta.edges.size()
                << " edge op(s), " << delta.moves.size()
                << " move(s); repaired " << stats.repaired << "/"
                << stats.total << " samples; c_hat " << result.c_hat
                << " (|R|=" << result.samples_used << ")\n";
    }
  }

  if (args.has("save-pool")) {
    const std::string pool_path = args.get_string("save-pool", "");
    if (pool_path.empty()) throw UsageError("--save-pool requires a path");
    save_ric_pool_snapshot(pool_path, engine.pool());
    std::cout << "pool snapshot written to " << pool_path << " (|R|="
              << engine.pool().size() << ")\n";
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      throw std::runtime_error("cannot open --metrics-json file " +
                               metrics_path);
    }
    metrics.write_json(out);
  }

  print_seeds(result.seeds);
  std::cout << "c_hat on final pool:   " << result.c_hat << "\n"
            << "independent estimate:  " << result.estimated_benefit << "\n"
            << "RIC samples used:      " << result.samples_used << "\n"
            << "stop stages:           " << result.stop_stages << "\n"
            << "runtime seconds:       " << result.runtime_seconds << "\n"
            << "total benefit in play: " << communities.total_benefit()
            << "\n";
  if (result.reached_deadline) {
    std::cout << "note: time budget expired; seeds are the best candidate "
                 "from the completed stages\n";
  }
  if (!metrics_path.empty()) {
    std::cout << "stage metrics written to " << metrics_path << "\n";
  }
  return 0;
}

int cmd_baseline(const ArgParser& args) {
  const Graph graph = load_graph(args);
  const CommunitySet communities = load_communities(args, graph);
  const auto k = static_cast<std::uint32_t>(args.get_int("k", 10));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));

  const std::string algo = args.get_string("algo", "hbc");
  std::vector<NodeId> seeds;
  if (algo == "hbc") {
    seeds = hbc_select(graph, communities, k);
  } else if (algo == "ks") {
    seeds = ks_select(communities, k, rng);
  } else if (algo == "im") {
    seeds = im_ris_select(graph, k).seeds;
  } else if (algo == "imm") {
    seeds = imm_select(graph, k).seeds;
  } else if (algo == "degree") {
    seeds = degree_select(graph, k);
  } else if (algo == "pagerank") {
    seeds = pagerank_select(graph, k);
  } else if (algo == "degree-discount") {
    seeds = degree_discount_select(graph, k);
  } else if (algo == "random") {
    seeds = random_select(graph, k, rng);
  } else {
    throw std::invalid_argument("unknown --algo " + algo);
  }
  print_seeds(seeds);
  std::cout << "estimated benefit: "
            << BenefitOracle(graph, communities).benefit(seeds) << " of "
            << communities.total_benefit() << "\n";
  return 0;
}

int cmd_simulate(const ArgParser& args) {
  const Graph graph = load_graph(args);
  const CommunitySet communities = load_communities(args, graph);
  const std::vector<NodeId> seeds =
      parse_seed_list(args.get_string("seeds", "0"));

  MonteCarloOptions mc;
  mc.simulations = static_cast<std::uint32_t>(
      args.get_int("simulations", 10000));
  mc.model = load_model(args);
  std::cout << "seeds: " << seeds.size() << "\n"
            << "expected spread:  "
            << mc_expected_spread(graph, seeds, mc) << "\n"
            << "expected benefit: "
            << mc_expected_benefit(graph, communities, seeds, mc) << " of "
            << communities.total_benefit() << "\n"
            << "expected nu:      "
            << mc_expected_nu(graph, communities, seeds, mc) << "\n";
  return 0;
}

void print_usage() {
  std::cout <<
      "imc_cli — Influence Maximization at Community Level\n"
      "subcommands:\n"
      "  stats        graph statistics\n"
      "  communities  community detection + structure metrics\n"
      "  solve        run IMCAF with UBG/MAF/BT/MB\n"
      "  baseline     run HBC/KS/IM/IMM/degree/pagerank/degree-discount/"
      "random\n"
      "  simulate     Monte-Carlo evaluation of a given seed list\n"
      "common options: --dataset NAME | --graph FILE [--undirected],\n"
      "  --scale S, --method louvain|random|lpa, --size-cap S,\n"
      "  --regime regular|bounded, --k K, --model ic|lt, --seed N,\n"
      "  --threads N (pool workers; also via IMC_THREADS env; sampling\n"
      "    runs on the N workers plus the waiting caller),\n"
      "  --parallel (deterministic parallel seed selection in solve)\n"
      "solve-only options:\n"
      "  --time-budget-s S   wall-clock budget; returns the best seeds from\n"
      "                      the stages that completed in time\n"
      "  --metrics-json F    write per-stage engine telemetry as JSON to F\n"
      "  --no-pipeline       serial grow/solve/estimate schedule instead of\n"
      "                      overlapping the next stage's sampling with the\n"
      "                      solve (results are bit-identical either way)\n"
      "  --save-pool F       write the final pool as a binary v4 snapshot\n"
      "  --load-pool F       start from a v4 snapshot, read into memory\n"
      "                      and fully verified\n"
      "  --apply-deltas F    after the first solve, replay streaming graph\n"
      "                      updates from F (lines 'E u v w' upsert an edge,\n"
      "                      w=0 removes; 'M v c' moves v to community c;\n"
      "                      blank lines separate batches); each batch\n"
      "                      repairs the pool in place and re-solves\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) {
    print_usage();
    return 2;
  }
  const std::string& command = args.positional().front();
  try {
    if (command != "solve") {
      for (const char* flag : {"time-budget-s", "metrics-json",
                               "no-pipeline", "save-pool", "load-pool",
                               "apply-deltas"}) {
        if (args.has(flag)) {
          throw UsageError(std::string("--") + flag +
                           " only applies to the solve subcommand");
        }
      }
    }
    // Size the shared pool before anything touches it.
    const auto threads = args.get_int("threads", 0);
    if (threads > 0) {
      set_default_pool_threads(static_cast<unsigned>(threads));
    }
    if (command == "stats") return cmd_stats(args);
    if (command == "communities") return cmd_communities(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "baseline") return cmd_baseline(args);
    if (command == "simulate") return cmd_simulate(args);
    std::cerr << "unknown subcommand: " << command << "\n";
    print_usage();
    return 2;
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n";
    print_usage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
