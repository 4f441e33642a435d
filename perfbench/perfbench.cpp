// imc_perfbench — end-to-end benchmark of the staged IMCAF engine (paper
// Alg. 5: grow RIC samples, solve MAXR, check the stop stage with a Dagum
// estimate) through the public imc API. One process runs one workload and
// prints one JSON object as the last line of stdout; run.py builds this
// binary, runs it, and turns that object into the benchmark result.
//
//   imc_perfbench --workload cold_solve|warm_queries|delta_stream
//                 --seed N --seconds S --trace 0|1 --workers W
//                 [--size full|smoke] [--out-dir DIR]
//
// Every op is checked (see check_op), every op cycle repeats exactly, and
// returned seed sets are scored on an evaluation pool the engine never
// sees. With --trace 1 every other op records spans and the per-layer
// split; the ops in between are the untraced baseline of the tracing
// overhead. README.md in this folder documents the metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "imc/imc.h"
#include "trace.h"

namespace {

namespace fs = std::filesystem;
using imc::CommunityId;
using imc::NodeId;
using perfbench::StageSink;
using perfbench::TraceRecorder;

// ---- fixtures ---------------------------------------------------------------

/// One benchmark size. The graph and communities are fixed per size; only
/// the per-op seeds, k values and deltas derive from --seed.
struct Fixture {
  imc::DatasetId dataset = imc::DatasetId::kDblp;
  double scale = 0.05;
  imc::ApproxParams params{};
  std::uint64_t cold_cap = 0;        // |R| cap of a cold op (a hit fails it)
  std::uint32_t cold_k = 10;
  std::uint32_t cold_period = 64;    // distinct engine seeds per cycle
  std::uint32_t warm_k_lo = 20;
  std::uint32_t warm_k_hi = 50;
  std::uint32_t delta_k = 10;
  std::uint32_t delta_batches = 24;  // forward batches; the cycle undoes them
  std::uint32_t edge_ops = 2;        // edge updates per forward batch
  std::uint32_t move_every = 4;      // one member move every n-th batch
  std::uint64_t pool_samples = 0;    // warm/delta pool, attached from disk
  std::uint64_t eval_samples = 0;    // held-out scoring pool
  std::uint64_t min_timed_ops = 100; // so >= 10 ops lie beyond op_p90_s
  // Set-up repeats until both minima are met, so that even the 40 ms cold
  // set-up is measured over seconds rather than one scheduling slice.
  unsigned setup_reps = 7;
  double setup_min_s = 3.0;
  unsigned warmup_ops = 4;
};

Fixture fixture_for(const std::string& size) {
  Fixture f;
  if (size == "full") {
    f.dataset = imc::DatasetId::kDblp;
    f.scale = 0.05;
    f.params.epsilon = 0.3;
    f.cold_cap = 1u << 20;
    f.pool_samples = 30'000;
    f.eval_samples = 100'000;
    return f;
  }
  if (size == "smoke") {
    f.dataset = imc::DatasetId::kFacebook;
    f.scale = 0.3;
    f.params.epsilon = 0.5;
    f.params.delta = 0.5;
    f.cold_cap = 1u << 18;
    f.cold_period = 4;
    f.warm_k_lo = 4;
    f.warm_k_hi = 6;
    f.delta_k = 4;
    f.delta_batches = 2;
    f.move_every = 2;
    f.pool_samples = 4'000;
    f.eval_samples = 10'000;
    f.min_timed_ops = 10;
    f.setup_reps = 2;
    f.setup_min_s = 0.0;
    f.warmup_ops = 1;
    return f;
  }
  throw std::invalid_argument("unknown --size '" + size +
                              "' (expected full or smoke)");
}

imc::CommunitySet make_communities(const imc::Graph& graph) {
  // The paper's bounded regime (§VI-A): Louvain, size cap 8, h_i = 2.
  imc::CommunityBuildConfig config;
  config.method = imc::CommunityMethod::kLouvain;
  config.size_cap = 8;
  config.regime = imc::ThresholdRegime::kConstantBounded;
  config.threshold_constant = 2;
  return imc::build_communities(graph, config);
}

enum class Workload { kColdSolve, kWarmQueries, kDeltaStream };

Workload workload_from_name(const std::string& name) {
  if (name == "cold_solve") return Workload::kColdSolve;
  if (name == "warm_queries") return Workload::kWarmQueries;
  if (name == "delta_stream") return Workload::kDeltaStream;
  throw std::invalid_argument("unknown --workload '" + name + "'");
}

// ---- measurement helpers ----------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Independent 64-bit seed number `stream` of the workload seed.
std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  imc::ExecutionContext context;
  context.seed = seed;
  return context.substream(stream);
}

/// Directory for snapshot files, removed (with its contents) on scope exit.
class TempDir {
 public:
  explicit TempDir(const fs::path& parent)
      : path_(parent / ("tmp-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

// ---- setup ------------------------------------------------------------------

struct SetupTimes {
  double graph_s = 0.0;
  double community_s = 0.0;
  double pool_grow_s = 0.0;
  double snapshot_save_s = 0.0;
  double attach_s = 0.0;
  double snapshot_mb = 0.0;
  double total_s = 0.0;
};

/// Everything an op runs against. The engine (warm/delta only) borrows the
/// graph and communities, so it is declared after them and dies first.
struct World {
  std::unique_ptr<imc::Graph> graph;
  std::unique_ptr<imc::CommunitySet> communities;
  std::unique_ptr<imc::ImcEngine> engine;
};

/// Engine configuration of the long-lived warm/delta engine: its seed is the
/// one the attached pool was grown with (repair regenerates samples from
/// it), and the cap equals the pool size, so no query can grow the pool or
/// start speculative growth.
imc::ImcafConfig attached_config(const Fixture& f, std::uint64_t pool_seed) {
  imc::ImcafConfig config;
  config.params = f.params;
  config.seed = pool_seed;
  config.max_samples = f.pool_samples;
  return config;
}

World set_up(Workload workload, const Fixture& f, std::uint64_t pool_seed,
             const fs::path& tmp, const imc::ExecutionContext& context,
             TraceRecorder* recorder, SetupTimes& times) {
  World world;
  const auto phase = [&](const char* name, double& slot,
                         const std::function<void()>& body) {
    const double start = recorder != nullptr ? recorder->now_us() : 0.0;
    const imc::Stopwatch watch;
    body();
    slot = watch.elapsed_seconds();
    if (recorder != nullptr) recorder->span(name, start, recorder->now_us());
  };

  const imc::Stopwatch total;
  phase("setup.graph", times.graph_s, [&] {
    world.graph = std::make_unique<imc::Graph>(
        imc::make_dataset(f.dataset, f.scale));
  });
  phase("setup.community", times.community_s, [&] {
    world.communities =
        std::make_unique<imc::CommunitySet>(make_communities(*world.graph));
  });
  if (workload != Workload::kColdSolve) {
    const fs::path snapshot = tmp / "pool.snap";
    {
      imc::RicPool pool(*world.graph, *world.communities,
                        imc::DiffusionModel::kIndependentCascade);
      phase("setup.pool_grow", times.pool_grow_s, [&] {
        pool.grow(f.pool_samples, pool_seed, /*parallel=*/true,
                  context.workers);
      });
      phase("setup.snapshot_save", times.snapshot_save_s,
            [&] { imc::save_ric_pool_snapshot(snapshot.string(), pool); });
    }
    times.snapshot_mb = static_cast<double>(fs::file_size(snapshot)) / 1e6;
    world.engine = std::make_unique<imc::ImcEngine>(
        *world.graph, *world.communities, attached_config(f, pool_seed),
        context);
    phase("ImcEngine::attach_pool", times.attach_s,
          [&] { world.engine->attach_pool(snapshot.string()); });
  }
  times.total_s = total.elapsed_seconds();
  return world;
}

// ---- delta cycle ------------------------------------------------------------

/// Builds the delta_stream op cycle: `f.delta_batches` forward batches
/// followed by their inverses in the same order, so the graph and the
/// community structure return bit-for-bit to their original state after
/// every cycle. The forward batches touch pairwise-distinct edges and
/// communities, which is what lets each inverse commute with the batches
/// around it. Member moves take the LAST member of a community, so moving
/// it back (move_member appends) restores the original member order — and
/// with it the sampler's mask-bit layout.
std::vector<imc::GraphDelta> make_delta_cycle(const imc::Graph& graph,
                                              const imc::CommunitySet& com,
                                              const Fixture& f,
                                              std::uint64_t seed) {
  imc::Rng rng(seed);
  const NodeId n = graph.node_count();
  std::unordered_set<std::uint64_t> used_edges;
  std::unordered_set<CommunityId> used_communities;
  const auto edge_key = [](NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  const auto random_in_edge = [&](NodeId& u, NodeId& v) {
    for (;;) {
      v = static_cast<NodeId>(rng.below(n));
      const auto in = graph.in_neighbors(v);
      if (in.empty()) continue;
      u = in[rng.below(in.size())].node;
      if (used_edges.insert(edge_key(u, v)).second) return;
    }
  };

  std::vector<imc::GraphDelta> forward(f.delta_batches);
  std::vector<imc::GraphDelta> inverse(f.delta_batches);
  for (std::uint32_t b = 0; b < f.delta_batches; ++b) {
    for (std::uint32_t i = 0; i < f.edge_ops; ++i) {
      NodeId u = 0;
      NodeId v = 0;
      switch ((b + i) % 3) {
        case 0: {  // weight change, restored later
          random_in_edge(u, v);
          const double w = graph.weight(u, v);
          forward[b].upsert_edge(u, v, w * 0.5);
          inverse[b].upsert_edge(u, v, w);
          break;
        }
        case 1: {  // removal, re-inserted later
          random_in_edge(u, v);
          const double w = graph.weight(u, v);
          forward[b].remove_edge(u, v);
          inverse[b].upsert_edge(u, v, w);
          break;
        }
        default: {  // new edge, removed later
          do {
            u = static_cast<NodeId>(rng.below(n));
            v = static_cast<NodeId>(rng.below(n));
          } while (u == v || graph.has_edge(u, v) ||
                   !used_edges.insert(edge_key(u, v)).second);
          const double w = 1.0 / (graph.in_degree(v) + 1.0);
          forward[b].upsert_edge(u, v, w);
          inverse[b].remove_edge(u, v);
          break;
        }
      }
    }
    if (f.move_every > 0 && b % f.move_every == 0) {
      CommunityId from = 0;
      CommunityId to = 0;
      do {
        from = static_cast<CommunityId>(rng.below(com.size()));
        to = static_cast<CommunityId>(rng.below(com.size()));
      } while (from == to || used_communities.contains(from) ||
               used_communities.contains(to) ||
               com.population(from) <= com.threshold(from) ||
               com.population(to) >= 64);
      used_communities.insert(from);
      used_communities.insert(to);
      const NodeId node = com.members(from).back();
      forward[b].move_member(node, to);
      inverse[b].move_member(node, from);
    }
  }
  std::vector<imc::GraphDelta> cycle = std::move(forward);
  cycle.insert(cycle.end(), inverse.begin(), inverse.end());
  return cycle;
}

// ---- ops --------------------------------------------------------------------

/// Per-layer totals over a set of ops, from outside timings and the
/// engine's stage rows.
struct LayerTotals {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double sampling_s = 0.0;
  double overlap_s = 0.0;
  double solver_s = 0.0;
  double estimate_s = 0.0;
  double repair_s = 0.0;
  std::uint64_t samples_added = 0;
  std::uint64_t spec_committed = 0;
  std::uint64_t spec_discarded = 0;
  std::uint64_t stages = 0;
  std::uint64_t solver_pool_samples = 0;
  std::uint64_t estimate_calls = 0;
  std::uint64_t estimate_samples = 0;
  std::uint64_t accepted = 0;
  std::uint64_t repaired = 0;
  std::uint64_t repair_total = 0;
  double touches_per_sample_sum = 0.0;
};

struct OpOutcome {
  double wall_s = 0.0;
  std::vector<NodeId> seeds;
  std::string failure;  // empty when the op passed every check
};

class Runner {
 public:
  Runner(Workload workload, const Fixture& f, std::uint64_t seed, World& world,
         const imc::ExecutionContext& context, StageSink& sink)
      : workload_(workload), f_(f), world_(world), context_(context),
        sink_(sink) {
    switch (workload_) {
      case Workload::kColdSolve:
        for (std::uint32_t i = 0; i < f.cold_period; ++i) {
          cold_seeds_.push_back(substream(seed, i));
        }
        break;
      case Workload::kWarmQueries: {
        // Every k of [lo, hi] once per cycle, in a seed-shuffled order.
        for (std::uint32_t k = f.warm_k_lo; k <= f.warm_k_hi; ++k) {
          warm_ks_.push_back(k);
        }
        imc::Rng rng(seed);
        for (std::size_t i = warm_ks_.size(); i > 1; --i) {
          std::swap(warm_ks_[i - 1], warm_ks_[rng.below(i)]);
        }
        break;
      }
      case Workload::kDeltaStream:
        deltas_ = make_delta_cycle(*world.graph, *world.communities, f,
                                   substream(seed, 0xDE17A));
        break;
    }
    first_seeds_.resize(period());
  }

  [[nodiscard]] std::uint64_t period() const {
    switch (workload_) {
      case Workload::kColdSolve: return cold_seeds_.size();
      case Workload::kWarmQueries: return warm_ks_.size();
      case Workload::kDeltaStream: return deltas_.size();
    }
    return 1;
  }

  /// The seed set each cycle position first returned (empty when never
  /// reached or failed).
  [[nodiscard]] const std::vector<std::vector<NodeId>>& first_seeds() const {
    return first_seeds_;
  }

  /// True once an op threw on the delta path: the engine must not be used
  /// further (ImcEngine::apply_delta gives only the basic guarantee).
  [[nodiscard]] bool broken() const noexcept { return broken_; }

  /// Runs op `index` of the endless op cycle. With `recorder` (a traced
  /// op), its spans are recorded and its stage rows and outside timings
  /// are added to `totals`.
  OpOutcome run(std::uint64_t index, TraceRecorder* recorder,
                LayerTotals& totals) {
    OpOutcome out;
    const std::uint64_t position = index % period();
    const auto op_id = static_cast<std::int64_t>(index);
    sink_.set_op(op_id, recorder);
    const auto now = [&] { return recorder != nullptr ? recorder->now_us() : 0.0; };
    const double op_start = now();
    double repair_s = 0.0;
    imc::RicPool::RepairStats repair{};
    double touches_per_sample = 0.0;
    const imc::Stopwatch watch;
    try {
      imc::ImcafResult result;
      std::uint32_t k = 0;
      if (workload_ == Workload::kColdSolve) {
        k = f_.cold_k;
        imc::ImcafConfig config;
        config.params = f_.params;
        config.seed = cold_seeds_[position];
        config.max_samples = f_.cold_cap;
        imc::ImcEngine engine(*world_.graph, *world_.communities, config,
                              context_);
        const double solve_start = now();
        result = engine.solve(k, solver_);
        if (recorder != nullptr) {
          recorder->span("ImcEngine::solve", solve_start, now(), op_id);
        }
        touches_per_sample = per_sample_touches(engine.pool());
      } else {
        imc::ImcEngine& engine = *world_.engine;
        if (workload_ == Workload::kDeltaStream) {
          const double repair_start = now();
          const imc::Stopwatch repair_watch;
          repair = engine.apply_delta(*world_.graph, *world_.communities,
                                      deltas_[position]);
          repair_s = repair_watch.elapsed_seconds();
          if (recorder != nullptr) {
            recorder->span("ImcEngine::apply_delta", repair_start, now(),
                           op_id);
          }
          k = f_.delta_k;
        } else {
          k = warm_ks_[position];
        }
        const std::uint64_t pool_before = engine.pool().size();
        const double solve_start = now();
        result = engine.solve(k, solver_);
        if (recorder != nullptr) {
          recorder->span("ImcEngine::solve", solve_start, now(), op_id);
        }
        if (engine.pool().size() != pool_before ||
            result.samples_generated != 0) {
          out.failure = "pool grew";
        }
        touches_per_sample = per_sample_touches(engine.pool());
      }
      out.wall_s = watch.elapsed_seconds();
      if (out.failure.empty()) out.failure = check_op(result, k);
      out.seeds = std::move(result.seeds);
    } catch (const std::exception& error) {
      out.wall_s = watch.elapsed_seconds();
      out.failure = std::string("threw: ") + error.what();
      if (workload_ == Workload::kDeltaStream) broken_ = true;
    }
    if (recorder != nullptr) recorder->span("op", op_start, now(), op_id);

    const std::vector<imc::StageMetrics> rows = sink_.take();
    if (out.failure.empty() && (rows.empty() || !rows.back().accepted)) {
      out.failure = "last estimate not accepted";
    }
    if (out.failure.empty()) check_repeat(position, out);
    if (recorder != nullptr) {
      add_totals(totals, out, rows, repair_s, repair, touches_per_sample);
    }
    return out;
  }

 private:
  static double per_sample_touches(const imc::RicPool& pool) {
    return ratio(static_cast<double>(pool.touch_arena().size()),
                 static_cast<double>(pool.size()));
  }

  /// The correctness gate: an op fails when it ended on the cap or the
  /// deadline (so its last estimate did not converge and accept), or when
  /// its seeds are not k distinct in-range nodes.
  [[nodiscard]] std::string check_op(const imc::ImcafResult& result,
                                     std::uint32_t k) const {
    if (result.reached_cap) return "stopped at the sample cap";
    if (result.reached_deadline) return "stopped at the deadline";
    if (!(result.estimated_benefit > 0.0)) return "no accepted estimate";
    if (result.seeds.size() != k) return "wrong seed count";
    std::vector<NodeId> sorted = result.seeds;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return "duplicate seeds";
    }
    if (sorted.back() >= world_.graph->node_count()) return "seed out of range";
    return {};
  }

  /// Determinism: every op cycle repeats the same inputs on the same state,
  /// so each cycle position must return the same seeds every time.
  void check_repeat(std::uint64_t position, OpOutcome& out) {
    std::vector<NodeId>& first = first_seeds_[position];
    if (first.empty()) {
      first = out.seeds;
    } else if (first != out.seeds) {
      out.failure = "seeds differ from the previous cycle";
    }
  }

  static void add_totals(LayerTotals& t, const OpOutcome& out,
                         const std::vector<imc::StageMetrics>& rows,
                         double repair_s,
                         const imc::RicPool::RepairStats& repair,
                         double touches_per_sample) {
    ++t.ops;
    t.wall_s += out.wall_s;
    t.repair_s += repair_s;
    t.repaired += repair.repaired;
    t.repair_total += repair.total;
    t.touches_per_sample_sum += touches_per_sample;
    for (const imc::StageMetrics& row : rows) {
      ++t.stages;
      t.sampling_s += row.sampling_seconds;
      t.overlap_s += row.overlap_seconds;
      t.solver_s += row.solver_seconds;
      t.estimate_s += row.estimate_seconds;
      t.samples_added += row.samples_added;
      t.spec_committed += row.speculative_samples_committed;
      t.spec_discarded += row.speculative_samples_discarded;
      t.solver_pool_samples += row.pool_size;
      if (row.estimate_samples > 0) ++t.estimate_calls;
      t.estimate_samples += row.estimate_samples;
      if (row.accepted) ++t.accepted;
    }
  }

  Workload workload_;
  const Fixture& f_;
  World& world_;
  imc::ExecutionContext context_;
  StageSink& sink_;
  imc::UbgSolver solver_;
  std::vector<std::uint64_t> cold_seeds_;
  std::vector<std::uint32_t> warm_ks_;
  std::vector<imc::GraphDelta> deltas_;
  std::vector<std::vector<NodeId>> first_seeds_;
  bool broken_ = false;
};

// ---- the run ----------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;
};

struct Window {
  std::vector<double> latencies;      // every op of the window
  std::vector<std::uint64_t> visits;  // ops per cycle position
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  LayerTotals traced;                 // traced ops only
  std::uint64_t plain_ops = 0;        // untraced ops of a traced window
  double plain_wall_s = 0.0;
};

/// Closed loop, one caller: runs ops back to back until `seconds` have
/// passed and at least `min_ops` ops ran. With a recorder, op i of cycle c
/// at position p is traced when p + c is odd, so every position alternates
/// between traced and untraced from one cycle to the next and both halves
/// see the same inputs and the same host conditions.
Window run_window(Runner& runner, std::uint64_t& next_index,
                  std::uint64_t min_ops, double seconds,
                  TraceRecorder* recorder, Tally& tally) {
  const std::uint64_t period = runner.period();
  Window window;
  window.visits.assign(period, 0);
  const double cpu_start = process_cpu_seconds();
  const imc::Stopwatch clock;
  while (!runner.broken() && (clock.elapsed_seconds() < seconds ||
                              window.latencies.size() < min_ops)) {
    const std::uint64_t index = next_index++;
    const bool traced =
        recorder != nullptr && (index % period + index / period) % 2 == 1;
    const OpOutcome out =
        runner.run(index, traced ? recorder : nullptr, window.traced);
    ++tally.attempted;
    ++window.visits[index % period];
    window.latencies.push_back(out.wall_s);
    if (recorder != nullptr && !traced) {
      ++window.plain_ops;
      window.plain_wall_s += out.wall_s;
    }
    if (!out.failure.empty()) {
      ++tally.failed;
      ++tally.failures[out.failure];
    }
  }
  window.elapsed_s = clock.elapsed_seconds();
  window.cpu_s = process_cpu_seconds() - cpu_start;
  return window;
}

std::string fnv_digest(const std::vector<std::vector<NodeId>>& seed_sets) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const std::vector<NodeId>& seeds : seed_sets) {
    mix(seeds.size());
    for (const NodeId v : seeds) mix(v);
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!first_) body_ << ",";
    first_ = false;
    body_.precision(17);
    body_ << "\"" << name << "\":{\"value\":" << (std::isfinite(value) ? value : 0.0)
          << ",\"unit\":\"" << unit << "\"}";
  }
  [[nodiscard]] std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream body_;
  bool first_ = true;
};

void add_layer_metrics(JsonMetrics& m, const Window& w,
                       const SetupTimes& setup, const Tally& tally) {
  const LayerTotals& t = w.traced;
  const double ops = static_cast<double>(t.ops);
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  const double wait_s = std::max(0.0, t.sampling_s - t.overlap_s);

  m.add("setup.graph_s", setup.graph_s, "s");
  m.add("setup.community_s", setup.community_s, "s");
  m.add("setup.pool_grow_s", setup.pool_grow_s, "s");
  m.add("setup.snapshot_save_s", setup.snapshot_save_s, "s");
  m.add("setup.attach_s", setup.attach_s, "s");
  m.add("setup.snapshot_mb", setup.snapshot_mb, "MB");

  m.add("op.s_per_op", t.wall_s * per_op, "s");
  m.add("sampling.s_per_op", t.sampling_s * per_op, "s");
  m.add("sampling.samples_per_op", static_cast<double>(t.samples_added) * per_op,
        "count");
  m.add("sampling.samples_per_s",
        ratio(static_cast<double>(t.samples_added), t.sampling_s), "1/s");
  m.add("sampling.touches_per_sample", t.touches_per_sample_sum * per_op,
        "count");
  m.add("sampling.overlap_s_per_op", t.overlap_s * per_op, "s");
  m.add("sampling.wait_s_per_op", wait_s * per_op, "s");
  m.add("sampling.spec_useful_frac",
        ratio(static_cast<double>(t.spec_committed),
              static_cast<double>(t.spec_committed + t.spec_discarded)),
        "ratio");

  m.add("solver.s_per_op", t.solver_s * per_op, "s");
  m.add("solver.calls_per_op", static_cast<double>(t.stages) * per_op, "count");
  m.add("solver.pool_samples_per_op",
        static_cast<double>(t.solver_pool_samples) * per_op, "count");
  m.add("solver.samples_per_s",
        ratio(static_cast<double>(t.solver_pool_samples), t.solver_s), "1/s");

  m.add("estimate.s_per_op", t.estimate_s * per_op, "s");
  m.add("estimate.calls_per_op", static_cast<double>(t.estimate_calls) * per_op,
        "count");
  m.add("estimate.samples_per_op",
        static_cast<double>(t.estimate_samples) * per_op, "count");
  m.add("estimate.samples_per_s",
        ratio(static_cast<double>(t.estimate_samples), t.estimate_s), "1/s");
  m.add("estimate.accept_frac",
        ratio(static_cast<double>(t.accepted),
              static_cast<double>(t.estimate_calls)),
        "ratio");

  m.add("repair.s_per_op", t.repair_s * per_op, "s");
  m.add("repair.repaired_per_op", static_cast<double>(t.repaired) * per_op,
        "count");
  m.add("repair.frac",
        ratio(static_cast<double>(t.repaired),
              static_cast<double>(t.repair_total)),
        "ratio");
  m.add("repair.us_per_repaired",
        ratio(t.repair_s * 1e6, static_cast<double>(t.repaired)), "us");

  m.add("engine.stages_per_op", static_cast<double>(t.stages) * per_op, "count");
  m.add("engine.self_s_per_op",
        (t.wall_s - t.solver_s - t.estimate_s - wait_s - t.repair_s) * per_op,
        "s");
  m.add("process.cpu_s_per_op",
        ratio(w.cpu_s, static_cast<double>(w.latencies.size())), "s");
  // Ops per second of op wall time, traced ops against the untraced ones
  // interleaved with them.
  m.add("trace.overhead_frac",
        1.0 - ratio(ratio(ops, t.wall_s),
                    ratio(static_cast<double>(w.plain_ops), w.plain_wall_s)),
        "ratio");
  m.add("failed_frac",
        ratio(static_cast<double>(tally.failed),
              static_cast<double>(tally.attempted)),
        "ratio");
}

int run(const imc::ArgParser& args) {
  const std::string workload_name = args.get_string("workload", "");
  const Workload workload = workload_from_name(workload_name);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const auto workers = static_cast<unsigned>(args.get_int("workers", 1));
  const Fixture f = fixture_for(args.get_string("size", "full"));
  const fs::path out_dir = args.get_string("out-dir", ".");
  if (seconds <= 0.0 || workers == 0) {
    throw std::invalid_argument("--seconds and --workers must be positive");
  }

  // One fixed worker count for every pool: the default pool is the only
  // one, and every engine and grow call is pointed at it.
  if (!imc::set_default_pool_threads(workers)) {
    throw std::runtime_error("default pool already started");
  }
  // Stage rows are always collected (the correctness gate reads them);
  // spans only on the traced ops of a --trace 1 run.
  StageSink sink;
  TraceRecorder recorder;
  TraceRecorder* const rec = traced ? &recorder : nullptr;
  imc::ExecutionContext context;
  context.workers = &imc::default_pool();
  context.metrics = &sink;

  fs::create_directories(out_dir);
  const TempDir tmp(out_dir);
  const std::uint64_t pool_seed = substream(seed, 0xB001);
  const std::uint64_t eval_seed = substream(seed, 0xE7A1);

  // Set-up runs several times; the last world is kept, the median reported.
  // Only the first is traced.
  std::vector<SetupTimes> setups;
  World world;
  const imc::Stopwatch setup_clock;
  while (setups.size() < f.setup_reps ||
         setup_clock.elapsed_seconds() < f.setup_min_s) {
    TraceRecorder* const setup_rec = setups.empty() ? rec : nullptr;
    world.engine.reset();  // the engine borrows the graph: it goes first
    world = set_up(workload, f, pool_seed, tmp.path(), context, setup_rec,
                   setups.emplace_back());
  }
  const auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return median(values);
  };
  SetupTimes setup;
  setup.graph_s = median_of(&SetupTimes::graph_s);
  setup.community_s = median_of(&SetupTimes::community_s);
  setup.pool_grow_s = median_of(&SetupTimes::pool_grow_s);
  setup.snapshot_save_s = median_of(&SetupTimes::snapshot_save_s);
  setup.attach_s = median_of(&SetupTimes::attach_s);
  setup.snapshot_mb = median_of(&SetupTimes::snapshot_mb);
  setup.total_s = median_of(&SetupTimes::total_s);

  // The held-out scoring pool is built on the ORIGINAL structures: a delta
  // op leaves the shared graph mid-cycle, so delta_stream scores on copies.
  std::unique_ptr<imc::Graph> base_graph;
  std::unique_ptr<imc::CommunitySet> base_communities;
  if (workload == Workload::kDeltaStream) {
    base_graph = std::make_unique<imc::Graph>(*world.graph);
    base_communities = std::make_unique<imc::CommunitySet>(*world.communities);
  }

  Runner runner(workload, f, seed, world, context, sink);
  Tally tally;

  // Untimed warm-up: first-touch faults of the attached pool, sampler and
  // allocator caches, and the copy-on-write of the first repair.
  std::uint64_t next_index = 0;
  run_window(runner, next_index, f.warmup_ops, 0.0, nullptr, tally);

  // The window runs every cycle position at least once, so the digest is
  // complete.
  const Window timed =
      run_window(runner, next_index, std::max(runner.period(), f.min_timed_ops),
                 seconds, rec, tally);
  const double rss_mb = peak_rss_mb();
  JsonMetrics metrics;
  if (traced) {
    add_layer_metrics(metrics, timed, setup, tally);
    std::ofstream trace_file(out_dir / ("trace-" + workload_name + ".json"));
    recorder.write_chrome_json(trace_file);
  }

  // Quality: ĉ(S)/b of every timed op's seeds on a pool the engine never
  // sampled from (its own seed, disjoint from every engine seed).
  double benefit_frac = 0.0;
  {
    const imc::Graph& graph = base_graph ? *base_graph : *world.graph;
    const imc::CommunitySet& com =
        base_communities ? *base_communities : *world.communities;
    world.engine.reset();
    imc::RicPool eval(graph, com, imc::DiffusionModel::kIndependentCascade);
    eval.grow(f.eval_samples, eval_seed, true, context.workers);
    double weighted = 0.0;
    double visits = 0.0;
    for (std::uint64_t p = 0; p < runner.period(); ++p) {
      const std::vector<NodeId>& seeds = runner.first_seeds()[p];
      if (seeds.empty() || timed.visits[p] == 0) continue;
      const auto count = static_cast<double>(timed.visits[p]);
      weighted += count * eval.c_hat(seeds) / com.total_benefit();
      visits += count;
    }
    benefit_frac = ratio(weighted, visits);
  }

  if (!traced) {
    metrics.add("setup_s", setup.total_s, "s");
    metrics.add("op_p50_s", percentile(timed.latencies, 0.5), "s");
    metrics.add("op_p90_s", percentile(timed.latencies, 0.9), "s");
    metrics.add("ops_per_s",
                ratio(static_cast<double>(timed.latencies.size()),
                      timed.elapsed_s),
                "1/s");
    metrics.add("benefit_frac", benefit_frac, "ratio");
    metrics.add("peak_rss_mb", rss_mb, "MB");
  }

  std::ostringstream failures;
  bool first = true;
  for (const auto& [reason, count] : tally.failures) {
    std::string key = reason;
    std::replace_if(
        key.begin(), key.end(),
        [](char c) { return c == '"' || c == '\\' || c < ' '; }, '\'');
    failures << (first ? "" : ",") << "\"" << key << "\":" << count;
    first = false;
  }
  std::cout << "{\"workload\":\"" << workload_name << "\",\"seed\":" << seed
            << ",\"trace\":" << (traced ? 1 : 0)
            << ",\"attempted\":" << tally.attempted
            << ",\"failed\":" << tally.failed
            << ",\"timed_ops\":" << timed.latencies.size()
            << ",\"period\":" << runner.period()
            << ",\"digest\":\"" << fnv_digest(runner.first_seeds()) << "\""
            << ",\"failures\":{" << failures.str() << "}"
            << ",\"metrics\":" << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large block is freed, after
  // which the pool's arenas are carved from the heap and fragment it: peak
  // RSS then creeps with the number of ops run (107 -> 243 MB over a 20 s
  // delta_stream window) and measures the window length, not the library.
  // A fixed threshold keeps every block of 1 MiB or more in its own mapping.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    return run(imc::ArgParser(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "imc_perfbench: " << error.what() << "\n";
    return 1;
  }
}
