#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/engine.h"
#include "core/gain_kernels.h"
#include "graph/delta.h"
#include "core/greedy.h"
#include "core/maf.h"
#include "core/objective.h"
#include "core/ubg.h"
#include "estimation/concentration.h"
#include "estimation/dagum.h"
#include "util/context.h"
#include "sampling/pool_snapshot.h"
#include "sampling/ric_pool.h"
#include "sampling/ric_sample.h"
#include "testing/reference_oracles.h"
#include "util/thread_pool.h"

namespace imc::testing {

std::uint64_t fuzz_case_seed(std::uint64_t base_seed,
                             std::uint64_t index) noexcept {
  std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return splitmix64(state);
}

namespace {

/// Pool size for the exact-level checks: small enough that from-scratch
/// oracles stay cheap, large enough to hit multi-part growth and index
/// merges.
std::uint64_t pool_size_for(std::uint64_t case_seed) {
  return 40 + case_seed % 33;
}

/// Builds the reference pool by replaying the pool's documented RNG
/// contract — one substream Rng(fuzz_case_seed(seed, i)) per sample index,
/// identical to RicPool::grow's splitmix_of — through the AoS
/// RicSampler::generate path (which shares generate_into's consumption).
/// The CONTAINER and everything downstream of it is independent; only the
/// sample stream is shared, which is what makes the layout/evaluator/
/// greedy comparisons exact.
ReferencePool contract_reference_pool(const Graph& graph,
                                      const CommunitySet& communities,
                                      DiffusionModel model,
                                      std::uint64_t count,
                                      std::uint64_t seed) {
  ReferencePool ref(graph, communities);
  RicSampler sampler(graph, communities, model);
  for (std::uint64_t i = 0; i < count; ++i) {
    Rng rng(fuzz_case_seed(seed, i));
    ref.add(sampler.generate(rng));
  }
  return ref;
}

/// All gain-kernel variants the host can run — kScalar is always first.
std::vector<GainKernelKind> supported_kernels() {
  std::vector<GainKernelKind> kinds;
  for (const GainKernelKind kind :
       {GainKernelKind::kScalar, GainKernelKind::kPopcnt,
        GainKernelKind::kAvx2, GainKernelKind::kAvx512}) {
    if (gain_kernel_supported(kind)) kinds.push_back(kind);
  }
  return kinds;
}

/// Forces one kernel for a check's scope and restores the previous one on
/// every exit path, so a failing case never leaks its variant into later
/// cases (which would make single-seed repro runs diverge from sweeps).
class KernelGuard {
 public:
  explicit KernelGuard(GainKernelKind kind) : saved_(active_gain_kernel()) {
    set_gain_kernel(kind);
  }
  ~KernelGuard() { set_gain_kernel(saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  GainKernelKind saved_;
};

/// Case-seeded kernel draw: optimized paths must hold under EVERY variant,
/// so the fuzz population distributes across whatever the host supports.
GainKernelKind kernel_for(std::uint64_t case_seed) {
  const std::vector<GainKernelKind> kinds = supported_kernels();
  return kinds[(case_seed >> 7) % kinds.size()];
}

std::string describe_nodes(std::span<const NodeId> nodes) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out << (i ? "," : "") << nodes[i];
  }
  out << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Check: pool_layout
// ---------------------------------------------------------------------------

std::optional<std::string> check_pool_layout(const InstanceSpec& spec,
                                             std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  // Split growth across a serial call and a parallel multi-part call: the
  // contract says grow(a); grow(b) == grow(a + b) for any parallelism.
  RicPool pool(graph, communities, spec.model);
  ThreadPool workers(3);
  pool.grow(count / 2, case_seed, /*parallel=*/false);
  pool.grow(count - count / 2, case_seed, /*parallel=*/true, &workers);

  const ReferencePool ref = contract_reference_pool(
      graph, communities, spec.model, count, case_seed);

  if (pool.size() != ref.size()) {
    return "pool size " + std::to_string(pool.size()) + " != reference " +
           std::to_string(ref.size());
  }
  for (std::uint32_t g = 0; g < count; ++g) {
    const RicSample got = pool.sample(g);
    const RicSample& want = ref.sample(g);
    if (got.community != want.community ||
        got.threshold != want.threshold ||
        got.member_count != want.member_count ||
        got.touching != want.touching) {
      return "sample " + std::to_string(g) +
             " mismatch (community/threshold/touching)";
    }
    const auto arena = pool.sample_touches(g);
    if (!std::equal(arena.begin(), arena.end(), want.touching.begin(),
                    want.touching.end())) {
      return "sample-major arena mismatch at sample " + std::to_string(g);
    }
  }
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto got = pool.touches_of(v);
    const auto& want = ref.touches_of(v);
    if (got.size() != want.size()) {
      return "node " + std::to_string(v) + " touch count " +
             std::to_string(got.size()) + " != reference " +
             std::to_string(want.size());
    }
    for (std::size_t t = 0; t < want.size(); ++t) {
      if (got[t].sample != want[t].sample ||
          got[t].threshold != want[t].threshold ||
          got[t].mask != want[t].mask) {
        return "node " + std::to_string(v) + " touch " + std::to_string(t) +
               " mismatch";
      }
    }
  }
  for (CommunityId c = 0; c < communities.size(); ++c) {
    if (pool.community_frequency(c) != ref.community_frequency(c)) {
      return "community_frequency(" + std::to_string(c) + ") " +
             std::to_string(pool.community_frequency(c)) + " != reference " +
             std::to_string(ref.community_frequency(c));
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: append_path
// ---------------------------------------------------------------------------

std::optional<std::string> check_append_path(const InstanceSpec& spec,
                                             std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool grown(graph, communities, spec.model);
  grown.grow(count, case_seed, /*parallel=*/false);

  // Rebuild sample-by-sample through append(), which merges each sample
  // into the CSR index before returning; read the index mid-stream too.
  RicPool appended(graph, communities, spec.model);
  for (std::uint32_t g = 0; g < count; ++g) {
    appended.append(grown.sample(g));
    if (g == count / 2) (void)appended.appearance_count(0);
  }
  if (appended.size() != grown.size()) {
    return "appended pool size mismatch";
  }
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto got = appended.touches_of(v);
    const auto want = grown.touches_of(v);
    if (got.size() != want.size()) {
      return "append: node " + std::to_string(v) + " touch count mismatch";
    }
    for (std::size_t t = 0; t < want.size(); ++t) {
      if (got[t].sample != want[t].sample ||
          got[t].threshold != want[t].threshold ||
          got[t].mask != want[t].mask) {
        return "append: node " + std::to_string(v) + " touch " +
               std::to_string(t) + " mismatch";
      }
    }
  }
  const auto got_freq = appended.community_frequencies();
  const auto want_freq = grown.community_frequencies();
  if (!std::equal(got_freq.begin(), got_freq.end(), want_freq.begin(),
                  want_freq.end())) {
    return "append: community_frequencies mismatch";
  }
  // Evaluators must agree exactly: same arenas, same sweep.
  Rng rng(case_seed ^ 0xa99e4dULL);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));
  const std::vector<std::uint32_t> seeds =
      rng.sample_without_replacement(graph.node_count(), k);
  const std::span<const NodeId> view(seeds);
  if (appended.influenced_count(view) != grown.influenced_count(view) ||
      appended.c_hat(view) != grown.c_hat(view) ||
      appended.nu(view) != grown.nu(view)) {
    return "append: evaluator mismatch on seeds " + describe_nodes(view);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: evaluators
// ---------------------------------------------------------------------------

bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

std::optional<std::string> check_evaluators(const InstanceSpec& spec,
                                            std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool pool(graph, communities, spec.model);
  pool.grow(count, case_seed, /*parallel=*/false);
  const ReferencePool ref = contract_reference_pool(
      graph, communities, spec.model, count, case_seed);

  // The bit-identity claims below must hold under every gain-kernel
  // variant; rotate through them case by case.
  const KernelGuard kernel(kernel_for(case_seed));

  // KahanSum vs plain double summation: agreement to ~1e-12 relative on
  // these pool sizes; 1e-9 leaves slack without hiding real bugs.
  constexpr double kTol = 1e-9;

  Rng rng(case_seed ^ 0x5eed5e75ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const auto size = static_cast<std::uint32_t>(
        rng.between(0, std::min<std::int64_t>(6, graph.node_count())));
    const std::vector<std::uint32_t> seeds =
        rng.sample_without_replacement(graph.node_count(), size);
    const std::span<const NodeId> view(seeds);

    if (pool.influenced_count(view) != ref.influenced_count(view)) {
      return "influenced_count mismatch on " + describe_nodes(view);
    }
    if (!close(pool.c_hat(view), ref.c_hat(view), kTol)) {
      return "c_hat mismatch on " + describe_nodes(view);
    }
    if (!close(pool.nu(view), ref.nu(view), kTol)) {
      return "nu mismatch on " + describe_nodes(view);
    }

    // Incremental CoverageState vs from-scratch recomputation after every
    // add_seed, then candidate marginals on the final state.
    CoverageState state(pool);
    std::vector<NodeId> prefix;
    for (const NodeId s : view) {
      state.add_seed(s);
      prefix.push_back(s);
      if (state.influenced() != ref.influenced_count(prefix)) {
        return "CoverageState::influenced mismatch at prefix " +
               describe_nodes(prefix);
      }
      if (!close(state.nu_sum(), ref.nu_sum(prefix), kTol)) {
        return "CoverageState::nu_sum mismatch at prefix " +
               describe_nodes(prefix);
      }
    }
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      if (state.marginal_influenced(v) != ref.marginal_influenced(view, v)) {
        return "marginal_influenced(" + std::to_string(v) +
               ") mismatch on " + describe_nodes(view);
      }
      // Bit-for-bit: the reference replays the documented accumulation
      // order, and the fraction table holds exact count/h doubles. Any
      // difference means the order contract broke.
      if (state.marginal_nu(v) != ref.marginal_nu(view, v)) {
        return "marginal_nu(" + std::to_string(v) +
               ") not bit-identical on " + describe_nodes(view);
      }
    }

    // Batch passes: chunked influenced gains must SUM to the marginals for
    // any partition; the full-range nu pass must match bit-for-bit.
    const auto n = graph.node_count();
    std::vector<std::uint64_t> influenced_gains(n, 0);
    const auto r = static_cast<std::uint32_t>(pool.size());
    const std::uint32_t cut1 = r / 3;
    const std::uint32_t cut2 = 2 * r / 3;
    state.accumulate_influenced_gains(0, cut1, influenced_gains.data());
    state.accumulate_influenced_gains(cut1, cut2, influenced_gains.data());
    state.accumulate_influenced_gains(cut2, r, influenced_gains.data());
    std::vector<double> nu_gains(n, 0.0);
    state.accumulate_nu_gains(0, r, nu_gains.data());
    for (NodeId v = 0; v < n; ++v) {
      const bool is_seed =
          std::find(view.begin(), view.end(), v) != view.end();
      const std::uint64_t want_influenced =
          is_seed ? 0 : ref.marginal_influenced(view, v);
      if (influenced_gains[v] != want_influenced) {
        return "accumulate_influenced_gains(" + std::to_string(v) +
               ") mismatch on " + describe_nodes(view);
      }
      const double want_nu = is_seed ? 0.0 : ref.marginal_nu(view, v);
      if (nu_gains[v] != want_nu) {
        return "accumulate_nu_gains(" + std::to_string(v) +
               ") not bit-identical on " + describe_nodes(view);
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: greedy
// ---------------------------------------------------------------------------

std::optional<std::string> check_greedy(const InstanceSpec& spec,
                                        std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool pool(graph, communities, spec.model);
  pool.grow(count, case_seed, /*parallel=*/false);
  const ReferencePool ref = contract_reference_pool(
      graph, communities, spec.model, count, case_seed);

  // Selection must be invariant across gain kernel x slab decomposition x
  // thread count; draw a kernel and a shard override from the case seed so
  // the population covers the grid.
  const KernelGuard kernel(kernel_for(case_seed));
  ThreadPool two(2);
  ThreadPool eight(8);
  const GreedyOptions serial{};
  // min_parallel_candidates = 1 forces the parallel reduction even on tiny
  // candidate sets — otherwise every fuzz instance would take the serial
  // escape hatch and the slab reduction would go untested.
  GreedyOptions par2{/*parallel=*/true, &two,
                     /*min_parallel_candidates=*/1};
  GreedyOptions par8{/*parallel=*/true, &eight,
                     /*min_parallel_candidates=*/1};
  par2.shards = 1 + (case_seed >> 11) % 5;  // 1..5 slabs
  par8.shards = (case_seed >> 17) % 8;      // 0 (= one per worker) ..7
  const GreedyOptions* const option_grid[] = {&serial, &par2, &par8};
  constexpr double kTol = 1e-9;

  const std::uint32_t n = graph.node_count();
  std::vector<std::uint32_t> ks{1, std::min<std::uint32_t>(3, n), n};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  for (const std::uint32_t k : ks) {
    const std::vector<NodeId> want_c = reference_greedy_c_hat(ref, k);
    const std::vector<NodeId> want_nu = reference_greedy_nu(ref, k);
    for (const GreedyOptions* options : option_grid) {
      const GreedyResult got_c = greedy_c_hat(pool, k, *options);
      if (got_c.seeds != want_c) {
        return "greedy_c_hat(k=" + std::to_string(k) + ") seeds " +
               describe_nodes(got_c.seeds) + " != reference " +
               describe_nodes(want_c);
      }
      if (!close(got_c.c_hat, ref.c_hat(want_c), kTol) ||
          !close(got_c.nu, ref.nu(want_c), kTol)) {
        return "greedy_c_hat(k=" + std::to_string(k) + ") metric mismatch";
      }
      const GreedyResult got_plain = plain_greedy_nu(pool, k, *options);
      const GreedyResult got_celf = celf_greedy_nu(pool, k, *options);
      if (got_plain.seeds != want_nu) {
        return "plain_greedy_nu(k=" + std::to_string(k) + ") seeds " +
               describe_nodes(got_plain.seeds) + " != reference " +
               describe_nodes(want_nu);
      }
      if (got_celf.seeds != want_nu) {
        return "celf_greedy_nu(k=" + std::to_string(k) + ") seeds " +
               describe_nodes(got_celf.seeds) + " != reference " +
               describe_nodes(want_nu);
      }
      if (!close(got_plain.nu, ref.nu(want_nu), kTol) ||
          !close(got_celf.nu, ref.nu(want_nu), kTol)) {
        return "greedy_nu(k=" + std::to_string(k) + ") metric mismatch";
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: kernel_variants
// ---------------------------------------------------------------------------

/// The gain-kernel dispatch contract (DESIGN.md §14): every SIMD variant
/// the host supports must be BIT-IDENTICAL to the scalar reference on the
/// same instance — sweep gain arrays, ν marginals, and end-to-end greedy
/// selections. Unlike check_evaluators (one kernel per case), this runs
/// ALL variants against each other on one pool, so a divergence between
/// two non-scalar kernels can never slip through the per-case rotation.
std::optional<std::string> check_kernel_variants(const InstanceSpec& spec,
                                                 std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool pool(graph, communities, spec.model);
  pool.grow(count, case_seed, /*parallel=*/false);

  Rng rng(case_seed ^ 0x51b3a7ULL);
  const auto seed_count = static_cast<std::uint32_t>(
      rng.between(0, std::min<std::int64_t>(3, graph.node_count())));
  const std::vector<std::uint32_t> seeds =
      rng.sample_without_replacement(graph.node_count(), seed_count);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));

  const std::uint32_t n = graph.node_count();
  const auto r = static_cast<std::uint32_t>(pool.size());
  CoverageState state(pool);
  for (const NodeId s : seeds) state.add_seed(s);

  // Scalar reference for every surface the kernels own.
  std::vector<std::uint64_t> ref_influenced(n, 0);
  std::vector<double> ref_nu(n, 0.0);
  std::vector<double> ref_marginal(n, 0.0);
  GreedyResult ref_c;
  GreedyResult ref_celf;
  {
    const KernelGuard guard(GainKernelKind::kScalar);
    state.accumulate_influenced_gains(0, r, ref_influenced.data());
    state.accumulate_nu_gains(0, r, ref_nu.data());
    for (NodeId v = 0; v < n; ++v) ref_marginal[v] = state.marginal_nu(v);
    ref_c = greedy_c_hat(pool, k, GreedyOptions{});
    ref_celf = celf_greedy_nu(pool, k, GreedyOptions{});
  }

  for (const GainKernelKind kind : supported_kernels()) {
    if (kind == GainKernelKind::kScalar) continue;
    const KernelGuard guard(kind);
    const std::string tag =
        std::string(" [") + gain_kernel_name(kind) + "] on seeds " +
        describe_nodes(seeds);
    std::vector<std::uint64_t> influenced(n, 0);
    std::vector<double> nu(n, 0.0);
    state.accumulate_influenced_gains(0, r, influenced.data());
    state.accumulate_nu_gains(0, r, nu.data());
    for (NodeId v = 0; v < n; ++v) {
      if (influenced[v] != ref_influenced[v]) {
        return "accumulate_influenced_gains(" + std::to_string(v) +
               ") != scalar" + tag;
      }
      if (nu[v] != ref_nu[v]) {
        return "accumulate_nu_gains(" + std::to_string(v) +
               ") not bit-identical to scalar" + tag;
      }
      if (state.marginal_nu(v) != ref_marginal[v]) {
        return "marginal_nu(" + std::to_string(v) +
               ") not bit-identical to scalar" + tag;
      }
    }
    const GreedyResult got_c = greedy_c_hat(pool, k, GreedyOptions{});
    if (got_c.seeds != ref_c.seeds || got_c.c_hat != ref_c.c_hat ||
        got_c.nu != ref_c.nu) {
      return "greedy_c_hat(k=" + std::to_string(k) + ") diverged" + tag;
    }
    const GreedyResult got_celf = celf_greedy_nu(pool, k, GreedyOptions{});
    if (got_celf.seeds != ref_celf.seeds || got_celf.nu != ref_celf.nu) {
      return "celf_greedy_nu(k=" + std::to_string(k) + ") diverged" + tag;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: warm_vs_cold
// ---------------------------------------------------------------------------

/// The MaxrSolver::resume / CoverageState::extend contracts under random
/// growth schedules: after every pool growth, a warm-started UBG/MAF solve
/// must be BIT-IDENTICAL to a cold solve on the same pool, and an extended
/// CoverageState must be operator== to a from-scratch rebuild. Cold paths
/// are the oracles — they are themselves pinned against the slow reference
/// oracles by check_greedy.
std::optional<std::string> check_warm_vs_cold(const InstanceSpec& spec,
                                              std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  ThreadPool two(2);
  const GreedyOptions serial{};
  const GreedyOptions par2{/*parallel=*/true, &two,
                           /*min_parallel_candidates=*/1};

  Rng rng(case_seed ^ 0xc01d57a7ULL);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));
  const std::vector<std::uint32_t> tracked_seeds =
      rng.sample_without_replacement(
          graph.node_count(),
          std::min<std::uint32_t>(2, graph.node_count()));

  // Uneven growth slices so the stages are not a clean doubling.
  const std::uint64_t slices[3] = {count / 2 + 1, count / 3 + 1,
                                   count / 4 + 1};

  for (const GreedyOptions* options : {&serial, &par2}) {
    RicPool pool(graph, communities, spec.model);
    UbgResume ubg_state;
    MafResume maf_state;
    CoverageState tracked(pool);
    for (const NodeId v : tracked_seeds) tracked.add_seed(v);
    RicPool::PoolEpoch epoch = pool.grow_epoch();

    bool parallel_grow = false;
    for (const std::uint64_t slice : slices) {
      pool.grow(slice, case_seed, parallel_grow,
                parallel_grow ? &two : nullptr);
      parallel_grow = !parallel_grow;
      const std::string at = " at |R|=" + std::to_string(pool.size()) +
                             ", k=" + std::to_string(k) +
                             (options->parallel ? ", parallel" : ", serial");

      const UbgSolution warm = ubg_resume(pool, k, *options, ubg_state);
      const UbgSolution cold = ubg_solve(pool, k, *options);
      if (warm.seeds != cold.seeds) {
        return "ubg_resume seeds " + describe_nodes(warm.seeds) +
               " != cold " + describe_nodes(cold.seeds) + at;
      }
      if (warm.c_hat != cold.c_hat || warm.from_nu.nu != cold.from_nu.nu ||
          warm.from_c_hat.c_hat != cold.from_c_hat.c_hat) {
        return "ubg_resume metrics not bit-identical to cold solve" + at;
      }

      const MafSolution maf_warm =
          maf_resume(pool, k, /*seed=*/case_seed, *options, maf_state);
      const MafSolution maf_cold =
          maf_solve(pool, k, /*seed=*/case_seed, *options);
      if (maf_warm.seeds != maf_cold.seeds ||
          maf_warm.c_hat != maf_cold.c_hat) {
        return "maf_resume diverged from cold solve" + at;
      }

      tracked.extend(pool, epoch);
      epoch = pool.grow_epoch();
      CoverageState rebuilt(pool);
      for (const NodeId v : tracked.seeds()) rebuilt.add_seed(v);
      if (!(tracked == rebuilt)) {
        return "CoverageState::extend != full rebuild on seeds " +
               describe_nodes(tracked.seeds()) + at;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: pipelined_vs_serial
// ---------------------------------------------------------------------------

/// The pipelined engine schedule (ImcafConfig::pipeline, DESIGN.md §15)
/// against the serial one: same instance, same config, overlap on vs off,
/// must agree bit-for-bit — seeds, ĉ and the independent estimate, final
/// |R|, stop-stage count, the PoolEpoch watermark, and the per-stage
/// sample accounting rows. The thread count rotates across the case
/// population ({1, 2, 8} by case seed), so the contract is exercised under
/// no concurrency, mild concurrency and oversubscription. Shrunk ε/δ
/// bounds keep Λ small enough that the doubling loop runs 2–3 real stages
/// per case.
std::optional<std::string> check_pipelined_vs_serial(const InstanceSpec& spec,
                                                     std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();

  Rng rng(case_seed ^ 0x9191e11eULL);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));

  ImcafConfig config;
  config.params.epsilon = 0.8;  // Λ ≈ 143: multiple doubling stages, fast
  config.params.delta = 0.4;
  config.seed = case_seed;
  config.model = spec.model;
  config.max_samples = 300 + case_seed % 101;  // 2–3 stages before the cap
  config.parallel_sampling = true;

  const unsigned threads = std::array<unsigned, 3>{1, 2, 8}[
      (case_seed >> 11) % 3];
  ThreadPool workers(threads);
  ExecutionContext context;
  context.workers = &workers;

  const UbgSolver solver;
  struct Run {
    ImcafResult result;
    std::vector<StageMetrics> rows;
    RicPool::PoolEpoch epoch;
  };
  const auto run_engine = [&](bool pipeline) {
    RecordingMetricsSink sink;
    ExecutionContext run_context = context;
    run_context.metrics = &sink;
    ImcafConfig run_config = config;
    run_config.pipeline = pipeline;
    ImcEngine engine(graph, communities, run_config, run_context);
    Run run;
    run.result = engine.solve(k, solver);
    run.rows = sink.stages();
    run.epoch = engine.pool().grow_epoch();
    return run;
  };

  const Run serial = run_engine(false);
  const Run pipelined = run_engine(true);
  const std::string at = " at k=" + std::to_string(k) +
                         ", threads=" + std::to_string(threads) +
                         ", cap=" + std::to_string(config.max_samples);

  if (pipelined.result.seeds != serial.result.seeds) {
    return "pipelined seeds " + describe_nodes(pipelined.result.seeds) +
           " != serial " + describe_nodes(serial.result.seeds) + at;
  }
  if (pipelined.result.c_hat != serial.result.c_hat) {
    return "pipelined c_hat not bit-identical to serial" + at;
  }
  if (pipelined.result.estimated_benefit != serial.result.estimated_benefit) {
    return "pipelined estimated_benefit not bit-identical to serial" + at;
  }
  if (pipelined.result.samples_used != serial.result.samples_used ||
      pipelined.result.stop_stages != serial.result.stop_stages ||
      pipelined.result.reached_cap != serial.result.reached_cap) {
    return "pipelined stage/sample schedule diverged from serial" + at;
  }
  if (!(pipelined.epoch == serial.epoch)) {
    return "pipelined PoolEpoch {" + std::to_string(pipelined.epoch.samples) +
           "," + std::to_string(pipelined.epoch.grows) + "} != serial {" +
           std::to_string(serial.epoch.samples) + "," +
           std::to_string(serial.epoch.grows) + "}" + at;
  }
  if (pipelined.rows.size() != serial.rows.size()) {
    return "pipelined metrics row count diverged" + at;
  }
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const StageMetrics& p = pipelined.rows[i];
    const StageMetrics& s = serial.rows[i];
    if (p.pool_size != s.pool_size || p.samples_added != s.samples_added ||
        p.estimate_samples != s.estimate_samples ||
        p.warm_start != s.warm_start || p.accepted != s.accepted) {
      return "stage " + std::to_string(i + 1) +
             " metrics diverged between schedules" + at;
    }
  }
  // Sanity on the serial baseline: it must never report speculation.
  if (serial.result.speculative_samples_committed != 0 ||
      serial.result.overlap_seconds != 0.0) {
    return "serial schedule reported speculative work" + at;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: pool_roundtrip
// ---------------------------------------------------------------------------

/// Bit-level pool equality over the SoA metadata, both arenas and the CSR
/// index. Deliberately NOT the epoch: a repaired pool and its rebuild
/// share content but not growth history, so callers that need the
/// watermark compare PoolEpoch themselves.
std::string pool_content_diff(const RicPool& got, const RicPool& want) {
  if (got.size() != want.size()) return "size mismatch";
  if (got.model() != want.model()) return "model tag mismatch";
  const auto same = [](const auto& a, const auto& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  if (!same(got.thresholds(), want.thresholds())) {
    return "thresholds mismatch";
  }
  if (!same(got.source_communities(), want.source_communities())) {
    return "source_communities mismatch";
  }
  if (!same(got.community_frequencies(), want.community_frequencies())) {
    return "community_frequencies mismatch";
  }
  for (std::uint32_t g = 0; g < want.size(); ++g) {
    const auto mine = got.sample_touches(g);
    const auto theirs = want.sample_touches(g);
    if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first && a.second == b.second;
                    })) {
      return "sample-major arena mismatch at sample " + std::to_string(g);
    }
  }
  if (!same(got.touch_offsets(), want.touch_offsets())) {
    return "CSR touch_offsets mismatch";
  }
  const auto mine = got.touch_arena();
  const auto theirs = want.touch_arena();
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    if (mine[i].sample != theirs[i].sample ||
        mine[i].threshold != theirs[i].threshold ||
        mine[i].mask != theirs[i].mask) {
      return "CSR touch arena mismatch at slot " + std::to_string(i);
    }
  }
  return "";
}

/// Both attach modes of the v3 snapshot — payload-verified and trusted —
/// must hand back the ORIGINAL pool bit-for-bit, epoch watermark
/// included, and solves on the reloaded pools must be bit-identical to
/// solves on the original at every parallelism level. This is the
/// round-trip certificate behind `imc_cli --save-pool/--load-pool`.
std::optional<std::string> check_pool_roundtrip(const InstanceSpec& spec,
                                                std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool original(graph, communities, spec.model);
  original.grow(count, case_seed, /*parallel=*/false);

  // Both legs attach the same real file. It is unlinked right after the
  // attaches — the mappings must pin it.
  char path[] = "/tmp/imc_fuzz_pool_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) return "mkstemp failed for the attach round-trip";
  ::close(fd);
  std::optional<RicPool> verified;
  std::optional<RicPool> trusted;
  std::string attach_error;
  try {
    save_ric_pool_snapshot(path, original);
    verified.emplace(attach_ric_pool_snapshot(path, graph, communities));
    trusted.emplace(attach_ric_pool_snapshot(path, graph, communities,
                                             SnapshotTrust::kTrustPayload));
  } catch (const std::exception& e) {
    attach_error = e.what();
  }
  std::remove(path);
  if (!trusted) return "attach failed: " + attach_error;

  const struct {
    const char* name;
    const RicPool* pool;
  } legs[] = {{"verified-attach", &*verified},
              {"trusted-attach", &*trusted}};
  for (const auto& leg : legs) {
    if (!leg.pool->attached()) {
      return std::string(leg.name) + " did not produce a zero-copy pool";
    }
    const std::string diff = pool_content_diff(*leg.pool, original);
    if (!diff.empty()) {
      return std::string(leg.name) + " round-trip not bit-identical: " +
             diff;
    }
    if (leg.pool->grow_epoch() != original.grow_epoch()) {
      return std::string(leg.name) + " round-trip lost the epoch watermark";
    }
  }

  // Solves on the reloaded pools, across the thread grid {1, 2, 8}: same
  // arenas must mean the same deterministic selection, bit for bit.
  ThreadPool two(2);
  ThreadPool eight(8);
  const GreedyOptions serial{};
  const GreedyOptions par2{/*parallel=*/true, &two,
                           /*min_parallel_candidates=*/1};
  const GreedyOptions par8{/*parallel=*/true, &eight,
                           /*min_parallel_candidates=*/1};
  Rng rng(case_seed ^ 0x9001f11eULL);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));
  for (const GreedyOptions* options : {&serial, &par2, &par8}) {
    const UbgSolution want_ubg = ubg_solve(original, k, *options);
    const MafSolution want_maf =
        maf_solve(original, k, /*seed=*/case_seed, *options);
    for (const auto& leg : legs) {
      const UbgSolution got_ubg = ubg_solve(*leg.pool, k, *options);
      if (got_ubg.seeds != want_ubg.seeds ||
          got_ubg.c_hat != want_ubg.c_hat) {
        return std::string(leg.name) + ": ubg_solve diverged (seeds " +
               describe_nodes(got_ubg.seeds) + " vs " +
               describe_nodes(want_ubg.seeds) + ", " +
               (options->parallel ? "parallel" : "serial") + ")";
      }
      const MafSolution got_maf =
          maf_solve(*leg.pool, k, /*seed=*/case_seed, *options);
      if (got_maf.seeds != want_maf.seeds ||
          got_maf.c_hat != want_maf.c_hat) {
        return std::string(leg.name) + ": maf_solve diverged (seeds " +
               describe_nodes(got_maf.seeds) + " vs " +
               describe_nodes(want_maf.seeds) + ", " +
               (options->parallel ? "parallel" : "serial") + ")";
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: delta_vs_rebuild
// ---------------------------------------------------------------------------

/// Draws a random GraphDelta that keeps the instance valid for sampling:
/// removals and weight decreases of existing edges, insertions bounded by
/// the target's LT in-weight headroom (conservative under IC too), and
/// membership moves that keep every community non-empty, at or under the
/// 64-member cap and above its threshold.
GraphDelta random_delta(const Graph& graph, const CommunitySet& communities,
                        Rng& rng) {
  GraphDelta delta;
  const NodeId n = graph.node_count();
  const auto edge_ops = static_cast<int>(rng.between(1, 3));
  for (int i = 0; i < edge_ops; ++i) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const auto out = graph.out_neighbors(u);
    if (!out.empty() && rng.bernoulli(0.6)) {
      const Neighbor nb = out[rng.below(out.size())];
      if (rng.bernoulli(0.5)) {
        delta.remove_edge(u, nb.node);
      } else {
        delta.upsert_edge(u, nb.node,
                          static_cast<double>(nb.weight) *
                              rng.uniform(0.3, 0.9));
      }
      continue;
    }
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    double in_sum = 0.0;
    for (const Neighbor& in : graph.in_neighbors(v)) in_sum += in.weight;
    const double headroom = 1.0 - in_sum;
    if (headroom <= 0.01) continue;
    delta.upsert_edge(u, v, headroom * rng.uniform(0.1, 0.5));
  }

  std::vector<NodeId> population(communities.size());
  for (CommunityId c = 0; c < communities.size(); ++c) {
    population[c] = communities.population(c);
  }
  std::vector<bool> moved(n, false);
  const auto move_ops = static_cast<int>(rng.between(0, 2));
  for (int i = 0; i < move_ops; ++i) {
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (moved[v]) continue;
    const CommunityId from = communities.community_of(v);
    if (from == kInvalidCommunity) continue;
    const auto to = static_cast<CommunityId>(rng.below(communities.size()));
    if (to == from) continue;
    if (population[from] < 2 ||
        communities.threshold(from) > population[from] - 1) {
      continue;
    }
    if (population[to] + 1 > kMaxCommunityPopulation) continue;
    delta.move_member(v, to);
    moved[v] = true;
    --population[from];
    ++population[to];
  }
  return delta;
}

/// Random delta streams interleaved with solves: live pools repaired
/// serially and on pools of {1, 2, 8} workers must each stay bit-identical
/// to a from-scratch rebuild on the mutated structures — arenas, counters
/// AND the CSR index — after every one of three rounds, so in-place
/// patches stack on earlier patches. UBG/MAF selections on the repaired
/// pools must match the rebuilt pool seed-for-seed, ĉ- and ν-exactly, at
/// every parallelism level. One worker is the caller-plus-worker
/// configuration the benchmarks run. This is the differential certificate
/// behind RicPool::invalidate_and_repair (DESIGN.md §16).
std::optional<std::string> check_delta_vs_rebuild(const InstanceSpec& spec,
                                                  std::uint64_t case_seed) {
  Graph graph = spec.build_graph();
  CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  struct Leg {
    const char* name;
    bool parallel;
    ThreadPool* workers;
    GreedyOptions options;
    RicPool pool;
  };
  Leg legs[] = {
      {"serial", false, nullptr, GreedyOptions{},
       RicPool(graph, communities, spec.model)},
      {"threads=1", true, &one,
       GreedyOptions{/*parallel=*/true, &one, /*min_parallel_candidates=*/1},
       RicPool(graph, communities, spec.model)},
      {"threads=2", true, &two,
       GreedyOptions{/*parallel=*/true, &two, /*min_parallel_candidates=*/1},
       RicPool(graph, communities, spec.model)},
      {"threads=8", true, &eight,
       GreedyOptions{/*parallel=*/true, &eight,
                     /*min_parallel_candidates=*/1},
       RicPool(graph, communities, spec.model)},
  };
  for (Leg& leg : legs) {
    leg.pool.grow(count, case_seed, leg.parallel, leg.workers);
  }

  Rng rng(case_seed ^ 0xde17a5ULL);
  const auto k = static_cast<std::uint32_t>(
      rng.between(1, std::min<std::int64_t>(4, graph.node_count())));
  for (int round = 0; round < 3; ++round) {
    const std::string at = " (round " + std::to_string(round + 1) + ")";
    const GraphDelta delta = random_delta(graph, communities, rng);
    const DeltaEffects effects = apply_delta(graph, communities, delta);

    std::optional<std::uint64_t> repaired;
    for (Leg& leg : legs) {
      const std::uint64_t count =
          leg.pool
              .invalidate_and_repair(effects, case_seed, leg.parallel,
                                     leg.workers)
              .repaired;
      if (repaired && *repaired != count) {
        return "repair count diverged across thread counts" + at;
      }
      repaired = count;
    }

    RicPool rebuilt(graph, communities, spec.model);
    rebuilt.grow(count, case_seed, /*parallel=*/false);
    for (const Leg& leg : legs) {
      const std::string diff = pool_content_diff(leg.pool, rebuilt);
      if (!diff.empty()) {
        return std::string(leg.name) +
               " repaired pool not bit-identical to rebuild: " + diff + at;
      }
    }

    // Interleaved solves: the repaired pools must select exactly what the
    // rebuilt pool selects, at their own parallelism level.
    const UbgSolution want_ubg = ubg_solve(rebuilt, k, GreedyOptions{});
    const MafSolution want_maf =
        maf_solve(rebuilt, k, /*seed=*/case_seed, GreedyOptions{});
    for (const Leg& leg : legs) {
      const UbgSolution got_ubg = ubg_solve(leg.pool, k, leg.options);
      if (got_ubg.seeds != want_ubg.seeds ||
          got_ubg.c_hat != want_ubg.c_hat ||
          got_ubg.from_nu.seeds != want_ubg.from_nu.seeds ||
          got_ubg.from_nu.nu != want_ubg.from_nu.nu) {
        return std::string(leg.name) + ": ubg_solve on repaired pool " +
               "diverged from rebuild (seeds " +
               describe_nodes(got_ubg.seeds) + " vs " +
               describe_nodes(want_ubg.seeds) + ")" + at;
      }
      const MafSolution got_maf =
          maf_solve(leg.pool, k, /*seed=*/case_seed, leg.options);
      if (got_maf.seeds != want_maf.seeds ||
          got_maf.c_hat != want_maf.c_hat) {
        return std::string(leg.name) + ": maf_solve on repaired pool " +
               "diverged from rebuild (seeds " +
               describe_nodes(got_maf.seeds) + " vs " +
               describe_nodes(want_maf.seeds) + ")" + at;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: sampler_distribution
// ---------------------------------------------------------------------------

std::optional<std::string> check_sampler_distribution(
    const InstanceSpec& spec, std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();

  // Only enumerably tiny instances have ground truth; everything else is
  // counted as skipped by the runner (we signal that with nullopt after
  // zero work — the runner inspects instance size itself for accounting).
  const std::vector<NodeId> seeds =
      graph.node_count() >= 2 ? std::vector<NodeId>{0, 1}
                              : std::vector<NodeId>{0};
  const auto exact = enumerate_exact(graph, communities, seeds, spec.model,
                                     1ULL << 12);
  if (!exact) return std::nullopt;

  constexpr std::uint64_t kSamples = 1200;
  const double b = communities.total_benefit();

  // Mean bands: 6σ using the exact per-sample variance for ĉ (Bernoulli)
  // and the [0,1]-variable bound var <= q(1-q) for ν. False-trigger odds
  // per band are ~1e-9 — negligible across any plausible number of runs.
  const double p = std::clamp(exact->c / b, 0.0, 1.0);
  const double q = std::clamp(exact->nu / b, 0.0, 1.0);
  const double c_tol =
      6.0 * b * std::sqrt(p * (1.0 - p) / static_cast<double>(kSamples)) +
      1e-9;
  const double nu_tol =
      6.0 * b * std::sqrt(q * (1.0 - q) / static_cast<double>(kSamples)) +
      1e-9;

  // Naive per-edge-Bernoulli sampler vs ground truth.
  ReferencePool naive(graph, communities);
  Rng rng(case_seed ^ 0x9a17eULL);
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    naive.add(naive_ric_sample(graph, communities, spec.model, rng));
  }
  if (std::abs(naive.c_hat(seeds) - exact->c) > c_tol) {
    return "naive sampler c_hat " + std::to_string(naive.c_hat(seeds)) +
           " outside 6-sigma of exact " + std::to_string(exact->c);
  }
  if (std::abs(naive.nu(seeds) - exact->nu) > nu_tol) {
    return "naive sampler nu " + std::to_string(naive.nu(seeds)) +
           " outside 6-sigma of exact " + std::to_string(exact->nu);
  }

  // Optimized sampler (geometric skip + bit-parallel masks) vs the same
  // ground truth — the distribution-level certificate for the fast paths.
  RicPool pool(graph, communities, spec.model);
  pool.grow(kSamples, case_seed ^ 0x0911edULL, /*parallel=*/false);
  if (std::abs(pool.c_hat(seeds) - exact->c) > c_tol) {
    return "RicSampler c_hat " + std::to_string(pool.c_hat(seeds)) +
           " outside 6-sigma of exact " + std::to_string(exact->c);
  }
  if (std::abs(pool.nu(seeds) - exact->nu) > nu_tol) {
    return "RicSampler nu " + std::to_string(pool.nu(seeds)) +
           " outside 6-sigma of exact " + std::to_string(exact->nu);
  }

  // Source communities ~ Binomial(kSamples, b_c / b) for both samplers
  // (alias table and CDF scan must draw the same rho distribution).
  for (CommunityId c = 0; c < communities.size(); ++c) {
    const double pc = communities.benefit(c) / b;
    const double expectation = static_cast<double>(kSamples) * pc;
    const double band =
        6.0 * std::sqrt(static_cast<double>(kSamples) * pc * (1.0 - pc)) +
        1.0;
    for (const std::uint32_t freq :
         {naive.community_frequency(c), pool.community_frequency(c)}) {
      if (std::abs(static_cast<double>(freq) - expectation) > band) {
        return std::string("community_frequency(") + std::to_string(c) +
               ") outside binomial band";
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: dagum_draw
// ---------------------------------------------------------------------------

std::optional<std::string> check_dagum_draw(const InstanceSpec& spec,
                                            std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const NodeId n = graph.node_count();
  Rng pick(case_seed ^ 0xda9ULL);
  std::vector<NodeId> seeds;
  const std::uint64_t seed_count = 1 + pick.below(std::min<NodeId>(4, n));
  for (std::uint64_t i = 0; i < seed_count; ++i) {
    seeds.push_back(static_cast<NodeId>(pick.below(n)));
  }
  std::vector<std::uint8_t> is_seed(n, 0);
  for (const NodeId v : seeds) is_seed[v] = 1;

  // Draw for draw: the early-exit draw against the materialized sample,
  // same X and same RNG state after every draw.
  RicSampler reference(graph, communities, spec.model);
  RicSampler drawing(graph, communities, spec.model);
  Rng rng_reference(case_seed);
  Rng rng_drawing(case_seed);
  for (int i = 0; i < 200; ++i) {
    const bool want = reference.generate(rng_reference).influenced_by(seeds);
    const bool got = drawing.draw_influenced(rng_drawing, is_seed);
    Rng next_reference = rng_reference;
    Rng next_drawing = rng_drawing;
    if (got != want || next_reference.next() != next_drawing.next()) {
      return "draw " + std::to_string(i) + " for seeds " +
             describe_nodes(seeds) + ": X " + std::to_string(got) +
             " vs materialized " + std::to_string(want) +
             (got == want ? " (RNG state diverged)" : "");
    }
  }

  // The estimator end to end: Alg. 6 replayed on materialized samples.
  DagumOptions options;
  options.eps_prime = 0.3;
  options.delta_prime = 0.2;
  options.max_samples = 3000;
  options.seed = case_seed ^ 0xe571ULL;
  options.model = spec.model;
  const DagumEstimate got =
      dagum_estimate_benefit(graph, communities, seeds, options);
  const double lambda_prime =
      dagum_lambda_prime(options.eps_prime, options.delta_prime);
  const double b = communities.total_benefit();
  DagumEstimate want;
  Rng rng(options.seed);
  std::uint64_t influenced = 0;
  for (std::uint64_t t = 1; t <= options.max_samples; ++t) {
    if (reference.generate(rng).influenced_by(seeds)) ++influenced;
    want.samples = t;
    if (static_cast<double>(influenced) >= lambda_prime) {
      want.value = b * lambda_prime / static_cast<double>(t);
      want.converged = true;
      break;
    }
  }
  if (!want.converged) {
    want.value = b * static_cast<double>(influenced) /
                 static_cast<double>(want.samples);
  }
  if (got.value != want.value || got.samples != want.samples ||
      got.converged != want.converged) {
    return "dagum_estimate_benefit (" + std::to_string(got.value) + ", T=" +
           std::to_string(got.samples) + ") vs materialized replay (" +
           std::to_string(want.value) + ", T=" +
           std::to_string(want.samples) + ")";
  }
  return std::nullopt;
}

/// True when the instance is small enough for enumerate_exact to succeed —
/// used only for skip accounting, mirroring check_sampler_distribution.
bool distribution_checkable(const InstanceSpec& spec) {
  if (spec.model == DiffusionModel::kIndependentCascade) {
    const Graph graph = spec.build_graph();
    return graph.edge_count() <= 12;
  }
  const Graph graph = spec.build_graph();
  std::uint64_t outcomes = 1;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const std::uint64_t radix = graph.in_neighbors(v).size() + 1;
    if (outcomes > (1ULL << 12) / radix) return false;
    outcomes *= radix;
  }
  return true;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

}  // namespace

std::vector<FuzzCheck> default_checks() {
  return {
      {"pool_layout", check_pool_layout},
      {"append_path", check_append_path},
      {"evaluators", check_evaluators},
      {"greedy", check_greedy},
      {"kernel_variants", check_kernel_variants},
      {"warm_vs_cold", check_warm_vs_cold},
      {"pipelined_vs_serial", check_pipelined_vs_serial},
      {"pool_roundtrip", check_pool_roundtrip},
      {"delta_vs_rebuild", check_delta_vs_rebuild},
      {"sampler_distribution", check_sampler_distribution},
      {"dagum_draw", check_dagum_draw},
  };
}

FuzzConfig fuzz_config_from_env() {
  FuzzConfig config;
  config.cases =
      static_cast<std::uint32_t>(env_u64("IMC_FUZZ_CASES", config.cases));
  config.base_seed = env_u64("IMC_FUZZ_SEED", config.base_seed);
  if (std::getenv("IMC_FUZZ_CASE_SEED") != nullptr) {
    config.case_seed_override = env_u64("IMC_FUZZ_CASE_SEED", 0);
  }
  return config;
}

std::string FuzzReport::summary() const {
  std::ostringstream out;
  out << cases_run << " cases, " << checks_run << " checks ("
      << checks_skipped << " skipped), " << failures.size() << " failure"
      << (failures.size() == 1 ? "" : "s");
  for (const FuzzFailure& f : failures) {
    out << "\n  [" << f.check << "] seed=" << f.case_seed << " "
        << f.shrunk.summary() << ": " << f.message;
  }
  return out.str();
}

namespace {

/// Runs one check, folding exceptions into failure messages: a throw from
/// an optimized path on a valid instance is a finding, not a harness
/// error.
std::optional<std::string> run_check(const FuzzCheck& check,
                                     const InstanceSpec& spec,
                                     std::uint64_t case_seed) {
  try {
    return check.run(spec, case_seed);
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

}  // namespace

FuzzReport run_differential_fuzz(const FuzzConfig& config,
                                 std::span<const FuzzCheck> checks,
                                 std::ostream* log) {
  FuzzReport report;
  const std::uint32_t cases =
      config.case_seed_override ? 1 : config.cases;
  for (std::uint32_t i = 0; i < cases; ++i) {
    const std::uint64_t case_seed =
        config.case_seed_override ? *config.case_seed_override
                                  : fuzz_case_seed(config.base_seed, i);
    Rng rng(case_seed);
    const InstanceSpec spec = random_instance(config.distribution, rng);
    ++report.cases_run;
    if (!spec.valid()) {
      FuzzFailure failure;
      failure.check = "instance_generator";
      failure.case_seed = case_seed;
      failure.message = "random_instance produced an invalid spec";
      failure.shrunk = spec;
      failure.repro = repro_snippet(spec, case_seed, failure.check);
      report.failures.push_back(std::move(failure));
      if (report.failures.size() >= config.max_failures) break;
      continue;
    }
    for (const FuzzCheck& check : checks) {
      if (check.name == "sampler_distribution" &&
          !distribution_checkable(spec)) {
        ++report.checks_skipped;
        continue;
      }
      ++report.checks_run;
      std::optional<std::string> message = run_check(check, spec, case_seed);
      if (!message) continue;

      FuzzFailure failure;
      failure.check = check.name;
      failure.case_seed = case_seed;
      failure.message = *message;
      failure.shrunk = spec;
      if (config.max_shrink_evaluations > 0) {
        const ShrinkResult shrunk = shrink_instance(
            spec,
            [&check](const InstanceSpec& candidate, std::uint64_t seed) {
              return run_check(check, candidate, seed).has_value();
            },
            case_seed, config.max_shrink_evaluations);
        failure.shrunk = shrunk.spec;
        failure.shrink_evaluations = shrunk.evaluations;
        // Report the message of the SHRUNK instance — it names the exact
        // node/sample of the minimal counterexample.
        if (auto small = run_check(check, shrunk.spec, case_seed)) {
          failure.message = *small;
        }
      }
      failure.repro =
          repro_snippet(failure.shrunk, case_seed, failure.check);
      if (log != nullptr) {
        *log << "[fuzz] FAIL " << failure.check
             << " case_seed=" << failure.case_seed << "\n"
             << "  original: " << spec.summary() << "\n"
             << "  shrunk:   " << failure.shrunk.summary() << " ("
             << failure.shrink_evaluations << " shrink evals)\n"
             << "  " << failure.message << "\n"
             << failure.repro;
      }
      report.failures.push_back(std::move(failure));
      if (report.failures.size() >= config.max_failures) return report;
    }
  }
  return report;
}

}  // namespace imc::testing
