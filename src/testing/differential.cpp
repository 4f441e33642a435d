#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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
  return splitmix_of(base_seed, index);
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
  const std::vector<GainKernelKind> kinds = supported_gain_kernels();
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
    state.accumulate_nu_gains(nu_gains.data());
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
    state.accumulate_nu_gains(ref_nu.data());
    for (NodeId v = 0; v < n; ++v) ref_marginal[v] = state.marginal_nu(v);
    ref_c = greedy_c_hat(pool, k, GreedyOptions{});
    ref_celf = celf_greedy_nu(pool, k, GreedyOptions{});
  }

  for (const GainKernelKind kind : supported_gain_kernels()) {
    if (kind == GainKernelKind::kScalar) continue;
    const KernelGuard guard(kind);
    const std::string tag =
        std::string(" [") + gain_kernel_name(kind) + "] on seeds " +
        describe_nodes(seeds);
    std::vector<std::uint64_t> influenced(n, 0);
    std::vector<double> nu(n, 0.0);
    state.accumulate_influenced_gains(0, r, influenced.data());
    state.accumulate_nu_gains(nu.data());
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

/// Flips one seeded byte inside a raw section of the snapshot bytes —
/// never the header or the zero padding between sections — and returns
/// the result. The raw section lengths come from the pool the bytes were
/// written from; each section starts on a 64-byte boundary.
std::string flip_raw_section_byte(std::string bytes, const RicPool& pool,
                                  std::uint64_t case_seed) {
  const RicPool::SnapshotView view = pool.snapshot_view();
  const std::size_t raw[7] = {view.thresholds.size_bytes(),
                              view.source_community.size_bytes(),
                              view.community_frequency.size_bytes(),
                              view.sample_offsets.size_bytes(),
                              view.sample_arena.size_bytes(),
                              view.touch_offsets.size_bytes(),
                              view.touches.size_bytes()};
  std::size_t total = 0;
  for (const std::size_t section : raw) total += section;
  Rng rng(case_seed ^ 0xf11bb17eULL);
  std::size_t target = rng.next() % total;
  std::size_t offset = sizeof(PoolSnapshotHeader);
  for (const std::size_t section : raw) {
    if (target < section) break;
    target -= section;
    offset += detail::round_up_64(section);
  }
  bytes[offset + target] = static_cast<char>(
      bytes[offset + target] ^ static_cast<char>(1 + rng.next() % 255));
  return bytes;
}

/// The v4 snapshot must hand back the ORIGINAL pool bit-for-bit, epoch
/// watermark included, and solves on the reloaded pool must be
/// bit-identical to solves on the original at every parallelism level.
/// A copy with one byte flipped inside a raw section must fail the
/// payload checksum: across random pool sizes that exercises every
/// section and tail length the hash sees. This is the round-trip
/// certificate behind `imc_cli --save-pool/--load-pool`.
std::optional<std::string> check_pool_roundtrip(const InstanceSpec& spec,
                                                std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);

  RicPool original(graph, communities, spec.model);
  original.grow(count, case_seed, /*parallel=*/false);

  // Both legs attach a real file, unlinked right after the attaches —
  // the pool must own what it read.
  char path[] = "/tmp/imc_fuzz_pool_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) return "mkstemp failed for the attach round-trip";
  ::close(fd);
  std::optional<RicPool> attached;
  std::string attach_error;
  std::string corrupt_error = "attach accepted it";
  try {
    save_ric_pool_snapshot(path, original);
    attached.emplace(attach_ric_pool_snapshot(path, graph, communities));
    std::ostringstream blob(std::ios::binary);
    write_ric_pool_snapshot(blob, original);
    const std::string corrupt =
        flip_raw_section_byte(blob.str(), original, case_seed);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    try {
      (void)attach_ric_pool_snapshot(path, graph, communities);
    } catch (const std::runtime_error& e) {
      corrupt_error = e.what();
    }
  } catch (const std::exception& e) {
    attach_error = e.what();
  }
  std::remove(path);
  if (!attached) return "attach failed: " + attach_error;
  if (corrupt_error !=
      "ric pool snapshot: payload checksum mismatch (corrupt snapshot)") {
    return "flipped payload byte not caught by the checksum: " +
           corrupt_error;
  }
  const std::string diff = pool_content_diff(*attached, original);
  if (!diff.empty()) return "attach round-trip not bit-identical: " + diff;
  if (attached->grow_epoch() != original.grow_epoch()) {
    return "attach round-trip lost the epoch watermark";
  }

  // Solves on the reloaded pool, across the thread grid {1, 2, 8}: same
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
    const UbgSolution got_ubg = ubg_solve(*attached, k, *options);
    if (got_ubg.seeds != want_ubg.seeds || got_ubg.c_hat != want_ubg.c_hat) {
      return "attached pool: ubg_solve diverged (seeds " +
             describe_nodes(got_ubg.seeds) + " vs " +
             describe_nodes(want_ubg.seeds) + ", " +
             (options->parallel ? "parallel" : "serial") + ")";
    }
    const MafSolution got_maf =
        maf_solve(*attached, k, /*seed=*/case_seed, *options);
    if (got_maf.seeds != want_maf.seeds || got_maf.c_hat != want_maf.c_hat) {
      return "attached pool: maf_solve diverged (seeds " +
             describe_nodes(got_maf.seeds) + " vs " +
             describe_nodes(want_maf.seeds) + ", " +
             (options->parallel ? "parallel" : "serial") + ")";
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

  // The estimator end to end: Alg. 6 replayed on materialized samples,
  // draw j being the sample at position first + j of the seed's stream.
  DagumOptions options;
  options.eps_prime = 0.3;
  options.delta_prime = 0.2;
  options.max_samples = 3000;
  options.seed = case_seed ^ 0xe571ULL;
  options.first = case_seed % 1000;
  options.model = spec.model;
  const DagumEstimate got =
      dagum_estimate_benefit(graph, communities, seeds, options);
  const double lambda_prime =
      dagum_lambda_prime(options.eps_prime, options.delta_prime);
  const double b = communities.total_benefit();
  DagumEstimate want;
  std::uint64_t influenced = 0;
  for (std::uint64_t t = 1; t <= options.max_samples; ++t) {
    Rng rng(splitmix_of(options.seed, options.first + t - 1));
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
  const auto differs = [](const DagumEstimate& x, const DagumEstimate& y) {
    return x.value != y.value || x.samples != y.samples ||
           x.converged != y.converged;
  };
  if (differs(got, want)) {
    return "dagum_estimate_benefit (" + std::to_string(got.value) + ", T=" +
           std::to_string(got.samples) + ") vs materialized replay (" +
           std::to_string(want.value) + ", T=" +
           std::to_string(want.samples) + ")";
  }
  // The blocks drawn on the caller plus a pool's workers and scanned in
  // position order: the same estimate at every thread count.
  for (const unsigned threads : {1U, 2U, 8U}) {
    ThreadPool workers(threads);
    const DagumEstimate parallel = dagum_estimate_benefit(
        graph, communities, seeds, options, ExecutionContext{}, &workers);
    if (differs(parallel, want)) {
      return "dagum_estimate_benefit on " + std::to_string(threads) +
             " workers (" + std::to_string(parallel.value) + ", T=" +
             std::to_string(parallel.samples) + ") vs serial (" +
             std::to_string(want.value) + ", T=" +
             std::to_string(want.samples) + ")";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Check: estimate_tail
// ---------------------------------------------------------------------------

/// The pool's estimate tail against a rebuild: every kept sample t must be
/// byte-equal to the sample a fresh sampler on the pool's (possibly
/// mutated) structures draws at stream position size() + t.
std::string tail_rebuild_diff(const RicPool& pool) {
  const RicPool::TailView tail = pool.tail_view();
  RicSampler sampler(pool.graph(), pool.communities(), pool.model());
  RicSampler::TouchArena arena;
  std::uint64_t offset = 0;
  for (std::uint64_t t = 0; t < tail.thresholds.size(); ++t) {
    Rng rng(splitmix_of(tail.seed, pool.size() + t));
    arena.clear();
    const RicSampleMeta meta = sampler.generate_into(rng, arena);
    const bool same_pairs = std::equal(
        arena.begin(), arena.end(), tail.sample_arena.begin() + offset,
        tail.sample_arena.begin() + tail.sample_offsets[t + 1],
        [](const auto& a, const auto& b) {
          return a.first == b.first && a.second == b.second;
        });
    if (tail.sample_offsets[t] != offset || !same_pairs ||
        tail.thresholds[t] != meta.threshold ||
        tail.source_community[t] != meta.community) {
      return "tail sample " + std::to_string(t) + " differs from a rebuild";
    }
    offset += meta.touch_count;
  }
  if (tail.sample_arena.size() != offset) return "tail arena has extra pairs";
  return "";
}

/// Capped pools serially and on {1, 2, 8} workers, each with its estimate
/// tail, under a stacked stream of random deltas. At every step two seed
/// sets are estimated through the tail as A, B, A (the first read keeps
/// what it draws, the later ones read it back and extend it where they
/// need more positions), and every tail-backed DagumEstimate must equal
/// the tail-less serial one field for field. The tail is compared byte for
/// byte with a rebuild on the current structures after the reads and after
/// every repair.
std::optional<std::string> check_estimate_tail(const InstanceSpec& spec,
                                               std::uint64_t case_seed) {
  Graph graph = spec.build_graph();
  CommunitySet communities = spec.build_communities();
  const std::uint64_t count = pool_size_for(case_seed);
  const NodeId n = graph.node_count();

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  struct Leg {
    const char* name;
    ThreadPool* workers;
    RicPool pool;
  };
  Leg legs[] = {
      {"serial", nullptr, RicPool(graph, communities, spec.model)},
      {"threads=1", &one, RicPool(graph, communities, spec.model)},
      {"threads=2", &two, RicPool(graph, communities, spec.model)},
      {"threads=8", &eight, RicPool(graph, communities, spec.model)},
  };
  for (Leg& leg : legs) {
    leg.pool.grow(count, case_seed, leg.workers != nullptr, leg.workers);
  }

  Rng rng(case_seed ^ 0x7a11ULL);
  std::vector<std::vector<NodeId>> seed_sets(2);
  for (std::vector<NodeId>& seeds : seed_sets) {
    const std::uint64_t size = 1 + rng.below(std::min<NodeId>(3, n));
    for (std::uint64_t i = 0; i < size; ++i) {
      seeds.push_back(static_cast<NodeId>(rng.below(n)));
    }
  }
  DagumOptions options;
  options.eps_prime = 0.5;
  options.delta_prime = 0.2;
  options.max_samples = 300;
  options.seed = case_seed;
  options.first = count;
  options.model = spec.model;

  for (int step = 0; step < 4; ++step) {
    const std::string at = " (step " + std::to_string(step) + ")";
    if (step > 0) {
      const GraphDelta delta = random_delta(graph, communities, rng);
      const DeltaEffects effects = apply_delta(graph, communities, delta);
      for (Leg& leg : legs) {
        (void)leg.pool.invalidate_and_repair(
            effects, case_seed, leg.workers != nullptr, leg.workers);
        const std::string diff = tail_rebuild_diff(leg.pool);
        if (!diff.empty()) {
          return std::string(leg.name) + " repaired " + diff + at;
        }
      }
    }
    for (int read = 0; read < 3; ++read) {
      const std::vector<NodeId>& seeds = seed_sets[read % 2];
      const DagumEstimate want =
          dagum_estimate_benefit(graph, communities, seeds, options);
      for (Leg& leg : legs) {
        EstimateTail tail = leg.pool.estimate_tail(case_seed);
        const DagumEstimate got =
            dagum_estimate_benefit(graph, communities, seeds, options,
                                   ExecutionContext{}, leg.workers, &tail);
        if (got.value != want.value || got.samples != want.samples ||
            got.converged != want.converged ||
            got.reached_deadline != want.reached_deadline) {
          return std::string(leg.name) + " tail-backed estimate (" +
                 std::to_string(got.value) + ", T=" +
                 std::to_string(got.samples) + ") vs tail-less (" +
                 std::to_string(want.value) + ", T=" +
                 std::to_string(want.samples) + ") on read " +
                 std::to_string(read) + at;
        }
      }
    }
    for (const Leg& leg : legs) {
      const std::string diff = tail_rebuild_diff(leg.pool);
      if (!diff.empty()) return std::string(leg.name) + " " + diff + at;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Checks: imcaf_guarantee, dagum_guarantee
// ---------------------------------------------------------------------------

/// Live-edge outcome budget of the guarantee checks: exact c(S) of every
/// k-subset is enumerated, so the instances must stay smaller than the
/// sampler_distribution ones.
constexpr std::uint64_t kGuaranteeOutcomes = 1ULL << 10;
constexpr NodeId kGuaranteeMaxNodes = 7;

/// Independent runs per case behind each guarantee's failure rate.
constexpr std::uint32_t kGuaranteeRuns = 24;

/// Smallest miss count q with P[Binomial(runs, p) > q] <= 1e-6: the
/// binomial slack of the rate checks, so a correct implementation fails a
/// case with odds below one in a million.
std::uint32_t binomial_miss_bound(std::uint32_t runs, double p) {
  const auto pmf = [&](std::uint32_t i) {
    const double n = runs;
    return std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                    std::lgamma(n - i + 1.0) + i * std::log(p) +
                    (n - i) * std::log1p(-p));
  };
  double above = 0.0;  // P[X > q]
  std::uint32_t q = runs;
  while (q > 0 && above + pmf(q) <= 1e-6) above += pmf(q--);
  return q;
}

struct ExactOptimum {
  std::vector<NodeId> seeds;
  double value = 0.0;
};

/// OPT of the IMC problem by exhaustive k-subset search, each subset's c(S)
/// enumerated exactly; nullopt when the live-edge space is too large.
std::optional<ExactOptimum> exact_optimum(const Graph& graph,
                                          const CommunitySet& communities,
                                          DiffusionModel model,
                                          std::uint32_t k) {
  std::vector<NodeId> subset(k);
  for (std::uint32_t i = 0; i < k; ++i) subset[i] = i;
  std::optional<ExactOptimum> best;
  for (;;) {
    const auto exact = enumerate_exact(graph, communities, subset, model,
                                       kGuaranteeOutcomes);
    if (!exact) return std::nullopt;
    if (!best || exact->c > best->value) best = ExactOptimum{subset, exact->c};
    // Next subset in lexicographic order.
    std::uint32_t i = k;
    while (i > 0 && subset[i - 1] == graph.node_count() - k + i - 1) --i;
    if (i == 0) return best;
    ++subset[i - 1];
    for (std::uint32_t j = i; j < k; ++j) subset[j] = subset[j - 1] + 1;
  }
}

double exact_benefit(const Graph& graph, const CommunitySet& communities,
                     std::span<const NodeId> seeds, DiffusionModel model) {
  return enumerate_exact(graph, communities, seeds, model, kGuaranteeOutcomes)
      .value()
      .c;
}

/// Theorem 7 end to end: IMCAF with UBG, run under kGuaranteeRuns seeds,
/// must return S with c(S) >= α(1 − ε)·OPT in all but a δ share of runs
/// (plus binomial slack). α is what solver.alpha(pool, k) reports on the
/// run's final pool; OPT and c(S) are exact. ε and δ are loosened so each
/// run takes a few stages of a few hundred samples; no max_samples cap,
/// so a run that does not accept stops at Ψ, where the theorem still
/// holds.
std::optional<std::string> check_imcaf_guarantee(const InstanceSpec& spec,
                                                 std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const auto k = static_cast<std::uint32_t>(
      1 + case_seed % std::min<NodeId>(3, graph.node_count()));
  const std::optional<ExactOptimum> opt =
      exact_optimum(graph, communities, spec.model, k);
  if (!opt) return std::nullopt;

  ImcafConfig config;
  config.params.epsilon = 0.6;
  config.params.delta = 0.2;
  config.model = spec.model;
  config.parallel_sampling = false;
  const UbgSolver solver;
  std::uint32_t misses = 0;
  std::string first_miss;
  for (std::uint32_t run = 0; run < kGuaranteeRuns; ++run) {
    config.seed = fuzz_case_seed(case_seed, run);
    ImcEngine engine(graph, communities, config);
    const ImcafResult result = engine.solve(k, solver);
    const double alpha = solver.alpha(engine.pool(), k);
    const double bound = alpha * (1.0 - config.params.epsilon) * opt->value;
    const double c = exact_benefit(graph, communities, result.seeds,
                                   spec.model);
    if (c < bound * (1.0 - 1e-9)) {
      if (misses++ == 0) {
        first_miss = "run " + std::to_string(run) + " seeds " +
                     describe_nodes(result.seeds) + " c=" +
                     std::to_string(c) + " < " + std::to_string(bound);
      }
    }
  }
  const std::uint32_t allowed =
      binomial_miss_bound(kGuaranteeRuns, config.params.delta);
  if (misses > allowed) {
    return "IMCAF missed alpha(1-eps)*OPT (OPT=" + std::to_string(opt->value) +
           " at " + describe_nodes(opt->seeds) + ", k=" + std::to_string(k) +
           ") in " + std::to_string(misses) + "/" +
           std::to_string(kGuaranteeRuns) + " runs, allowed " +
           std::to_string(allowed) + "; first: " + first_miss;
  }
  return std::nullopt;
}

/// Alg. 6's (ε′, δ′) guarantee end to end: the stopping-rule estimate of
/// the exact optimum's c(S), run under kGuaranteeRuns seeds, may leave
/// [(1 − ε′)c, (1 + ε′)c] in at most a δ′ share of runs (plus binomial
/// slack). T_max is set far beyond the expected T, so every run converges.
std::optional<std::string> check_dagum_guarantee(const InstanceSpec& spec,
                                                 std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const auto k = static_cast<std::uint32_t>(
      1 + (case_seed >> 3) % std::min<NodeId>(3, graph.node_count()));
  const std::optional<ExactOptimum> opt =
      exact_optimum(graph, communities, spec.model, k);
  const double b = communities.total_benefit();
  // A rarely influenced S needs T ≈ Λ′·b/c draws per run; skip it.
  if (!opt || opt->value < 0.02 * b) return std::nullopt;

  DagumOptions options;
  options.eps_prime = 0.3;
  options.delta_prime = 0.2;
  options.model = spec.model;
  options.max_samples = 1ULL << 24;
  std::uint32_t misses = 0;
  for (std::uint32_t run = 0; run < kGuaranteeRuns; ++run) {
    options.seed = fuzz_case_seed(case_seed ^ 0xda9c0de5ULL, run);
    const DagumEstimate estimate =
        dagum_estimate_benefit(graph, communities, opt->seeds, options);
    if (!estimate.converged) {
      return "Dagum estimate did not converge in T_max on seeds " +
             describe_nodes(opt->seeds);
    }
    if (std::abs(estimate.value - opt->value) >
        options.eps_prime * opt->value) {
      ++misses;
    }
  }
  const std::uint32_t allowed =
      binomial_miss_bound(kGuaranteeRuns, options.delta_prime);
  if (misses > allowed) {
    return "Dagum estimate left (1 +- eps')c(S) (c=" +
           std::to_string(opt->value) + " at " + describe_nodes(opt->seeds) +
           ") in " + std::to_string(misses) + "/" +
           std::to_string(kGuaranteeRuns) + " runs, allowed " +
           std::to_string(allowed);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Checks: ssa_estimate_event, ssa_pool_event, ssa_stage_chain
// ---------------------------------------------------------------------------

/// ε and δ of the event-level checks: the perfbench setting, where the
/// split's margins are as thin as the engine meets them.
ApproxParams event_params() {
  ApproxParams params;
  params.epsilon = 0.3;
  params.delta = 0.2;
  return params;
}

/// Independent runs per case behind each per-stage event's failure rate.
constexpr std::uint32_t kEventRuns = 32;

/// Charged stages of the pool event checked per run; the Lemma 6 bound of
/// each later one is the square of the one before it.
constexpr std::uint32_t kPoolEventStages = 2;

/// Ψ of the engine for a UBG run with k seeds (eq. 22).
double engine_psi(const Graph& graph, const CommunitySet& communities,
                  DiffusionModel model, std::uint32_t k,
                  const ApproxParams& params) {
  const RicPool empty(graph, communities, model);
  return static_cast<double>(psi_sample_cap(
      graph.node_count(), k, communities.total_benefit(),
      communities.min_benefit(), communities.max_threshold(),
      UbgSolver().alpha(empty, k), params));
}

/// Upper bound of the pool event's share that Λ buys, whatever the ε
/// split: Σ_j (2δ/3)^(1.5·2^j) <= p/(1 − p) with p = (2δ/3)^1.5
/// (DESIGN.md §15).
double pool_event_share_bound(double delta) {
  const double p = std::pow(2.0 * delta / 3.0, 1.5);
  return p / (1.0 - p);
}

/// The Estimate event a stop stage charges (DESIGN.md §15, event E): a
/// converged stopping-rule estimate of c(S) at the engine's ε′ = ε2 and
/// per-stage δ′ may exceed (1 + ε2)·c(S) in at most a δ′ share of runs
/// (plus binomial slack). S is the exact optimum, c(S) exact.
std::optional<std::string> check_ssa_estimate_event(const InstanceSpec& spec,
                                                    std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const auto k = static_cast<std::uint32_t>(
      1 + (case_seed >> 5) % std::min<NodeId>(3, graph.node_count()));
  const std::optional<ExactOptimum> opt =
      exact_optimum(graph, communities, spec.model, k);
  // A rarely influenced S needs T ≈ Λ′·b/c draws per run; skip it.
  if (!opt || opt->value < 0.1 * communities.total_benefit()) {
    return std::nullopt;
  }
  const ApproxParams params = event_params();
  DagumOptions options;
  options.eps_prime = params.ssa_eps2();
  options.delta_prime = ssa_stage_delta(
      params, engine_psi(graph, communities, spec.model, k, params),
      ssa_lambda(params));
  options.model = spec.model;
  options.max_samples = 1ULL << 24;
  std::uint32_t misses = 0;
  for (std::uint32_t run = 0; run < kEventRuns; ++run) {
    options.seed = fuzz_case_seed(case_seed ^ 0xe5715a7eULL, run);
    const DagumEstimate estimate =
        dagum_estimate_benefit(graph, communities, opt->seeds, options);
    if (!estimate.converged) {
      return "stage Estimate did not converge in T_max on seeds " +
             describe_nodes(opt->seeds);
    }
    if (estimate.value > (1.0 + options.eps_prime) * opt->value) ++misses;
  }
  const std::uint32_t allowed =
      binomial_miss_bound(kEventRuns, options.delta_prime);
  if (misses > allowed) {
    return "stage Estimate exceeded (1 + eps2)c(S) (c=" +
           std::to_string(opt->value) + " at " + describe_nodes(opt->seeds) +
           ", delta'=" + std::to_string(options.delta_prime) + ") in " +
           std::to_string(misses) + "/" + std::to_string(kEventRuns) +
           " runs, allowed " + std::to_string(allowed);
  }
  return std::nullopt;
}

/// The pool event a stop stage charges (DESIGN.md §15, event P): at every
/// scheduled pool size N_t = ⌈Λ⌉·2^(t−1) with N_t·c(S*)/b >= Λ/((1+ε1)(1+ε2)),
/// ĉ_{N_t}(S*) >= (1 − ε3)·c(S*). A run misses when any of the first
/// kPoolEventStages such stages fails; the miss share is held to the sum
/// of their Lemma 6 lower-tail bounds (plus binomial slack), and that sum
/// to the share DESIGN.md charges, whatever the split.
std::optional<std::string> check_ssa_pool_event(const InstanceSpec& spec,
                                                std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const auto k = static_cast<std::uint32_t>(
      1 + (case_seed >> 7) % std::min<NodeId>(3, graph.node_count()));
  const std::optional<ExactOptimum> opt =
      exact_optimum(graph, communities, spec.model, k);
  const double b = communities.total_benefit();
  // A rarely influenced S* needs pools of ≈ Λ·b/c(S*) samples; skip it.
  if (!opt || opt->value < 0.1 * b) return std::nullopt;
  const ApproxParams params = event_params();
  const double lambda = ssa_lambda(params);
  const double e3 = params.ssa_eps3();
  const double upsilon =
      lambda / ((1.0 + params.ssa_eps1()) * (1.0 + params.ssa_eps2()));
  const double psi = engine_psi(graph, communities, spec.model, k, params);

  std::vector<std::uint64_t> charged;
  double share = 0.0;
  for (auto n = static_cast<std::uint64_t>(std::ceil(lambda));
       static_cast<double>(n) < psi && charged.size() < kPoolEventStages;
       n *= 2) {
    if (static_cast<double>(n) * opt->value / b >= upsilon) {
      charged.push_back(n);
      share += lemma6_lower_tail(static_cast<double>(n), e3, b, opt->value);
    }
  }
  if (charged.empty()) return std::nullopt;
  if (share > pool_event_share_bound(params.delta)) {
    return "pool event bound " + std::to_string(share) +
           " exceeds the share Lambda buys, " +
           std::to_string(pool_event_share_bound(params.delta));
  }

  std::uint32_t misses = 0;
  for (std::uint32_t run = 0; run < kEventRuns; ++run) {
    const std::uint64_t seed = fuzz_case_seed(case_seed ^ 0x9001e7e7ULL, run);
    RicPool pool(graph, communities, spec.model);
    bool held = true;
    for (const std::uint64_t n : charged) {
      pool.grow(n - pool.size(), seed, false);
      held = held && pool.c_hat(opt->seeds) >= (1.0 - e3) * opt->value;
    }
    if (!held) ++misses;
  }
  const std::uint32_t allowed =
      binomial_miss_bound(kEventRuns, std::min(1.0, share));
  if (misses > allowed) {
    return "pool c_hat(S*) fell below (1 - eps3)c(S*) (c=" +
           std::to_string(opt->value) + " at " + describe_nodes(opt->seeds) +
           ", bound " + std::to_string(share) + ") in " +
           std::to_string(misses) + "/" + std::to_string(kEventRuns) +
           " runs, allowed " + std::to_string(allowed);
  }
  return std::nullopt;
}

/// Theorem 7's chain on the engine's accepted stages, with no tolerance:
/// an accepted stage met line 8 (|R|·ĉ(S)/b >= Λ) and line 10
/// (ĉ(S) <= (1+ε1)·estimate); when its Estimate event held it has
/// |R|·c(S)/b >= Λ/((1+ε1)(1+ε2)); and when the Estimate event, the pool
/// event and the solver's ĉ(S) >= α·ĉ(S*) all held, c(S) >= α(1−ε)·OPT.
/// The last step is where the split's constraint
/// (1+ε1)(1+ε2)(1−ε) <= 1−ε3 enters.
std::optional<std::string> check_ssa_stage_chain(const InstanceSpec& spec,
                                                 std::uint64_t case_seed) {
  const Graph graph = spec.build_graph();
  const CommunitySet communities = spec.build_communities();
  const auto k = static_cast<std::uint32_t>(
      1 + (case_seed >> 9) % std::min<NodeId>(3, graph.node_count()));
  const std::optional<ExactOptimum> opt =
      exact_optimum(graph, communities, spec.model, k);
  const double b = communities.total_benefit();
  if (!opt || opt->value <= 0.0) return std::nullopt;

  ImcafConfig config;
  config.params = event_params();
  config.model = spec.model;
  config.parallel_sampling = false;
  // Only accepted stages are checked; a run that would grow towards Ψ
  // stops here instead.
  config.max_samples = 1ULL << 16;
  const ApproxParams& params = config.params;
  const double e1 = params.ssa_eps1();
  const double e2 = params.ssa_eps2();
  const double e3 = params.ssa_eps3();
  constexpr double kTol = 1.0 - 1e-9;
  const UbgSolver solver;
  for (std::uint32_t run = 0; run < kGuaranteeRuns / 2; ++run) {
    config.seed = fuzz_case_seed(case_seed ^ 0xc4a1dULL, run);
    ImcEngine engine(graph, communities, config);
    const ImcafResult result = engine.solve(k, solver);
    if (result.reached_cap || result.reached_deadline) continue;
    const RicPool& pool = engine.pool();
    const auto n = static_cast<double>(pool.size());
    const std::string at = " (run " + std::to_string(run) + ", seeds " +
                           describe_nodes(result.seeds) + ", |R|=" +
                           std::to_string(pool.size()) + ")";
    if (static_cast<double>(pool.influenced_count(result.seeds)) <
        result.lambda) {
      return "accepted below Lambda influenced samples" + at;
    }
    if (result.c_hat > (1.0 + e1) * result.estimated_benefit) {
      return "accepted with c_hat above (1 + eps1) * estimate" + at;
    }
    const double c = exact_benefit(graph, communities, result.seeds,
                                   spec.model);
    if (result.estimated_benefit > (1.0 + e2) * c) continue;
    const double upsilon = result.lambda / ((1.0 + e1) * (1.0 + e2));
    if (n * c / b < upsilon * kTol) {
      return "estimate event held, yet |R| c(S)/b = " +
             std::to_string(n * c / b) + " < " + std::to_string(upsilon) + at;
    }
    const double alpha = solver.alpha(pool, k);
    if (pool.c_hat(opt->seeds) < (1.0 - e3) * opt->value ||
        result.c_hat < alpha * pool.c_hat(opt->seeds)) {
      continue;
    }
    const double bound = alpha * (1.0 - params.epsilon) * opt->value;
    if (c < bound * kTol) {
      return "every charged event held, yet c(S)=" + std::to_string(c) +
             " < alpha(1-eps)OPT=" + std::to_string(bound) + at;
    }
  }
  return std::nullopt;
}

/// True when the live-edge outcome space has at most `limit` outcomes, so
/// enumerate_exact succeeds on the instance.
bool outcomes_at_most(const Graph& graph, DiffusionModel model,
                      std::uint64_t limit) {
  if (model == DiffusionModel::kIndependentCascade) {
    return graph.edge_count() < 63 && (1ULL << graph.edge_count()) <= limit;
  }
  std::uint64_t outcomes = 1;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const std::uint64_t radix = graph.in_neighbors(v).size() + 1;
    if (outcomes > limit / radix) return false;
    outcomes *= radix;
  }
  return true;
}

/// Whether a check has ground truth on the instance — the exact-level
/// checks run only where enumerate_exact does; everything else is counted
/// as skipped.
bool check_applies(const std::string& check, const InstanceSpec& spec) {
  if (check == "sampler_distribution") {
    return outcomes_at_most(spec.build_graph(), spec.model, 1ULL << 12);
  }
  if (check == "imcaf_guarantee" || check == "dagum_guarantee" ||
      check.starts_with("ssa_")) {
    return spec.node_count <= kGuaranteeMaxNodes &&
           outcomes_at_most(spec.build_graph(), spec.model,
                            kGuaranteeOutcomes);
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
      {"pool_roundtrip", check_pool_roundtrip},
      {"delta_vs_rebuild", check_delta_vs_rebuild},
      {"sampler_distribution", check_sampler_distribution},
      {"dagum_draw", check_dagum_draw},
      {"estimate_tail", check_estimate_tail},
      {"imcaf_guarantee", check_imcaf_guarantee},
      {"dagum_guarantee", check_dagum_guarantee},
      {"ssa_estimate_event", check_ssa_estimate_event},
      {"ssa_pool_event", check_ssa_pool_event},
      {"ssa_stage_chain", check_ssa_stage_chain},
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
      if (!check_applies(check.name, spec)) {
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
