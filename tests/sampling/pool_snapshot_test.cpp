#include "sampling/pool_snapshot.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "community/threshold_policy.h"
#include "core/engine.h"
#include "core/maxr_solver.h"
#include "core/ubg.h"
#include "graph/delta.h"
#include "graph/generators/generators.h"
#include "graph/weights.h"
#include "test_support.h"
#include "testing/sample_pool.h"
#include "util/mathx.h"
#include "util/thread_pool.h"

namespace imc {
namespace {

struct Fixture {
  Graph graph;
  CommunitySet communities;

  Fixture() {
    graph = test::cycle_graph(12, 0.5);
    communities = test::chunk_communities(12, 3);
    apply_population_benefits(communities);
    apply_constant_thresholds(communities, 2);
  }
};

/// Full structural comparison down to the arenas — the "restored pool IS
/// the saved pool" contract, CSR index and epoch watermark included.
void expect_pools_bit_identical(const RicPool& loaded,
                                const RicPool& original) {
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.model(), original.model());
  EXPECT_EQ(loaded.grow_epoch(), original.grow_epoch());
  EXPECT_TRUE(std::equal(loaded.thresholds().begin(),
                         loaded.thresholds().end(),
                         original.thresholds().begin(),
                         original.thresholds().end()));
  EXPECT_TRUE(std::equal(loaded.source_communities().begin(),
                         loaded.source_communities().end(),
                         original.source_communities().begin(),
                         original.source_communities().end()));
  EXPECT_TRUE(std::equal(loaded.community_frequencies().begin(),
                         loaded.community_frequencies().end(),
                         original.community_frequencies().begin(),
                         original.community_frequencies().end()));
  for (std::uint32_t g = 0; g < original.size(); ++g) {
    const auto mine = loaded.sample_touches(g);
    const auto theirs = original.sample_touches(g);
    ASSERT_TRUE(
        std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end()))
        << "sample-major arena diverges at sample " << g;
  }
  ASSERT_TRUE(std::equal(loaded.touch_offsets().begin(),
                         loaded.touch_offsets().end(),
                         original.touch_offsets().begin(),
                         original.touch_offsets().end()));
  const auto arena = loaded.touch_arena();
  const auto expected = original.touch_arena();
  ASSERT_EQ(arena.size(), expected.size());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    ASSERT_EQ(arena[i].sample, expected[i].sample) << "arena slot " << i;
    ASSERT_EQ(arena[i].threshold, expected[i].threshold)
        << "arena slot " << i;
    ASSERT_EQ(arena[i].mask, expected[i].mask) << "arena slot " << i;
  }
}

std::string snapshot_bytes(const RicPool& pool) {
  std::ostringstream out(std::ios::binary);
  write_ric_pool_snapshot(out, pool);
  return out.str();
}

/// A temp path unique to this test and process: ctest runs the same test
/// from several binaries at once.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "." + std::to_string(::getpid()) + "." + name;
}

std::string temp_snapshot(const RicPool& pool, const std::string& name) {
  const std::string path = temp_path(name);
  save_ric_pool_snapshot(path, pool);
  return path;
}

/// Writes raw bytes (a crafted or corrupted snapshot) to a temp file.
std::string temp_file(const std::string& bytes, const std::string& name) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(PoolSnapshot, AttachIsBitIdentical) {
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(250, 41);
  const std::string path = temp_snapshot(original, "imc_snap_attach.bin");

  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(attached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, AttachReadsSectionsLargerThanOneReadChunk) {
  // The loader reads and hashes each section in 256 KiB chunks: a pool
  // whose arena sections span several chunks must verify and attach
  // unchanged.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(30000, 9);
  ASSERT_GT(original.touch_arena().size_bytes(), std::size_t{3} << 18);
  const std::string path = temp_snapshot(original, "multi_chunk.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(attached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, ConstReadersLeaveTheAttachedArenasInPlace) {
  // Const readers of an attached pool, parallel selection included, must
  // not move its arenas: a write inside a const reader would race when
  // several threads read the pool.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(120, 17);
  const std::string path = temp_snapshot(original, "const_readers.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  const RicPool::Touch* arena = attached.touch_arena().data();
  const std::uint64_t* offsets = attached.touch_offsets().data();

  for (NodeId v = 0; v < fixture.graph.node_count(); ++v) {
    (void)attached.touches_of(v);
  }
  ThreadPool workers(4);
  const GreedyOptions parallel{/*parallel=*/true, &workers,
                               /*min_parallel_candidates=*/1};
  (void)ubg_solve(attached, 3, parallel);
  EXPECT_EQ(attached.touch_arena().data(), arena);
  EXPECT_EQ(attached.touch_offsets().data(), offsets);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, AttachedPoolSurvivesSnapshotFileRemoval) {
  // An attached pool owns what it read, so it keeps serving reads after
  // the snapshot file is unlinked.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(60, 3);
  const std::string path = temp_snapshot(original, "imc_snap_unlink.bin");
  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  std::remove(path.c_str());
  const std::vector<NodeId> seeds{1, 4};
  EXPECT_DOUBLE_EQ(attached.c_hat(seeds), original.c_hat(seeds));
}

TEST(PoolSnapshot, AttachThenGrowMatchesStraightGrowth) {
  // grow() after attach must continue the RNG substream schedule exactly
  // where the saved pool stopped — so attach+grow ==
  // grow-straight-through, bit for bit.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(150, 77);
  const std::string path = temp_snapshot(original, "imc_snap_grow.bin");

  RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  attached.grow(100, 77);

  original.grow(100, 77);
  expect_pools_bit_identical(attached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, BytesAreAFunctionOfPoolContent) {
  // Pools grown alike — serially and on one and two workers — write the
  // same file bytes, below and above the 1 MiB mapped-slab size, before
  // and after a delta repair. Every stored touch pair's 4 bytes between
  // node and mask (TouchPair::pad) are zero; a copy that left them
  // unwritten would leave heap bytes that differ from pool to pool.
  Rng rng(5);
  BarabasiAlbertConfig config;
  config.nodes = 150;
  config.attach = 3;
  EdgeList edges = barabasi_albert_edges(config, rng);
  apply_weighted_cascade(edges, config.nodes);
  ThreadPool one(1);
  ThreadPool two(2);

  const auto expect_zero_padding = [](const RicPool& pool) {
    const auto pairs = pool.sample_arena();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(pairs[i].pad, 0U) << "pair " << i;
    }
  };
  bool mapped_seen = false;
  for (const std::uint64_t samples : {400U, 9'000U}) {
    SCOPED_TRACE("samples " + std::to_string(samples));
    Graph graph(config.nodes, edges);
    CommunitySet communities = test::chunk_communities(config.nodes, 6);
    apply_constant_thresholds(communities, 2);
    apply_population_benefits(communities);
    std::vector<RicPool> pools;
    for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &one,
                                &two}) {
      RicPool& pool = pools.emplace_back(graph, communities);
      // Two grows, so the second merges into a CSR that already has rows.
      pool.grow(samples / 4, 2024, workers != nullptr, workers);
      pool.grow(samples - samples / 4, 2024, workers != nullptr, workers);
    }
    mapped_seen = mapped_seen || pools[0].sample_arena().size_bytes() >=
                                     detail::kMappedSlabBytes;
    for (const RicPool& pool : pools) expect_zero_padding(pool);
    const std::string bytes = snapshot_bytes(pools[0]);
    EXPECT_EQ(snapshot_bytes(pools[1]), bytes);
    EXPECT_EQ(snapshot_bytes(pools[2]), bytes);

    GraphDelta delta;
    delta.upsert_edge(0, 57, 0.4).remove_edge(1, 0).move_member(19, 1);
    const DeltaEffects effects = apply_delta(graph, communities, delta);
    ThreadPool* workers[] = {nullptr, &one, &two};
    for (std::size_t i = 0; i < pools.size(); ++i) {
      const RicPool::RepairStats stats = pools[i].invalidate_and_repair(
          effects, 2024, workers[i] != nullptr, workers[i]);
      EXPECT_GT(stats.repaired, 0U);
      expect_zero_padding(pools[i]);
    }
    const std::string repaired = snapshot_bytes(pools[0]);
    EXPECT_NE(repaired, bytes);
    EXPECT_EQ(snapshot_bytes(pools[1]), repaired);
    EXPECT_EQ(snapshot_bytes(pools[2]), repaired);
  }
  EXPECT_TRUE(mapped_seen);
}

TEST(PoolSnapshot, RestoredEpochEqualsSavedEpoch) {
  // The epoch watermark written at save time is restored verbatim: a
  // PoolEpoch captured against the saved pool equals the reloaded pool's,
  // sample count, grow count and repair count alike.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(80, 5);
  original.grow(40, 5);
  const RicPool::PoolEpoch epoch = original.grow_epoch();
  const std::string path = temp_snapshot(original, "epoch.bin");

  const RicPool loaded =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  EXPECT_EQ(epoch, (RicPool::PoolEpoch{120, 2, 0}));
  EXPECT_EQ(loaded.grow_epoch(), epoch);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, SavingOverTheAttachedFileKeepsBothPoolsIntact) {
  // Saving over the file a pool was attached from must leave the pool
  // intact and the file a valid snapshot: save renames a fresh file over
  // the old one instead of truncating it in place.
  const Fixture fixture;
  RicPool original(fixture.graph, fixture.communities);
  original.grow(150, 41);
  const std::string path = temp_snapshot(original, "resave.bin");

  const RicPool attached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  save_ric_pool_snapshot(path, attached);
  expect_pools_bit_identical(attached, original);

  const RicPool reattached =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(reattached, original);
  std::remove(path.c_str());
}

TEST(PoolSnapshot, FailedSaveLeavesTheExistingFileIntact) {
  const Fixture fixture;
  RicPool small(fixture.graph, fixture.communities);
  small.grow(30, 5);
  const std::string path = temp_snapshot(small, "failed_save.bin");
  const std::string before = file_bytes(path);

  // Cap this process's file size below the larger snapshot so its write
  // fails part-way (EFBIG instead of SIGXFSZ), then restore the limit.
  RicPool large(fixture.graph, fixture.communities);
  large.grow(800, 6);
  ASSERT_GT(snapshot_bytes(large).size(), 2 * before.size());
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(before.size());
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW(save_ric_pool_snapshot(path, large), std::runtime_error);
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_EQ(file_bytes(path), before);
  const std::filesystem::path file(path);
  for (const auto& entry :
       std::filesystem::directory_iterator(file.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(
                  file.filename().string() + ".tmp.", 0),
              0U)
        << "temp file left behind: " << entry.path();
  }
  // The attach still sees the original pool.
  const RicPool kept =
      attach_ric_pool_snapshot(path, fixture.graph, fixture.communities);
  expect_pools_bit_identical(kept, small);
  std::remove(path.c_str());

  // A save into a missing directory fails cleanly too.
  EXPECT_THROW(save_ric_pool_snapshot("/no/such/dir/pool.bin", small),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Corrupted-file corpus: every rejection path, with its pinned diagnostic.

/// Section layout mirror (same math as the implementation) so corpus
/// entries can patch payload bytes and re-seal the checksum.
struct Layout {
  std::size_t offset[7];
  std::size_t bytes[7];

  explicit Layout(const PoolSnapshotHeader& header) {
    const std::size_t raw[7] = {
        header.sample_count * sizeof(std::uint32_t),
        header.sample_count * sizeof(CommunityId),
        header.community_count * sizeof(std::uint32_t),
        (header.sample_count + 1) * sizeof(std::uint64_t),
        header.sample_pair_count * sizeof(TouchPair),
        (header.node_count + 1) * sizeof(std::uint64_t),
        header.csr_touch_count * sizeof(RicPool::Touch),
    };
    std::size_t cursor = 128;
    for (int i = 0; i < 7; ++i) {
      offset[i] = cursor;
      bytes[i] = raw[i];
      cursor += detail::round_up_64(raw[i]);
    }
  }
};

PoolSnapshotHeader header_of(const std::string& blob) {
  PoolSnapshotHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  return header;
}

/// Recomputes the header checksum after a test patched header fields,
/// so the corpus can target validation stages BEHIND the header seal.
void reseal_header(std::string& blob) {
  PoolSnapshotHeader header = header_of(blob);
  Fnv1a64 digest;
  digest.add_bytes(&header, offsetof(PoolSnapshotHeader, header_checksum));
  header.header_checksum = digest.value();
  std::memcpy(blob.data(), &header, sizeof(header));
}

/// Recomputes the payload checksum after a test patched section bytes, so
/// the corpus can target validation stages BEHIND the checksum gate.
/// Reseals the header too (the payload checksum lives inside it).
void reseal_checksum(std::string& blob) {
  PoolSnapshotHeader header = header_of(blob);
  const Layout layout(header);
  WordLaneHash digest;
  for (int i = 0; i < 7; ++i) {
    digest.add_section(blob.data() + layout.offset[i], layout.bytes[i]);
  }
  header.payload_checksum = digest.value();
  std::memcpy(blob.data(), &header, sizeof(header));
  reseal_header(blob);
}

std::string attach_error(const Fixture& fixture, const std::string& blob) {
  const std::string path = temp_file(blob, "corpus.bin");
  std::string message;
  try {
    (void)attach_ric_pool_snapshot(path, fixture.graph,
                                   fixture.communities);
    ADD_FAILURE() << "snapshot attach accepted corrupt input";
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  std::remove(path.c_str());
  return message;
}

class PoolSnapshotCorpus : public ::testing::Test {
 protected:
  Fixture fixture_;
  RicPool pool_{fixture_.graph, fixture_.communities};
  std::string blob_;

  void SetUp() override {
    pool_.grow(50, 13);
    blob_ = snapshot_bytes(pool_);
  }

  /// Overwrites a header field given its byte offset inside the struct.
  template <typename T>
  void patch_header(std::size_t offset, T value) {
    std::memcpy(blob_.data() + offset, &value, sizeof(value));
  }

  /// Overwrites pair `i` of the sample-major arena (section 5).
  void patch_pair(std::size_t i, TouchPair pair) {
    const Layout layout(header_of(blob_));
    std::memcpy(blob_.data() + layout.offset[4] + i * sizeof(TouchPair),
                &pair, sizeof(pair));
  }
};

TEST_F(PoolSnapshotCorpus, BadMagic) {
  blob_[0] = 'X';
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: bad magic (not an imcpool2 snapshot)");
}

TEST_F(PoolSnapshotCorpus, TextV1AndEmptyFilesFailWithTheSnapshotDiagnostic) {
  // A file in the old text v1 pool format, or an empty file, gets the
  // snapshot loader's own diagnostic.
  std::string text = "imc-ric-pool v1\nnodes 12 samples 12 model ic\n";
  for (int g = 0; g < 12; ++g) text += "sample 0 2 1 0 1\n";
  ASSERT_GE(text.size(), sizeof(PoolSnapshotHeader));
  EXPECT_EQ(attach_error(fixture_, text),
            "ric pool snapshot: bad magic (not an imcpool2 snapshot)");
  EXPECT_EQ(attach_error(fixture_, "imc-ric-pool v1\nnodes 12 samples 0\n"),
            "ric pool snapshot: truncated header");
  EXPECT_EQ(attach_error(fixture_, ""),
            "ric pool snapshot: truncated header");
}

TEST_F(PoolSnapshotCorpus, MissingPathOrDirectoryFailsNamingThePath) {
  // Both fail at the loader boundary with the snapshot prefix and the
  // path, before anything is read.
  const std::string missing = temp_path("missing.bin");
  const std::string directory = ::testing::TempDir();
  for (const std::string& path : {missing, directory}) {
    try {
      (void)attach_ric_pool_snapshot(path, fixture_.graph,
                                     fixture_.communities);
      ADD_FAILURE() << "attach accepted " << path;
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("ric pool snapshot: cannot open " + path, 0),
                0U)
          << message;
    }
  }
}

TEST_F(PoolSnapshotCorpus, UnsupportedVersion) {
  patch_header<std::uint32_t>(offsetof(PoolSnapshotHeader, version), 9);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: unsupported version 9");
}

TEST_F(PoolSnapshotCorpus, GenuineV3HeaderIsRejected) {
  // A v3 file has the same magic and layout but the old payload checksum:
  // a resealed v3 header must fail on its version, not on a checksum.
  patch_header<std::uint32_t>(offsetof(PoolSnapshotHeader, version), 3);
  reseal_header(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: unsupported version 3");
}

TEST_F(PoolSnapshotCorpus, RngContractMismatch) {
  patch_header<std::uint32_t>(offsetof(PoolSnapshotHeader, rng_contract),
                              kRicSamplerRngContract + 1);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: rng contract mismatch (snapshot " +
                std::to_string(kRicSamplerRngContract + 1) + ", sampler " +
                std::to_string(kRicSamplerRngContract) + ")");
}

TEST_F(PoolSnapshotCorpus, WrongGraphFingerprint) {
  // Same node count, different weights: only the fingerprint can tell.
  Fixture other;
  other.graph = test::cycle_graph(12, 0.9);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: graph fingerprint mismatch");
}

TEST_F(PoolSnapshotCorpus, WrongCommunityFingerprint) {
  // Same communities, different thresholds — exactly the mismatch that
  // would silently poison ν/MAF if attach accepted it.
  Fixture other;
  apply_constant_thresholds(other.communities, 3);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: community fingerprint mismatch");
}

TEST_F(PoolSnapshotCorpus, WrongNodeCount) {
  Fixture other;
  other.graph = test::cycle_graph(20, 0.5);
  other.communities = test::chunk_communities(20, 4);
  EXPECT_EQ(attach_error(other, blob_),
            "ric pool snapshot: node count does not match the supplied "
            "graph");
}

TEST_F(PoolSnapshotCorpus, EpochWatermarkDisagreesWithSampleCount) {
  patch_header<std::uint64_t>(offsetof(PoolSnapshotHeader, epoch_samples),
                              51);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: epoch watermark disagrees with the sample "
            "count");
}

TEST_F(PoolSnapshotCorpus, ForgedRepairsEpochFailsHeaderChecksum) {
  // Satellite of the dynamic-graph work (DESIGN.md §16): forging the
  // repairs counter — to make a pre-repair snapshot pass for a repaired
  // pool — must trip the header seal.
  patch_header<std::uint64_t>(offsetof(PoolSnapshotHeader, epoch_repairs),
                              7);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: header checksum mismatch (tampered or "
            "corrupt header)");

  // Resealed, the same epoch loads fine and surfaces through the pool's
  // watermark — the counter genuinely round-trips.
  reseal_header(blob_);
  const std::string path = temp_file(blob_, "resealed.bin");
  const RicPool loaded =
      attach_ric_pool_snapshot(path, fixture_.graph, fixture_.communities);
  EXPECT_EQ(loaded.grow_epoch().repairs, 7U);
  std::remove(path.c_str());
}

TEST_F(PoolSnapshotCorpus, TruncatedHeader) {
  blob_.resize(100);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: truncated header");
}

TEST_F(PoolSnapshotCorpus, TruncatedArenaSection) {
  blob_.resize(blob_.size() - 64);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: snapshot file size disagrees with its "
            "declared payload");
}

TEST_F(PoolSnapshotCorpus, TrailingGarbage) {
  blob_ += "garbage";
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: snapshot file size disagrees with its "
            "declared payload");
}

TEST_F(PoolSnapshotCorpus, FlippedPayloadByteFailsChecksum) {
  // The last raw byte of the last section (the CSR touch arena): the
  // checksum covers the whole payload, not just its head.
  const Layout layout(header_of(blob_));
  const std::size_t last = layout.offset[6] + layout.bytes[6] - 1;
  blob_[last] = static_cast<char>(blob_[last] ^ 0x01);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: payload checksum mismatch (corrupt "
            "snapshot)");
}

TEST_F(PoolSnapshotCorpus, OutOfRangeCommunityBehindValidChecksum) {
  // Patch a source-community entry out of range AND re-seal the checksum:
  // this must die in deep validation, not slip through as "checksum ok".
  const Layout layout(header_of(blob_));
  const CommunityId bogus = 7;
  std::memcpy(blob_.data() + layout.offset[1], &bogus, sizeof(bogus));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: community id out of range");
}

TEST_F(PoolSnapshotCorpus, ForgedFrequenciesBehindValidChecksum) {
  // Move one count between two communities: the sum still equals the
  // sample count, but MAF would order communities by the forged counters.
  const Layout layout(header_of(blob_));
  std::uint32_t frequency[2];
  char* const table = blob_.data() + layout.offset[2];
  std::memcpy(frequency, table, sizeof(frequency));
  ASSERT_GT(frequency[0], 0U);
  --frequency[0];
  ++frequency[1];
  std::memcpy(table, frequency, sizeof(frequency));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: community frequencies disagree with the "
            "sample communities");
}

TEST_F(PoolSnapshotCorpus, TouchingNodeOutOfRangeBehindValidChecksum) {
  const Layout layout(header_of(blob_));
  const NodeId bogus = 99;  // > node_count = 12
  std::memcpy(blob_.data() + layout.offset[4], &bogus, sizeof(bogus));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: touching node out of range");
}

TEST_F(PoolSnapshotCorpus, FlippedPayloadByteFailsAttachChecksum) {
  blob_[200] = static_cast<char>(blob_[200] ^ 0x40);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: payload checksum mismatch (corrupt "
            "snapshot)");
}

TEST_F(PoolSnapshotCorpus, NonMonotoneSampleOffsetsBehindValidChecksum) {
  // offsets[1] pointing past the arena must be rejected before the
  // content checks index pairs[0, huge): restore_snapshot's structural
  // pass checks both offset tables before the loader reads any span.
  const Layout layout(header_of(blob_));
  const std::uint64_t huge = ~std::uint64_t{0};
  std::memcpy(blob_.data() + layout.offset[3] + sizeof(std::uint64_t),
              &huge, sizeof(huge));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: RicPool::restore_snapshot: sample-major "
            "offsets not monotone");
}

TEST_F(PoolSnapshotCorpus, SampleOffsetsMustSpanTheArena) {
  // A final offset short of the arena would leave pairs unreachable (and
  // an oversized one would unbound every span): both are endpoint errors.
  PoolSnapshotHeader header = header_of(blob_);
  const Layout layout(header);
  const std::uint64_t bogus_end = header.sample_pair_count + 1;
  std::memcpy(blob_.data() + layout.offset[3] +
                  header.sample_count * sizeof(std::uint64_t),
              &bogus_end, sizeof(bogus_end));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: RicPool::restore_snapshot: sample-major "
            "offsets inconsistent with the arena");
}

TEST_F(PoolSnapshotCorpus, NonMonotoneTouchOffsetsBehindValidChecksum) {
  const Layout layout(header_of(blob_));
  const std::uint64_t huge = ~std::uint64_t{0};
  std::memcpy(blob_.data() + layout.offset[5] + sizeof(std::uint64_t),
              &huge, sizeof(huge));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: RicPool::restore_snapshot: CSR offsets not "
            "monotone");
}

// The transpose check: the CSR must hold exactly the touch {g, h_g, mask}
// for each pair (v, mask) of each sample g. Each forgery below keeps every
// offset table and count consistent and reseals both checksums, so only
// the content walk can catch it.

TEST_F(PoolSnapshotCorpus, PairNamingANodeItsCsrRowLacksBehindValidChecksum) {
  // Sample 0's first pair moves to the node before it, one the sample
  // does not touch: still in range and ascending, but that node's CSR row
  // has no touch of sample 0.
  const auto pairs = pool_.sample_touches(0);
  ASSERT_GT(pairs[0].first, 0U);
  const NodeId moved = pairs[0].first - 1;
  patch_pair(0, TouchPair{moved, pairs[0].second});
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: node " + std::to_string(moved) +
                " is missing from its csr row");
}

TEST_F(PoolSnapshotCorpus, CsrMaskDiffersFromThePairBehindValidChecksum) {
  // The first touch of the CSR arena gets another member mask.
  NodeId v = 0;
  while (pool_.touches_of(v).empty()) ++v;
  const RicPool::Touch first = pool_.touches_of(v).front();
  const Layout layout(header_of(blob_));
  const std::uint64_t forged = first.mask ^ 0b10;
  std::memcpy(blob_.data() + layout.offset[6] + offsetof(RicPool::Touch, mask),
              &forged, sizeof(forged));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample " + std::to_string(first.sample) +
                ": csr mask of node " + std::to_string(v) +
                " disagrees with the sample's pair");
}

TEST_F(PoolSnapshotCorpus, DuplicateNodeBehindValidChecksum) {
  const auto pairs = pool_.sample_touches(0);
  ASSERT_GE(pairs.size(), 2U);
  patch_pair(1, TouchPair{pairs[0].first, pairs[1].second});
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: touching nodes not strictly "
            "ascending");
}

TEST_F(PoolSnapshotCorpus, ZeroMaskBehindValidChecksum) {
  // A zero mask in both arenas still agrees across them; the pair itself
  // names no member.
  const auto pairs = pool_.sample_touches(0);
  patch_pair(0, TouchPair{pairs[0].first, 0});
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: sample 0: empty member mask");
}

TEST_F(PoolSnapshotCorpus, ExtraCsrTouchBehindValidChecksum) {
  // One more touch at the end of the last node's row: the CSR arena (the
  // last section), its count and the row's end offset grow by one, and
  // the file by its padding.
  PoolSnapshotHeader header = header_of(blob_);
  const Layout layout(header);
  const NodeId last = fixture_.graph.node_count() - 1;
  const RicPool::Touch extra{static_cast<std::uint32_t>(pool_.size() - 1),
                             2, 0b1};
  std::string touches = blob_.substr(layout.offset[6], layout.bytes[6]);
  touches.append(reinterpret_cast<const char*>(&extra), sizeof(extra));
  touches.resize(detail::round_up_64(touches.size()), '\0');
  blob_ = blob_.substr(0, layout.offset[6]) + touches;
  ++header.csr_touch_count;
  header.payload_bytes = blob_.size();
  std::memcpy(blob_.data(), &header, sizeof(header));
  const std::uint64_t row_end = header.csr_touch_count;
  std::memcpy(blob_.data() + layout.offset[5] +
                  (last + 1) * sizeof(std::uint64_t),
              &row_end, sizeof(row_end));
  reseal_checksum(blob_);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: csr: row of node " + std::to_string(last) +
                " holds a touch no sample names");
}

TEST_F(PoolSnapshotCorpus, HugePairCountOverflowsTheLayout) {
  // A pair count of 2^60 used to wrap the section size to a small value
  // that stayed self-consistent with payload_bytes; the layout math now
  // rejects counts it cannot represent.
  patch_header<std::uint64_t>(
      offsetof(PoolSnapshotHeader, sample_pair_count), std::uint64_t{1}
                                                           << 60);
  EXPECT_EQ(attach_error(fixture_, blob_),
            "ric pool snapshot: header counts overflow the section layout");
}

TEST(PoolSnapshot, V4PayloadChecksumIsPinned) {
  // Every saved v4 file carries this digest: an accidental change to the
  // payload hash would orphan them all, so pin it for a hand-built pool
  // (independent of the sampler's RNG contract). Its sections cover
  // word-aligned, 4-byte-tail and 16-byte-element lengths.
  const Fixture fixture;
  const RicPool pool = testing::pool_of_samples(
      fixture.graph, fixture.communities,
      std::vector<testing::RicSample>{
          {0, 2, {{0, 0b1}, {1, 0b10}}},
          {1, 2, {{4, 0b1}, {5, 0b11}, {7, 0b100}}},
          {2, 2, {{8, 0b101}}}});
  const PoolSnapshotHeader header = header_of(snapshot_bytes(pool));
  EXPECT_EQ(header.version, 4U);
  EXPECT_EQ(header.payload_checksum, 0xeaa1eb5dfdc6a10cULL);
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(PoolSnapshotEngine, AttachPoolRestoresTheEngineState) {
  const Fixture fixture;
  ImcafConfig config;
  config.max_samples = 400;
  const auto solver = make_maxr_solver(MaxrAlgorithm::kUbg, {});

  // Cold engine: solve grows the pool; snapshot the result.
  ImcEngine cold(fixture.graph, fixture.communities, config);
  const ImcafResult cold_result = cold.solve(2, *solver);
  const std::string path = temp_snapshot(cold.pool(), "engine.bin");

  // Warm engine: attach the saved pool, then solve the same query. The
  // attached pool is the cold engine's final pool, so the solve sees the
  // same |R| and must pick the same seeds with the same objective.
  ImcEngine warm(fixture.graph, fixture.communities, config);
  warm.attach_pool(path);
  EXPECT_EQ(warm.pool().size(), cold.pool().size());
  const ImcafResult warm_result = warm.solve(2, *solver);
  EXPECT_EQ(warm_result.seeds, cold_result.seeds);
  EXPECT_DOUBLE_EQ(warm_result.c_hat, cold_result.c_hat);
  std::remove(path.c_str());
}

TEST(PoolSnapshotEngine, AttachPoolRejectsModelMismatch) {
  const Fixture fixture;
  RicPool lt_pool(fixture.graph, fixture.communities,
                  DiffusionModel::kLinearThreshold);
  lt_pool.grow(20, 3);
  const std::string path = temp_snapshot(lt_pool, "engine_lt.bin");

  ImcEngine engine(fixture.graph, fixture.communities, {});  // IC config
  EXPECT_THROW(engine.attach_pool(path), std::invalid_argument);
  // Failure left the engine's own pool untouched.
  EXPECT_EQ(engine.pool().size(), 0U);
  std::remove(path.c_str());
}

TEST(PoolAppend, ValidatesInput) {
  // Hand-built samples go through the snapshot loader's validator, so each
  // rejection carries the loader's diagnostic. The threshold must be the
  // community's h_i exactly, not just a value in [1, population].
  const Fixture fixture;
  const auto error = [&](const testing::RicSample& sample) {
    try {
      (void)testing::pool_of_samples(fixture.graph, fixture.communities,
                                     std::vector<testing::RicSample>{sample});
    } catch (const std::runtime_error& failure) {
      return std::string(failure.what());
    }
    return std::string();
  };
  EXPECT_EQ(error({99, 2, {}}),
            "ric pool snapshot: sample 0: community id out of range");
  for (const std::uint32_t threshold : {0U, 1U, 3U}) {
    EXPECT_EQ(error({0, threshold, {}}),
              "ric pool snapshot: sample 0: threshold disagrees with the "
              "community structure")
        << "threshold " << threshold;
  }
  EXPECT_EQ(error({0, 2, {{12, 0b1}}}),
            "ric pool snapshot: sample 0: touching node out of range");

  const RicPool pool = testing::pool_of_samples(
      fixture.graph, fixture.communities,
      std::vector<testing::RicSample>{{0, 2, {{0, 0b1}, {1, 0b10}}}});
  EXPECT_EQ(pool.size(), 1U);
  EXPECT_EQ(pool.appearance_count(0), 1U);
}

}  // namespace
}  // namespace imc
