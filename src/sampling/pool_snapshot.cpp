#include "sampling/pool_snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "util/mathx.h"

namespace imc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ric pool snapshot: " + what);
}

/// Byte length of each section, padded position independent: sections are
/// laid out back to back, each starting on a 64-byte boundary.
struct SectionLayout {
  std::size_t bytes = 0;    // raw payload bytes
  std::size_t padded = 0;   // bytes + zero padding to the next boundary
  std::size_t offset = 0;   // absolute file offset of the raw payload
};

/// The seven sections in their fixed file order, with offsets resolved.
/// All lengths derive from the header counts — there is no section table.
struct SnapshotLayout {
  SectionLayout sections[7];
  std::size_t total_bytes = 0;

  static SnapshotLayout of(const PoolSnapshotHeader& header) {
    // All products and the running cursor are overflow-checked: a crafted
    // header count (e.g. 2^60 pairs) would otherwise wrap a section size
    // to a tiny value that stays self-consistent with payload_bytes while
    // disagreeing with the declared counts.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const auto section_bytes = [](std::uint64_t count,
                                  std::size_t element) -> std::size_t {
      if (count > (kMax - 63) / element) {
        fail("header counts overflow the section layout");
      }
      return static_cast<std::size_t>(count) * element;
    };
    const std::uint64_t samples = header.sample_count;
    const std::size_t raw[7] = {
        section_bytes(samples, sizeof(std::uint32_t)),  // thresholds
        section_bytes(samples, sizeof(CommunityId)),    // source_community
        section_bytes(header.community_count, sizeof(std::uint32_t)),
        section_bytes(samples + 1, sizeof(std::uint64_t)),  // sample_offsets
        section_bytes(header.sample_pair_count, sizeof(TouchPair)),
        section_bytes(header.node_count + 1, sizeof(std::uint64_t)),
        section_bytes(header.csr_touch_count, sizeof(RicPool::Touch)),
    };
    SnapshotLayout layout;
    std::size_t cursor = sizeof(PoolSnapshotHeader);
    for (int i = 0; i < 7; ++i) {
      layout.sections[i].bytes = raw[i];
      layout.sections[i].padded = detail::round_up_64(raw[i]);
      layout.sections[i].offset = cursor;
      if (layout.sections[i].padded > kMax - cursor) {
        fail("header counts overflow the section layout");
      }
      cursor += layout.sections[i].padded;
    }
    layout.total_bytes = cursor;
    return layout;
  }
};

/// Calls fn(index, section) on the seven sections in file order, for a
/// SnapshotView (spans) and PoolArenas (owned arenas) alike: the one place
/// the order lives, shared by the writer, the checksum and the loader.
template <typename Sections, typename Fn>
void for_each_section(Sections& sections, Fn&& fn) {
  fn(0, sections.thresholds);
  fn(1, sections.source_community);
  fn(2, sections.community_frequency);
  fn(3, sections.sample_offsets);
  fn(4, sections.sample_arena);
  fn(5, sections.touch_offsets);
  fn(6, sections.touches);
}

/// WordLaneHash over the raw (unpadded) bytes of every section, one hash
/// section per snapshot section. Padding is excluded so the digest only
/// covers meaningful data. The loader computes the same digest as it
/// reads (read_section).
std::uint64_t payload_checksum(const RicPool::SnapshotView& view) {
  WordLaneHash digest;
  for_each_section(view, [&digest](int, auto section) {
    digest.add_section(section.data(), section.size_bytes());
  });
  return digest.value();
}

void write_padded(std::ostream& out, const void* data, std::size_t bytes,
                  std::size_t padded) {
  static constexpr char kZeros[64] = {};
  if (bytes > 0) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  }
  if (padded > bytes) {
    out.write(kZeros, static_cast<std::streamsize>(padded - bytes));
  }
}

/// FNV-1a over every header byte before the header_checksum field. The
/// struct is padding-free and exactly 128 bytes (static_assert in the
/// header), so digesting the struct's own bytes digests the file bytes.
std::uint64_t header_digest(const PoolSnapshotHeader& header) {
  Fnv1a64 digest;
  digest.add_bytes(&header, offsetof(PoolSnapshotHeader, header_checksum));
  return digest.value();
}

PoolSnapshotHeader make_header(const RicPool& pool,
                               const RicPool::SnapshotView& view) {
  PoolSnapshotHeader header;
  std::memcpy(header.magic, kPoolSnapshotMagic, sizeof(header.magic));
  header.version = kPoolSnapshotVersion;
  header.model = static_cast<std::uint32_t>(view.model);
  header.node_count = pool.graph().node_count();
  header.community_count = pool.communities().size();
  header.sample_count = view.thresholds.size();
  header.sample_pair_count = view.sample_arena.size();
  header.csr_touch_count = view.touches.size();
  header.epoch_samples = view.epoch.samples;
  header.epoch_grows = view.epoch.grows;
  header.rng_contract = kRicSamplerRngContract;
  header.graph_fingerprint = pool.graph().fingerprint();
  header.community_fingerprint = pool.communities().fingerprint();
  header.payload_bytes = SnapshotLayout::of(header).total_bytes;
  header.payload_checksum = payload_checksum(view);
  header.epoch_repairs = view.epoch.repairs;
  header.header_checksum = header_digest(header);
  return header;
}

/// Header validation: everything that can be checked without touching the
/// arena payload.
void validate_header(const PoolSnapshotHeader& header, const Graph& graph,
                     const CommunitySet& communities) {
  if (std::memcmp(header.magic, kPoolSnapshotMagic, sizeof(header.magic)) !=
      0) {
    fail("bad magic (not an imcpool2 snapshot)");
  }
  if (header.version != kPoolSnapshotVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  if (header.rng_contract != kRicSamplerRngContract) {
    fail("rng contract mismatch (snapshot " +
         std::to_string(header.rng_contract) + ", sampler " +
         std::to_string(kRicSamplerRngContract) + ")");
  }
  if (header.model > static_cast<std::uint32_t>(
                         DiffusionModel::kLinearThreshold)) {
    fail("unknown diffusion model tag " + std::to_string(header.model));
  }
  if (header.node_count != graph.node_count()) {
    fail("node count does not match the supplied graph");
  }
  if (header.community_count != communities.size()) {
    fail("community count does not match the supplied communities");
  }
  if (header.graph_fingerprint != graph.fingerprint()) {
    fail("graph fingerprint mismatch");
  }
  if (header.community_fingerprint != communities.fingerprint()) {
    fail("community fingerprint mismatch");
  }
  if (header.epoch_samples != header.sample_count) {
    fail("epoch watermark disagrees with the sample count");
  }
  if (header.payload_bytes != SnapshotLayout::of(header).total_bytes) {
    fail("declared payload size disagrees with the section counts");
  }
  // The header's own checksum runs LAST: every specific diagnosis above
  // (wrong version, fingerprint mismatch, ...) stays reachable for
  // honestly-mismatched snapshots, and only a header that passed them all
  // but was edited in place — e.g. a forged epoch — lands here.
  if (header_digest(header) != header.header_checksum) {
    fail("header checksum mismatch (tampered or corrupt header)");
  }
}

/// Content checks on a restored pool. RicPool::restore_snapshot has
/// already checked the arena sizes and both offset tables' endpoints and
/// monotonicity, so every span indexed here lies inside its arena. The
/// samples are walked in id order with one cursor per CSR row: pair
/// (v, mask) of sample g must be the next touch {g, h_g, mask} of row v,
/// and every row must be used up exactly, so the CSR is the transpose of
/// the sample-major arena with each row sorted by sample id.
void validate_content(const RicPool::SnapshotView& view, const Graph& graph,
                      const CommunitySet& communities) {
  const auto fail_sample = [](std::uint64_t g, const std::string& what) {
    fail("sample " + std::to_string(g) + ": " + what);
  };
  const auto fail_unnamed = [](NodeId v) {
    fail("csr: row of node " + std::to_string(v) +
         " holds a touch no sample names");
  };
  const auto& touches = view.touches;
  std::vector<std::uint64_t> cursor(view.touch_offsets.begin(),
                                    view.touch_offsets.end() - 1);
  std::vector<std::uint32_t> frequency(communities.size(), 0);
  for (std::uint64_t g = 0; g < view.source_community.size(); ++g) {
    const CommunityId c = view.source_community[g];
    if (c >= communities.size()) fail_sample(g, "community id out of range");
    ++frequency[c];
    const std::uint32_t threshold = view.thresholds[g];
    if (threshold != communities.threshold(c)) {
      fail_sample(g, "threshold disagrees with the community structure");
    }
    const NodeId population = communities.population(c);
    const std::uint64_t full =
        population >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << population) - 1;
    const std::uint64_t begin = view.sample_offsets[g];
    for (std::uint64_t i = begin; i < view.sample_offsets[g + 1]; ++i) {
      const auto& [node, mask] = view.sample_arena[i];
      if (node >= graph.node_count()) {
        fail_sample(g, "touching node out of range");
      }
      if (i > begin && node <= view.sample_arena[i - 1].first) {
        fail_sample(g, "touching nodes not strictly ascending");
      }
      if (mask == 0) fail_sample(g, "empty member mask");
      if ((mask & ~full) != 0) {
        fail_sample(g, "member mask wider than the community population");
      }
      // A touch of an earlier sample at the cursor was named by none of
      // its pairs; a later one (or the row's end) means the row lacks g.
      std::uint64_t& at = cursor[node];
      if (at == view.touch_offsets[node + 1] || touches[at].sample > g) {
        fail_sample(g, "node " + std::to_string(node) +
                           " is missing from its csr row");
      }
      const RicPool::Touch& touch = touches[at++];
      if (touch.sample < g) fail_unnamed(node);
      if (touch.threshold != threshold) {
        fail("csr: touch threshold disagrees with the sample metadata");
      }
      if (touch.mask != mask) {
        fail_sample(g, "csr mask of node " + std::to_string(node) +
                           " disagrees with the sample's pair");
      }
    }
  }
  // MAF orders communities by these counters, so they must match the
  // samples exactly, not just in sum.
  if (!std::equal(frequency.begin(), frequency.end(),
                  view.community_frequency.begin(),
                  view.community_frequency.end())) {
    fail("community frequencies disagree with the sample communities");
  }
  for (NodeId v = 0; v < cursor.size(); ++v) {
    if (cursor[v] != view.touch_offsets[v + 1]) fail_unnamed(v);
  }
}

/// Reads exactly `bytes` from `in` into `out`; fewer bytes (the file
/// changed under the attach, or an I/O error) fail naming the file.
void read_exactly(std::istream& in, void* out, std::size_t bytes,
                  const std::string& path) {
  if (bytes == 0) return;
  in.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    fail("short read from " + path);
  }
}

/// Reads one section into an owned arena (sized once, written once) and
/// adds it to the payload digest. The section goes in chunks, each hashed
/// right after its read while it is still in cache, so the checksum does
/// not cost a second pass over memory.
template <typename T>
void read_section(std::istream& in, const std::string& path,
                  const SectionLayout& section, ArenaVector<T>& arena,
                  WordLaneHash& digest) {
  constexpr std::size_t kChunk = std::size_t{1} << 18;  // a multiple of 32
  arena.resize_for_overwrite(section.bytes / sizeof(T));
  in.seekg(static_cast<std::streamoff>(section.offset));
  char* out = reinterpret_cast<char*>(arena.data());
  std::size_t done = 0;
  for (; section.bytes - done > kChunk; done += kChunk) {
    read_exactly(in, out + done, kChunk, path);
    digest.add_blocks(out + done, kChunk);
  }
  read_exactly(in, out + done, section.bytes - done, path);
  digest.add_section(out + done, section.bytes - done);
}

}  // namespace

void write_ric_pool_snapshot(std::ostream& out, const RicPool& pool) {
  const RicPool::SnapshotView view = pool.snapshot_view();
  const PoolSnapshotHeader header = make_header(pool, view);
  const SnapshotLayout layout = SnapshotLayout::of(header);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for_each_section(view, [&](int i, auto span) {
    write_padded(out, span.data(), layout.sections[i].bytes,
                 layout.sections[i].padded);
  });
  if (!out) fail("write failed");
}

void save_ric_pool_snapshot(const std::string& path, const RicPool& pool) {
  // Write-then-rename: a failed or interrupted save leaves the old file
  // intact, and a reader never sees a half-written one.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::error_code ignored;
  try {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + temp);
    write_ric_pool_snapshot(out, pool);
    out.flush();
    if (!out) fail("write failed for " + temp);
    out.close();
    if (out.fail()) fail("close failed for " + temp);
  } catch (...) {
    std::filesystem::remove(temp, ignored);
    throw;
  }
  std::error_code error;
  std::filesystem::rename(temp, path, error);
  if (error) {
    std::filesystem::remove(temp, ignored);
    fail("cannot replace " + path + ": " + error.message());
  }
}

RicPool attach_ric_pool_snapshot(const std::string& path, const Graph& graph,
                                 const CommunitySet& communities) {
  // The size comes first, from the file system: a missing path or a
  // directory fails here, and a header cannot make the loader allocate
  // more than the file holds.
  std::error_code error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, error);
  if (error) fail("cannot open " + path + ": " + error.message());
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  if (file_bytes < sizeof(PoolSnapshotHeader)) fail("truncated header");
  PoolSnapshotHeader header;
  read_exactly(in, &header, sizeof(header), path);
  validate_header(header, graph, communities);
  if (file_bytes != header.payload_bytes) {
    fail("snapshot file size disagrees with its declared payload");
  }

  const SnapshotLayout layout = SnapshotLayout::of(header);
  RicPool::PoolArenas arenas;
  WordLaneHash digest;
  for_each_section(arenas, [&](int i, auto& arena) {
    read_section(in, path, layout.sections[i], arena, digest);
  });
  if (digest.value() != header.payload_checksum) {
    fail("payload checksum mismatch (corrupt snapshot)");
  }
  return restore_ric_pool(
      graph, communities, static_cast<DiffusionModel>(header.model),
      RicPool::PoolEpoch{header.epoch_samples, header.epoch_grows,
                         header.epoch_repairs},
      std::move(arenas));
}

RicPool restore_ric_pool(const Graph& graph, const CommunitySet& communities,
                         DiffusionModel model, RicPool::PoolEpoch epoch,
                         RicPool::PoolArenas&& arenas) {
  // Structure first (sizes, offset endpoints and monotonicity, in
  // restore_snapshot), then the content checks that rely on it.
  RicPool pool = [&] {
    try {
      return RicPool::restore_snapshot(graph, communities, model, epoch,
                                       std::move(arenas));
    } catch (const std::invalid_argument& error) {
      fail(error.what());
    }
  }();
  validate_content(pool.snapshot_view(), graph, communities);
  return pool;
}

}  // namespace imc
