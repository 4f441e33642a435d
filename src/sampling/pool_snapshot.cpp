#include "sampling/pool_snapshot.h"

#include <unistd.h>

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

#include "util/mathx.h"

namespace imc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ric pool snapshot: " + what);
}

constexpr std::size_t kHeaderBytes = 128;

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

  static SnapshotLayout from_counts(std::uint64_t nodes,
                                    std::uint64_t communities,
                                    std::uint64_t samples,
                                    std::uint64_t sample_pairs,
                                    std::uint64_t csr_touches) {
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
    const std::size_t raw[7] = {
        section_bytes(samples, sizeof(std::uint32_t)),      // thresholds
        section_bytes(samples, sizeof(CommunityId)),        // source_community
        section_bytes(communities, sizeof(std::uint32_t)),  // community_freq
        section_bytes(samples + 1, sizeof(std::uint64_t)),  // sample_offsets
        section_bytes(sample_pairs,
                      sizeof(std::pair<NodeId, std::uint64_t>)),
        section_bytes(nodes + 1, sizeof(std::uint64_t)),    // touch_offsets
        section_bytes(csr_touches, sizeof(RicPool::Touch)),  // touches
    };
    SnapshotLayout layout;
    std::size_t cursor = kHeaderBytes;
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

/// FNV-1a over the raw (unpadded) bytes of every section, in file order.
/// Padding is excluded so the digest only covers meaningful data. One
/// function for both ends: the writer passes the pool's SnapshotView, the
/// loader the PoolArenas it read.
template <typename Sections>
std::uint64_t payload_checksum(const Sections& sections) {
  Fnv1a64 digest;
  const auto add = [&digest](const auto& section) {
    digest.add_bytes(section.data(),
                     section.size() * sizeof(*section.data()));
  };
  add(sections.thresholds);
  add(sections.source_community);
  add(sections.community_frequency);
  add(sections.sample_offsets);
  add(sections.sample_arena);
  add(sections.touch_offsets);
  add(sections.touches);
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
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);
  header.payload_bytes = layout.total_bytes;
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
  if (header.sample_count > std::numeric_limits<std::uint32_t>::max()) {
    fail("sample count exceeds the 32-bit id range");
  }
  if (header.epoch_samples != header.sample_count) {
    fail("epoch watermark disagrees with the sample count");
  }
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);
  if (header.payload_bytes != layout.total_bytes) {
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

/// Deep per-sample validation for untrusted snapshots (the default
/// verifying attach; SnapshotTrust::kTrustPayload skips it).
///
/// Both offset tables get a full endpoints + monotonicity pass BEFORE any
/// offset is used to index its arena: front == 0, back == arena size and
/// pairwise monotone together bound every span by the arena length. The
/// per-step check cannot live inside the content loop — there it would
/// only have validated the prefix scanned so far, and a hostile
/// offsets[g + 1] past the arena would be dereferenced before its own
/// monotonicity check ran.
void validate_payload(const RicPool::PoolArenas& arenas,
                      const Graph& graph, const CommunitySet& communities) {
  const auto thresholds = arenas.thresholds.span();
  const auto source = arenas.source_community.span();
  const auto offsets = arenas.sample_offsets.span();
  const auto pairs = arenas.sample_arena.span();
  if (thresholds.size() != source.size() ||
      offsets.size() != source.size() + 1) {
    fail("metadata arenas disagree on the sample count");
  }
  if (offsets.front() != 0 || offsets.back() != pairs.size()) {
    fail("sample-major offsets do not span the sample arena");
  }
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    if (offsets[g] > offsets[g + 1]) {
      fail("sample " + std::to_string(g) + ": offsets not monotone");
    }
  }
  for (std::size_t g = 0; g < source.size(); ++g) {
    const CommunityId c = source[g];
    if (c >= communities.size()) {
      fail("sample " + std::to_string(g) + ": community id out of range");
    }
    if (thresholds[g] != communities.threshold(c)) {
      fail("sample " + std::to_string(g) +
           ": threshold disagrees with the community structure");
    }
    const NodeId population = communities.population(c);
    const std::uint64_t full =
        population >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << population) - 1;
    for (std::uint64_t i = offsets[g]; i < offsets[g + 1]; ++i) {
      if (pairs[i].first >= graph.node_count()) {
        fail("sample " + std::to_string(g) + ": touching node out of range");
      }
      if ((pairs[i].second & ~full) != 0) {
        fail("sample " + std::to_string(g) +
             ": member mask wider than the community population");
      }
    }
  }
  const auto touch_offsets = arenas.touch_offsets.span();
  const auto touches = arenas.touches.span();
  if (touch_offsets.size() !=
      static_cast<std::size_t>(graph.node_count()) + 1) {
    fail("csr: offsets table does not match the graph");
  }
  if (touch_offsets.front() != 0 || touch_offsets.back() != touches.size()) {
    fail("csr: touch offsets do not span the touch arena");
  }
  for (std::size_t v = 0; v + 1 < touch_offsets.size(); ++v) {
    if (touch_offsets[v] > touch_offsets[v + 1]) {
      fail("csr: touch offsets not monotone");
    }
  }
  for (std::size_t v = 0; v + 1 < touch_offsets.size(); ++v) {
    for (std::uint64_t i = touch_offsets[v]; i < touch_offsets[v + 1]; ++i) {
      const RicPool::Touch& t = touches[i];
      if (t.sample >= thresholds.size()) {
        fail("csr: touch references a sample out of range");
      }
      if (t.threshold != thresholds[t.sample]) {
        fail("csr: touch threshold disagrees with the sample metadata");
      }
      if (i > touch_offsets[v] && touches[i - 1].sample >= t.sample) {
        fail("csr: touches not strictly ordered by sample id");
      }
    }
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

/// Reads one section into an owned arena: sized once, written once.
template <typename T>
void read_section(std::istream& in, const std::string& path,
                  const SectionLayout& section, ArenaVector<T>& arena) {
  arena.resize_for_overwrite(section.bytes / sizeof(T));
  in.seekg(static_cast<std::streamoff>(section.offset));
  read_exactly(in, arena.data(), section.bytes, path);
}

}  // namespace

void write_ric_pool_snapshot(std::ostream& out, const RicPool& pool) {
  const RicPool::SnapshotView view = pool.snapshot_view();
  const PoolSnapshotHeader header = make_header(pool, view);
  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);

  char header_block[kHeaderBytes] = {};
  std::memcpy(header_block, &header, sizeof(header));
  out.write(header_block, kHeaderBytes);

  const auto section = [&](int i, const auto& span) {
    write_padded(out, span.data(), layout.sections[i].bytes,
                 layout.sections[i].padded);
  };
  section(0, view.thresholds);
  section(1, view.source_community);
  section(2, view.community_frequency);
  section(3, view.sample_offsets);
  section(4, view.sample_arena);
  section(5, view.touch_offsets);
  section(6, view.touches);
  if (!out) fail("write failed");
}

void save_ric_pool_snapshot(const std::string& path, const RicPool& pool) {
  // Write-then-rename: truncating `path` in place would pull the pages out
  // from under a pool still attached to it (SIGBUS on its next read).
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
                                 const CommunitySet& communities,
                                 SnapshotTrust trust) {
  // The size comes first, from the file system: a missing path or a
  // directory fails here, and a header cannot make the loader allocate
  // more than the file holds.
  std::error_code error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, error);
  if (error) fail("cannot open " + path + ": " + error.message());
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  if (file_bytes < kHeaderBytes) fail("truncated header");
  PoolSnapshotHeader header;
  read_exactly(in, &header, sizeof(header), path);
  validate_header(header, graph, communities);
  if (file_bytes != header.payload_bytes) {
    fail("snapshot file size disagrees with its declared payload");
  }

  const SnapshotLayout layout = SnapshotLayout::from_counts(
      header.node_count, header.community_count, header.sample_count,
      header.sample_pair_count, header.csr_touch_count);

  RicPool::PoolArenas arenas;
  read_section(in, path, layout.sections[0], arenas.thresholds);
  read_section(in, path, layout.sections[1], arenas.source_community);
  read_section(in, path, layout.sections[2], arenas.community_frequency);
  read_section(in, path, layout.sections[3], arenas.sample_offsets);
  read_section(in, path, layout.sections[4], arenas.sample_arena);
  read_section(in, path, layout.sections[5], arenas.touch_offsets);
  read_section(in, path, layout.sections[6], arenas.touches);

  if (trust == SnapshotTrust::kVerifyPayload) {
    if (payload_checksum(arenas) != header.payload_checksum) {
      fail("payload checksum mismatch (corrupt snapshot)");
    }
    validate_payload(arenas, graph, communities);
  }

  try {
    return RicPool::restore_snapshot(
        graph, communities, static_cast<DiffusionModel>(header.model),
        RicPool::PoolEpoch{header.epoch_samples, header.epoch_grows,
                           header.epoch_repairs},
        std::move(arenas));
  } catch (const std::invalid_argument& error) {
    fail(error.what());
  }
}

}  // namespace imc
