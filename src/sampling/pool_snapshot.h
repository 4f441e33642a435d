// Binary RIC-pool snapshot, format v4 — the persisted pool IS the live
// pool (DESIGN.md §13). (v4 keeps the v3 layout byte for byte and swaps
// the payload checksum from byte-wise FNV-1a to WordLaneHash; the magic
// string is unchanged.)
//
// The snapshot persists the pool's flat arenas verbatim — SoA metadata,
// sample-major twin, community counters AND the CSR inverted index — so
// `attach_ric_pool_snapshot` reloads a pool with one read per section
// straight into its owned arena, and no index rebuild. This is the only
// on-disk pool format and attach is its only loader; its post-read half,
// `restore_ric_pool`, is the only way saved or hand-built arenas become a
// pool.
//
// Layout (all integers little-endian, host-width as noted):
//
//   [0, 128)   PoolSnapshotHeader — magic "imcpool2", version, model,
//              node/community/sample counts, epoch watermark
//              {samples, grows, repairs}, RNG-contract id, graph +
//              community fingerprints, payload byte count, payload
//              checksum (WordLaneHash, one hash section per snapshot
//              section), header checksum (FNV-1a over the preceding 120
//              header bytes — forging any header field, including the
//              epoch, without resealing is detected).
//   sections   seven raw arena sections, each padded to a 64-byte
//              boundary, in this fixed order (lengths derive from the
//              header counts — no section table needed):
//                1. thresholds          u32  × samples
//                2. source_community    u32  × samples
//                3. community_frequency u32  × communities
//                4. sample_offsets      u64  × samples + 1
//                5. sample_arena        {u32 node, u64 mask} × pairs (16 B)
//                6. touch_offsets       u64  × nodes + 1
//                7. touches             {u32 sample, u32 threshold,
//                                        u64 mask} × csr touches (16 B)
//
// Validation contract: snapshots are untrusted input, and every attach
// verifies them in full. It checks magic, version, RNG contract, counts
// against the supplied graph/communities, the epoch watermark, the two
// fingerprints, the header checksum and the file size; then the payload
// checksum; then, in restore_ric_pool, the structure
// (RicPool::restore_snapshot: arena sizes, both offset tables' endpoints
// and monotonicity) and the content: community ids and frequencies,
// thresholds, each sample's pairs (nodes in range and strictly ascending,
// masks nonzero and within the community), and the transpose check — the
// CSR index holds exactly the touch {g, h_g, mask} for each pair
// (v, mask) of each sample g, row v sorted by sample id. Each invariant is
// checked in one place.
// Endianness is not translated: a snapshot is portable between machines
// of the same byte order only.
//
// Ownership: an attached pool owns its arenas; the file is closed before
// attach returns, so it may be removed or saved over afterwards. Saving
// replaces the file by rename, so a reader never sees a half-written one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sampling/ric_pool.h"

namespace imc {

inline constexpr char kPoolSnapshotMagic[8] = {'i', 'm', 'c', 'p',
                                               'o', 'o', 'l', '2'};
inline constexpr std::uint32_t kPoolSnapshotVersion = 4;

/// Fixed-size on-disk header; the arena sections follow at 64-byte-aligned
/// offsets.
struct PoolSnapshotHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t model = 0;  // DiffusionModel underlying value
  std::uint64_t node_count = 0;
  std::uint64_t community_count = 0;
  std::uint64_t sample_count = 0;
  std::uint64_t sample_pair_count = 0;  // sample-major arena entries
  std::uint64_t csr_touch_count = 0;    // inverted-index arena entries
  std::uint64_t epoch_samples = 0;      // PoolEpoch at save time
  std::uint64_t epoch_grows = 0;
  std::uint32_t rng_contract = 0;  // kRicSamplerRngContract of the writer
  std::uint32_t reserved = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t community_fingerprint = 0;
  std::uint64_t payload_bytes = 0;     // total snapshot size, header included
  std::uint64_t payload_checksum = 0;  // WordLaneHash over the sections
  std::uint64_t epoch_repairs = 0;     // PoolEpoch::repairs at save time
  std::uint64_t header_checksum = 0;   // FNV-1a over the 120 bytes above
};
static_assert(sizeof(PoolSnapshotHeader) == 128,
              "header must fill its reserved 128 bytes exactly (the header "
              "checksum covers the 120 bytes before itself)");

/// Writes the v4 snapshot to a stream.
void write_ric_pool_snapshot(std::ostream& out, const RicPool& pool);

/// Saves to a file: writes `<path>.tmp.<pid>` in the same directory,
/// checks the flush and close, then renames it over `path`. On any
/// failure the temp file is removed, `path` is left as it was, and
/// std::runtime_error is thrown.
void save_ric_pool_snapshot(const std::string& path, const RicPool& pool);

/// Loads a snapshot into an owned pool: checks the header against the
/// file size, reads each section straight into its arena (one copy per
/// section, O(pool bytes)), then verifies the payload checksum and hands
/// the arenas to restore_ric_pool. Throws std::runtime_error prefixed
/// "ric pool snapshot:" on a missing or unreadable path (naming it), a
/// short read, a mismatch or corruption.
[[nodiscard]] RicPool attach_ric_pool_snapshot(
    const std::string& path, const Graph& graph,
    const CommunitySet& communities);

/// The one pool validator: installs `arenas` as a pool bound to `graph`
/// and `communities` after checking the structure, then the content, as
/// the validation contract above lists. O(pool bytes) plus one cursor per
/// node. Throws std::runtime_error prefixed "ric pool snapshot:" naming
/// the first violated invariant.
[[nodiscard]] RicPool restore_ric_pool(const Graph& graph,
                                       const CommunitySet& communities,
                                       DiffusionModel model,
                                       RicPool::PoolEpoch epoch,
                                       RicPool::PoolArenas&& arenas);

}  // namespace imc
