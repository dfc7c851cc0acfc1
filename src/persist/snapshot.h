/**
 * @file
 * Checksummed cloud-state snapshots with atomic rename-on-commit.
 *
 * A full snapshot is the whole cloud state at a safe point — drift-log
 * table (as a column image, see putTableImage), upload buffer,
 * per-device dedup windows, the registry's blob store, counters, and
 * the last published clean patch — plus `lastWalSeq`, the highest WAL
 * sequence number the snapshot already includes. Recovery loads the
 * newest snapshot file (below) and replays only WAL records with
 * seq > lastWalSeq, so a crash between the snapshot rename and the WAL
 * truncation cannot double-apply.
 *
 * Every snapshot file is written to "<name>.tmp" first and renamed
 * onto its final name only when complete (crash sites
 * "snapshot.tmp.partial", "snapshot.tmp.done", "snapshot.rename.post"
 * cover the three distinct failure windows), so a committed file is
 * never torn by a crash. A newest snapshot file that fails its checks
 * is therefore damage, not a crash leftover: recovery refuses it.
 */
#ifndef NAZAR_PERSIST_SNAPSHOT_H
#define NAZAR_PERSIST_SNAPSHOT_H

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "deploy/registry.h"
#include "persist/crash_point.h"
#include "persist/env.h"
#include "persist/serial.h"

namespace nazar::persist {

/**
 * One device's dedup window: the last `capacity` sequence numbers
 * accepted from it, plus a floor below which every seq counts as seen.
 */
struct DedupWindow
{
    uint64_t floor = 0;
    std::set<uint64_t> seen; ///< Retained sequence numbers.

    bool operator==(const DedupWindow &other) const = default;

    /**
     * Admit @p seq unless it is a duplicate (below the floor or still
     * retained); once more than @p capacity seqs are retained, the
     * lowest ones are pruned and the floor rises past them. Returns
     * false on a duplicate.
     */
    bool admit(uint64_t seq, size_t capacity)
    {
        if (seq < floor || !seen.insert(seq).second)
            return false;
        while (seen.size() > capacity) {
            floor = *seen.begin() + 1;
            seen.erase(seen.begin());
        }
        return true;
    }

    /**
     * Highest sequence number this window accounts for: with
     * per-device monotone send order, every seq <= highWater() has
     * been ingested (or dedup-rejected as already ingested). This is
     * the resume line the ingest server reports to reconnecting
     * clients.
     */
    uint64_t highWater() const
    {
        if (!seen.empty())
            return *seen.rbegin();
        return floor > 0 ? floor - 1 : 0;
    }
};

/**
 * The cloud's whole durable state, in the one shape every layer holds
 * it: sim::Cloud owns one (guarded by its ingest mutex), recovery
 * rebuilds one, and a snapshot file is one encoded where it lies. The
 * mutations live and replayed alike go through the apply functions in
 * cloud_persist.h.
 */
struct CloudState
{
    /** Highest WAL seq applied to this state (0 without persistence). */
    uint64_t lastWalSeq = 0;
    int64_t logicalTime = 0;
    int64_t nextVersionId = 1;
    uint64_t totalIngested = 0;
    uint64_t dedupHits = 0;
    driftlog::DriftLog driftLog; ///< Pending drift-log rows.
    std::vector<UploadRecord> uploads;
    std::map<int64_t, DedupWindow> dedup;
    /** The model registry's blob store. */
    deploy::BlobStore blobs;
    std::optional<std::string> cleanPatchText; ///< BnPatch::save text.
    int64_t cleanPatchTime = 0; ///< logicalTime that produced it.
};

/**
 * Append the payload bytes (no header/CRC — the file writer adds it)
 * to @p w. The payload opens with the 8-byte format tag
 * kSnapshotFormatTag ("NZIMG1\0\0"), then the counters, the drift
 * log's column image, and the rest of the state in CloudState order
 * (dedup seqs ascending, blobs by key).
 */
void encodeSnapshot(Writer &w, const CloudState &data);

/** The same payload as a string (tests, writeChainFile callers). */
std::string encodeSnapshot(const CloudState &data);

/**
 * Decode a payload; throws NazarError on malformed bytes, including a
 * payload without the column-image format tag (the earlier layout,
 * which carried the drift log as CSV text, is not read).
 */
CloudState decodeSnapshot(const std::string &payload);

/** Format tag opening every full-snapshot payload: the little-endian
 *  u64 whose bytes spell "NZIMG1\0\0". */
inline constexpr uint64_t kSnapshotFormatTag = 0x000031474D495A4EULL;

// ---- snapshot files ------------------------------------------------
//
// Every snapshot is a full one, in its own file, and the WAL holds
// everything since: the WAL is truncated only after a snapshot
// commits. Recovery loads the newest valid file and replays the WAL
// records above its lastWalSeq. Snapshot GC removes every older file
// once a new one commits.
//
// On-disk layout (file "snap-<id, 6 digits>.full"):
//
//     [8-byte magic "NZCHN1\0\0"][u8 kind = 1][u64 id][u64 baseId = 0]
//     [u32 baseCrc = 0][u64 lastWalSeq][u64 payloadLen]
//     [u32 crc32(payload)][payload = encodeSnapshot bytes]
//
// kind/baseId/baseCrc are constants kept from the layout that also
// chained delta files onto a full one, so files written under it
// still load. A directory that still holds a "snap-<id>.delta" file
// is refused by recovery (see recoverDir).

/** Parsed header of one snapshot file. */
struct ChainHeader
{
    uint64_t id = 0;
    uint64_t lastWalSeq = 0; ///< Highest WAL seq this snapshot includes.
    uint32_t payloadCrc = 0;
};

/** One loaded snapshot file. */
struct ChainFile
{
    ChainHeader header;
    std::string payload;
};

/** "snap-000042.full". */
std::string chainFileName(uint64_t id);

/** The id of a snapshot filename; nullopt when @p name is not one. */
std::optional<uint64_t> parseChainFileName(const std::string &name);

/**
 * Write one snapshot file into @p dir: tmp file, fsync, rename,
 * directory fsync (a file committed by rename alone can be empty
 * after power loss). All I/O goes through @p env ("env.snap.*"
 * sites). The payload CRC is computed here (@p header.payloadCrc is
 * ignored).
 */
void writeChainFile(const std::filesystem::path &dir,
                    const ChainHeader &header,
                    const std::string &payload, CrashInjector &injector,
                    Env &env);

/**
 * Write the snapshot file of @p data exactly as
 * writeChainFile(dir, header, encodeSnapshot(data), ...) does, but
 * encode header and payload in place into @p buf: its contents are
 * replaced, its capacity kept. A caller that passes the same buffer
 * for every snapshot pays for no separate payload string, no copy of
 * it, and no fresh pages once the buffer has grown.
 */
void writeSnapshotFile(const std::filesystem::path &dir,
                       const ChainHeader &header, const CloudState &data,
                       Writer &buf, CrashInjector &injector, Env &env);

/**
 * Load one snapshot file. Returns nullopt when absent, torn, or
 * failing its checksum. Recovery refuses a directory whose newest
 * snapshot file does not load (see recoverDir).
 */
std::optional<ChainFile>
loadChainFile(const std::filesystem::path &path);

} // namespace nazar::persist

#endif // NAZAR_PERSIST_SNAPSHOT_H
