/**
 * @file
 * Durable cloud state: the WAL + snapshot orchestrator sim::Cloud
 * plugs into, plus standalone recovery for tools and tests.
 *
 * Protocol (WAL-first):
 *
 *  - Every ingest *attempt* (accepted or deduped) is appended as a
 *    kIngest record before the in-memory apply. Replay re-runs the
 *    dedup logic, so accepted rows, rejected duplicates, and the
 *    per-device windows are all reproduced exactly.
 *  - A completed runCycle appends one atomic kCycleCommit record
 *    carrying the published version blobs, the new counters, and the
 *    clean patch. A cycle whose commit record never landed (torn or
 *    never written) rolls back wholesale on recovery: the claimed
 *    buffers reappear and the cycle re-runs deterministically,
 *    producing identical version ids.
 *  - Baseline flushes append kFlush.
 *  - Every snapshotEvery appends, the full state is snapshotted
 *    (rename-on-commit) and the WAL is truncated; the snapshot's
 *    lastWalSeq makes replay idempotent across every crash point in
 *    that sequence. Recovery is the newest valid snapshot plus the
 *    WAL records above its lastWalSeq.
 *
 * Determinism contract: with persistence off, Cloud never calls in
 * here. With persistence on and the injector disarmed, no RNG is
 * consumed and no result changes — only files are written.
 */
#ifndef NAZAR_PERSIST_CLOUD_PERSIST_H
#define NAZAR_PERSIST_CLOUD_PERSIST_H

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driftlog/drift_log.h"
#include "persist/crash_point.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace nazar::persist {

/** Durability configuration (off by default: dir empty). */
struct PersistConfig
{
    /** State directory (wal.log + snapshot files). Empty = off. */
    std::string dir;
    /** WAL appends between snapshots (0 = snapshot only on demand). */
    uint64_t snapshotEvery = 2048;
    /** Arm the crash injector at the Nth site hit (0 = disarmed). */
    uint64_t crashAtHit = 0;
    /** Arm the I/O environment's disk fault (disarmed by default). */
    DiskFaultPlan fault;
    /**
     * WAL durability: kFlush matches the process-kill fault model;
     * kFdatasync/kFsync survive power loss (group commit amortizes
     * the per-sync cost — see Wal::appendBuffered).
     */
    SyncMode sync = SyncMode::kFlush;

    bool enabled() const { return !dir.empty(); }
};

/** Everything recovery reconstructs from snapshot + WAL replay. */
struct RecoveredState
{
    driftlog::DriftLog log;            ///< Pending (unanalyzed) rows.
    std::vector<UploadRecord> uploads; ///< Pending upload buffer.
    std::map<int64_t, DedupWindow> dedup;
    uint64_t dedupHits = 0;
    uint64_t totalIngested = 0;
    int64_t nextVersionId = 1;
    int64_t logicalTime = 0;
    /** Registry blob store contents, key -> bytes. */
    std::vector<std::pair<std::string, std::string>> blobs;
    std::optional<std::string> cleanPatchText;
    int64_t cleanPatchTime = 0;
    uint64_t lastWalSeq = 0;
    bool snapshotLoaded = false;
    uint64_t replayedRecords = 0;
    uint64_t truncatedBytes = 0; ///< Torn WAL tail dropped on open.
};

/** The blobs one published version wrote to the registry store. */
struct VersionBlobs
{
    int64_t id = 0;
    std::string meta;
    std::string patch;
};

/**
 * Read-only recovery: load the newest valid snapshot and replay the
 * WAL. Used by `nazar_ops recover` and by tests; Cloud recovery goes
 * through CloudPersistence, which additionally opens the WAL for
 * append (truncating any torn tail). Both throw NazarError, and touch
 * nothing, when @p dir holds a file this build cannot read but whose
 * contents no other file holds: a pre-chain `snapshot.bin`, or a
 * `snap-<id>.delta` (it archived WAL records that were then
 * truncated from the WAL).
 *
 * @param dedup_window Dedup window size to replay ingests with; must
 *                     match the CloudConfig the WAL was written under.
 */
RecoveredState recoverDir(const std::filesystem::path &dir,
                          size_t dedup_window = 4096);

/** What `nazar_ops scrub` reports about a state directory. */
struct ScrubReport
{
    bool ok = true; ///< No integrity issues (notes are fine).
    /** Integrity violations: corrupt files, unreadable leftovers. */
    std::vector<std::string> issues;
    /** Benign observations: torn WAL tail, stale leftovers. */
    std::vector<std::string> notes;
    uint64_t walRecords = 0;
    uint64_t walTornBytes = 0;
    uint64_t chainFiles = 0; ///< Valid snapshot files present.
    uint64_t chainBytes = 0; ///< Payload bytes across snapshot files.
};

/**
 * Offline, read-only integrity walk of a state directory: verifies
 * the WAL's record CRCs and seq monotonicity, every snapshot file's
 * header + payload CRC, and that the newest snapshot decodes. A
 * `snapshot.bin` or `snap-<id>.delta` is an issue (recovery refuses
 * the directory). Never modifies anything.
 */
ScrubReport scrubStateDir(const std::filesystem::path &dir);

/** Per-state-directory durability engine, owned by sim::Cloud. */
class CloudPersistence
{
  public:
    /**
     * Open (creating if needed) the state directory, recover, and
     * position the WAL for append. @p dedup_window must match the
     * owning cloud's config so replayed ingests dedup identically.
     */
    CloudPersistence(const PersistConfig &config, size_t dedup_window);

    /** State recovered at open; Cloud consumes it in its constructor. */
    RecoveredState &recovered() { return recovered_; }

    /** Free the recovered buffers once the owner has adopted them. */
    void dropRecovered() { recovered_ = RecoveredState{}; }

    /**
     * Log one ingest attempt (WAL-first: call before applying).
     * @p device is -1 for the non-deduped ingest() path; @p features
     * is null when the entry carries no upload.
     */
    void logIngest(int64_t device, uint64_t seq,
                   const driftlog::DriftLogEntry &entry,
                   const std::vector<double> *features,
                   const rca::AttributeSet *context, bool drift_flag);

    /**
     * Encode one ingest attempt as a kIngest payload (the bytes
     * logIngest appends). Exposed so callers can pre-encode a batch
     * for logIngestBatch.
     */
    static std::string encodeIngest(int64_t device, uint64_t seq,
                                    const driftlog::DriftLogEntry &entry,
                                    const std::vector<double> *features,
                                    const rca::AttributeSet *context,
                                    bool drift_flag);

    /**
     * Group commit: append every payload (from encodeIngest) with ONE
     * sync for the whole batch. A crash mid-batch leaves at most a
     * torn tail; records before the tear replay, the rest were never
     * acknowledged. Callers must serialize against other WAL writers
     * (the ingest server's committer thread is the sole writer).
     */
    void logIngestBatch(const std::vector<std::string> &payloads);

    /** Log one committed cycle (call after publishing to the store). */
    void logCycleCommit(int64_t logical_time, int64_t next_version_id,
                        const std::vector<VersionBlobs> &versions,
                        const std::optional<std::string> &clean_patch_text,
                        int64_t clean_patch_time);

    /** Log one baseline flush (buffers cleared without analysis). */
    void logFlush();

    /**
     * Log a registry GC floor: versions with id < @p min_version_id
     * are evicted from the blob store. WAL-first — call before
     * evicting in memory so replay reproduces the eviction.
     */
    void logRegistryGc(int64_t min_version_id);

    /** True when enough appends accumulated to warrant a snapshot. */
    bool snapshotDue() const;

    /**
     * Write a snapshot (rename-on-commit), truncate the WAL, and GC
     * every older snapshot file (safety invariant: the committed
     * snapshot plus the WAL is the whole recovery state, so
     * everything older is removable). data.lastWalSeq is filled in
     * from the WAL; the rest of @p data is only read. The caller owns
     * the `persist.snapshot` span, so it can cover the state capture
     * too.
     */
    void writeSnapshot(SnapshotData &data);

    /** True once any I/O failed: the fsync gate is latched. */
    bool diskFaulted() const { return env_.faulted(); }

    /** Site of the latched disk fault ("" when healthy). */
    std::string diskFaultSite() const { return env_.faultSite(); }

    CrashInjector &injector() { return injector_; }
    Env &env() { return env_; }
    const PersistConfig &config() const { return config_; }
    const Wal &wal() const { return *wal_; }

    /** Appends since the last snapshot (exposed for tests). */
    uint64_t appendsSinceSnapshot() const { return appendsSince_; }

    /** Snapshot files removed by GC over this instance's life. */
    uint64_t snapshotGcRemoved() const { return snapshotGcRemoved_; }

    /** Newest snapshot id (0 = no snapshot yet). */
    uint64_t chainHeadId() const { return chainHeadId_; }

  private:
    uint64_t append(WalRecordType type, const std::string &payload);

    /** Unlink snapshot files older than the head. */
    void gcSupersededChain();

    PersistConfig config_;
    CrashInjector injector_;
    Env env_;
    std::unique_ptr<Wal> wal_;
    RecoveredState recovered_;
    uint64_t appendsSince_ = 0;
    uint64_t chainHeadId_ = 0;
    uint64_t snapshotGcRemoved_ = 0;
    /** Every snapshot file is encoded into this one buffer (see
     *  writeSnapshotFile); it grows on first use, never up front. */
    Writer snapshotBuf_;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_CLOUD_PERSIST_H
