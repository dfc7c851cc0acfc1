/**
 * @file
 * Durable cloud state: the WAL + snapshot orchestrator sim::Cloud
 * plugs into, the mutations of the state, and standalone recovery for
 * tools and tests.
 *
 * One state, one apply path: the cloud's durable state is one
 * CloudState (snapshot.h). sim::Cloud owns it, CloudPersistence
 * recovers straight into it, and writeSnapshot encodes it where it
 * lies. Every mutation goes through one function here — applyIngest,
 * applyFlush, applyRegistryGc — which the live cloud calls as it
 * ingests and WAL replay calls as it re-reads the log, so replay
 * reproduces the live state by construction. Blob keys are the
 * registry's business (deploy::ModelRegistry); nothing here spells
 * them.
 *
 * Protocol (WAL-first):
 *
 *  - Every ingest *attempt* (accepted or deduped) is appended as a
 *    kIngest record before the in-memory apply. Replay re-runs
 *    applyIngest, so accepted rows, rejected duplicates, and the
 *    per-device windows are all reproduced exactly.
 *  - A completed runCycle appends one atomic kCycleCommit record
 *    carrying the published version blobs, the new counters, and the
 *    clean patch. A cycle whose commit record never landed (torn or
 *    never written) rolls back wholesale on recovery: the claimed
 *    buffers reappear and the cycle re-runs deterministically,
 *    producing identical version ids.
 *  - Baseline flushes append kFlush; registry GCs append kRegistryGc.
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
#include <memory>
#include <optional>
#include <span>
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

/** Default per-device dedup window (sim::CloudConfig's default too). */
inline constexpr size_t kDefaultDedupWindow = 4096;

/** How a recovery went, beside the state it rebuilt. */
struct RecoveryStats
{
    bool snapshotLoaded = false;
    uint64_t replayedRecords = 0;
    uint64_t truncatedBytes = 0; ///< Torn WAL tail dropped on open.
};

/** What recoverDir returns: the rebuilt state and how it went. */
struct RecoveredState : CloudState, RecoveryStats
{
};

/**
 * One sequenced ingest attempt: what a kIngest WAL record holds and
 * what applyIngest applies. A negative `device` skips the dedup
 * window (sim::Cloud::ingest).
 */
struct IngestMessage
{
    int device = 0;
    uint64_t seq = 0;
    /** Borrowed: the caller keeps it alive for the ingest call. */
    const driftlog::DriftLogEntry *entry = nullptr;
    std::optional<UploadRecord> upload;
    /** Set by the ingest: false on a dedup hit. */
    bool accepted = false;
};

/**
 * Apply one ingest attempt to @p state: run a device's seq (device
 * >= 0) through its dedup window of @p dedup_window seqs, and on
 * acceptance append the row and move the upload in. Returns false on
 * a dedup hit, which is counted in state.dedupHits.
 */
bool applyIngest(CloudState &state, IngestMessage &m, size_t dedup_window);

/** Apply a flush: archive the pending rows and uploads unanalyzed. */
void applyFlush(CloudState &state);

/**
 * Apply a registry GC: evict every version with id < @p min_version_id
 * from the blob store. Returns the number of versions evicted.
 */
size_t applyRegistryGc(CloudState &state, int64_t min_version_id);

/** The blobs one published version wrote to the registry store. */
struct VersionBlobs
{
    int64_t id = 0;
    std::string meta;
    std::string patch;
};

/**
 * Read-only recovery: load the newest valid snapshot and replay the
 * WAL records above its cut through the apply functions. Used by
 * `nazar_ops recover` and by tests; the CloudPersistence constructor
 * runs the same steps before it changes any file. Throws NazarError,
 * touching nothing, when @p dir holds a file this build cannot read
 * but whose contents no other file holds (a pre-chain `snapshot.bin`,
 * a `snap-<id>.delta`, or a newest `snap-<id>.full` failing its
 * header or CRC check or its decode), when the WAL cannot be read, or
 * when the WAL starts above the snapshot's cut. Each of these is
 * checked in one place, which scrubStateDir shares.
 *
 * @param dedup_window Dedup window size to replay ingests with; must
 *                     match the CloudConfig the WAL was written under.
 */
RecoveredState recoverDir(const std::filesystem::path &dir,
                          size_t dedup_window = kDefaultDedupWindow);

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
 * Offline, read-only integrity walk of a state directory: every
 * refusal recoverDir would throw is an issue (all of them, not only
 * the first), and so are a WAL without a valid header and a
 * superseded snapshot file failing its header or CRC check. Never
 * modifies anything.
 */
ScrubReport scrubStateDir(const std::filesystem::path &dir);

/** Per-state-directory durability engine, owned by sim::Cloud. */
class CloudPersistence
{
  public:
    /**
     * Open (creating if needed) the state directory and recover it
     * into @p state (a default-constructed one) with recoverDir's
     * read-only steps; only then open the WAL for append (cutting a
     * torn tail) and remove `.tmp` orphans, so a refused directory is
     * left byte for byte as it was. The WAL is read once.
     * @p dedup_window must match the owning cloud's config so replayed
     * ingests dedup identically.
     */
    CloudPersistence(const PersistConfig &config, size_t dedup_window,
                     CloudState &state);

    /** How the recovery at open went. */
    const RecoveryStats &recovery() const { return recovery_; }

    /**
     * Log ingest attempts (WAL-first: call before applying): every
     * message becomes one kIngest record, all made durable by ONE
     * sync. A one-message batch is exactly a per-record append. A
     * crash mid-batch leaves at most a torn tail; records before the
     * tear replay, the rest were never acknowledged. Callers must
     * serialize against other WAL writers. Every log* call returns
     * the seq of the last record it appended.
     */
    uint64_t logIngestBatch(std::span<const IngestMessage> batch);

    /** Log one committed cycle (call after publishing to the store). */
    uint64_t logCycleCommit(int64_t logical_time, int64_t next_version_id,
                        const std::vector<VersionBlobs> &versions,
                        const std::optional<std::string> &clean_patch_text,
                        int64_t clean_patch_time);

    /** Log one baseline flush (buffers cleared without analysis). */
    uint64_t logFlush();

    /**
     * Log a registry GC floor: versions with id < @p min_version_id
     * are evicted from the blob store. WAL-first — call before
     * evicting in memory so replay reproduces the eviction.
     */
    uint64_t logRegistryGc(int64_t min_version_id);

    /** True when enough appends accumulated to warrant a snapshot. */
    bool snapshotDue() const;

    /**
     * Write a snapshot of @p state (rename-on-commit), encoded where
     * it lies, then truncate the WAL and GC every older snapshot file
     * (safety invariant: the committed snapshot plus the WAL is the
     * whole recovery state, so everything older is removable).
     * state.lastWalSeq is set from the WAL; the rest is only read.
     * Times itself as `persist.snapshot`.
     */
    void writeSnapshot(CloudState &state);

    /** True once any I/O failed: the fsync gate is latched. */
    bool diskFaulted() const { return env_.faulted(); }

    /** Site of the latched disk fault ("" when healthy). */
    std::string diskFaultSite() const { return env_.faultSite(); }

    CrashInjector &injector() { return injector_; }
    Env &env() { return env_; }
    const PersistConfig &config() const { return config_; }

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
    RecoveryStats recovery_;
    uint64_t appendsSince_ = 0;
    uint64_t chainHeadId_ = 0;
    uint64_t snapshotGcRemoved_ = 0;
    /** Every snapshot file is encoded into this one buffer (see
     *  writeSnapshotFile); it grows on first use, never up front. */
    Writer snapshotBuf_;
    /** A batch's kIngest payloads, back to back, and where each ends;
     *  reused batch after batch. */
    Writer ingestBuf_;
    std::vector<size_t> ingestEnds_;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_CLOUD_PERSIST_H
