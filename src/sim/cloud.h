/**
 * @file
 * The Nazar cloud side (paper §3.3-§3.4, §4): drift-log ingestion,
 * periodic root-cause analysis, and by-cause adaptation producing
 * deployable model versions.
 *
 * The cloud's durable state — pending drift-log rows and uploads,
 * dedup windows, the registry's blob store, counters and the last
 * clean patch — is one persist::CloudState member. Ingest, flush and
 * registry GC mutate it through persist's apply functions, the same
 * ones WAL replay runs, and a snapshot encodes the member in place;
 * with persistence on, the state directory is recovered straight into
 * it at construction.
 */
#ifndef NAZAR_SIM_CLOUD_H
#define NAZAR_SIM_CLOUD_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "adapt/tent.h"
#include "data/dataset.h"
#include "deploy/model_version.h"
#include "deploy/registry.h"
#include "driftlog/drift_log.h"
#include "persist/cloud_persist.h"
#include "rca/analyzer.h"

namespace nazar::sim {

/**
 * A sampled raw-input upload accompanying a drift-log entry: features,
 * the device context at inference time, and the on-device detector's
 * verdict. The same type the WAL, snapshots and wire carry, so the
 * buffer moves between them without conversion.
 */
using Upload = persist::UploadRecord;

/** One sequenced ingest attempt; the WAL's kIngest record holds it. */
using IngestMessage = persist::IngestMessage;

/** Cloud-side configuration. */
struct CloudConfig
{
    rca::RcaConfig rca;
    adapt::AdaptConfig adapt;
    rca::AnalysisMode analysisMode = rca::AnalysisMode::kFull;
    /** Minimum matching uploads required to adapt to a cause. */
    size_t minAdaptSamples = 24;
    /** Also keep the clean model calibrated on non-drifted uploads. */
    bool adaptCleanModel = true;
    /** Cap on causes adapted per cycle (0 = no cap). */
    size_t maxCausesPerCycle = 0;
    /**
     * Per-device sequence numbers remembered by the idempotent ingest
     * path (ingestFrom). Retransmissions whose sequence number is
     * still inside the window — or older than anything retained — are
     * rejected as duplicates, so at-least-once delivery counts each
     * drift row effectively once.
     */
    size_t ingestDedupWindow = persist::kDefaultDedupWindow;
    /**
     * Crash-safe durability for the cloud's state (drift log, upload
     * buffer, dedup windows, registry, counters). Off by default
     * (empty dir): no file is touched and the run is bit-identical to
     * a cloud without the persist layer.
     */
    persist::PersistConfig persist;
};

/** Result of one analysis/adaptation cycle. */
struct CycleResult
{
    std::vector<deploy::ModelVersion> newVersions;
    std::optional<nn::BnPatch> newCleanPatch;
    rca::AnalysisResult analysis;
    size_t adaptedSampleCount = 0;
    /** Causes found by RCA but skipped for lack of matching uploads. */
    size_t skippedCauses = 0;
    double rcaSeconds = 0.0;   ///< Wall-clock of the RCA stage.
    double adaptSeconds = 0.0; ///< Wall-clock of the adaptation stage.
};

/**
 * Cloud orchestrator. Owns the drift log and the upload buffer;
 * produces model versions at analysis-window boundaries.
 */
class Cloud
{
  public:
    /**
     * @param config Cloud configuration (RCA + adaptation).
     * @param base   The base (clean-trained) model; cycles adapt
     *               clones of it.
     */
    Cloud(CloudConfig config, const nn::Classifier &base);

    /**
     * Ingest one drift-log entry and optionally its sampled input: a
     * one-message ingestBatchFrom() that skips the dedup window.
     * Callers needing a deterministic log order must order their
     * calls themselves (sim::Runner buffers per shard and emits in
     * event order).
     */
    void ingest(const driftlog::DriftLogEntry &entry,
                std::optional<Upload> upload);

    /**
     * Idempotent ingest for messages arriving over an unreliable
     * channel, as a one-message ingestBatchFrom(): @p seq is the
     * sender's per-device monotone sequence number. Duplicate
     * (retried or duplicated-in-flight) messages are dropped against
     * a bounded per-device dedup window and counted in
     * `net.dedup_hits`. Returns true when the entry was accepted,
     * false on a dedup hit. A negative @p device skips the dedup
     * window: that is ingest().
     */
    bool ingestFrom(int device, uint64_t seq,
                    const driftlog::DriftLogEntry &entry,
                    std::optional<Upload> upload);

    /**
     * The one ingest path. Runs each message through
     * persist::applyIngest (the function WAL replay runs), sets its
     * `accepted` (false = a dedup hit) and moves accepted uploads out
     * of @p batch. With persistence on, every attempt is appended to
     * the WAL first with ONE sync for the whole batch, before the
     * ingest lock is taken, so readers never stall behind an fsync.
     *
     * Threading: without persistence, ingest is thread-safe —
     * concurrent emitters (fleet shards) serialize on an internal
     * mutex. With persistence, ingest has a single writer: callers
     * must not overlap ingest, ingestFrom or ingestBatchFrom with
     * each other or with cycle/flush/GC/checkpoint calls, which is
     * what makes the out-of-lock WAL appends safe. Every persisted
     * caller is one: the runner's in-order delivery, core::Nazar,
     * and the ingest server's committer thread. Readers stay safe
     * either way.
     */
    void ingestBatchFrom(std::span<IngestMessage> batch);

    /**
     * Run one analysis + by-cause adaptation cycle over the entries
     * ingested since the last cycle, then archive them.
     *
     * @param clean_patch Current clean-model BN patch (starting point
     *                    for adaptations and detector calibration).
     */
    CycleResult runCycle(const nn::BnPatch &clean_patch);

    /**
     * All currently buffered uploads as one dataset (labels are -1;
     * adaptation is unsupervised). Used by the adapt-all baseline.
     * Thread-safe against concurrent ingest.
     */
    data::Dataset allUploads() const;

    /**
     * Archive buffered entries and uploads without running analysis.
     * The archived counts are recorded in obs
     * (`sim.cloud.flushed.rows` / `sim.cloud.flushed.uploads`) so
     * flushed rows stay distinguishable from rows lost in transit.
     * Thread-safe against concurrent ingest.
     */
    void flush();

    /**
     * Snapshot of the entries currently awaiting analysis (copied
     * under the ingest lock, so safe against concurrent ingest).
     */
    driftlog::DriftLog driftLog() const;

    /** Entries currently awaiting analysis. Thread-safe. */
    size_t driftLogSize() const;

    /** Uploads currently buffered. Thread-safe. */
    size_t uploadCount() const;

    /** Dedup rejections by the idempotent ingest path. Thread-safe. */
    size_t dedupHits() const;

    /** Total entries ingested over the lifetime of the cloud. */
    size_t totalIngested() const;

    /** Next version id that will be assigned. */
    int64_t nextVersionId() const { return state_.nextVersionId; }

    /** Completed analysis cycles (advances once per runCycle). */
    int64_t logicalTime() const { return state_.logicalTime; }

    /**
     * All published versions with id > @p after_id, ascending. Used
     * after a crash-restart to re-push versions that devices never
     * acknowledged.
     */
    std::vector<deploy::ModelVersion> versionsSince(int64_t after_id) const;

    /**
     * The clean BN patch recovered from the state directory, when one
     * was persisted by an earlier incarnation's cycle. The owner (the
     * runner) adopts it so adaptation resumes from the recovered
     * calibration instead of the base model's.
     */
    const std::optional<nn::BnPatch> &recoveredCleanPatch() const
    {
        return recoveredCleanPatch_;
    }

    /** logicalTime of the cycle that produced the recovered patch. */
    int64_t recoveredCleanPatchTime() const
    {
        return recoveredCleanPatchTime_;
    }

    /** Copy of the per-device dedup windows. Thread-safe. */
    std::map<int64_t, persist::DedupWindow> dedupSnapshot() const;

    /**
     * Copy of the whole durable state (for tests). Thread-safe
     * against concurrent ingest. cleanPatchText is kept only with
     * persistence on.
     */
    persist::CloudState durableState() const;

    /**
     * Garbage-collect registry versions with id < @p min_version_id
     * from the blob store. The caller owns the safety invariant:
     * @p min_version_id must be at or below every device's last-seen
     * version, so no re-push or fetch for an evicted id can ever be
     * needed. WAL-first when persistence is on, so recovery replays
     * the eviction. Returns the number of versions evicted.
     * Thread-safe against concurrent ingest.
     */
    size_t gcRegistryBelow(int64_t min_version_id);

    /**
     * Force a snapshot now (rename-on-commit + WAL truncation). No-op
     * without persistence. Thread-safe against concurrent ingest.
     */
    void checkpoint();

    /** The durability engine, or null when persistence is off. */
    persist::CloudPersistence *persistence() { return persist_.get(); }

    /**
     * The version registry (every adapted version is published to the
     * blob store before deployment — the §5.8 "written in S3" step).
     */
    const deploy::ModelRegistry &registry() const { return registry_; }

    /** The blob store backing the registry. */
    const deploy::BlobStore &blobStore() const { return state_.blobs; }

    const CloudConfig &config() const { return config_; }

  private:
    /** Snapshot when due (ingestMutex_ held by the caller; the blob
     *  store is safe to read because cycles never run concurrently
     *  with ingest). */
    void maybeSnapshotLocked();

    /** Collect uploads whose context matches a cause. */
    static data::Dataset uploadsMatching(
        const std::vector<Upload> &uploads,
        const rca::AttributeSet &cause);

    /** Uploads not matching any accepted cause and not drift-flagged. */
    static data::Dataset cleanUploads(
        const std::vector<Upload> &uploads,
        const std::vector<rca::RankedCause> &causes);

    CloudConfig config_;
    const nn::Classifier &base_;
    /** Guards state_, except that runCycle, which never overlaps
     *  ingest, bumps logicalTime and nextVersionId and publishes to
     *  the blob store without it; their accessors read unlocked. */
    mutable std::mutex ingestMutex_;
    /** The durable state; cleanPatchText is kept only with
     *  persistence on. */
    persist::CloudState state_;
    deploy::ModelRegistry registry_{state_.blobs};
    /** Durability engine (null when CloudConfig::persist is off). */
    std::unique_ptr<persist::CloudPersistence> persist_;
    std::optional<nn::BnPatch> recoveredCleanPatch_;
    int64_t recoveredCleanPatchTime_ = 0;
};

} // namespace nazar::sim

#endif // NAZAR_SIM_CLOUD_H
