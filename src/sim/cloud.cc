/**
 * @file
 * Implementation of the cloud orchestrator.
 */
#include "cloud.h"

#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace nazar::sim {

Cloud::Cloud(CloudConfig config, const nn::Classifier &base)
    : config_(std::move(config)), base_(base)
{
    if (config_.rca.attributeColumns.empty())
        config_.rca.attributeColumns =
            driftlog::DriftLog::defaultAttributeColumns();
    if (!config_.persist.enabled())
        return;
    persist_ = std::make_unique<persist::CloudPersistence>(
        config_.persist, config_.ingestDedupWindow, state_);
    if (state_.cleanPatchText.has_value()) {
        std::istringstream is(*state_.cleanPatchText);
        recoveredCleanPatch_ = nn::BnPatch::load(is);
        recoveredCleanPatchTime_ = state_.cleanPatchTime;
    }
    const persist::RecoveryStats &rec = persist_->recovery();
    if (rec.snapshotLoaded || rec.replayedRecords > 0) {
        logInfo() << "cloud recovered: " << state_.driftLog.size()
                  << " pending rows, " << state_.uploads.size()
                  << " uploads, logical time " << state_.logicalTime
                  << ", " << rec.replayedRecords
                  << " WAL records replayed";
    }
}

void
Cloud::ingest(const driftlog::DriftLogEntry &entry,
              std::optional<Upload> upload)
{
    ingestFrom(/*device=*/-1, /*seq=*/0, entry, std::move(upload));
}

bool
Cloud::ingestFrom(int device, uint64_t seq,
                  const driftlog::DriftLogEntry &entry,
                  std::optional<Upload> upload)
{
    IngestMessage m{device, seq, &entry, std::move(upload), false};
    ingestBatchFrom({&m, 1});
    return m.accepted;
}

void
Cloud::ingestBatchFrom(std::span<IngestMessage> batch)
{
    static obs::Counter &rows =
        obs::Registry::global().counter("sim.ingest.rows");
    static obs::Counter &uploads =
        obs::Registry::global().counter("sim.uploads");
    static obs::Counter &dedup_hits =
        obs::Registry::global().counter("net.dedup_hits");

    uint64_t wal_seq = 0;
    if (persist_) {
        // Log every *attempt* before the dedup check and the apply:
        // replay re-runs applyIngest, so accepted rows, rejected
        // duplicates, and the per-device windows are all reproduced
        // exactly. logIngestBatch times its own stages.
        wal_seq = persist_->logIngestBatch(batch);
    }
    std::lock_guard<std::mutex> lk(ingestMutex_);
    {
        std::optional<obs::ScopedSpan> apply;
        if (persist_) {
            static obs::SpanSite applySite("cloud.apply");
            apply.emplace(applySite);
            state_.lastWalSeq = wal_seq;
        }
        for (auto &m : batch) {
            const bool has_upload = m.upload.has_value();
            m.accepted =
                persist::applyIngest(state_, m, config_.ingestDedupWindow);
            if (!m.accepted) {
                dedup_hits.add(1);
                continue;
            }
            rows.add(1);
            if (has_upload)
                uploads.add(1);
        }
    }
    maybeSnapshotLocked();
}

data::Dataset
Cloud::uploadsMatching(const std::vector<Upload> &uploads,
                       const rca::AttributeSet &cause)
{
    data::DatasetBuilder builder;
    for (const auto &up : uploads)
        if (cause.isSubsetOf(up.context))
            builder.add(up.features, /*label=*/-1);
    return builder.build();
}

data::Dataset
Cloud::cleanUploads(const std::vector<Upload> &uploads,
                    const std::vector<rca::RankedCause> &causes)
{
    data::DatasetBuilder builder;
    for (const auto &up : uploads) {
        if (up.driftFlag)
            continue;
        bool matched = false;
        for (const auto &cause : causes) {
            if (cause.attrs.isSubsetOf(up.context)) {
                matched = true;
                break;
            }
        }
        if (!matched)
            builder.add(up.features, /*label=*/-1);
    }
    return builder.build();
}

data::Dataset
Cloud::allUploads() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    data::DatasetBuilder builder;
    for (const auto &up : state_.uploads)
        builder.add(up.features, /*label=*/-1);
    return builder.build();
}

driftlog::DriftLog
Cloud::driftLog() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.driftLog;
}

size_t
Cloud::driftLogSize() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.driftLog.size();
}

size_t
Cloud::uploadCount() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.uploads.size();
}

size_t
Cloud::dedupHits() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.dedupHits;
}

size_t
Cloud::totalIngested() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.totalIngested;
}

void
Cloud::flush()
{
    static obs::Counter &flushed_rows =
        obs::Registry::global().counter("sim.cloud.flushed.rows");
    static obs::Counter &flushed_uploads =
        obs::Registry::global().counter("sim.cloud.flushed.uploads");
    std::lock_guard<std::mutex> lk(ingestMutex_);
    if (persist_)
        state_.lastWalSeq = persist_->logFlush();
    flushed_rows.add(state_.driftLog.size());
    flushed_uploads.add(state_.uploads.size());
    persist::applyFlush(state_);
    maybeSnapshotLocked();
}

CycleResult
Cloud::runCycle(const nn::BnPatch &clean_patch)
{
    NAZAR_SPAN("sim.cloud.cycle");
    static obs::Counter &archived_rows =
        obs::Registry::global().counter("sim.cloud.archived.rows");
    static obs::Counter &archived_uploads =
        obs::Registry::global().counter("sim.cloud.archived.uploads");
    static obs::Counter &skipped_causes =
        obs::Registry::global().counter("sim.cloud.adapt.skipped_causes");

    CycleResult result;
    ++state_.logicalTime;

    // Claim this cycle's evidence under the ingest lock, then analyze
    // lock-free: concurrent ingest lands in the next cycle's buffers.
    // Claiming is also the archival step, so record the counts now —
    // analysis never loses rows, only transport can.
    driftlog::DriftLog log;
    std::vector<Upload> uploads;
    {
        std::lock_guard<std::mutex> lk(ingestMutex_);
        log = std::move(state_.driftLog);
        state_.driftLog = driftlog::DriftLog();
        uploads = std::move(state_.uploads);
        state_.uploads.clear();
    }
    archived_rows.add(log.size());
    archived_uploads.add(uploads.size());

    // ---- Root-cause analysis stage ----------------------------------
    // Run on whatever actually arrived this window — a partial fleet
    // (lost, shed or delayed telemetry) degrades the evidence, never
    // the cycle itself. The span both feeds the sim.cloud.rca
    // histogram and reports the stage's wall time for CycleResult (so
    // benches keep their numbers even with metrics disabled).
    NAZAR_SPAN_BEGIN(rca_span, "sim.cloud.rca");
    rca::Analyzer analyzer(config_.rca);
    result.analysis = analyzer.analyze(log.table(), config_.analysisMode);
    result.rcaSeconds = rca_span.stop();

    const auto &causes = result.analysis.rootCauses;
    logInfo() << "cloud cycle " << state_.logicalTime << ": " << log.size()
              << " entries, " << uploads.size() << " uploads, "
              << causes.size() << " root causes";

    // ---- By-cause adaptation stage -----------------------------------
    NAZAR_SPAN_BEGIN(adapt_span, "sim.cloud.adapt");
    adapt::TentAdapter tent(config_.adapt);

    // Select the causes to adapt sequentially (cheap, and keeps the
    // per-cycle cap and version-id assignment deterministic), then fan
    // the TENT adaptations — the expensive part — out across the pool.
    // One BN-patch job per accepted cause, plus one for the clean
    // model's recalibration; every job adapts its own clone of the
    // base model, so jobs share no mutable state.
    struct AdaptJob
    {
        const rca::RankedCause *cause = nullptr; ///< null == clean job.
        data::Dataset samples;
    };
    std::vector<AdaptJob> jobs;
    for (const auto &cause : causes) {
        if (config_.maxCausesPerCycle > 0 &&
            jobs.size() >= config_.maxCausesPerCycle)
            break;
        data::Dataset samples = uploadsMatching(uploads, cause.attrs);
        if (samples.size() < config_.minAdaptSamples) {
            // Graceful degradation: uploads matching this cause were
            // sampled out — or lost/shed in transit — below the adapt
            // floor. Skip the cause, don't fail the cycle.
            skipped_causes.add(1);
            ++result.skippedCauses;
            logDebug() << "skipping cause " << cause.attrs.toString()
                       << ": only " << samples.size() << " samples";
            continue;
        }
        jobs.push_back({&cause, std::move(samples)});
    }
    const size_t cause_jobs = jobs.size();
    if (config_.adaptCleanModel) {
        data::Dataset clean = cleanUploads(uploads, causes);
        if (clean.size() >= config_.minAdaptSamples)
            jobs.push_back({nullptr, std::move(clean)});
    }

    std::vector<nn::BnPatch> patches(jobs.size());
    runtime::parallelFor(
        0, jobs.size(), /*grain=*/1, [&](size_t begin, size_t end) {
            for (size_t j = begin; j < end; ++j) {
                // Adapt a clone of the base model, starting from the
                // current clean BN state, on the job's sampled inputs.
                nn::Classifier model = base_.clone();
                model.applyBnPatch(clean_patch);
                tent.adapt(model, jobs[j].samples.x);
                patches[j] = model.bnPatch();
            }
        });

    // Publish in cause-rank order so version ids match the sequential
    // path no matter how the jobs were scheduled.
    for (size_t j = 0; j < cause_jobs; ++j) {
        deploy::ModelVersion version;
        version.id = state_.nextVersionId++;
        version.cause = jobs[j].cause->attrs;
        version.riskRatio = jobs[j].cause->metrics.riskRatio;
        version.patch = std::move(patches[j]);
        version.updatedAt = state_.logicalTime;
        registry_.publish(version); // durably stored before deployment
        result.newVersions.push_back(std::move(version));
        result.adaptedSampleCount += jobs[j].samples.size();
    }
    if (jobs.size() > cause_jobs)
        result.newCleanPatch = std::move(patches.back());
    result.adaptSeconds = adapt_span.stop();

    if (persist_) {
        // One atomic commit record for the whole cycle, carrying the
        // exact blob bytes the registry published. Appended after the
        // in-memory publishes: the only observer that could see the
        // gap is disk recovery, which rolls the uncommitted cycle back
        // (ingest replay restores the claimed buffers) and re-runs it
        // deterministically, reassigning identical version ids.
        std::vector<persist::VersionBlobs> blobs;
        blobs.reserve(result.newVersions.size());
        for (const auto &version : result.newVersions) {
            blobs.push_back(
                {version.id,
                 state_.blobs.get(
                     deploy::ModelRegistry::metaKey(version.id)),
                 state_.blobs.get(
                     deploy::ModelRegistry::patchKey(version.id))});
        }
        std::optional<std::string> clean_text;
        if (result.newCleanPatch.has_value()) {
            std::ostringstream patch_text;
            result.newCleanPatch->save(patch_text);
            clean_text = patch_text.str();
        }
        const uint64_t wal_seq =
            persist_->logCycleCommit(state_.logicalTime,
                                     state_.nextVersionId, blobs,
                                     clean_text, state_.logicalTime);
        std::lock_guard<std::mutex> lk(ingestMutex_);
        state_.lastWalSeq = wal_seq;
        if (clean_text.has_value()) {
            state_.cleanPatchText = std::move(clean_text);
            state_.cleanPatchTime = state_.logicalTime;
        }
        maybeSnapshotLocked();
    }
    return result;
}

std::vector<deploy::ModelVersion>
Cloud::versionsSince(int64_t after_id) const
{
    std::vector<deploy::ModelVersion> versions;
    for (int64_t id : registry_.versionIds())
        if (id > after_id)
            versions.push_back(registry_.fetch(id));
    return versions;
}

std::map<int64_t, persist::DedupWindow>
Cloud::dedupSnapshot() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_.dedup;
}

persist::CloudState
Cloud::durableState() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return state_;
}

void
Cloud::checkpoint()
{
    if (!persist_)
        return;
    std::lock_guard<std::mutex> lk(ingestMutex_);
    persist_->writeSnapshot(state_);
}

void
Cloud::maybeSnapshotLocked()
{
    if (persist_ && persist_->snapshotDue())
        persist_->writeSnapshot(state_);
}

size_t
Cloud::gcRegistryBelow(int64_t min_version_id)
{
    static obs::Counter &gc_evicted =
        obs::Registry::global().counter("cloud.registry.gc_evicted");
    std::lock_guard<std::mutex> lk(ingestMutex_);
    if (persist_) {
        // WAL-first, like every other mutation: the floor is durable
        // before the blobs disappear, so a crash between the two
        // replays the eviction instead of resurrecting dead versions.
        state_.lastWalSeq = persist_->logRegistryGc(min_version_id);
    }
    size_t evicted = persist::applyRegistryGc(state_, min_version_id);
    if (evicted > 0)
        gc_evicted.add(evicted);
    maybeSnapshotLocked();
    return evicted;
}

} // namespace nazar::sim
