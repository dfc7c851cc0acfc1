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
    if (config_.persist.enabled()) {
        persist_ = std::make_unique<persist::CloudPersistence>(
            config_.persist, config_.ingestDedupWindow);
        adoptRecovered(persist_->recovered());
        persist_->dropRecovered();
    }
}

void
Cloud::adoptRecovered(persist::RecoveredState &st)
{
    driftLog_ = std::move(st.log);
    uploads_ = std::move(st.uploads);
    dedup_.clear();
    for (auto &[device, window] : st.dedup) {
        DedupState state;
        state.floor = window.floor;
        state.seen.insert(window.seen.begin(), window.seen.end());
        dedup_[static_cast<int>(device)] = std::move(state);
    }
    dedupHits_ = st.dedupHits;
    totalIngested_ = st.totalIngested;
    nextVersionId_ = st.nextVersionId;
    logicalTime_ = st.logicalTime;
    for (auto &[key, bytes] : st.blobs)
        blobStore_.put(key, std::move(bytes));
    if (st.cleanPatchText.has_value()) {
        std::istringstream is(*st.cleanPatchText);
        recoveredCleanPatch_ = nn::BnPatch::load(is);
        recoveredCleanPatchTime_ = st.cleanPatchTime;
        lastCleanPatchText_ = std::move(st.cleanPatchText);
        lastCleanPatchTime_ = st.cleanPatchTime;
    }
    if (st.snapshotLoaded || st.replayedRecords > 0) {
        logInfo() << "cloud recovered: " << driftLog_.size()
                  << " pending rows, " << uploads_.size()
                  << " uploads, logical time " << logicalTime_ << ", "
                  << st.replayedRecords << " WAL records replayed";
    }
}

void
Cloud::ingestLocked(const driftlog::DriftLogEntry &entry,
                    std::optional<Upload> upload)
{
    driftLog_.add(entry);
    ++totalIngested_;
    if (upload.has_value())
        uploads_.push_back(std::move(*upload));
}

void
Cloud::ingest(const driftlog::DriftLogEntry &entry,
              std::optional<Upload> upload)
{
    ingestFrom(/*device=*/-1, /*seq=*/0, entry, std::move(upload));
}

bool
Cloud::dedupAcceptLocked(int device, uint64_t seq)
{
    static obs::Counter &dedup_hits =
        obs::Registry::global().counter("net.dedup_hits");
    DedupState &state = dedup_[device];
    if (seq < state.floor || state.seen.count(seq) > 0) {
        ++dedupHits_;
        dedup_hits.add(1);
        return false;
    }
    state.seen.insert(seq);
    while (state.seen.size() > config_.ingestDedupWindow) {
        state.floor = *state.seen.begin() + 1;
        state.seen.erase(state.seen.begin());
    }
    return true;
}

bool
Cloud::ingestFrom(int device, uint64_t seq,
                  const driftlog::DriftLogEntry &entry,
                  std::optional<Upload> upload)
{
    static obs::Counter &rows =
        obs::Registry::global().counter("sim.ingest.rows");
    static obs::Counter &uploads =
        obs::Registry::global().counter("sim.uploads");

    std::lock_guard<std::mutex> lk(ingestMutex_);
    if (persist_) {
        // Log the *attempt* before the dedup check: replay re-runs the
        // dedup logic, so accepted rows, rejected duplicates, and the
        // per-device windows are all reproduced exactly.
        persist_->logIngest(
            device, seq, entry, upload ? &upload->features : nullptr,
            upload ? &upload->context : nullptr,
            upload ? upload->driftFlag : false);
    }
    if (device >= 0 && !dedupAcceptLocked(device, seq)) {
        maybeSnapshotLocked();
        return false;
    }
    rows.add(1);
    if (upload.has_value())
        uploads.add(1);
    ingestLocked(entry, std::move(upload));
    maybeSnapshotLocked();
    return true;
}

std::vector<bool>
Cloud::ingestBatchFrom(std::vector<IngestMessage> batch)
{
    static obs::Counter &rows =
        obs::Registry::global().counter("sim.ingest.rows");
    static obs::Counter &uploads =
        obs::Registry::global().counter("sim.uploads");
    static obs::Counter &batches =
        obs::Registry::global().counter("sim.ingest.batches");

    std::vector<bool> accepted(batch.size(), false);
    if (batch.empty())
        return accepted;
    batches.add(1);
    if (persist_) {
        // Group commit: every attempt of the batch becomes durable
        // with a single sync, before the ingest lock is touched
        // (WAL-first still holds — durability precedes the apply).
        // logIngestBatch times its append and fsync stages itself.
        std::vector<std::string> payloads;
        {
            NAZAR_SPAN("persist.wal.encode");
            payloads.reserve(batch.size());
            for (const auto &m : batch) {
                const auto *up = m.upload ? &*m.upload : nullptr;
                payloads.push_back(
                    persist::CloudPersistence::encodeIngest(
                        m.device, m.seq, m.entry,
                        up ? &up->features : nullptr,
                        up ? &up->context : nullptr,
                        up ? up->driftFlag : false));
            }
        }
        persist_->logIngestBatch(payloads);
    }
    std::lock_guard<std::mutex> lk(ingestMutex_);
    {
        NAZAR_SPAN("cloud.apply");
        for (size_t i = 0; i < batch.size(); ++i) {
            auto &m = batch[i];
            if (!dedupAcceptLocked(m.device, m.seq))
                continue;
            rows.add(1);
            if (m.upload.has_value())
                uploads.add(1);
            ingestLocked(m.entry, std::move(m.upload));
            accepted[i] = true;
        }
    }
    maybeSnapshotLocked();
    return accepted;
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
    for (const auto &up : uploads_)
        builder.add(up.features, /*label=*/-1);
    return builder.build();
}

driftlog::DriftLog
Cloud::driftLog() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return driftLog_;
}

size_t
Cloud::driftLogSize() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return driftLog_.size();
}

size_t
Cloud::uploadCount() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return uploads_.size();
}

size_t
Cloud::dedupHits() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return dedupHits_;
}

size_t
Cloud::totalIngested() const
{
    std::lock_guard<std::mutex> lk(ingestMutex_);
    return totalIngested_;
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
        persist_->logFlush();
    flushed_rows.add(driftLog_.size());
    flushed_uploads.add(uploads_.size());
    driftLog_.clear();
    uploads_.clear();
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
    ++logicalTime_;

    // Claim this cycle's evidence under the ingest lock, then analyze
    // lock-free: concurrent ingest lands in the next cycle's buffers.
    // Claiming is also the archival step, so record the counts now —
    // analysis never loses rows, only transport can.
    driftlog::DriftLog log;
    std::vector<Upload> uploads;
    {
        std::lock_guard<std::mutex> lk(ingestMutex_);
        log = std::move(driftLog_);
        driftLog_ = driftlog::DriftLog();
        uploads = std::move(uploads_);
        uploads_.clear();
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
    logInfo() << "cloud cycle " << logicalTime_ << ": " << log.size()
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
        version.id = nextVersionId_++;
        version.cause = jobs[j].cause->attrs;
        version.riskRatio = jobs[j].cause->metrics.riskRatio;
        version.patch = std::move(patches[j]);
        version.updatedAt = logicalTime_;
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
                 blobStore_.get(deploy::ModelRegistry::metaKey(version.id)),
                 blobStore_.get(
                     deploy::ModelRegistry::patchKey(version.id))});
        }
        if (result.newCleanPatch.has_value()) {
            std::ostringstream patch_text;
            result.newCleanPatch->save(patch_text);
            lastCleanPatchText_ = patch_text.str();
            lastCleanPatchTime_ = logicalTime_;
        }
        persist_->logCycleCommit(logicalTime_, nextVersionId_, blobs,
                                 result.newCleanPatch.has_value()
                                     ? lastCleanPatchText_
                                     : std::optional<std::string>(),
                                 lastCleanPatchTime_);
        std::lock_guard<std::mutex> lk(ingestMutex_);
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
    std::map<int64_t, persist::DedupWindow> out;
    for (const auto &[device, state] : dedup_) {
        persist::DedupWindow window;
        window.floor = state.floor;
        window.seen.assign(state.seen.begin(), state.seen.end());
        out[device] = std::move(window);
    }
    return out;
}

void
Cloud::checkpoint()
{
    if (!persist_)
        return;
    std::lock_guard<std::mutex> lk(ingestMutex_);
    writeSnapshotLocked();
}

void
Cloud::maybeSnapshotLocked()
{
    if (persist_ && persist_->snapshotDue())
        writeSnapshotLocked();
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
        persist_->logRegistryGc(min_version_id);
    }
    size_t evicted = registry_.evictBelow(min_version_id);
    if (evicted > 0)
        gc_evicted.add(evicted);
    if (persist_)
        maybeSnapshotLocked();
    return evicted;
}

void
Cloud::writeSnapshotLocked()
{
    NAZAR_SPAN("persist.snapshot");
    persist::SnapshotData data;
    data.logicalTime = logicalTime_;
    data.nextVersionId = nextVersionId_;
    data.totalIngested = totalIngested_;
    data.dedupHits = dedupHits_;
    // Lend the pending rows and uploads to the snapshot instead of
    // copying them; they come back on every exit, the injected crash
    // and disk-fault throws included.
    data.driftLog = std::move(driftLog_);
    data.uploads = std::move(uploads_);
    struct GiveBack
    {
        Cloud &cloud;
        persist::SnapshotData &data;

        ~GiveBack()
        {
            cloud.driftLog_ = std::move(data.driftLog);
            cloud.uploads_ = std::move(data.uploads);
        }
    } give_back{*this, data};
    for (const auto &[device, state] : dedup_) {
        persist::DedupWindow window;
        window.floor = state.floor;
        window.seen.assign(state.seen.begin(), state.seen.end());
        data.dedup[device] = std::move(window);
    }
    for (const auto &key : blobStore_.list())
        data.blobs.emplace_back(key, blobStore_.get(key));
    data.cleanPatchText = lastCleanPatchText_;
    data.cleanPatchTime = lastCleanPatchTime_;
    persist_->writeSnapshot(data);
}

} // namespace nazar::sim
