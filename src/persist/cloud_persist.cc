#include "persist/cloud_persist.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

constexpr uint8_t kFlagHasUpload = 1;
constexpr uint8_t kFlagFromDevice = 2;

/** The single-file snapshot of the pre-chain layout. */
constexpr char kLegacySnapshotName[] = "snapshot.bin";

std::string
blobKey(int64_t id, const char *kind)
{
    return "versions/" + std::to_string(id) + "/" + kind;
}

/** Replay one ingest attempt with the same dedup semantics as Cloud. */
void
replayIngest(RecoveredState &st, Reader &r, size_t dedup_window)
{
    uint8_t flags = r.getU8();
    int64_t device = r.getI64();
    uint64_t seq = r.getU64();
    driftlog::DriftLogEntry entry = getEntry(r);
    std::optional<UploadRecord> upload;
    if (flags & kFlagHasUpload)
        upload = getUpload(r);

    if (flags & kFlagFromDevice) {
        DedupWindow &window = st.dedup[device];
        auto it = std::lower_bound(window.seen.begin(),
                                   window.seen.end(), seq);
        if (seq < window.floor ||
            (it != window.seen.end() && *it == seq)) {
            ++st.dedupHits;
            return;
        }
        window.seen.insert(it, seq);
        while (window.seen.size() > dedup_window) {
            window.floor = window.seen.front() + 1;
            window.seen.erase(window.seen.begin());
        }
    }
    st.log.add(entry);
    ++st.totalIngested;
    if (upload.has_value())
        st.uploads.push_back(std::move(*upload));
}

void
replayCycleCommit(RecoveredState &st, Reader &r)
{
    st.logicalTime = r.getI64();
    st.nextVersionId = r.getI64();
    if (r.getBool()) {
        st.cleanPatchText = r.getString();
        st.cleanPatchTime = r.getI64();
    }
    uint32_t versions = r.getU32();
    for (uint32_t i = 0; i < versions; ++i) {
        int64_t id = r.getI64();
        st.blobs.emplace_back(blobKey(id, "meta"), r.getString());
        st.blobs.emplace_back(blobKey(id, "patch"), r.getString());
    }
    // The committed cycle archived everything it claimed.
    st.log.clear();
    st.uploads.clear();
}

/** Version id of a "versions/<id>/<kind>" blob key (-1 otherwise). */
int64_t
blobKeyVersion(const std::string &key)
{
    constexpr char kPrefix[] = "versions/";
    constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
    if (key.compare(0, kPrefixLen, kPrefix) != 0)
        return -1;
    size_t slash = key.find('/', kPrefixLen);
    if (slash == std::string::npos || slash == kPrefixLen)
        return -1;
    int64_t id = 0;
    for (size_t i = kPrefixLen; i < slash; ++i) {
        if (key[i] < '0' || key[i] > '9')
            return -1;
        id = id * 10 + (key[i] - '0');
    }
    return id;
}

/** Replay one registry GC: drop blobs below the version floor. */
void
replayRegistryGc(RecoveredState &st, Reader &r)
{
    int64_t min_id = r.getI64();
    std::erase_if(st.blobs, [min_id](const auto &kv) {
        int64_t id = blobKeyVersion(kv.first);
        return id >= 0 && id < min_id;
    });
}

void
applyWalRecord(RecoveredState &st, const WalRecord &rec,
               size_t dedup_window)
{
    Reader r(rec.payload);
    switch (rec.type) {
      case WalRecordType::kIngest:
        replayIngest(st, r, dedup_window);
        break;
      case WalRecordType::kCycleCommit:
        replayCycleCommit(st, r);
        break;
      case WalRecordType::kFlush:
        st.log.clear();
        st.uploads.clear();
        break;
      case WalRecordType::kRegistryGc:
        replayRegistryGc(st, r);
        break;
    }
}

void
applySnapshot(RecoveredState &st, SnapshotData &&snap)
{
    st.lastWalSeq = snap.lastWalSeq;
    st.logicalTime = snap.logicalTime;
    st.nextVersionId = snap.nextVersionId;
    st.totalIngested = snap.totalIngested;
    st.dedupHits = snap.dedupHits;
    st.log = std::move(snap.driftLog);
    st.uploads = std::move(snap.uploads);
    st.dedup = std::move(snap.dedup);
    st.blobs = std::move(snap.blobs);
    st.cleanPatchText = std::move(snap.cleanPatchText);
    st.cleanPatchTime = snap.cleanPatchTime;
}

/** A `snap-<id>.delta`: a delta snapshot, which this build cannot read. */
bool
isDeltaFileName(const std::string &name)
{
    return name.starts_with("snap-") && name.ends_with(".delta");
}

/**
 * Load the newest snapshot into @p st and return its id (0 when there
 * is none). Refuses (NazarError), touching nothing, a directory
 * holding a file whose state is nowhere else: a pre-chain
 * snapshot.bin (its drift log is CSV, a payload this build cannot
 * read), a delta snapshot (it archived WAL records that were then
 * truncated from the WAL), or a newest snapshot file that fails its
 * header or CRC check (the WAL was truncated when it committed, and
 * no crash leaves a committed file torn). Recovering without any of
 * them would silently drop that state.
 */
uint64_t
loadSnapshotChain(RecoveredState &st, const fs::path &dir)
{
    std::error_code ec;
    NAZAR_CHECK(!fs::exists(dir / kLegacySnapshotName, ec),
                "recover: " + (dir / kLegacySnapshotName).string() +
                    " is a pre-chain snapshot (drift log as CSV, no "
                    "NZIMG1 format tag) that this build cannot read; "
                    "refusing to recover without it");
    std::map<uint64_t, fs::path> paths;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        NAZAR_CHECK(!isDeltaFileName(name),
                    "recover: " + entry.path().string() +
                        " is a delta snapshot, which this build no "
                        "longer reads; the WAL records it archived are "
                        "in no other file, so refusing to recover "
                        "without it");
        if (auto id = parseChainFileName(name))
            paths.emplace(*id, entry.path());
    }
    if (paths.empty())
        return 0;
    const auto &[id, path] = *paths.rbegin();
    auto head = loadChainFile(path);
    NAZAR_CHECK(head.has_value() && head->header.id == id,
                "recover: " + path.string() +
                    " is the newest snapshot but fails its header or "
                    "CRC check; the WAL records it holds were truncated "
                    "when it committed, so refusing to recover without "
                    "it");
    applySnapshot(st, decodeSnapshot(head->payload));
    if (head->header.lastWalSeq > st.lastWalSeq)
        st.lastWalSeq = head->header.lastWalSeq;
    st.snapshotLoaded = true;
    return id;
}

/**
 * Refuse (NazarError) a WAL whose first record lies above the loaded
 * snapshot's cut: seqs keep counting across truncation, so a gap
 * means the snapshot that held the records in between is missing.
 */
void
checkWalContinues(const RecoveredState &st,
                  const std::vector<WalRecord> &records,
                  const fs::path &wal_path)
{
    if (records.empty() || records.front().seq <= st.lastWalSeq + 1)
        return;
    throw NazarError(
        "recover: " + wal_path.string() + " starts at seq " +
        std::to_string(records.front().seq) + " but " +
        (st.snapshotLoaded ? "the newest snapshot ends at seq " +
                                 std::to_string(st.lastWalSeq)
                           : std::string("there is no snapshot")) +
        "; the records in between are in no file, so refusing to "
        "recover");
}

} // namespace

RecoveredState
recoverDir(const fs::path &dir, size_t dedup_window)
{
    RecoveredState st;
    loadSnapshotChain(st, dir);
    WalScan scan = Wal::scan(dir / "wal.log");
    NAZAR_CHECK(!scan.unreadable,
                "recover: " + (dir / "wal.log").string() +
                    " exists but cannot be read");
    checkWalContinues(st, scan.records, dir / "wal.log");
    st.truncatedBytes = scan.truncatedBytes;
    for (const auto &rec : scan.records) {
        if (rec.seq <= st.lastWalSeq)
            continue; // already inside the snapshot
        applyWalRecord(st, rec, dedup_window);
        st.lastWalSeq = rec.seq;
        ++st.replayedRecords;
    }
    return st;
}

CloudPersistence::CloudPersistence(const PersistConfig &config,
                                   size_t dedup_window)
    : config_(config)
{
    NAZAR_SPAN("persist.recover");
    NAZAR_CHECK(config_.enabled(),
                "CloudPersistence requires a state directory");
    fs::create_directories(config_.dir);
    injector_.armAtHit(config_.crashAtHit);
    env_.arm(config_.fault);

    fs::path dir(config_.dir);
    chainHeadId_ = loadSnapshotChain(recovered_, dir);
    if (recovered_.snapshotLoaded)
        obs::Registry::global()
            .counter("persist.recover.snapshot_loads")
            .add(1);

    // Opening the WAL changes at most its torn tail, which no one
    // was acknowledged for.
    wal_ = std::make_unique<Wal>(dir / "wal.log", &injector_,
                                 config_.sync, &env_);
    checkWalContinues(recovered_, wal_->records(), wal_->path());

    // A crash during a tmp phase leaves orphans (snapshot.tmp or
    // snap-*.tmp); they were never committed, so discard them.
    std::error_code ec;
    std::vector<fs::path> orphans;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".tmp")
            orphans.push_back(entry.path());
    }
    for (const auto &orphan : orphans)
        fs::remove(orphan, ec);

    wal_->bumpSeqPast(recovered_.lastWalSeq);
    recovered_.truncatedBytes = wal_->truncatedBytes();
    for (const auto &rec : wal_->records()) {
        if (rec.seq <= recovered_.lastWalSeq)
            continue;
        applyWalRecord(recovered_, rec, dedup_window);
        recovered_.lastWalSeq = rec.seq;
        ++recovered_.replayedRecords;
    }
    wal_->dropRecords();
    obs::Registry::global()
        .counter("persist.recover.replayed_records")
        .add(recovered_.replayedRecords);
}

uint64_t
CloudPersistence::append(WalRecordType type, const std::string &payload)
{
    uint64_t seq = wal_->append(type, payload);
    ++appendsSince_;
    return seq;
}

std::string
CloudPersistence::encodeIngest(int64_t device, uint64_t seq,
                               const driftlog::DriftLogEntry &entry,
                               const std::vector<double> *features,
                               const rca::AttributeSet *context,
                               bool drift_flag)
{
    Writer w;
    uint8_t flags = 0;
    if (features != nullptr)
        flags |= kFlagHasUpload;
    if (device >= 0)
        flags |= kFlagFromDevice;
    w.putU8(flags);
    w.putI64(device);
    w.putU64(seq);
    putEntry(w, entry);
    if (features != nullptr) {
        w.putU64(features->size());
        for (double f : *features)
            w.putF64(f);
        putAttributeSet(w, *context);
        w.putBool(drift_flag);
    }
    return w.take();
}

void
CloudPersistence::logIngest(int64_t device, uint64_t seq,
                            const driftlog::DriftLogEntry &entry,
                            const std::vector<double> *features,
                            const rca::AttributeSet *context,
                            bool drift_flag)
{
    append(WalRecordType::kIngest,
           encodeIngest(device, seq, entry, features, context,
                        drift_flag));
}

void
CloudPersistence::logIngestBatch(const std::vector<std::string> &payloads)
{
    if (payloads.empty())
        return;
    {
        NAZAR_SPAN("persist.wal.append");
        for (const auto &payload : payloads)
            wal_->appendBuffered(WalRecordType::kIngest, payload);
    }
    {
        NAZAR_SPAN("persist.wal.fsync");
        wal_->sync();
    }
    appendsSince_ += payloads.size();
    obs::Registry::global()
        .counter("persist.wal.group_commits")
        .add(1);
}

void
CloudPersistence::logCycleCommit(
    int64_t logical_time, int64_t next_version_id,
    const std::vector<VersionBlobs> &versions,
    const std::optional<std::string> &clean_patch_text,
    int64_t clean_patch_time)
{
    Writer w;
    w.putI64(logical_time);
    w.putI64(next_version_id);
    w.putBool(clean_patch_text.has_value());
    if (clean_patch_text.has_value()) {
        w.putString(*clean_patch_text);
        w.putI64(clean_patch_time);
    }
    w.putU32(static_cast<uint32_t>(versions.size()));
    for (const auto &v : versions) {
        w.putI64(v.id);
        w.putString(v.meta);
        w.putString(v.patch);
    }
    append(WalRecordType::kCycleCommit, w.bytes());
}

void
CloudPersistence::logFlush()
{
    append(WalRecordType::kFlush, std::string());
}

void
CloudPersistence::logRegistryGc(int64_t min_version_id)
{
    Writer w;
    w.putI64(min_version_id);
    append(WalRecordType::kRegistryGc, w.bytes());
}

bool
CloudPersistence::snapshotDue() const
{
    return config_.snapshotEvery > 0 &&
           appendsSince_ >= config_.snapshotEvery;
}

void
CloudPersistence::writeSnapshot(SnapshotData &data)
{
    data.lastWalSeq = wal_->lastSeq();
    ChainHeader header;
    header.id = chainHeadId_ + 1;
    header.lastWalSeq = data.lastWalSeq;
    writeSnapshotFile(fs::path(config_.dir), header, data, snapshotBuf_,
                      injector_, env_);
    chainHeadId_ = header.id;
    wal_->truncateAll();
    appendsSince_ = 0;
    gcSupersededChain();
}

void
CloudPersistence::gcSupersededChain()
{
    // Safety invariant: only called right after a snapshot committed,
    // so recovery needs exactly {chainHeadId_} and every older
    // snapshot file is superseded. Unlinks are best-effort: a
    // survivor is harmless (recovery picks the newest snapshot) and
    // must not poison the log.
    fs::path dir(config_.dir);
    std::error_code ec;
    std::vector<fs::path> victims;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        auto id = parseChainFileName(entry.path().filename().string());
        if (id.has_value() && *id < chainHeadId_)
            victims.push_back(entry.path());
    }
    uint64_t removed = 0;
    for (const auto &victim : victims) {
        if (env_.remove("env.snap.unlink", victim))
            ++removed;
    }
    snapshotGcRemoved_ += removed;
    if (removed > 0)
        obs::Registry::global()
            .counter("persist.snapshot.gc_removed")
            .add(removed);
}

ScrubReport
scrubStateDir(const fs::path &dir)
{
    ScrubReport report;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        report.ok = false;
        report.issues.push_back("not a directory: " + dir.string());
        return report;
    }

    // --- WAL: header, per-record CRC + seq monotonicity -------------
    fs::path wal_path = dir / "wal.log";
    uint64_t wal_first_seq = 0; // 0 = no records
    if (fs::exists(wal_path, ec)) {
        WalScan scan = Wal::scan(wal_path);
        if (scan.unreadable) {
            report.ok = false;
            report.issues.push_back("wal.log exists but is unreadable");
        } else if (!scan.validHeader) {
            report.ok = false;
            report.issues.push_back("wal.log has no valid header");
        } else {
            report.walRecords = scan.records.size();
            report.walTornBytes = scan.truncatedBytes;
            if (!scan.records.empty())
                wal_first_seq = scan.records.front().seq;
            if (scan.truncatedBytes > 0)
                report.notes.push_back(
                    "wal.log has a torn tail of " +
                    std::to_string(scan.truncatedBytes) +
                    " bytes (recovery truncates it)");
        }
    } else {
        report.notes.push_back("no wal.log (fresh or empty state dir)");
    }

    // --- snapshot files: magic, CRC, filename/header agreement -----
    std::optional<ChainFile> head; // the newest valid one
    uint64_t newest_id = 0;        // the newest one, valid or not
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (isDeltaFileName(name)) {
            report.ok = false;
            report.issues.push_back(
                "delta snapshot " + name +
                " present (unreadable by this build): recovery refuses "
                "this directory");
            continue;
        }
        auto id = parseChainFileName(name);
        if (!id.has_value())
            continue;
        newest_id = std::max(newest_id, *id);
        auto loaded = loadChainFile(entry.path());
        if (!loaded.has_value()) {
            report.ok = false;
            report.issues.push_back("corrupt snapshot file: " + name);
            continue;
        }
        if (loaded->header.id != *id) {
            report.ok = false;
            report.issues.push_back(
                "snapshot file header disagrees with filename: " + name);
            continue;
        }
        ++report.chainFiles;
        report.chainBytes += loaded->payload.size();
        if (!head.has_value() || *id > head->header.id)
            head = std::move(loaded);
    }

    // --- the snapshot recovery would load: the newest one -----------
    if (head.has_value()) {
        try {
            decodeSnapshot(head->payload);
        } catch (const NazarError &e) {
            report.ok = false;
            report.issues.push_back("snapshot payload fails to decode (id " +
                                    std::to_string(head->header.id) +
                                    "): " + e.what());
        }
        if (report.chainFiles > 1)
            report.notes.push_back(std::to_string(report.chainFiles - 1) +
                                   " superseded snapshot file(s) "
                                   "awaiting GC");
        if (report.walRecords > 0 && report.ok) {
            WalScan scan = Wal::scan(wal_path);
            uint64_t stale = 0;
            for (const auto &rec : scan.records)
                if (rec.seq <= head->header.lastWalSeq)
                    ++stale;
            if (stale > 0)
                report.notes.push_back(
                    std::to_string(stale) +
                    " WAL record(s) already inside the snapshot "
                    "(crash before truncation; replay skips them)");
        }
    }

    // --- what recovery refuses: a newest snapshot that does not
    // load, or a WAL starting above the loaded snapshot's cut ---------
    if (newest_id > 0 &&
        (!head.has_value() || head->header.id != newest_id)) {
        report.ok = false;
        report.issues.push_back("newest snapshot " +
                                chainFileName(newest_id) +
                                " is corrupt: recovery refuses this "
                                "directory");
    }
    const uint64_t cut = head.has_value() ? head->header.lastWalSeq : 0;
    if (wal_first_seq > cut + 1) {
        report.ok = false;
        report.issues.push_back(
            "wal.log starts at seq " + std::to_string(wal_first_seq) +
            " above the snapshot cut " + std::to_string(cut) +
            ": the records in between are missing; recovery refuses "
            "this directory");
    }

    // --- pre-chain snapshot.bin: recovery refuses the directory ---
    if (fs::exists(dir / kLegacySnapshotName, ec)) {
        report.ok = false;
        report.issues.push_back(
            "pre-chain snapshot.bin present (CSV payload, unreadable "
            "by this build): recovery refuses this directory");
    }
    return report;
}

} // namespace nazar::persist
