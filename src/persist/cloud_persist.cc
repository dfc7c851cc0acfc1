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

/** Decode one kIngest record and apply it as the live cloud did. */
void
replayIngest(CloudState &st, Reader &r, size_t dedup_window)
{
    uint8_t flags = r.getU8();
    int64_t device = r.getI64();
    IngestMessage m;
    m.device = (flags & kFlagFromDevice) ? static_cast<int>(device) : -1;
    m.seq = r.getU64();
    driftlog::DriftLogEntry entry = getEntry(r);
    m.entry = &entry;
    if (flags & kFlagHasUpload)
        m.upload = getUpload(r);
    applyIngest(st, m, dedup_window);
}

void
replayCycleCommit(CloudState &st, Reader &r)
{
    st.logicalTime = r.getI64();
    st.nextVersionId = r.getI64();
    if (r.getBool()) {
        st.cleanPatchText = r.getString();
        st.cleanPatchTime = r.getI64();
    }
    deploy::ModelRegistry registry(st.blobs);
    uint32_t versions = r.getU32();
    for (uint32_t i = 0; i < versions; ++i) {
        int64_t id = r.getI64();
        std::string meta = r.getString();
        registry.restore(id, std::move(meta), r.getString());
    }
    // The committed cycle archived everything it claimed.
    applyFlush(st);
}

void
applyWalRecord(CloudState &st, const WalRecord &rec, size_t dedup_window)
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
        applyFlush(st);
        break;
      case WalRecordType::kRegistryGc:
        applyRegistryGc(st, r.getI64());
        break;
    }
}

/** A `snap-<id>.delta`: a delta snapshot, which this build cannot read. */
bool
isDeltaFileName(const std::string &name)
{
    return name.starts_with("snap-") && name.ends_with(".delta");
}

/** What readStateDir found in a state directory. */
struct DirRead
{
    /** Why recovery refuses the directory, in the order it checks;
     *  empty when it recovers. */
    std::vector<std::string> refusals;
    /** Every `snap-<id>.full`, by id. */
    std::map<uint64_t, fs::path> snapshots;
    /** Header and payload size of the newest snapshot, when it loaded
     *  and decoded. */
    std::optional<ChainHeader> head;
    uint64_t headBytes = 0;
    WalScan wal;
};

/**
 * Read @p dir as recovery does, changing nothing: decode its newest
 * snapshot into @p st, scan its WAL, and list every reason recovery
 * refuses the directory. Each refusal is a file whose state is nowhere
 * else, so recovering without it would silently drop that state:
 *  - a pre-chain snapshot.bin (its drift log is CSV, a payload this
 *    build cannot read);
 *  - a delta snapshot (it archived WAL records that were then
 *    truncated from the WAL);
 *  - a newest snapshot file that fails its header or CRC check, or
 *    does not decode (the WAL was truncated when it committed, and no
 *    crash leaves a committed file torn);
 *  - a WAL that exists but cannot be read;
 *  - a WAL whose first record lies above the snapshot's cut (seqs
 *    keep counting across truncation, so a gap means the snapshot
 *    that held the records in between is missing).
 * Recovery throws the first; scrub reports them all.
 */
DirRead
readStateDir(const fs::path &dir, CloudState &st)
{
    DirRead d;
    std::error_code ec;
    if (fs::exists(dir / kLegacySnapshotName, ec))
        d.refusals.push_back((dir / kLegacySnapshotName).string() +
                             " is a pre-chain snapshot (drift log as "
                             "CSV, no NZIMG1 format tag) that this build "
                             "cannot read");
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (isDeltaFileName(name))
            d.refusals.push_back(entry.path().string() +
                                 " is a delta snapshot, which this build "
                                 "no longer reads; the WAL records it "
                                 "archived are in no other file");
        else if (auto id = parseChainFileName(name))
            d.snapshots.emplace(*id, entry.path());
    }
    if (!d.snapshots.empty()) {
        const auto &[id, path] = *d.snapshots.rbegin();
        std::optional<ChainFile> head = loadChainFile(path);
        if (!head.has_value() || head->header.id != id) {
            d.refusals.push_back(path.string() +
                                 " is the newest snapshot but fails its "
                                 "header or CRC check; the WAL records it "
                                 "holds were truncated when it committed");
        } else {
            try {
                st = decodeSnapshot(head->payload);
                st.lastWalSeq =
                    std::max(st.lastWalSeq, head->header.lastWalSeq);
                d.head = head->header;
                d.headBytes = head->payload.size();
            } catch (const NazarError &e) {
                d.refusals.push_back(path.string() +
                                     " is the newest snapshot but its "
                                     "payload does not decode: " +
                                     e.what());
            }
        }
    }
    const fs::path wal_path = dir / "wal.log";
    d.wal = Wal::scan(wal_path);
    const auto &records = d.wal.records;
    if (d.wal.unreadable) {
        d.refusals.push_back(wal_path.string() +
                             " exists but cannot be read");
    } else if ((d.snapshots.empty() || d.head.has_value()) &&
               !records.empty() &&
               records.front().seq > st.lastWalSeq + 1) {
        d.refusals.push_back(
            wal_path.string() + " starts at seq " +
            std::to_string(records.front().seq) + " but " +
            (d.head.has_value() ? "the newest snapshot ends at seq " +
                                      std::to_string(st.lastWalSeq)
                                : std::string("there is no snapshot")) +
            "; the records in between are in no file");
    }
    return d;
}

/**
 * The read-only part of every recovery: read @p dir into @p st, refuse
 * it (NazarError, touching nothing) for readStateDir's first refusal,
 * and replay the WAL records above the snapshot's cut. Returns what
 * was read, so an open can position the WAL without reading it again.
 */
DirRead
replayStateDir(const fs::path &dir, size_t dedup_window, CloudState &st,
               RecoveryStats &stats)
{
    DirRead d = readStateDir(dir, st);
    if (!d.refusals.empty())
        throw NazarError("recover: " + d.refusals.front() +
                         "; refusing to recover");
    stats.snapshotLoaded = d.head.has_value();
    stats.truncatedBytes = d.wal.truncatedBytes;
    for (const auto &rec : d.wal.records) {
        if (rec.seq <= st.lastWalSeq)
            continue; // already inside the snapshot
        applyWalRecord(st, rec, dedup_window);
        st.lastWalSeq = rec.seq;
        ++stats.replayedRecords;
    }
    return d;
}

/** Append @p m's kIngest payload to @p w. */
void
encodeIngest(Writer &w, const IngestMessage &m)
{
    uint8_t flags = 0;
    if (m.upload.has_value())
        flags |= kFlagHasUpload;
    if (m.device >= 0)
        flags |= kFlagFromDevice;
    w.putU8(flags);
    w.putI64(m.device);
    w.putU64(m.seq);
    putEntry(w, *m.entry);
    if (m.upload.has_value())
        putUpload(w, *m.upload);
}

} // namespace

bool
applyIngest(CloudState &state, IngestMessage &m, size_t dedup_window)
{
    if (m.device >= 0 &&
        !state.dedup[m.device].admit(m.seq, dedup_window)) {
        ++state.dedupHits;
        return false;
    }
    state.driftLog.add(*m.entry);
    ++state.totalIngested;
    if (m.upload.has_value())
        state.uploads.push_back(std::move(*m.upload));
    return true;
}

void
applyFlush(CloudState &state)
{
    state.driftLog.clear();
    state.uploads.clear();
}

size_t
applyRegistryGc(CloudState &state, int64_t min_version_id)
{
    return deploy::ModelRegistry(state.blobs).evictBelow(min_version_id);
}

RecoveredState
recoverDir(const fs::path &dir, size_t dedup_window)
{
    RecoveredState st;
    replayStateDir(dir, dedup_window, st, st);
    return st;
}

CloudPersistence::CloudPersistence(const PersistConfig &config,
                                   size_t dedup_window, CloudState &state)
    : config_(config)
{
    NAZAR_SPAN("persist.recover");
    NAZAR_CHECK(config_.enabled(),
                "CloudPersistence requires a state directory");
    fs::create_directories(config_.dir);
    injector_.armAtHit(config_.crashAtHit);
    env_.arm(config_.fault);

    fs::path dir(config_.dir);
    const DirRead read =
        replayStateDir(dir, dedup_window, state, recovery_);
    chainHeadId_ = read.head.has_value() ? read.head->id : 0;
    // Only now may a file change: opening the WAL cuts at most its
    // torn tail, which no one was acknowledged for.
    wal_ = std::make_unique<Wal>(dir / "wal.log", read.wal, &injector_,
                                 config_.sync, &env_, state.lastWalSeq);
    if (recovery_.snapshotLoaded)
        obs::Registry::global()
            .counter("persist.recover.snapshot_loads")
            .add(1);
    obs::Registry::global()
        .counter("persist.recover.replayed_records")
        .add(recovery_.replayedRecords);

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
}

uint64_t
CloudPersistence::append(WalRecordType type, const std::string &payload)
{
    uint64_t seq = wal_->append(type, payload);
    ++appendsSince_;
    return seq;
}

uint64_t
CloudPersistence::logIngestBatch(std::span<const IngestMessage> batch)
{
    if (batch.empty())
        return wal_->lastSeq();
    {
        NAZAR_SPAN("persist.wal.encode");
        ingestBuf_.clear();
        ingestEnds_.clear();
        for (const auto &m : batch) {
            encodeIngest(ingestBuf_, m);
            ingestEnds_.push_back(ingestBuf_.size());
        }
    }
    {
        NAZAR_SPAN("persist.wal.append");
        const std::string_view bytes = ingestBuf_.bytes();
        size_t begin = 0;
        for (size_t end : ingestEnds_) {
            wal_->appendBuffered(WalRecordType::kIngest,
                                 bytes.substr(begin, end - begin));
            begin = end;
        }
    }
    {
        NAZAR_SPAN("persist.wal.fsync");
        wal_->sync();
    }
    appendsSince_ += batch.size();
    obs::Registry::global()
        .counter("persist.wal.group_commits")
        .add(1);
    return wal_->lastSeq();
}

uint64_t
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
    return append(WalRecordType::kCycleCommit, w.bytes());
}

uint64_t
CloudPersistence::logFlush()
{
    return append(WalRecordType::kFlush, std::string());
}

uint64_t
CloudPersistence::logRegistryGc(int64_t min_version_id)
{
    Writer w;
    w.putI64(min_version_id);
    return append(WalRecordType::kRegistryGc, w.bytes());
}

bool
CloudPersistence::snapshotDue() const
{
    return config_.snapshotEvery > 0 &&
           appendsSince_ >= config_.snapshotEvery;
}

void
CloudPersistence::writeSnapshot(CloudState &state)
{
    NAZAR_SPAN("persist.snapshot");
    state.lastWalSeq = wal_->lastSeq();
    ChainHeader header;
    header.id = chainHeadId_ + 1;
    header.lastWalSeq = state.lastWalSeq;
    writeSnapshotFile(fs::path(config_.dir), header, state, snapshotBuf_,
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
    auto issue = [&report](std::string what) {
        report.ok = false;
        report.issues.push_back(std::move(what));
    };

    // --- everything recovery refuses ----------------------------------
    CloudState state;
    const DirRead d = readStateDir(dir, state);
    for (const auto &why : d.refusals)
        issue(why + ": recovery refuses this directory");

    // --- WAL: header, per-record CRC + seq monotonicity -------------
    const WalScan &wal = d.wal;
    if (!fs::exists(dir / "wal.log", ec)) {
        report.notes.push_back("no wal.log (fresh or empty state dir)");
    } else if (!wal.unreadable && !wal.validHeader) {
        issue("wal.log has no valid header");
    } else if (!wal.unreadable) {
        report.walRecords = wal.records.size();
        report.walTornBytes = wal.truncatedBytes;
        if (wal.truncatedBytes > 0)
            report.notes.push_back("wal.log has a torn tail of " +
                                   std::to_string(wal.truncatedBytes) +
                                   " bytes (recovery truncates it)");
    }

    // --- snapshot files: the newest was read above; the superseded
    // ones must still pass magic, CRC and filename/header agreement --
    for (const auto &[id, path] : d.snapshots) {
        const std::string name = path.filename().string();
        if (id == d.snapshots.rbegin()->first) {
            if (d.head.has_value()) {
                ++report.chainFiles;
                report.chainBytes += d.headBytes;
            }
            continue;
        }
        auto loaded = loadChainFile(path);
        if (!loaded.has_value()) {
            issue("corrupt snapshot file: " + name);
        } else if (loaded->header.id != id) {
            issue("snapshot file header disagrees with filename: " + name);
        } else {
            ++report.chainFiles;
            report.chainBytes += loaded->payload.size();
        }
    }
    if (report.chainFiles > 1)
        report.notes.push_back(std::to_string(report.chainFiles - 1) +
                               " superseded snapshot file(s) awaiting GC");
    if (d.head.has_value() && report.walRecords > 0 && report.ok) {
        uint64_t stale = 0;
        for (const auto &rec : wal.records)
            if (rec.seq <= d.head->lastWalSeq)
                ++stale;
        if (stale > 0)
            report.notes.push_back(
                std::to_string(stale) +
                " WAL record(s) already inside the snapshot (crash "
                "before truncation; replay skips them)");
    }
    return report;
}

} // namespace nazar::persist
