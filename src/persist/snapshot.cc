#include "persist/snapshot.h"

#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "obs/metrics.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kChainMagic[8] = {'N', 'Z', 'C', 'H', 'N', '1', 0, 0};
/** The header's kind byte: 1 = full, the only kind written or read. */
constexpr uint8_t kFullKind = 1;

/** Read an entire file ("" when absent or unreadable). */
std::string
slurpFile(const fs::path &path)
{
    std::FILE *f = std::fopen(path.string().c_str(), "rb");
    if (!f)
        return std::string();
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    if (std::ferror(f))
        bytes.clear();
    std::fclose(f);
    return bytes;
}

/**
 * The rename-on-commit sequence every snapshot artifact uses: write
 * @p bytes to @p tmp, fsync it, rename onto @p final, fsync the
 * directory. Without the two fsyncs a "committed" file can be empty
 * or missing after power loss — the Env's kLostFile / kLostRename
 * faults regression-test exactly that.
 */
void
writeFileAtomic(const fs::path &tmp, const fs::path &final,
                const std::string &bytes, CrashInjector &injector,
                Env &env)
{
    FileGuard guard{env, env.open("env.snap.create", tmp, "wb")};
    if (injector.fires("snapshot.tmp.partial")) {
        // Torn tmp file: roughly half the bytes. Harmless — recovery
        // never reads tmp files, and the next open removes them.
        std::fwrite(bytes.data(), 1, bytes.size() / 2, guard.f->fp);
        std::fflush(guard.f->fp);
        guard.closeNow();
        throw CrashInjected("snapshot.tmp.partial", injector.hitCount());
    }
    env.write("env.snap.write", guard.f, bytes.data(), bytes.size());
    // fsync BEFORE the rename: the commit must never point at data
    // pages that were still dirty when the name changed.
    env.sync("env.snap.sync", guard.f, /*deep=*/2);
    guard.closeNow();
    // Crash here leaves a complete tmp that was never committed; the
    // old snapshot (or the bare WAL) still fully describes the state.
    injector.check("snapshot.tmp.done");

    env.rename("env.snap.rename", tmp, final); // commit point
    fs::path parent = final.parent_path();
    env.syncDir("env.snap.dirsync",
                parent.empty() ? fs::path(".") : parent);
    obs::Registry::global().counter("persist.snapshot.writes").add(1);
    obs::Registry::global()
        .counter("persist.snapshot.bytes")
        .add(bytes.size());
    // Crash here: the snapshot is committed but the WAL has not been
    // truncated yet. Replay skips records with seq <= lastWalSeq, so
    // nothing is double-applied.
    injector.check("snapshot.rename.post");
}

/** Byte offsets of the header fields known only after the payload. */
constexpr size_t kPayloadLenAt = sizeof(kChainMagic) + 1 + 8 + 8 + 4 + 8;
constexpr size_t kPayloadCrcAt = kPayloadLenAt + 8;
constexpr size_t kChainHeaderSize = kPayloadCrcAt + 4;

/** Append the file header; payloadLen and payloadCrc are filled in by
 *  commitChainFile once the payload follows. */
void
putChainHeader(Writer &w, const ChainHeader &header)
{
    w.putBytes(kChainMagic, sizeof(kChainMagic));
    w.putU8(kFullKind);
    w.putU64(header.id);
    w.putU64(0); // baseId
    w.putU32(0); // baseCrc
    w.putU64(header.lastWalSeq);
    w.putU64(0); // payloadLen
    w.putU32(0); // payloadCrc
}

/** Seal @p file (a header from putChainHeader, then the payload) and
 *  write it as snapshot @p id. */
void
commitChainFile(const fs::path &dir, uint64_t id, Writer &file,
                CrashInjector &injector, Env &env)
{
    const std::string &bytes = file.bytes();
    const size_t payload_len = bytes.size() - kChainHeaderSize;
    file.putU64At(kPayloadLenAt, payload_len);
    file.putU32At(kPayloadCrcAt,
                  crc32(bytes.data() + kChainHeaderSize, payload_len));
    std::string name = chainFileName(id);
    writeFileAtomic(dir / (name + ".tmp"), dir / name, bytes, injector,
                    env);
}

} // namespace

void
encodeSnapshot(Writer &w, const CloudState &data)
{
    w.putU64(kSnapshotFormatTag);
    w.putU64(data.lastWalSeq);
    w.putI64(data.logicalTime);
    w.putI64(data.nextVersionId);
    w.putU64(data.totalIngested);
    w.putU64(data.dedupHits);
    putTableImage(w, data.driftLog.table());
    w.putU64(data.uploads.size());
    for (const auto &up : data.uploads)
        putUpload(w, up);
    w.putU64(data.dedup.size());
    for (const auto &[device, window] : data.dedup) {
        w.putI64(device);
        w.putU64(window.floor);
        w.putU64(window.seen.size());
        for (uint64_t seq : window.seen)
            w.putU64(seq);
    }
    w.putU64(data.blobs.blobCount());
    for (const auto &[key, blob] : data.blobs) {
        w.putString(key);
        w.putString(blob);
    }
    w.putBool(data.cleanPatchText.has_value());
    if (data.cleanPatchText.has_value()) {
        w.putString(*data.cleanPatchText);
        w.putI64(data.cleanPatchTime);
    }
}

std::string
encodeSnapshot(const CloudState &data)
{
    Writer w;
    encodeSnapshot(w, data);
    return w.take();
}

CloudState
decodeSnapshot(const std::string &payload)
{
    Reader r(payload);
    uint64_t tag = r.getU64();
    if (tag != kSnapshotFormatTag) {
        char hex[19];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(tag));
        throw NazarError(std::string("persist: snapshot payload format "
                                     "tag ") +
                         hex + " is not the column-image tag NZIMG1 "
                               "(payloads that carry the drift log "
                               "as CSV are not readable)");
    }
    CloudState data;
    data.lastWalSeq = r.getU64();
    data.logicalTime = r.getI64();
    data.nextVersionId = r.getI64();
    data.totalIngested = r.getU64();
    data.dedupHits = r.getU64();
    data.driftLog = driftlog::DriftLog::fromTable(
        getTableImage(r, data.driftLog.table().schema()));
    uint64_t uploads = r.getU64();
    for (uint64_t i = 0; i < uploads; ++i)
        data.uploads.push_back(getUpload(r));
    uint64_t devices = r.getU64();
    for (uint64_t i = 0; i < devices; ++i) {
        int64_t device = r.getI64();
        DedupWindow window;
        window.floor = r.getU64();
        uint64_t seen = r.getU64();
        NAZAR_CHECK(seen * 8 <= r.remaining(),
                    "persist: dedup window exceeds snapshot");
        for (uint64_t s = 0; s < seen; ++s)
            window.seen.insert(window.seen.end(), r.getU64());
        data.dedup.emplace(device, std::move(window));
    }
    uint64_t blobs = r.getU64();
    for (uint64_t i = 0; i < blobs; ++i) {
        std::string key = r.getString();
        data.blobs.put(key, r.getString());
    }
    if (r.getBool()) {
        data.cleanPatchText = r.getString();
        data.cleanPatchTime = r.getI64();
    }
    NAZAR_CHECK(r.atEnd(), "persist: trailing bytes in snapshot payload");
    return data;
}

std::string
chainFileName(uint64_t id)
{
    std::string digits = std::to_string(id);
    if (digits.size() < 6)
        digits.insert(0, 6 - digits.size(), '0');
    return "snap-" + digits + ".full";
}

std::optional<uint64_t>
parseChainFileName(const std::string &name)
{
    if (name.size() < 11 || !name.starts_with("snap-") ||
        !name.ends_with(".full"))
        return std::nullopt;
    uint64_t id = 0;
    for (size_t i = 5; i < name.size() - 5; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return std::nullopt;
        id = id * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    return id;
}

void
writeChainFile(const fs::path &dir, const ChainHeader &header,
               const std::string &payload, CrashInjector &injector,
               Env &env)
{
    Writer w;
    putChainHeader(w, header);
    w.putBytes(payload.data(), payload.size());
    commitChainFile(dir, header.id, w, injector, env);
}

void
writeSnapshotFile(const fs::path &dir, const ChainHeader &header,
                  const CloudState &data, Writer &buf,
                  CrashInjector &injector, Env &env)
{
    buf.clear();
    putChainHeader(buf, header);
    encodeSnapshot(buf, data);
    commitChainFile(dir, header.id, buf, injector, env);
}

std::optional<ChainFile>
loadChainFile(const fs::path &path)
{
    std::string bytes = slurpFile(path);
    if (bytes.size() < kChainHeaderSize ||
        std::memcmp(bytes.data(), kChainMagic, sizeof(kChainMagic)) != 0)
        return std::nullopt;
    try {
        Reader r(bytes.data() + sizeof(kChainMagic),
                 kChainHeaderSize - sizeof(kChainMagic));
        ChainFile out;
        if (r.getU8() != kFullKind)
            return std::nullopt;
        out.header.id = r.getU64();
        r.getU64(); // baseId
        r.getU32(); // baseCrc
        out.header.lastWalSeq = r.getU64();
        uint64_t len = r.getU64();
        out.header.payloadCrc = r.getU32();
        if (bytes.size() - kChainHeaderSize != len)
            return std::nullopt; // torn or trailing garbage
        if (crc32(bytes.data() + kChainHeaderSize,
                  static_cast<size_t>(len)) != out.header.payloadCrc)
            return std::nullopt;
        out.payload = bytes.substr(kChainHeaderSize);
        return out;
    } catch (const NazarError &) {
        return std::nullopt;
    }
}

} // namespace nazar::persist
