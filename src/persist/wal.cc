#include "persist/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "persist/serial.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

struct SlurpResult
{
    std::string data;
    /** Exists but can't be read — NOT the same as absent. */
    bool unreadable = false;
};

/** Read an entire file into a string ("" when absent). */
SlurpResult
slurp(const fs::path &path)
{
    SlurpResult out;
    errno = 0;
    std::FILE *f = std::fopen(path.string().c_str(), "rb");
    if (!f) {
        // ENOENT means a fresh directory; anything else (EACCES,
        // EIO, ...) means a file we must not pretend is absent.
        out.unreadable = errno != ENOENT;
        return out;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.data.append(buf, n);
    if (std::ferror(f)) {
        // fopen on a directory succeeds on Linux but fread fails
        // with EISDIR; media errors surface the same way.
        out.unreadable = true;
        out.data.clear();
    }
    std::fclose(f);
    return out;
}

/** Parse @p data up to its torn tail. */
WalScan
parseWal(const std::string &data)
{
    WalScan scan;
    if (data.size() < sizeof(Wal::kMagic) ||
        std::memcmp(data.data(), Wal::kMagic, sizeof(Wal::kMagic)) != 0) {
        scan.truncatedBytes = data.size();
        return scan;
    }
    scan.validHeader = true;
    size_t pos = sizeof(Wal::kMagic);
    scan.validBytes = pos;
    while (data.size() - pos >= 8) {
        Reader head(data.data() + pos, 8);
        uint32_t len = head.getU32();
        uint32_t crc = head.getU32();
        if (data.size() - pos - 8 < len)
            break; // short body: torn tail
        const char *body = data.data() + pos + 8;
        if (crc32(body, len) != crc)
            break; // bit rot or torn rewrite
        if (len < 9)
            break; // body must hold at least type + seq
        Reader r(body, len);
        WalRecord rec;
        rec.type = static_cast<WalRecordType>(r.getU8());
        rec.seq = r.getU64();
        if (rec.type != WalRecordType::kIngest &&
            rec.type != WalRecordType::kCycleCommit &&
            rec.type != WalRecordType::kFlush &&
            rec.type != WalRecordType::kRegistryGc)
            break; // unknown type: treat as corruption
        if (rec.seq <= scan.lastSeq)
            break; // seqs are strictly increasing
        rec.payload.assign(body + 9, len - 9);
        scan.lastSeq = rec.seq;
        scan.records.push_back(std::move(rec));
        pos += 8 + len;
        scan.validBytes = pos;
    }
    scan.truncatedBytes = data.size() - scan.validBytes;
    return scan;
}

} // namespace

SyncMode
syncModeFromString(const std::string &name)
{
    if (name == "flush")
        return SyncMode::kFlush;
    if (name == "fdatasync")
        return SyncMode::kFdatasync;
    if (name == "fsync")
        return SyncMode::kFsync;
    throw NazarError("unknown sync mode '" + name +
                     "' (expected flush|fdatasync|fsync)");
}

const char *
syncModeName(SyncMode mode)
{
    switch (mode) {
    case SyncMode::kFlush:
        return "flush";
    case SyncMode::kFdatasync:
        return "fdatasync";
    case SyncMode::kFsync:
        return "fsync";
    }
    return "?";
}

WalScan
Wal::scan(const fs::path &path)
{
    SlurpResult slurped = slurp(path);
    WalScan scan = parseWal(slurped.data);
    scan.unreadable = slurped.unreadable;
    return scan;
}

Wal::Wal(const fs::path &path, CrashInjector *injector, SyncMode sync,
         Env *env)
    : Wal(path, scan(path), injector, sync, env)
{
}

Wal::Wal(const fs::path &path, const WalScan &scan,
         CrashInjector *injector, SyncMode sync, Env *env,
         uint64_t last_seq)
    : path_(path), injector_(injector), sync_(sync)
{
    NAZAR_CHECK(injector_ != nullptr, "Wal: null crash injector");
    if (env == nullptr) {
        ownedEnv_ = std::make_unique<Env>();
        env = ownedEnv_.get();
    }
    env_ = env;
    NAZAR_CHECK(!scan.unreadable,
                "Wal: " + path_.string() +
                    " exists but cannot be read; refusing to "
                    "overwrite it");
    truncatedBytes_ = scan.truncatedBytes;
    nextSeq_ = std::max(scan.lastSeq, last_seq) + 1;
    if (!scan.validHeader) {
        // Absent or unrecognizable file: start fresh with a header,
        // made durable (file + directory entry) before any record
        // relies on it. The guard closes the file if that throws:
        // ~Wal does not run for a constructor that never returned.
        FileGuard guard{*env_, env_->open("env.wal.open", path_, "wb")};
        env_->write("env.wal.write", guard.f, kMagic, sizeof(kMagic));
        env_->sync("env.wal.sync", guard.f, syncDepth());
        env_->syncDir("env.wal.dirsync", parentDir());
        file_ = std::exchange(guard.f, nullptr);
        return;
    }
    if (truncatedBytes_ > 0) {
        env_->resize("env.wal.truncate", path_, scan.validBytes);
        obs::Registry::global()
            .counter("persist.wal.torn_bytes")
            .add(truncatedBytes_);
    }
    file_ = env_->open("env.wal.open", path_, "ab");
}

Wal::~Wal()
{
    if (file_ != nullptr)
        env_->close(file_);
}

int
Wal::syncDepth() const
{
    switch (sync_) {
    case SyncMode::kFlush:
        return 0;
    case SyncMode::kFdatasync:
        return 1;
    case SyncMode::kFsync:
        return 2;
    }
    return 0;
}

fs::path
Wal::parentDir() const
{
    fs::path parent = path_.parent_path();
    return parent.empty() ? fs::path(".") : parent;
}

uint64_t
Wal::append(WalRecordType type, std::string_view payload)
{
    uint64_t seq = appendBuffered(type, payload);
    sync();
    return seq;
}

uint64_t
Wal::appendBuffered(WalRecordType type, std::string_view payload)
{
    // [u32 len][u32 crc] placeholders, then the body, then the two
    // fields patched in: one buffer per record, reused.
    frame_.clear();
    frame_.putU32(0);
    frame_.putU32(0);
    frame_.putU8(static_cast<uint8_t>(type));
    frame_.putU64(nextSeq_);
    frame_.putBytes(payload.data(), payload.size());
    const std::string &bytes = frame_.bytes();
    const size_t body = bytes.size() - 8;
    frame_.putU32At(0, static_cast<uint32_t>(body));
    frame_.putU32At(4, crc32(bytes.data() + 8, body));

    if (injector_->fires("wal.append.partial")) {
        // Torn write: the frame header plus roughly half the body
        // reaches disk before the "process" dies. The record fails
        // its CRC on reopen, so the operation was never durable.
        size_t torn = 8 + (body + 1) / 2;
        std::fwrite(bytes.data(), 1, torn, file_->fp);
        std::fflush(file_->fp);
        throw CrashInjected("wal.append.partial", injector_->hitCount());
    }
    env_->write("env.wal.write", file_, bytes.data(), bytes.size());
    uint64_t seq = nextSeq_++;
    obs::Registry::global().counter("persist.wal.appends").add(1);
    return seq;
}

void
Wal::sync()
{
    env_->sync("env.wal.sync", file_, syncDepth());
    obs::Registry::global().counter("persist.wal.syncs").add(1);
    injector_->check("wal.append.post");
}

void
Wal::truncateAll()
{
    env_->close(file_);
    file_ = nullptr;
    env_->resize("env.wal.truncate", path_, sizeof(kMagic));
    file_ = env_->open("env.wal.open", path_, "ab");
    env_->syncDir("env.wal.dirsync", parentDir());
    obs::Registry::global().counter("persist.wal.truncations").add(1);
    injector_->check("wal.truncate.post");
}

} // namespace nazar::persist
