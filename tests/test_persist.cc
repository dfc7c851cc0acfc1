/**
 * @file
 * Tests for the durability layer: serialization, WAL torn-tail
 * handling, snapshot atomicity, crash-point injection, and the
 * headline property — an exhaustive sweep that crashes the cloud at
 * every write boundary of a scripted scenario, reopens the state
 * directory, and asserts recovery matches a never-crashed oracle.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "persist/cloud_persist.h"
#include "persist/crash_point.h"
#include "persist/serial.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "sim/cloud.h"

namespace nazar::persist {
namespace {

namespace fs = std::filesystem;

/** Unique scratch directory under the test's CWD, removed on exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path = fs::current_path() /
               ("persist_test_" + tag + "_" + std::to_string(counter++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

struct QuietLogs : ::testing::Test
{
    QuietLogs() { setLogLevel(LogLevel::kSilent); }
    ~QuietLogs() override { setLogLevel(LogLevel::kInfo); }
};

// ---- serial ---------------------------------------------------------

TEST(Serial, Crc32KnownVector)
{
    // The standard check value for reflected 0xEDB88320.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    uint32_t inc = crc32Update(0, "1234", 4);
    inc = crc32Update(inc, "56789", 5);
    EXPECT_EQ(inc, 0xCBF43926u);
}

/**
 * Bytewise reference CRC32 (reflected 0xEDB88320, one table lookup per
 * byte): the loop the library ran before slice-by-8, kept here as the
 * oracle the sliced version must match bit for bit.
 */
uint32_t
crc32Bytewise(const void *data, size_t len)
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

TEST(Serial, Crc32SlicedMatchesBytewiseReference)
{
    EXPECT_EQ(crc32Bytewise("123456789", 9), 0xCBF43926u);
    Rng rng(4242);
    std::vector<unsigned char> buf(300 + 8);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.index(256));
    // Every length 0..300 from every offset mod 8, so the sliced loop
    // meets each head/tail split and each load alignment; plus a
    // chunked feed through crc32Update at an arbitrary cut.
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len <= 300; ++len) {
            const unsigned char *p = buf.data() + align;
            uint32_t want = crc32Bytewise(p, len);
            ASSERT_EQ(crc32(p, len), want)
                << "align " << align << " len " << len;
            size_t cut = (len * 5) / 7;
            ASSERT_EQ(crc32Update(crc32(p, cut), p + cut, len - cut), want)
                << "align " << align << " len " << len << " cut " << cut;
        }
    }
    // Random buffers of random sizes, well past one 8-byte slice.
    for (int i = 0; i < 200; ++i) {
        std::string bytes(rng.index(5000), '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.index(256));
        ASSERT_EQ(crc32(bytes.data(), bytes.size()),
                  crc32Bytewise(bytes.data(), bytes.size()));
    }
}

TEST(Serial, WordWritersEmitLittleEndianBytes)
{
    // Whole-word appends must produce the byte-at-a-time encoding.
    Writer w;
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putF64(-2.0); // 0xC000000000000000
    const uint32_t block[] = {1u, 0x80000000u, 0xA1B2C3D4u};
    w.putU32Block(block, 3);
    const std::string want(
        "\xEF\xBE\xAD\xDE"
        "\xEF\xCD\xAB\x89\x67\x45\x23\x01"
        "\x00\x00\x00\x00\x00\x00\x00\xC0"
        "\x01\x00\x00\x00\x00\x00\x00\x80\xD4\xC3\xB2\xA1",
        32);
    EXPECT_EQ(w.bytes(), want);
    Reader r(w.bytes());
    r.skip(20);
    uint32_t back[3];
    r.getU32Block(back, 3);
    EXPECT_TRUE(std::equal(back, back + 3, block));
    EXPECT_TRUE(r.atEnd());
    Reader shortRead(w.bytes());
    shortRead.skip(24);
    EXPECT_THROW(shortRead.getU32Block(back, 3), NazarError);
}

TEST(Serial, ScalarRoundTrip)
{
    Writer w;
    w.putU8(200);
    w.putBool(true);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putF64(-0.1);
    w.putString(std::string("hello\0world", 11)); // embedded NUL survives
    Reader r(w.bytes());
    EXPECT_EQ(r.getU8(), 200);
    EXPECT_TRUE(r.getBool());
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getF64(), -0.1);
    EXPECT_EQ(r.getString(), std::string("hello\0world", 11));
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, DoubleBitPatternsSurvive)
{
    const double values[] = {
        0.0, -0.0, 1.0 / 3.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
    };
    Writer w;
    for (double v : values)
        w.putF64(v);
    Reader r(w.bytes());
    for (double v : values) {
        double got = r.getF64();
        uint64_t a, b;
        std::memcpy(&a, &v, 8);
        std::memcpy(&b, &got, 8);
        EXPECT_EQ(a, b);
    }
}

TEST(Serial, ReaderThrowsOnUnderrun)
{
    Writer w;
    w.putU32(7);
    Reader r(w.bytes());
    EXPECT_EQ(r.getU32(), 7u);
    EXPECT_THROW(r.getU32(), NazarError);
    // A declared string length past the end must not allocate blindly.
    Writer w2;
    w2.putU64(1ull << 40);
    Reader r2(w2.bytes());
    EXPECT_THROW(r2.getString(), NazarError);
}

TEST(Serial, ValueAndAttributeSetRoundTrip)
{
    Writer w;
    putValue(w, driftlog::Value());
    putValue(w, driftlog::Value(static_cast<int64_t>(-5)));
    putValue(w, driftlog::Value(2.5));
    putValue(w, driftlog::Value(true));
    putValue(w, driftlog::Value(std::string("snow")));
    rca::AttributeSet attrs({
        {"weather", driftlog::Value(std::string("snow"))},
        {"device_id", driftlog::Value(std::string("android_3"))},
    });
    putAttributeSet(w, attrs);

    Reader r(w.bytes());
    EXPECT_TRUE(getValue(r).isNull());
    EXPECT_EQ(getValue(r).asInt(), -5);
    EXPECT_EQ(getValue(r).asDouble(), 2.5);
    EXPECT_EQ(getValue(r).asBool(), true);
    EXPECT_EQ(getValue(r).asString(), "snow");
    EXPECT_EQ(getAttributeSet(r), attrs);
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, EntryAndUploadRoundTrip)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(5, 12345);
    e.deviceId = "android_7";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "snow";
    e.modelVersion = 42;
    e.drift = true;
    UploadRecord u;
    u.features = {1.0, -2.5, 0.0};
    u.context = rca::AttributeSet(
        {{"weather", driftlog::Value(std::string("snow"))}});
    u.driftFlag = true;

    Writer w;
    putEntry(w, e);
    putUpload(w, u);
    Reader r(w.bytes());
    driftlog::DriftLogEntry e2 = getEntry(r);
    EXPECT_EQ(e2.time.dayIndex(), e.time.dayIndex());
    EXPECT_EQ(e2.time.toDateTimeString(), e.time.toDateTimeString());
    EXPECT_EQ(e2.deviceId, e.deviceId);
    EXPECT_EQ(e2.deviceModel, e.deviceModel);
    EXPECT_EQ(e2.location, e.location);
    EXPECT_EQ(e2.weather, e.weather);
    EXPECT_EQ(e2.modelVersion, e.modelVersion);
    EXPECT_EQ(e2.drift, e.drift);
    UploadRecord u2 = getUpload(r);
    EXPECT_EQ(u2.features, u.features);
    EXPECT_EQ(u2.context, u.context);
    EXPECT_EQ(u2.driftFlag, u.driftFlag);
    EXPECT_TRUE(r.atEnd());
}

// ---- WAL ------------------------------------------------------------

TEST(WalTest, AppendScanRoundTrip)
{
    TempDir dir("wal_rt");
    fs::path log = dir.path / "wal.log";
    CrashInjector injector;
    {
        Wal wal(log, &injector);
        EXPECT_EQ(wal.append(WalRecordType::kIngest, "alpha"), 1u);
        EXPECT_EQ(wal.append(WalRecordType::kCycleCommit, "beta"), 2u);
        EXPECT_EQ(wal.append(WalRecordType::kFlush, ""), 3u);
        EXPECT_EQ(wal.lastSeq(), 3u);
    }
    WalScan scan = Wal::scan(log);
    EXPECT_TRUE(scan.validHeader);
    EXPECT_EQ(scan.truncatedBytes, 0u);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, WalRecordType::kIngest);
    EXPECT_EQ(scan.records[0].payload, "alpha");
    EXPECT_EQ(scan.records[2].seq, 3u);

    // Reopening resumes the sequence counter after the existing tail.
    Wal wal(log, &injector);
    EXPECT_EQ(wal.records().size(), 3u);
    EXPECT_EQ(wal.append(WalRecordType::kIngest, "gamma"), 4u);
}

TEST(WalTest, TornTailIsTruncatedOnOpen)
{
    TempDir dir("wal_torn");
    fs::path log = dir.path / "wal.log";
    CrashInjector injector;
    {
        Wal wal(log, &injector);
        wal.append(WalRecordType::kIngest, "good record");
    }
    uintmax_t good_size = fs::file_size(log);
    {
        // Simulate a crash mid-append: a frame header promising more
        // bytes than the file holds.
        std::ofstream torn(log, std::ios::binary | std::ios::app);
        const char garbage[] = "\xFF\xFF\x00\x00partial";
        torn.write(garbage, sizeof(garbage) - 1);
    }
    Wal wal(log, &injector);
    EXPECT_GT(wal.truncatedBytes(), 0u);
    ASSERT_EQ(wal.records().size(), 1u);
    EXPECT_EQ(wal.records()[0].payload, "good record");
    EXPECT_EQ(fs::file_size(log), good_size);
    // The log stays appendable after truncation.
    EXPECT_EQ(wal.append(WalRecordType::kFlush, ""), 2u);
}

TEST(WalTest, CorruptRecordMarksTear)
{
    TempDir dir("wal_corrupt");
    fs::path log = dir.path / "wal.log";
    CrashInjector injector;
    {
        Wal wal(log, &injector);
        wal.append(WalRecordType::kIngest, "first");
        wal.append(WalRecordType::kIngest, "second");
    }
    // Flip one byte in the last record's payload: its CRC fails, so
    // the scan keeps only the records before it.
    uintmax_t size = fs::file_size(log);
    {
        std::fstream f(log,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(size) - 1);
        f.put('X');
    }
    WalScan scan = Wal::scan(log);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "first");
    EXPECT_GT(scan.truncatedBytes, 0u);
}

TEST(WalTest, TruncateAllKeepsSeqCounting)
{
    TempDir dir("wal_trunc");
    fs::path log = dir.path / "wal.log";
    CrashInjector injector;
    Wal wal(log, &injector);
    wal.append(WalRecordType::kIngest, "a");
    wal.append(WalRecordType::kIngest, "b");
    wal.truncateAll();
    EXPECT_EQ(Wal::scan(log).records.size(), 0u);
    // Seqs keep counting: snapshots rely on uniqueness across history.
    EXPECT_EQ(wal.append(WalRecordType::kIngest, "c"), 3u);
}

TEST(WalTest, ScanOfMissingFileIsInvalid)
{
    TempDir dir("wal_missing");
    WalScan scan = Wal::scan(dir.path / "absent.log");
    EXPECT_FALSE(scan.validHeader);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(scan.unreadable); // not-exists is a fresh start
}

TEST(WalTest, RefusesToClobberAnUnreadablePath)
{
    // A WAL path that exists but cannot be read (here: it is a
    // directory, which fopen()s but fails the first fread) must never
    // be silently overwritten — that would destroy the only copy of
    // the state it cannot parse.
    TempDir dir("wal_unreadable");
    fs::path log = dir.path / "wal.log";
    fs::create_directories(log);
    WalScan scan = Wal::scan(log);
    EXPECT_TRUE(scan.unreadable);
    CrashInjector injector;
    EXPECT_THROW(Wal(log, &injector), NazarError);
    EXPECT_TRUE(fs::exists(log)); // still there, untouched
}

TEST(WalTest, AppendBufferedPlusSyncEqualsPerRecordAppends)
{
    TempDir dir("wal_group");
    fs::path grouped_log = dir.path / "grouped.log";
    fs::path single_log = dir.path / "single.log";
    CrashInjector injector;
    {
        Wal grouped(grouped_log, &injector);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "a"),
                  1u);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "b"),
                  2u);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "c"),
                  3u);
        grouped.sync(); // one flush for the whole batch
    }
    {
        Wal single(single_log, &injector);
        single.append(WalRecordType::kIngest, "a");
        single.append(WalRecordType::kIngest, "b");
        single.append(WalRecordType::kIngest, "c");
    }
    // Same bytes on disk: group commit changes durability timing, not
    // the log's contents.
    std::ifstream g(grouped_log, std::ios::binary);
    std::ifstream s(single_log, std::ios::binary);
    std::string gb((std::istreambuf_iterator<char>(g)),
                   std::istreambuf_iterator<char>());
    std::string sb((std::istreambuf_iterator<char>(s)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(gb, sb);
    WalScan scan = Wal::scan(grouped_log);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[2].payload, "c");
}

TEST(WalTest, FdatasyncModeAppendsAndReplays)
{
    TempDir dir("wal_fsync");
    fs::path log = dir.path / "wal.log";
    CrashInjector injector;
    {
        Wal wal(log, &injector, SyncMode::kFdatasync);
        EXPECT_EQ(wal.syncMode(), SyncMode::kFdatasync);
        wal.append(WalRecordType::kIngest, "durable");
        wal.appendBuffered(WalRecordType::kIngest, "batched");
        wal.sync();
    }
    WalScan scan = Wal::scan(log);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].payload, "durable");
    EXPECT_EQ(scan.records[1].payload, "batched");
}

TEST(WalTest, SyncModeNamesRoundTrip)
{
    for (SyncMode mode :
         {SyncMode::kFlush, SyncMode::kFdatasync, SyncMode::kFsync})
        EXPECT_EQ(syncModeFromString(syncModeName(mode)), mode);
    EXPECT_THROW(syncModeFromString("bogus"), NazarError);
}

// ---- snapshots ------------------------------------------------------

SnapshotData
sampleSnapshot()
{
    SnapshotData data;
    data.lastWalSeq = 17;
    data.logicalTime = 3;
    data.nextVersionId = 9;
    data.totalIngested = 123;
    data.dedupHits = 4;
    driftlog::DriftLogEntry e;
    e.time = SimDate(2, 777);
    e.deviceId = "android_1";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "snow";
    e.drift = true;
    data.driftLog.add(e);
    e.time = SimDate(1, 5);
    e.weather = "fog";
    e.drift = false;
    data.driftLog.add(e); // out-of-order dictionary values
    UploadRecord u;
    u.features = {0.5, -1.0};
    u.context = rca::AttributeSet(
        {{"weather", driftlog::Value(std::string("snow"))}});
    u.driftFlag = true;
    data.uploads.push_back(u);
    data.dedup[3] = DedupWindow{2, {5, 6, 9}};
    data.blobs.emplace_back("versions/1/meta", "meta-bytes");
    data.blobs.emplace_back("versions/1/patch", "patch-bytes");
    data.cleanPatchText = "fake patch text";
    data.cleanPatchTime = 2;
    return data;
}

/** Same dictionaries, id vectors and null counts, column by column. */
void
expectTableImageEq(const driftlog::Table &a, const driftlog::Table &b)
{
    ASSERT_EQ(a.schema().columnCount(), b.schema().columnCount());
    EXPECT_EQ(a.rowCount(), b.rowCount());
    for (size_t c = 0; c < a.schema().columnCount(); ++c) {
        SCOPED_TRACE("column " + a.schema().column(c).name);
        EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
        EXPECT_EQ(a.column(c).type(), b.column(c).type());
        EXPECT_EQ(a.column(c).dictionary(), b.column(c).dictionary());
        EXPECT_EQ(a.column(c).ids(), b.column(c).ids());
        EXPECT_EQ(a.column(c).nullCount(), b.column(c).nullCount());
    }
}

void
expectSnapshotEq(const SnapshotData &a, const SnapshotData &b)
{
    EXPECT_EQ(a.lastWalSeq, b.lastWalSeq);
    EXPECT_EQ(a.logicalTime, b.logicalTime);
    EXPECT_EQ(a.nextVersionId, b.nextVersionId);
    EXPECT_EQ(a.totalIngested, b.totalIngested);
    EXPECT_EQ(a.dedupHits, b.dedupHits);
    expectTableImageEq(a.driftLog.table(), b.driftLog.table());
    ASSERT_EQ(a.uploads.size(), b.uploads.size());
    for (size_t i = 0; i < a.uploads.size(); ++i) {
        EXPECT_EQ(a.uploads[i].features, b.uploads[i].features);
        EXPECT_EQ(a.uploads[i].context, b.uploads[i].context);
        EXPECT_EQ(a.uploads[i].driftFlag, b.uploads[i].driftFlag);
    }
    EXPECT_EQ(a.dedup, b.dedup);
    EXPECT_EQ(a.blobs, b.blobs);
    EXPECT_EQ(a.cleanPatchText, b.cleanPatchText);
    EXPECT_EQ(a.cleanPatchTime, b.cleanPatchTime);
}

TEST(SnapshotTest, EncodeDecodeRoundTrip)
{
    SnapshotData data = sampleSnapshot();
    SnapshotData back = decodeSnapshot(encodeSnapshot(data));
    expectSnapshotEq(data, back);
}

TEST(SnapshotTest, FileRoundTripAndCorruptionFallback)
{
    TempDir dir("snap");
    CrashInjector injector;
    Env env;
    SnapshotData data = sampleSnapshot();
    ChainHeader header;
    header.id = 1;
    header.lastWalSeq = data.lastWalSeq;
    writeChainFile(dir.path, header, encodeSnapshot(data), injector, env);
    fs::path final = dir.path / chainFileName(1);
    EXPECT_FALSE(fs::exists(final.string() + ".tmp")); // renamed
    auto loaded = loadChainFile(final);
    ASSERT_TRUE(loaded.has_value());
    expectSnapshotEq(data, decodeSnapshot(loaded->payload));

    // A flipped payload byte fails the checksum: treated as absent.
    uintmax_t size = fs::file_size(final);
    {
        std::fstream f(final,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(size) - 1);
        f.put('X');
    }
    EXPECT_FALSE(loadChainFile(final).has_value());
    EXPECT_FALSE(loadChainFile(dir.path / "nope.full").has_value());
}

std::string
slurpBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/**
 * A random snapshot of about @p rows drift-log rows: NULL and empty
 * cells, NaN/±inf/-0 in upload features and context values, uploads
 * without features, dedup windows, empty blobs and patch text.
 */
SnapshotData
randomSnapshot(Rng &rng, size_t rows)
{
    using driftlog::Value;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> doubles = {nan, -nan, inf,  -inf,
                                         0.0, -0.0, 1.5, -2.25};
    const std::vector<Value> strings = {Value(std::string()),
                                        Value("snow"), Value("a,b"),
                                        Value()};
    auto maybeNull = [&](Value v) {
        return rng.bernoulli(0.1) ? Value() : v;
    };
    SnapshotData data;
    data.logicalTime = rng.uniformInt(0, 9);
    data.nextVersionId = rng.uniformInt(1, 9);
    data.totalIngested = rng.index(1000);
    data.dedupHits = rng.index(50);
    driftlog::Table table(data.driftLog.table().schema());
    for (size_t r = 0; r < rows; ++r) {
        driftlog::Row row(table.schema().columnCount());
        row[0] = maybeNull(Value(static_cast<int64_t>(rng.index(30))));
        for (size_t c = 1; c <= 5; ++c)
            row[c] = strings[rng.index(strings.size())];
        row[6] = maybeNull(Value(static_cast<int64_t>(rng.index(5))));
        row[7] = maybeNull(Value(rng.bernoulli(0.5)));
        table.append(row);
    }
    data.driftLog = driftlog::DriftLog::fromTable(std::move(table));
    for (size_t u = 0; u < rows / 2; ++u) {
        UploadRecord up;
        for (size_t f = rng.index(4); f > 0; --f)
            up.features.push_back(doubles[rng.index(doubles.size())]);
        up.context = rca::AttributeSet(
            {{"weather", strings[rng.index(strings.size())]},
             {"score", Value(doubles[rng.index(doubles.size())])}});
        up.driftFlag = rng.bernoulli(0.5);
        data.uploads.push_back(std::move(up));
    }
    const int64_t devices = static_cast<int64_t>(rng.index(4));
    for (int64_t device = 0; device < devices; ++device) {
        DedupWindow window{rng.index(5), {}};
        for (size_t n = rng.index(6); n > 0; --n)
            window.seen.push_back(window.floor + window.seen.size());
        data.dedup[device] = std::move(window);
    }
    for (size_t b = rng.index(3); b > 0; --b)
        data.blobs.emplace_back("versions/" + std::to_string(b) + "/meta",
                                std::string(rng.index(40), 'm'));
    if (rng.bernoulli(0.5)) {
        data.cleanPatchText = std::string(rng.index(30), 'p');
        data.cleanPatchTime = rng.uniformInt(0, 9);
    }
    return data;
}

TEST(SnapshotTest, ReusedBufferFilesMatchFreshEncoding)
{
    // CloudPersistence encodes every snapshot into one reused buffer;
    // each file must equal a fresh writeChainFile(encodeSnapshot(..))
    // byte for byte. The row counts go large to small to empty, so a
    // file written after a larger one would show any stale bytes.
    TempDir dir("reuse");
    TempDir oracle("reuse_oracle");
    PersistConfig config;
    config.dir = dir.path.string();
    config.snapshotEvery = 0;
    CloudPersistence persist(config, /*dedup_window=*/8);
    Rng rng(20261019);
    for (size_t rows : {400, 3, 0, 250, 1, 120, 0, 60}) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        SnapshotData data = randomSnapshot(rng, rows);
        for (size_t flushes = rng.index(3); flushes > 0; --flushes)
            persist.logFlush(); // vary lastWalSeq
        persist.writeSnapshot(data);
        ChainHeader header;
        header.id = persist.chainHeadId();
        header.lastWalSeq = data.lastWalSeq;
        CrashInjector injector;
        Env env;
        writeChainFile(oracle.path, header, encodeSnapshot(data),
                       injector, env);
        const std::string name = chainFileName(header.id);
        const std::string written = slurpBytes(dir.path / name);
        ASSERT_FALSE(written.empty());
        EXPECT_EQ(written, slurpBytes(oracle.path / name));
    }
}

TEST(SnapshotTest, DecodeRejectsTruncatedPayload)
{
    std::string payload = encodeSnapshot(sampleSnapshot());
    payload.resize(payload.size() / 2);
    EXPECT_THROW(decodeSnapshot(payload), NazarError);
}

// ---- column image vs the CSV oracle ---------------------------------

/** Cell-for-cell equality; Value == is bitwise for doubles, so -0.0,
 *  NaN signs and widened ints must come back exactly. */
void
expectCellsEq(const driftlog::Table &a, const driftlog::Table &b)
{
    ASSERT_EQ(a.rowCount(), b.rowCount());
    ASSERT_EQ(a.schema().columnCount(), b.schema().columnCount());
    for (size_t r = 0; r < a.rowCount(); ++r)
        for (size_t c = 0; c < a.schema().columnCount(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << "row " << r << " column " << c;
}

driftlog::Table
imageRoundTrip(const driftlog::Table &t)
{
    Writer w;
    putTableImage(w, t);
    Reader r(w.bytes());
    driftlog::Table back = getTableImage(r, t.schema());
    EXPECT_TRUE(r.atEnd());
    return back;
}

driftlog::Table
csvRoundTrip(const driftlog::Table &t)
{
    std::stringstream csv;
    driftlog::writeCsv(t, csv);
    return driftlog::readCsv(t.schema(), csv);
}

TEST(SnapshotImage, TableImageMatchesCsvRoundTripOnRandomTables)
{
    using driftlog::Value;
    using driftlog::ValueType;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Value> doubles = {
        Value(nan), Value(-nan), Value(inf), Value(-inf), Value(0.0),
        Value(-0.0), Value(1.5), Value(-2.25),
        Value(std::numeric_limits<double>::denorm_min()),
        Value(static_cast<int64_t>(3)), // widened to 3.0 on append
        Value(static_cast<int64_t>(-7)), Value()};
    const std::vector<Value> strings = {
        Value(std::string()), Value("snow"), Value("a,b"),
        Value("say \"hi\""), Value("fog"), Value()};
    driftlog::Schema schema({{"i", ValueType::kInt},
                             {"d", ValueType::kDouble},
                             {"b", ValueType::kBool},
                             {"s", ValueType::kString},
                             {"desc", ValueType::kInt}});
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        driftlog::Table t(schema);
        size_t rows = seed == 1 ? 0 : rng.index(300);
        for (size_t r = 0; r < rows; ++r) {
            driftlog::Row row(schema.columnCount());
            if (!rng.bernoulli(0.1))
                row[0] = static_cast<int64_t>(rng.uniformInt(-50, 50));
            row[1] = doubles[rng.index(doubles.size())];
            if (!rng.bernoulli(0.1))
                row[2] = rng.bernoulli(0.5);
            row[3] = strings[rng.index(strings.size())];
            // Strictly descending: every append after the first lands
            // below the dictionary's top, so this column's dictionary
            // is unsorted (awaiting normalization) when encoded.
            row[4] = static_cast<int64_t>(rows - r);
            t.append(row);
        }
        driftlog::Table viaImage = imageRoundTrip(t);
        driftlog::Table viaCsv = csvRoundTrip(t);
        expectCellsEq(viaImage, viaCsv);
        expectTableImageEq(viaImage, viaCsv);
        expectCellsEq(viaImage, t);
        expectTableImageEq(viaImage, t);
        // The rebuilt columns behave like appended ones: a later
        // append (here a new minimum) renormalizes identically.
        driftlog::Row extra = {Value(static_cast<int64_t>(-99)),
                               Value(-inf), Value(false), Value("aaa"),
                               Value(static_cast<int64_t>(0))};
        viaImage.append(extra);
        viaCsv.append(extra);
        expectTableImageEq(viaImage, viaCsv);
    }
}

// ---- crash injector -------------------------------------------------

TEST(CrashInjectorTest, DisarmedCountsWithoutFiring)
{
    CrashInjector injector;
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(injector.fires("site.a"));
    EXPECT_EQ(injector.hitCount(), 10u);
}

TEST(CrashInjectorTest, FiresExactlyAtArmedHit)
{
    CrashInjector injector;
    injector.armAtHit(3);
    EXPECT_FALSE(injector.fires("a"));
    EXPECT_FALSE(injector.fires("b"));
    EXPECT_THROW(injector.check("c"), CrashInjected);
    // Past the armed hit it never fires again.
    EXPECT_FALSE(injector.fires("d"));
    try {
        CrashInjector again;
        again.armAtHit(1);
        again.check("the.site");
        FAIL() << "expected CrashInjected";
    } catch (const CrashInjected &e) {
        EXPECT_EQ(e.site(), "the.site");
        EXPECT_EQ(e.hit(), 1u);
    }
}

TEST(CrashInjectorTest, SeededHitIsInRangeAndDeterministic)
{
    for (uint64_t seed = 0; seed < 50; ++seed) {
        uint64_t hit = CrashInjector::seededHit(seed, 97);
        EXPECT_GE(hit, 1u);
        EXPECT_LE(hit, 97u);
        EXPECT_EQ(hit, CrashInjector::seededHit(seed, 97));
    }
    EXPECT_EQ(CrashInjector::seededHit(1, 0), 0u);
}

// ---- scripted cloud scenario + crash sweep --------------------------

data::AppSpec &
scriptApp()
{
    static data::AppSpec app = data::makeAnimalsApp(13, 8);
    return app;
}

nn::Classifier &
scriptBase()
{
    static nn::Classifier base(nn::Architecture::kResNet18,
                               scriptApp().domain.featureDim(),
                               scriptApp().domain.numClasses(), 5);
    return base;
}

sim::CloudConfig
scriptConfig(const std::string &dir, uint64_t crash_at)
{
    sim::CloudConfig config;
    config.minAdaptSamples = 4;
    config.ingestDedupWindow = 8; // small: exercises floor advancement
    config.persist.dir = dir;
    config.persist.snapshotEvery = 8; // snapshot often inside the script
    config.persist.crashAtHit = crash_at;
    return config;
}

driftlog::DriftLogEntry
scriptEntry(int i)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(i % 14, (i * 37) % 86400);
    int device = i % 3;
    e.deviceId = data::deviceName(device);
    e.deviceModel = data::deviceModel(device);
    e.location = "tibet";
    e.weather = i % 3 == 0 ? "snow" : "clear-day";
    e.drift = i % 3 == 0; // deterministic planted cause {weather=snow}
    return e;
}

std::optional<sim::Upload>
scriptUpload(int i)
{
    if (i % 4 == 3)
        return std::nullopt; // some entries arrive without a sample
    driftlog::DriftLogEntry e = scriptEntry(i);
    sim::Upload up;
    Rng rng(static_cast<uint64_t>(1000 + i));
    int label =
        static_cast<int>(rng.index(scriptApp().domain.numClasses()));
    up.features = scriptApp().domain.sample(label, rng);
    up.context = rca::AttributeSet({
        {driftlog::columns::kWeather, driftlog::Value(e.weather)},
        {driftlog::columns::kLocation, driftlog::Value(e.location)},
        {driftlog::columns::kDeviceId, driftlog::Value(e.deviceId)},
        {driftlog::columns::kDeviceModel,
         driftlog::Value(e.deviceModel)},
    });
    up.driftFlag = e.drift;
    return up;
}

/** Everything the sweep compares between a crashed run and the oracle. */
struct CloudState
{
    std::string driftCsv;
    size_t uploadCount = 0;
    size_t totalIngested = 0;
    size_t dedupHits = 0;
    int64_t nextVersionId = 1;
    int64_t logicalTime = 0;
    std::vector<int64_t> versionIds;
    std::vector<std::pair<std::string, std::string>> blobs;
    std::map<int64_t, DedupWindow> dedup;
};

CloudState
captureState(sim::Cloud &cloud)
{
    CloudState st;
    std::ostringstream csv;
    driftlog::writeCsv(cloud.driftLog().table(), csv);
    st.driftCsv = csv.str();
    st.uploadCount = cloud.uploadCount();
    st.totalIngested = cloud.totalIngested();
    st.dedupHits = cloud.dedupHits();
    st.nextVersionId = cloud.nextVersionId();
    st.logicalTime = cloud.logicalTime();
    st.versionIds = cloud.registry().versionIds();
    for (const auto &key : cloud.blobStore().list())
        st.blobs.emplace_back(key, cloud.blobStore().get(key));
    st.dedup = cloud.dedupSnapshot();
    return st;
}

/**
 * Run the scripted scenario against a cloud, surviving injected
 * crashes with the same retry discipline the runner uses: ingests
 * are retried (at-least-once; the dedup window absorbs the
 * retransmission), a cycle whose commit landed is not re-run, and
 * flushes are always retried (idempotent).
 */
std::unique_ptr<sim::Cloud>
driveScript(const std::string &dir, uint64_t crash_at, size_t *crashes,
            std::vector<std::string> *sites)
{
    sim::CloudConfig config = scriptConfig(dir, crash_at);
    auto cloud = std::make_unique<sim::Cloud>(config, scriptBase());
    nn::BnPatch clean = scriptBase().bnPatch();
    if (cloud->recoveredCleanPatch().has_value())
        clean = *cloud->recoveredCleanPatch();

    auto rebuild = [&](const CrashInjected &e) {
        if (sites != nullptr)
            sites->push_back(e.site());
        if (crashes != nullptr)
            ++*crashes;
        sim::CloudConfig recover = config;
        recover.persist.crashAtHit = 0;
        cloud.reset();
        cloud = std::make_unique<sim::Cloud>(recover, scriptBase());
        clean = cloud->recoveredCleanPatch().has_value()
                    ? *cloud->recoveredCleanPatch()
                    : scriptBase().bnPatch();
    };
    auto ingest = [&](int device, uint64_t seq, int i) {
        for (;;) {
            try {
                cloud->ingestFrom(device, seq, scriptEntry(i),
                                  scriptUpload(i));
                return;
            } catch (const CrashInjected &e) {
                rebuild(e);
            }
        }
    };
    auto cycle = [&]() {
        int64_t before = cloud->logicalTime();
        for (;;) {
            try {
                sim::CycleResult result = cloud->runCycle(clean);
                if (result.newCleanPatch.has_value())
                    clean = *result.newCleanPatch;
                return;
            } catch (const CrashInjected &e) {
                rebuild(e);
                if (cloud->logicalTime() > before)
                    return; // the commit record landed before the crash
            }
        }
    };
    auto flush = [&]() {
        for (;;) {
            try {
                cloud->flush();
                return;
            } catch (const CrashInjected &e) {
                rebuild(e);
            }
        }
    };

    // The script: two analysis cycles over planted-cause telemetry
    // with duplicate seqs sprinkled in, a baseline flush, and a tail
    // of pending rows left unanalyzed (so recovery has live buffers
    // to reconstruct).
    for (int i = 0; i < 24; ++i) {
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        if (i % 5 == 0 && i > 0) // retransmission: must dedup
            ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    }
    cycle();
    for (int i = 24; i < 44; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    cycle();
    for (int i = 44; i < 50; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    flush();
    for (int i = 50; i < 56; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    return cloud;
}

class PersistCloudTest : public QuietLogs
{
};

TEST_F(PersistCloudTest, PersistedRunMatchesInMemoryRun)
{
    // Persistence on (no crash) must not change a single observable
    // output relative to a cloud without the persist layer.
    TempDir dir("equiv");
    CloudState oracle =
        captureState(*driveScript("", 0, nullptr, nullptr));
    auto persisted =
        driveScript(dir.path.string(), 0, nullptr, nullptr);
    CloudState on = captureState(*persisted);
    EXPECT_EQ(on.driftCsv, oracle.driftCsv);
    EXPECT_EQ(on.uploadCount, oracle.uploadCount);
    EXPECT_EQ(on.totalIngested, oracle.totalIngested);
    EXPECT_EQ(on.dedupHits, oracle.dedupHits);
    EXPECT_EQ(on.nextVersionId, oracle.nextVersionId);
    EXPECT_EQ(on.logicalTime, oracle.logicalTime);
    EXPECT_EQ(on.versionIds, oracle.versionIds);
    EXPECT_EQ(on.blobs, oracle.blobs);
    EXPECT_EQ(on.dedup, oracle.dedup);
    // A disarmed injector draws no randomness; it only counts.
    EXPECT_GT(persisted->persistence()->injector().hitCount(), 0u);
}

TEST_F(PersistCloudTest, ReopenRestoresFullState)
{
    TempDir dir("reopen");
    CloudState before =
        captureState(*driveScript(dir.path.string(), 0, nullptr, nullptr));
    // A brand-new cloud over the same directory recovers everything.
    sim::Cloud reopened(scriptConfig(dir.path.string(), 0), scriptBase());
    CloudState after = captureState(reopened);
    EXPECT_EQ(after.driftCsv, before.driftCsv);
    EXPECT_EQ(after.uploadCount, before.uploadCount);
    EXPECT_EQ(after.totalIngested, before.totalIngested);
    EXPECT_EQ(after.dedupHits, before.dedupHits);
    EXPECT_EQ(after.nextVersionId, before.nextVersionId);
    EXPECT_EQ(after.logicalTime, before.logicalTime);
    EXPECT_EQ(after.versionIds, before.versionIds);
    EXPECT_EQ(after.blobs, before.blobs);
    EXPECT_EQ(after.dedup, before.dedup);
}

TEST_F(PersistCloudTest, NonDedupIngestIsReplayedToo)
{
    TempDir dir("plain_ingest");
    {
        sim::Cloud cloud(scriptConfig(dir.path.string(), 0),
                         scriptBase());
        for (int i = 0; i < 5; ++i)
            cloud.ingest(scriptEntry(i), scriptUpload(i));
    }
    sim::Cloud reopened(scriptConfig(dir.path.string(), 0),
                        scriptBase());
    EXPECT_EQ(reopened.driftLogSize(), 5u);
    EXPECT_EQ(reopened.totalIngested(), 5u);
    EXPECT_EQ(reopened.uploadCount(), 4u); // i=3 had no upload
}

TEST_F(PersistCloudTest, ExhaustiveCrashSweepMatchesOracle)
{
    // The oracle: the same script against an in-memory cloud.
    CloudState oracle =
        captureState(*driveScript("", 0, nullptr, nullptr));

    // Probe run: count every crash site the scenario reaches.
    uint64_t total_hits = 0;
    {
        TempDir dir("probe");
        auto cloud =
            driveScript(dir.path.string(), 0, nullptr, nullptr);
        total_hits = cloud->persistence()->injector().hitCount();
    }
    ASSERT_GT(total_hits, 0u);

    // Crash at every single write boundary, recover, finish the
    // script, and require the final state to match the oracle.
    std::set<std::string> fired_sites;
    for (uint64_t hit = 1; hit <= total_hits; ++hit) {
        TempDir dir("sweep_" + std::to_string(hit));
        size_t crashes = 0;
        std::vector<std::string> sites;
        auto cloud =
            driveScript(dir.path.string(), hit, &crashes, &sites);
        ASSERT_EQ(crashes, 1u) << "hit " << hit;
        fired_sites.insert(sites[0]);
        CloudState got = captureState(*cloud);
        EXPECT_EQ(got.driftCsv, oracle.driftCsv) << "hit " << hit;
        EXPECT_EQ(got.uploadCount, oracle.uploadCount) << "hit " << hit;
        EXPECT_EQ(got.totalIngested, oracle.totalIngested)
            << "hit " << hit;
        EXPECT_EQ(got.nextVersionId, oracle.nextVersionId)
            << "hit " << hit;
        EXPECT_EQ(got.logicalTime, oracle.logicalTime) << "hit " << hit;
        EXPECT_EQ(got.versionIds, oracle.versionIds) << "hit " << hit;
        EXPECT_EQ(got.blobs, oracle.blobs) << "hit " << hit;
        EXPECT_EQ(got.dedup, oracle.dedup) << "hit " << hit;
        // A crash after the WAL append but before the in-memory apply
        // makes the client's retry a retransmission; the dedup window
        // absorbs it, at the cost of at most one extra dedup hit.
        EXPECT_GE(got.dedupHits, oracle.dedupHits) << "hit " << hit;
        EXPECT_LE(got.dedupHits, oracle.dedupHits + crashes)
            << "hit " << hit;
    }
    // Every distinct crash site fired at least once in the sweep.
    const std::set<std::string> expected = {
        "wal.append.partial",  "wal.append.post",
        "wal.truncate.post",   "snapshot.tmp.partial",
        "snapshot.tmp.done",   "snapshot.rename.post",
    };
    EXPECT_EQ(fired_sites, expected);
}

TEST_F(PersistCloudTest, RecoveredImageStateMatchesCsvOracle)
{
    // Recovery from a column-image full snapshot must adopt exactly
    // the table the CSV snapshot path produced: readCsv(writeCsv(live)).
    TempDir dir("image_oracle");
    sim::CloudConfig config = scriptConfig(dir.path.string(), 0);
    config.persist.snapshotEvery = 0; // only the explicit checkpoint
    driftlog::Table oracle(driftlog::DriftLog().table().schema());
    size_t uploads = 0;
    {
        sim::Cloud cloud(config, scriptBase());
        for (int i = 0; i < 90; ++i) {
            if (i % 5 == 0)
                cloud.ingest(scriptEntry(i), scriptUpload(i));
            else
                cloud.ingestFrom(i % 3, static_cast<uint64_t>(i),
                                 scriptEntry(i), scriptUpload(i));
        }
        cloud.checkpoint();
        oracle = csvRoundTrip(cloud.driftLog().table());
        uploads = cloud.uploadCount();
    }
    RecoveredState st = recoverDir(dir.path, /*dedup_window=*/8);
    EXPECT_TRUE(st.snapshotLoaded);
    EXPECT_EQ(st.replayedRecords, 0u); // all of it came from the image
    expectCellsEq(st.log.table(), oracle);
    expectTableImageEq(st.log.table(), oracle);
    EXPECT_EQ(st.uploads.size(), uploads);

    sim::Cloud reopened(config, scriptBase());
    expectTableImageEq(reopened.driftLog().table(), oracle);
}

TEST_F(PersistCloudTest, RecoverDirMatchesLiveState)
{
    TempDir dir("recover_dir");
    auto cloud =
        driveScript(dir.path.string(), 0, nullptr, nullptr);
    CloudState live = captureState(*cloud);
    // recoverDir() is read-only: it must see exactly what a reopened
    // cloud would adopt, and leave the files untouched.
    RecoveredState st =
        recoverDir(dir.path, /*dedup_window=*/8);
    std::ostringstream csv;
    driftlog::writeCsv(st.log.table(), csv);
    EXPECT_EQ(csv.str(), live.driftCsv);
    EXPECT_EQ(st.uploads.size(), live.uploadCount);
    EXPECT_EQ(st.totalIngested, live.totalIngested);
    EXPECT_EQ(st.nextVersionId, live.nextVersionId);
    EXPECT_EQ(st.logicalTime, live.logicalTime);
    EXPECT_EQ(st.dedup, live.dedup);
    RecoveredState again = recoverDir(dir.path, 8);
    EXPECT_EQ(again.totalIngested, st.totalIngested);
}

/** A directory holding one snapshot (rows 0-9) and, after it, three
 *  WAL records (seqs 11-13): the WAL was truncated at the snapshot. */
sim::CloudConfig
snapshotThenWal(const fs::path &dir)
{
    sim::CloudConfig config = scriptConfig(dir.string(), 0);
    config.persist.snapshotEvery = 0; // only the explicit checkpoint
    sim::Cloud cloud(config, scriptBase());
    for (int i = 0; i < 13; ++i) {
        if (i == 10)
            cloud.checkpoint();
        cloud.ingestFrom(i % 3, static_cast<uint64_t>(i), scriptEntry(i),
                         scriptUpload(i));
    }
    return config;
}

TEST_F(PersistCloudTest, CorruptNewestSnapshotIsRefusedAndKept)
{
    // The newest snapshot holds the only copy of the rows the WAL
    // dropped when it committed, and no crash leaves a committed
    // snapshot torn. So a newest snapshot failing its CRC is refused,
    // by name, with every file left as it was.
    TempDir dir("corrupt_newest");
    const sim::CloudConfig config = snapshotThenWal(dir.path);
    EXPECT_EQ(recoverDir(dir.path, 8).totalIngested, 13u);
    const fs::path full = dir.path / chainFileName(1);
    const fs::path wal = dir.path / "wal.log";
    std::string bytes = slurpBytes(full);
    ASSERT_FALSE(bytes.empty());
    bytes.back() ^= 0x01;
    std::ofstream(full, std::ios::binary | std::ios::trunc) << bytes;
    const std::string wal_bytes = slurpBytes(wal);

    try {
        (void)recoverDir(dir.path, /*dedup_window=*/8);
        ADD_FAILURE() << "recovered past a corrupt newest snapshot";
    } catch (const NazarError &e) {
        EXPECT_NE(std::string(e.what()).find(full.string()),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(sim::Cloud(config, scriptBase()), NazarError);
    EXPECT_FALSE(scrubStateDir(dir.path).ok);
    EXPECT_EQ(slurpBytes(full), bytes);
    EXPECT_EQ(slurpBytes(wal), wal_bytes);
}

TEST_F(PersistCloudTest, WalStartingAboveTheSnapshotIsRefused)
{
    // WAL seqs keep counting across truncation: a WAL that starts
    // above the loaded snapshot's cut (here: the snapshot is gone)
    // lost the records in between, so recovery refuses it.
    TempDir dir("wal_gap");
    const sim::CloudConfig config = snapshotThenWal(dir.path);
    fs::remove(dir.path / chainFileName(1));
    const fs::path wal = dir.path / "wal.log";
    const std::string wal_bytes = slurpBytes(wal);
    try {
        (void)recoverDir(dir.path, /*dedup_window=*/8);
        ADD_FAILURE() << "recovered a WAL with a gap below it";
    } catch (const NazarError &e) {
        EXPECT_NE(std::string(e.what()).find(wal.string()),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(sim::Cloud(config, scriptBase()), NazarError);
    EXPECT_FALSE(scrubStateDir(dir.path).ok);
    EXPECT_EQ(slurpBytes(wal), wal_bytes);
}

/**
 * The bytes the pre-chain layout left in snapshot.bin: the
 * "NZSNAP1\0" file header around a payload with no format tag and
 * the drift log as CSV text.
 */
std::string
preChainSnapshotBin(const driftlog::Table &log, uint64_t last_wal_seq)
{
    Writer payload;
    payload.putU64(last_wal_seq);
    payload.putI64(0); // logicalTime
    payload.putI64(1); // nextVersionId
    payload.putU64(log.rowCount());
    payload.putU64(0); // dedupHits
    std::ostringstream csv;
    driftlog::writeCsv(log, csv);
    payload.putString(csv.str());
    payload.putU64(0);      // uploads
    payload.putU64(0);      // dedup windows
    payload.putU64(0);      // blobs
    payload.putBool(false); // no clean patch
    const std::string &body = payload.bytes();
    Writer file;
    const char magic[8] = {'N', 'Z', 'S', 'N', 'A', 'P', '1', 0};
    file.putBytes(magic, sizeof(magic));
    file.putU64(body.size());
    file.putU32(crc32(body.data(), body.size()));
    file.putBytes(body.data(), body.size());
    return file.take();
}

TEST_F(PersistCloudTest, PreChainSnapshotBinIsRefusedAndKept)
{
    // A pre-chain state directory: all state in a CSV-era snapshot.bin,
    // and the WAL truncated to its header when that snapshot was
    // written. Recovering from the WAL alone would silently drop every
    // row, so recovery must refuse and leave the file where it is.
    TempDir dir("pre_chain");
    driftlog::DriftLog log;
    for (int i = 0; i < 12; ++i)
        log.add(scriptEntry(i));
    const std::string snap = preChainSnapshotBin(log.table(), 12);
    const fs::path bin = dir.path / "snapshot.bin";
    {
        std::ofstream(bin, std::ios::binary) << snap;
        std::ofstream(dir.path / "wal.log", std::ios::binary)
            .write(Wal::kMagic, sizeof(Wal::kMagic));
    }

    EXPECT_THROW(recoverDir(dir.path, /*dedup_window=*/8), NazarError);
    EXPECT_THROW(sim::Cloud(scriptConfig(dir.path.string(), 0),
                            scriptBase()),
                 NazarError);
    ScrubReport scrub = scrubStateDir(dir.path);
    EXPECT_FALSE(scrub.ok);

    ASSERT_TRUE(fs::exists(bin));
    std::ifstream in(bin, std::ios::binary);
    std::string kept((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(kept, snap);
    EXPECT_EQ(fs::file_size(dir.path / "wal.log"), sizeof(Wal::kMagic));
}


/**
 * A delta snapshot in the layout that chained deltas onto a full
 * snapshot: the "NZCHN1\0\0" header with kind 2 and a (baseId,
 * baseCrc) link, around the archived WAL records.
 */
std::string
deltaSnapshotFile(uint64_t id, uint64_t base_id, uint32_t base_crc,
                  const std::vector<WalRecord> &records)
{
    Writer payload;
    payload.putU32(static_cast<uint32_t>(records.size()));
    for (const WalRecord &rec : records) {
        payload.putU8(static_cast<uint8_t>(rec.type));
        payload.putU64(rec.seq);
        payload.putString(rec.payload);
    }
    const std::string &body = payload.bytes();
    Writer file;
    const char magic[8] = {'N', 'Z', 'C', 'H', 'N', '1', 0, 0};
    file.putBytes(magic, sizeof(magic));
    file.putU8(2); // delta
    file.putU64(id);
    file.putU64(base_id);
    file.putU32(base_crc);
    file.putU64(records.empty() ? 0 : records.back().seq);
    file.putU64(body.size());
    file.putU32(crc32(body.data(), body.size()));
    file.putBytes(body.data(), body.size());
    return file.take();
}

TEST_F(PersistCloudTest, DeltaSnapshotIsRefusedAndKept)
{
    // A directory a delta-writing build left behind: a full snapshot,
    // then a delta archiving the WAL records after it, then the WAL
    // truncated. Recovering from the full snapshot and the WAL alone
    // would silently drop the archived rows, so recovery must refuse
    // and leave every file as it is. Any snap-*.delta counts, even
    // one that does not parse.
    TempDir dir("delta");
    sim::CloudConfig config = scriptConfig(dir.path.string(), 0);
    config.persist.snapshotEvery = 0; // only the explicit checkpoint
    {
        sim::Cloud cloud(config, scriptBase());
        for (int i = 0; i < 10; ++i)
            cloud.ingestFrom(i % 3, static_cast<uint64_t>(i),
                             scriptEntry(i), scriptUpload(i));
        cloud.checkpoint();
        for (int i = 10; i < 15; ++i)
            cloud.ingestFrom(i % 3, static_cast<uint64_t>(i),
                             scriptEntry(i), scriptUpload(i));
    }
    const fs::path full = dir.path / chainFileName(1);
    auto base = loadChainFile(full);
    ASSERT_TRUE(base.has_value());
    WalScan scan = Wal::scan(dir.path / "wal.log");
    ASSERT_EQ(scan.records.size(), 5u);
    fs::resize_file(dir.path / "wal.log", sizeof(Wal::kMagic));

    const std::pair<std::string, std::string> deltas[] = {
        {"snap-000002.delta",
         deltaSnapshotFile(2, 1, base->header.payloadCrc, scan.records)},
        {"snap-000009.delta", "not a snapshot"},
    };
    const std::string full_bytes = slurpBytes(full);
    for (const auto &[name, bytes] : deltas) {
        SCOPED_TRACE(name);
        const fs::path delta = dir.path / name;
        std::ofstream(delta, std::ios::binary) << bytes;

        EXPECT_THROW(recoverDir(dir.path, /*dedup_window=*/8),
                     NazarError);
        EXPECT_THROW(sim::Cloud(config, scriptBase()), NazarError);
        ScrubReport scrub = scrubStateDir(dir.path);
        EXPECT_FALSE(scrub.ok);

        EXPECT_EQ(slurpBytes(delta), bytes);
        EXPECT_EQ(slurpBytes(full), full_bytes);
        EXPECT_EQ(fs::file_size(dir.path / "wal.log"),
                  sizeof(Wal::kMagic));
        fs::remove(delta);
    }
    // Without the delta the directory is an ordinary one again.
    EXPECT_EQ(recoverDir(dir.path, 8).totalIngested, 10u);
}

} // namespace
} // namespace nazar::persist
