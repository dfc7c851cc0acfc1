/**
 * @file
 * Binary serialization helpers for the durability layer.
 *
 * Everything the WAL and the snapshot write goes through this small
 * byte-buffer codec: little-endian fixed-width integers, bit-exact
 * doubles (memcpy of the IEEE-754 pattern, so NaN payloads survive a
 * round trip), length-prefixed strings, and composite encoders for
 * the domain types the cloud persists (driftlog::Value,
 * rca::AttributeSet, drift-log entries, uploads, and the column image
 * of a drift-log table). A slice-by-8 CRC32 (the usual reflected
 * 0xEDB88320 polynomial) guards every WAL record, wire frame and
 * snapshot payload; no external compression/CRC library is used.
 *
 * Readers are bounds-checked: a short or corrupt buffer raises
 * NazarError, which the WAL open path converts into torn-tail
 * truncation and the snapshot loader converts into "snapshot invalid,
 * fall back to WAL-only recovery".
 */
#ifndef NAZAR_PERSIST_SERIAL_H
#define NAZAR_PERSIST_SERIAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driftlog/drift_log.h"
#include "driftlog/value.h"
#include "rca/attribute_set.h"

namespace nazar::persist {

/** CRC32 (reflected 0xEDB88320) over @p data. */
uint32_t crc32(const void *data, size_t len);

/** Incremental variant; start from 0 and feed chunks in order. */
uint32_t crc32Update(uint32_t crc, const void *data, size_t len);

/** Append-only byte buffer with typed little-endian writers. */
class Writer
{
  public:
    void putU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    /** Bit-exact: the IEEE-754 pattern is copied, NaN payloads intact. */
    void putF64(double v);
    void putBytes(const void *data, size_t len);
    /** @p n u32s as one block (byte-identical to n putU32 calls). */
    void putU32Block(const uint32_t *v, size_t n);
    /** u64 length prefix + raw bytes. */
    void putString(const std::string &s);

    /** Overwrite 4/8 bytes at @p at (within size()) with @p v, for a
     *  field known only after what follows it has been written. */
    void putU32At(size_t at, uint32_t v);
    void putU64At(size_t at, uint64_t v);

    /** Drop the contents but keep the capacity, so a buffer reused for
     *  one large record after another stops reallocating. */
    void clear() { buf_.clear(); }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked reader over a byte range; throws NazarError on underrun. */
class Reader
{
  public:
    Reader(const char *data, size_t len) : data_(data), len_(len) {}
    explicit Reader(const std::string &s) : Reader(s.data(), s.size()) {}

    uint8_t getU8();
    bool getBool() { return getU8() != 0; }
    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    double getF64();
    std::string getString();
    /** Read @p n u32s written by Writer::putU32Block into @p out. */
    void getU32Block(uint32_t *out, size_t n);

    /** Advance past @p n bytes without decoding them (bounds-checked).
     *  Lets decoders step over unknown forward-compat fields. */
    void skip(size_t n) { need(n); }

    size_t remaining() const { return len_ - pos_; }
    bool atEnd() const { return pos_ == len_; }

  private:
    const char *need(size_t n);

    const char *data_;
    size_t len_;
    size_t pos_ = 0;
};

/** Tagged driftlog::Value (null / int / double / bool / string). */
void putValue(Writer &w, const driftlog::Value &v);
driftlog::Value getValue(Reader &r);

/**
 * Column image of a drift-log table: what the table already is in
 * memory, with no text rendering. Layout:
 *
 *     [u32 columnCount]
 *     per column: [u8 ValueType][u64 dictSize][dictSize x putValue]
 *                 [u64 rowCount][rowCount x u32 id]
 *
 * The dictionary is written sorted (id order == Value total order),
 * so decoding needs no re-sort; getTableImage validates every
 * invariant through Table::fromColumns and throws NazarError on a
 * malformed image (unsorted dictionary, foreign cell type, id out of
 * range, ragged columns, or a column that disagrees with @p schema).
 */
void putTableImage(Writer &w, const driftlog::Table &table);
driftlog::Table getTableImage(Reader &r, const driftlog::Schema &schema);

void putAttributeSet(Writer &w, const rca::AttributeSet &attrs);
rca::AttributeSet getAttributeSet(Reader &r);

/**
 * A drift-log entry plus the sub-day timestamp `DriftLog::entry()`
 * drops (the table only keeps the formatted time string, so the WAL
 * carries day + secondOfDay explicitly to rebuild rows losslessly).
 */
void putEntry(Writer &w, const driftlog::DriftLogEntry &e);
driftlog::DriftLogEntry getEntry(Reader &r);

/** Mirror of sim::Upload, kept here so persist doesn't depend on sim. */
struct UploadRecord
{
    std::vector<double> features;
    rca::AttributeSet context;
    bool driftFlag = false;
};

void putUpload(Writer &w, const UploadRecord &u);
UploadRecord getUpload(Reader &r);

} // namespace nazar::persist

#endif // NAZAR_PERSIST_SERIAL_H
