#include "persist/serial.h"

#include <array>
#include <cstring>

#include "common/error.h"

namespace nazar::persist {

namespace {

/**
 * Slice-by-8 tables: kCrcTables[0] is the classic bytewise table of the
 * reflected 0xEDB88320 polynomial, and kCrcTables[k][b] is the CRC of
 * byte b followed by k zero bytes, so one lookup per byte of an 8-byte
 * word folds the whole word into the register at once.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Little-endian 32-bit load from any alignment (one load on x86). */
uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Append the little-endian bytes of @p v as one word. */
template <typename T>
void
appendLe(std::string &buf, T v)
{
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    buf.append(bytes, sizeof(T));
}

} // namespace

uint32_t
crc32Update(uint32_t crc, const void *data, size_t len)
{
    const auto &t = kCrcTables;
    const auto *p = static_cast<const unsigned char *>(data);
    crc ^= 0xFFFFFFFFu;
    for (; len >= 8; len -= 8, p += 8) {
        uint32_t lo = loadLe32(p) ^ crc;
        uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; --len, ++p)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t len)
{
    return crc32Update(0, data, len);
}

void
Writer::putU32(uint32_t v)
{
    appendLe(buf_, v);
}

void
Writer::putU64(uint64_t v)
{
    appendLe(buf_, v);
}

void
Writer::putF64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Writer::putU32Block(const uint32_t *v, size_t n)
{
    // One resize, then shift-stores the compiler folds into word
    // stores: endian-neutral like putU32, without a per-word append.
    size_t at = buf_.size();
    buf_.resize(at + n * sizeof(*v));
    auto *d = reinterpret_cast<unsigned char *>(buf_.data() + at);
    for (size_t i = 0; i < n; ++i, d += sizeof(*v)) {
        d[0] = static_cast<unsigned char>(v[i]);
        d[1] = static_cast<unsigned char>(v[i] >> 8);
        d[2] = static_cast<unsigned char>(v[i] >> 16);
        d[3] = static_cast<unsigned char>(v[i] >> 24);
    }
}

void
Writer::putBytes(const void *data, size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

void
Writer::putString(const std::string &s)
{
    putU64(s.size());
    buf_.append(s);
}

const char *
Reader::need(size_t n)
{
    NAZAR_CHECK(len_ - pos_ >= n,
                "persist: truncated record (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(len_ - pos_) + ")");
    const char *p = data_ + pos_;
    pos_ += n;
    return p;
}

uint8_t
Reader::getU8()
{
    return static_cast<uint8_t>(*need(1));
}

uint32_t
Reader::getU32()
{
    const char *p = need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

uint64_t
Reader::getU64()
{
    const char *p = need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

double
Reader::getF64()
{
    uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Reader::getString()
{
    uint64_t n = getU64();
    NAZAR_CHECK(n <= remaining(),
                "persist: string length exceeds buffer");
    const char *p = need(static_cast<size_t>(n));
    return std::string(p, static_cast<size_t>(n));
}

void
Reader::getU32Block(uint32_t *out, size_t n)
{
    NAZAR_CHECK(n <= remaining() / sizeof(*out),
                "persist: u32 block exceeds buffer");
    const auto *p =
        reinterpret_cast<const unsigned char *>(need(n * sizeof(*out)));
    for (size_t i = 0; i < n; ++i, p += sizeof(*out))
        out[i] = loadLe32(p);
}

void
putValue(Writer &w, const driftlog::Value &v)
{
    w.putU8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case driftlog::ValueType::kNull:
        break;
      case driftlog::ValueType::kInt:
        w.putI64(v.asInt());
        break;
      case driftlog::ValueType::kDouble:
        w.putF64(v.asDouble());
        break;
      case driftlog::ValueType::kBool:
        w.putBool(v.asBool());
        break;
      case driftlog::ValueType::kString:
        w.putString(v.asString());
        break;
    }
}

driftlog::Value
getValue(Reader &r)
{
    auto type = static_cast<driftlog::ValueType>(r.getU8());
    switch (type) {
      case driftlog::ValueType::kNull:
        return driftlog::Value();
      case driftlog::ValueType::kInt:
        return driftlog::Value(r.getI64());
      case driftlog::ValueType::kDouble:
        return driftlog::Value(r.getF64());
      case driftlog::ValueType::kBool:
        return driftlog::Value(r.getBool());
      case driftlog::ValueType::kString:
        return driftlog::Value(r.getString());
    }
    throw NazarError("persist: unknown Value type tag " +
                     std::to_string(static_cast<int>(type)));
}

void
putTableImage(Writer &w, const driftlog::Table &table)
{
    const size_t columns = table.schema().columnCount();
    w.putU32(static_cast<uint32_t>(columns));
    for (size_t c = 0; c < columns; ++c) {
        const driftlog::Column &col = table.column(c);
        w.putU8(static_cast<uint8_t>(col.type()));
        const std::vector<driftlog::Value> &dict = col.dictionary();
        w.putU64(dict.size());
        for (const driftlog::Value &v : dict)
            putValue(w, v);
        const std::vector<driftlog::Column::Id> &ids = col.ids();
        w.putU64(ids.size());
        w.putU32Block(ids.data(), ids.size());
    }
}

driftlog::Table
getTableImage(Reader &r, const driftlog::Schema &schema)
{
    uint32_t columns = r.getU32();
    NAZAR_CHECK(columns == schema.columnCount(),
                "persist: table image has " + std::to_string(columns) +
                    " columns, schema has " +
                    std::to_string(schema.columnCount()));
    std::vector<driftlog::Column> cols;
    cols.reserve(columns);
    for (uint32_t c = 0; c < columns; ++c) {
        auto type = static_cast<driftlog::ValueType>(r.getU8());
        uint64_t dict_size = r.getU64();
        // Every encoded Value takes at least its one-byte type tag.
        NAZAR_CHECK(dict_size <= r.remaining(),
                    "persist: table image dictionary exceeds buffer");
        std::vector<driftlog::Value> dict;
        for (uint64_t i = 0; i < dict_size; ++i)
            dict.push_back(getValue(r));
        uint64_t rows = r.getU64();
        NAZAR_CHECK(rows <= r.remaining() / sizeof(driftlog::Column::Id),
                    "persist: table image row count exceeds buffer");
        std::vector<driftlog::Column::Id> ids(static_cast<size_t>(rows));
        r.getU32Block(ids.data(), ids.size());
        cols.push_back(driftlog::Column::fromDictionary(
            type, std::move(dict), std::move(ids)));
    }
    return driftlog::Table::fromColumns(schema, std::move(cols));
}

void
putAttributeSet(Writer &w, const rca::AttributeSet &attrs)
{
    w.putU32(static_cast<uint32_t>(attrs.size()));
    for (const auto &attr : attrs.attributes()) {
        w.putString(attr.column);
        putValue(w, attr.value);
    }
}

rca::AttributeSet
getAttributeSet(Reader &r)
{
    uint32_t n = r.getU32();
    std::vector<rca::Attribute> attrs;
    attrs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        rca::Attribute attr;
        attr.column = r.getString();
        attr.value = getValue(r);
        attrs.push_back(std::move(attr));
    }
    return rca::AttributeSet(std::move(attrs));
}

void
putEntry(Writer &w, const driftlog::DriftLogEntry &e)
{
    w.putU32(static_cast<uint32_t>(e.time.dayIndex()));
    w.putU32(static_cast<uint32_t>(e.time.secondOfDay()));
    w.putString(e.deviceId);
    w.putString(e.deviceModel);
    w.putString(e.location);
    w.putString(e.weather);
    w.putI64(e.modelVersion);
    w.putBool(e.drift);
}

driftlog::DriftLogEntry
getEntry(Reader &r)
{
    driftlog::DriftLogEntry e;
    int day = static_cast<int>(r.getU32());
    int second = static_cast<int>(r.getU32());
    e.time = SimDate(day, second);
    e.deviceId = r.getString();
    e.deviceModel = r.getString();
    e.location = r.getString();
    e.weather = r.getString();
    e.modelVersion = r.getI64();
    e.drift = r.getBool();
    return e;
}

void
putUpload(Writer &w, const UploadRecord &u)
{
    w.putU64(u.features.size());
    for (double f : u.features)
        w.putF64(f);
    putAttributeSet(w, u.context);
    w.putBool(u.driftFlag);
}

UploadRecord
getUpload(Reader &r)
{
    UploadRecord u;
    uint64_t n = r.getU64();
    NAZAR_CHECK(n * 8 <= r.remaining(),
                "persist: upload feature count exceeds buffer");
    u.features.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
        u.features.push_back(r.getF64());
    u.context = getAttributeSet(r);
    u.driftFlag = r.getBool();
    return u;
}

} // namespace nazar::persist
