/**
 * @file
 * CSV import/export for drift-log tables.
 *
 * Gives the drift log an interoperable text form (the cloud
 * prototype's Aurora tables can be dumped/loaded as CSV) and feeds the
 * `nazar_ops` command-line tool. The durability layer's snapshots do
 * not use it: they store the binary column image
 * (persist::putTableImage).
 *
 * Format: header row with column names; RFC-4180-style quoting (cells
 * containing commas, quotes or newlines are wrapped in double quotes,
 * embedded quotes doubled; quoted cells may span physical lines).
 * Cell types come from the target schema on import. NULL and the
 * empty string are distinguishable: NULL exports as an empty unquoted
 * cell, the empty string as `""`. Doubles export at full precision
 * (including nan/-nan/inf/-inf), so a write/read round trip is
 * value-exact.
 */
#ifndef NAZAR_DRIFTLOG_CSV_H
#define NAZAR_DRIFTLOG_CSV_H

#include <iosfwd>

#include "driftlog/table.h"

namespace nazar::driftlog {

/** Write a table as CSV (header + rows). */
void writeCsv(const Table &table, std::ostream &os);

/**
 * Read a CSV stream into a table with the given schema. The header
 * must match the schema's column names exactly (same order).
 * @throws NazarError on malformed input or unparsable cells.
 */
Table readCsv(const Schema &schema, std::istream &is);

/** Escape one cell for CSV output. */
std::string csvEscape(const std::string &cell);

/** One split cell plus whether it was quoted in the source (the
 *  quoted bit disambiguates `""` — empty string — from an empty
 *  unquoted cell — NULL). */
struct CsvCell
{
    std::string text;
    bool quoted = false;

    bool operator==(const CsvCell &other) const = default;
};

/** Split one CSV record into cells, preserving quoted-ness. The
 *  record may contain newlines inside quoted cells. */
std::vector<CsvCell> csvSplitCells(const std::string &record);

/** Split one CSV line into cell texts (quoted-ness dropped). */
std::vector<std::string> csvSplit(const std::string &line);

/**
 * Read one logical CSV record: physical lines are joined (with '\n')
 * while a quote is still open, so quoted cells can span lines. A
 * trailing '\r' is stripped from each physical line unless it falls
 * inside an open quote. Returns false at end of stream.
 */
bool readCsvRecord(std::istream &is, std::string &record);

/** Parse a cell string into a Value of the given type. */
Value parseCell(const std::string &cell, ValueType type);

} // namespace nazar::driftlog

#endif // NAZAR_DRIFTLOG_CSV_H
