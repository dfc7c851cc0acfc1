/**
 * @file
 * Implementation of the dictionary-encoded column.
 */
#include "column.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace nazar::driftlog {

Column
Column::fromDictionary(ValueType type, std::vector<Value> dict,
                       std::vector<Id> ids)
{
    NAZAR_CHECK(dict.size() <
                    static_cast<size_t>(std::numeric_limits<Id>::max()),
                "column dictionary overflow");
    Column col(type);
    for (size_t i = 0; i < dict.size(); ++i) {
        NAZAR_CHECK(dict[i].isNull() || dict[i].type() == type,
                    "column image: dictionary entry of type " +
                        toString(dict[i].type()) + " in a " +
                        toString(type) + " column");
        NAZAR_CHECK(i == 0 || dict[i - 1] < dict[i],
                    "column image: dictionary not strictly ascending "
                    "at id " + std::to_string(i));
        // Sorted input: every insert lands at the end, O(1) each.
        col.index_.emplace_hint(col.index_.end(), dict[i],
                                static_cast<Id>(i));
    }
    std::vector<bool> referenced(dict.size(), false);
    for (Id id : ids) {
        NAZAR_CHECK(id < dict.size(),
                    "column image: id " + std::to_string(id) +
                        " out of range for dictionary size " +
                        std::to_string(dict.size()));
        referenced[id] = true;
    }
    NAZAR_CHECK(std::find(referenced.begin(), referenced.end(), false) ==
                    referenced.end(),
                "column image: dictionary entry referenced by no row");
    if (!dict.empty() && dict.front().isNull())
        col.nullCount_ = static_cast<size_t>(
            std::count(ids.begin(), ids.end(), Id{0}));
    col.dict_ = std::move(dict);
    col.ids_ = std::move(ids);
    return col;
}

const Value &
Column::dictValue(Id id) const
{
    ensureSorted();
    NAZAR_CHECK(id < dict_.size(), "dictionary id out of range");
    return dict_[id];
}

std::optional<Column::Id>
Column::idOf(const Value &v) const
{
    ensureSorted();
    auto it = index_.find(v);
    if (it == index_.end())
        return std::nullopt;
    return it->second;
}

Column::Id
Column::lowerBound(const Value &v) const
{
    ensureSorted();
    return static_cast<Id>(
        std::lower_bound(dict_.begin(), dict_.end(), v) - dict_.begin());
}

Column::Id
Column::upperBound(const Value &v) const
{
    ensureSorted();
    return static_cast<Id>(
        std::upper_bound(dict_.begin(), dict_.end(), v) - dict_.begin());
}

Column::Id
Column::idAt(size_t row) const
{
    ensureSorted();
    NAZAR_CHECK(row < ids_.size(), "row out of range");
    return ids_[row];
}

const Value &
Column::at(size_t row) const
{
    ensureSorted();
    NAZAR_CHECK(row < ids_.size(), "row out of range");
    return dict_[ids_[row]];
}

std::vector<Value>
Column::materialize() const
{
    ensureSorted();
    std::vector<Value> out;
    out.reserve(ids_.size());
    for (Id id : ids_)
        out.push_back(dict_[id]);
    return out;
}

void
Column::append(const Value &v)
{
    NAZAR_CHECK(v.isNull() || v.type() == type_,
                "cell type does not match column type");
    auto [it, inserted] =
        index_.try_emplace(v, static_cast<Id>(dict_.size()));
    if (inserted) {
        NAZAR_CHECK(dict_.size() <
                        static_cast<size_t>(
                            std::numeric_limits<Id>::max()),
                    "column dictionary overflow");
        // New values take the next free id. Appending above the
        // current maximum (monotone columns: day indices, timestamps)
        // keeps the dictionary sorted in place; anything else defers
        // the re-id to the next read's normalization pass.
        if (!dict_.empty() && !(dict_.back() < v))
            sorted_ = false;
        dict_.push_back(v);
    }
    if (v.isNull())
        ++nullCount_;
    ids_.push_back(it->second);
}

void
Column::clear()
{
    index_.clear();
    dict_.clear();
    ids_.clear();
    nullCount_ = 0;
    sorted_ = true;
}

void
Column::ensureSorted() const
{
    if (sorted_)
        return;
    // Walk the index in key order (== Value total order) assigning
    // fresh dense ids, then remap the row ids through old -> new.
    std::vector<Id> remap(dict_.size());
    Id next = 0;
    for (auto &[value, id] : index_) {
        remap[id] = next;
        id = next;
        ++next;
    }
    std::vector<Value> sorted_dict(dict_.size());
    for (const auto &[value, id] : index_)
        sorted_dict[id] = value;
    dict_ = std::move(sorted_dict);
    for (Id &id : ids_)
        id = remap[id];
    sorted_ = true;
}

} // namespace nazar::driftlog
