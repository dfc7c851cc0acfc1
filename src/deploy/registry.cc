/**
 * @file
 * Implementation of the blob store and model registry.
 */
#include "registry.h"

#include <sstream>

#include "common/error.h"

namespace nazar::deploy {

void
BlobStore::put(const std::string &key, std::string data)
{
    NAZAR_CHECK(!key.empty(), "blob key must not be empty");
    blobs_[key] = std::move(data);
}

const std::string &
BlobStore::get(const std::string &key) const
{
    auto it = blobs_.find(key);
    NAZAR_CHECK(it != blobs_.end(), "no such blob: " + key);
    return it->second;
}

bool
BlobStore::contains(const std::string &key) const
{
    return blobs_.count(key) > 0;
}

bool
BlobStore::remove(const std::string &key)
{
    return blobs_.erase(key) > 0;
}

std::vector<std::string>
BlobStore::list(const std::string &prefix) const
{
    std::vector<std::string> keys;
    for (const auto &[key, blob] : blobs_)
        if (key.compare(0, prefix.size(), prefix) == 0)
            keys.push_back(key);
    return keys;
}

size_t
BlobStore::totalBytes() const
{
    size_t total = 0;
    for (const auto &[key, blob] : blobs_)
        total += blob.size();
    return total;
}

std::string
ModelRegistry::metaKey(int64_t id)
{
    return "versions/" + std::to_string(id) + "/meta";
}

std::string
ModelRegistry::patchKey(int64_t id)
{
    return "versions/" + std::to_string(id) + "/patch";
}

int64_t
ModelRegistry::publish(ModelVersion version)
{
    if (version.id == 0)
        version.id = nextId_;
    nextId_ = std::max(nextId_, version.id + 1);

    std::ostringstream meta;
    meta << "nazar-version 1\n";
    meta << version.id << " " << version.riskRatio << " "
         << version.updatedAt << "\n";
    meta << version.cause.size() << "\n";
    for (const auto &attr : version.cause.attributes())
        meta << attr.column << "\n"
             << encodeValueLine(attr.value) << "\n";
    store_->put(metaKey(version.id), meta.str());

    std::ostringstream patch;
    version.patch.save(patch);
    store_->put(patchKey(version.id), patch.str());
    return version.id;
}

void
ModelRegistry::restore(int64_t id, std::string meta, std::string patch)
{
    nextId_ = std::max(nextId_, id + 1);
    store_->put(metaKey(id), std::move(meta));
    store_->put(patchKey(id), std::move(patch));
}

ModelVersion
ModelRegistry::fetch(int64_t id) const
{
    std::istringstream meta(store_->get(metaKey(id)));
    std::string magic;
    int format = 0;
    meta >> magic >> format;
    NAZAR_CHECK(magic == "nazar-version" && format == 1,
                "malformed version metadata");

    ModelVersion version;
    size_t attr_count = 0;
    meta >> version.id >> version.riskRatio >> version.updatedAt >>
        attr_count;
    meta.ignore(); // end-of-line
    std::vector<rca::Attribute> attrs;
    for (size_t i = 0; i < attr_count; ++i) {
        std::string column, encoded;
        NAZAR_CHECK(static_cast<bool>(std::getline(meta, column)) &&
                        static_cast<bool>(std::getline(meta, encoded)),
                    "truncated version metadata");
        attrs.push_back({column, decodeValueLine(encoded)});
    }
    version.cause = rca::AttributeSet(std::move(attrs));

    std::istringstream patch(store_->get(patchKey(id)));
    version.patch = nn::BnPatch::load(patch);
    return version;
}

bool
ModelRegistry::contains(int64_t id) const
{
    return store_->contains(metaKey(id));
}

std::vector<int64_t>
ModelRegistry::versionIds() const
{
    std::vector<int64_t> ids;
    for (const auto &key : store_->list("versions/")) {
        // versions/<id>/meta
        if (key.size() > 5 &&
            key.compare(key.size() - 5, 5, "/meta") == 0) {
            size_t start = std::string("versions/").size();
            ids.push_back(std::stoll(key.substr(start)));
        }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

size_t
ModelRegistry::evictBelow(int64_t min_id)
{
    size_t evicted = 0;
    for (int64_t id : versionIds()) {
        if (id >= min_id)
            break;
        store_->remove(metaKey(id));
        store_->remove(patchKey(id));
        ++evicted;
    }
    return evicted;
}

std::optional<ModelVersion>
ModelRegistry::latestForCause(const rca::AttributeSet &cause) const
{
    std::optional<ModelVersion> best;
    for (int64_t id : versionIds()) {
        ModelVersion v = fetch(id);
        if (v.cause == cause &&
            (!best || v.updatedAt >= best->updatedAt))
            best = std::move(v);
    }
    return best;
}

} // namespace nazar::deploy
