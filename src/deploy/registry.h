/**
 * @file
 * Cloud-side model registry backed by a blob store.
 *
 * The paper's prototype writes adapted models to Amazon S3 (§5.8:
 * "up until the adapted models are written in S3"). BlobStore is the
 * offline stand-in (a named byte-blob map with size accounting);
 * ModelRegistry serializes model versions into it and reconstructs
 * them on fetch, so deployment pushes can be replayed and audited.
 */
#ifndef NAZAR_DEPLOY_REGISTRY_H
#define NAZAR_DEPLOY_REGISTRY_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "deploy/model_version.h"

namespace nazar::deploy {

/** In-memory named blob store (the S3 stand-in). */
class BlobStore
{
  public:
    /** Store (or overwrite) a blob. */
    void put(const std::string &key, std::string data);

    /** Fetch a blob; throws NazarError when absent. */
    const std::string &get(const std::string &key) const;

    bool contains(const std::string &key) const;

    /** Delete a blob; returns false when absent. */
    bool remove(const std::string &key);

    /** Keys with the given prefix, sorted. */
    std::vector<std::string> list(const std::string &prefix = "") const;

    size_t blobCount() const { return blobs_.size(); }

    /** Every (key, bytes) pair, sorted by key. */
    auto begin() const { return blobs_.begin(); }
    auto end() const { return blobs_.end(); }

    bool operator==(const BlobStore &other) const = default;

    /** Total stored bytes (the deployment-cost metric). */
    size_t totalBytes() const;

  private:
    std::map<std::string, std::string> blobs_;
};

/**
 * Registry of published model versions. Patches live in the blob
 * store under "versions/<id>/patch"; version metadata (cause, risk
 * ratio, timestamp) under "versions/<id>/meta".
 */
class ModelRegistry
{
  public:
    explicit ModelRegistry(BlobStore &store) : store_(&store) {}

    /**
     * Publish a version (assigns the id if the version's id is 0).
     * @return The version id.
     */
    int64_t publish(ModelVersion version);

    /**
     * Store a version's blobs exactly as publish() wrote them (WAL
     * replay of a committed cycle).
     */
    void restore(int64_t id, std::string meta, std::string patch);

    /** Reconstruct a published version; throws when unknown. */
    ModelVersion fetch(int64_t id) const;

    /** True when the id is published. */
    bool contains(int64_t id) const;

    /** All published ids, ascending. */
    std::vector<int64_t> versionIds() const;

    /** Most recently published version for a cause, if any. */
    std::optional<ModelVersion>
    latestForCause(const rca::AttributeSet &cause) const;

    /**
     * Evict every version with id < @p min_id from the blob store
     * (meta + patch). The caller is responsible for the safety
     * invariant: @p min_id must be at or below every device's
     * last-seen version, so no fetch for an evicted id can ever
     * arrive. @return The number of versions evicted.
     */
    size_t evictBelow(int64_t min_id);

    size_t size() const { return versionIds().size(); }

    /** Blob-store key of a version's metadata ("versions/<id>/meta"). */
    static std::string metaKey(int64_t id);

    /** Blob-store key of a version's BN patch ("versions/<id>/patch"). */
    static std::string patchKey(int64_t id);

  private:
    BlobStore *store_;
    int64_t nextId_ = 1;
};

} // namespace nazar::deploy

#endif // NAZAR_DEPLOY_REGISTRY_H
