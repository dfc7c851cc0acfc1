/**
 * @file
 * The scripted cloud scenario shared by the durability tests
 * (test_persist.cc, test_diskfault.cc): its model, its deterministic
 * drift-log entries and uploads, and the observed-state oracle the
 * crash and disk-fault sweeps compare against. The oracle reads only
 * sim::Cloud's public accessors, so it stays independent of the state
 * struct it checks.
 */
#ifndef NAZAR_TESTS_CLOUD_SCRIPT_H
#define NAZAR_TESTS_CLOUD_SCRIPT_H

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "persist/snapshot.h"
#include "sim/cloud.h"

namespace nazar::persist {

inline data::AppSpec &
scriptApp()
{
    static data::AppSpec app = data::makeAnimalsApp(13, 8);
    return app;
}

inline nn::Classifier &
scriptBase()
{
    static nn::Classifier base(nn::Architecture::kResNet18,
                               scriptApp().domain.featureDim(),
                               scriptApp().domain.numClasses(), 5);
    return base;
}

inline driftlog::DriftLogEntry
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

inline std::optional<sim::Upload>
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

/** Everything a sweep compares between a crashed or faulted run and
 *  the oracle, as sim::Cloud's public accessors show it. */
struct ObservedState
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

inline ObservedState
captureState(sim::Cloud &cloud)
{
    ObservedState st;
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

inline void
expectStateEq(const ObservedState &got, const ObservedState &want,
              const std::string &label, size_t fault_slack = 0)
{
    EXPECT_EQ(got.driftCsv, want.driftCsv) << label;
    EXPECT_EQ(got.uploadCount, want.uploadCount) << label;
    EXPECT_EQ(got.totalIngested, want.totalIngested) << label;
    EXPECT_EQ(got.nextVersionId, want.nextVersionId) << label;
    EXPECT_EQ(got.logicalTime, want.logicalTime) << label;
    EXPECT_EQ(got.versionIds, want.versionIds) << label;
    EXPECT_EQ(got.blobs, want.blobs) << label;
    EXPECT_EQ(got.dedup, want.dedup) << label;
    // A fault after the WAL append but before the in-memory apply
    // makes the retry a retransmission the dedup window absorbs, at
    // the cost of at most one extra dedup hit per fault.
    EXPECT_GE(got.dedupHits, want.dedupHits) << label;
    EXPECT_LE(got.dedupHits, want.dedupHits + fault_slack) << label;
}

} // namespace nazar::persist

#endif // NAZAR_TESTS_CLOUD_SCRIPT_H
