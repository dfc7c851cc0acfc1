/**
 * @file
 * The diagnose workload: in-process Cloud::ingest of a large drift log
 * with planted weather-correlated causes and sparse uploads, then
 * Cloud::runCycle, over and over. Root-cause analysis is most of each
 * cycle here (it is a small share of fleet); the drift log is written
 * by the appends and scanned by the miner.
 */
#include <algorithm>
#include <cstdio>
#include <optional>

#include "attribution.h"
#include "common.h"
#include "data/apps.h"
#include "data/corruption.h"
#include "data/weather.h"
#include "obs/span.h"
#include "sim/cloud.h"
#include "stats.h"

namespace perfbench {

namespace {

using nazar::driftlog::DriftLogEntry;
using nazar::rca::AttributeSet;
using nazar::sim::Upload;

constexpr size_t kRowsPerCycle = 100000;
constexpr size_t kUploadEvery = 100;
/** Rows per append-rate sample: about 10 ms of appends, short enough
 *  that a run has samples clear of a busy neighbour on the core. */
constexpr size_t kChunkRows = 10000;
/** events_per_s is this percentile of the chunk rates (hundredths). */
constexpr unsigned kEventsPercentile = 9900;
constexpr size_t kDevices = 112;
constexpr size_t kClasses = 8;
constexpr int kSetups = 5;
constexpr size_t kMinCycles = 24;
constexpr size_t kTracedCycles = 4;

/** Weather strings as the fleet writes them (data::toString). */
const char *const kWeathers[] = {"clear-day", "rain", "snow", "fog"};
/** Location of the planted rain cause (index into the app's list). */
constexpr size_t kRainLocation = 4;

/** The planted causes: {snow}, {fog} and {rain at one location}. */
std::vector<AttributeSet>
plantedCauses(const nazar::data::AppSpec &app)
{
    using nazar::driftlog::Value;
    return {
        AttributeSet({{"weather", Value("snow")}}),
        AttributeSet({{"weather", Value("fog")}}),
        AttributeSet({{"location", Value(app.locations[kRainLocation].name)},
                      {"weather", Value("rain")}}),
    };
}

/** The app and the base model the cloud adapts. */
struct Setup
{
    nazar::data::AppSpec app;
    TrainedBase base;
};

std::unique_ptr<Setup>
setUp()
{
    nazar::data::AppSpec app =
        nazar::data::makeAnimalsApp(kScenarioSeed, kClasses);
    TrainedBase base = trainBase(app, kScenarioSeed);
    return std::unique_ptr<Setup>(new Setup{std::move(app), std::move(base)});
}

/** One cycle's telemetry, generated from (seed, cycle). */
struct CycleInput
{
    std::vector<DriftLogEntry> rows;
    std::vector<std::optional<Upload>> uploads;
};

CycleInput
makeCycle(const Setup &s, uint64_t seed, size_t cycle)
{
    using namespace nazar;
    Rng rng(seed * 1000003 + cycle);
    const auto &locations = s.app.locations;
    data::Corruptor corruptor(s.app.domain.featureDim());
    data::Dataset samples = s.app.domain.makeBalancedDataset(
        kRowsPerCycle / kUploadEvery / kClasses + 1, rng);
    CycleInput in;
    in.rows.reserve(kRowsPerCycle);
    in.uploads.resize(kRowsPerCycle);
    for (size_t i = 0; i < kRowsPerCycle; ++i) {
        const int device = static_cast<int>(rng.index(kDevices));
        const size_t loc = static_cast<size_t>(device) % locations.size();
        const size_t w = rng.index(4);
        const bool planted = w == 2 || w == 3 ||
                             (w == 1 && loc == kRainLocation);
        DriftLogEntry e;
        e.time = SimDate(static_cast<int>(cycle));
        e.deviceId = data::deviceName(device);
        e.deviceModel = data::deviceModel(device);
        e.location = locations[loc].name;
        e.weather = kWeathers[w];
        e.modelVersion = 0;
        e.drift = rng.bernoulli(planted ? 0.8 : 0.05);
        if (i % kUploadEvery == 0) {
            const size_t k = (i / kUploadEvery) % samples.size();
            const data::Weather weather = data::weatherFromString(e.weather);
            Upload up;
            up.features = corruptor.apply(samples.x.rowVec(k),
                                          data::weatherCorruption(weather),
                                          3, rng);
            up.context = AttributeSet({
                {"weather", driftlog::Value(e.weather)},
                {"location", driftlog::Value(e.location)},
                {"device_id", driftlog::Value(e.deviceId)},
                {"device_model", driftlog::Value(e.deviceModel)},
            });
            up.driftFlag = e.drift;
            in.uploads[i] = std::move(up);
        }
        in.rows.push_back(std::move(e));
    }
    return in;
}

struct Pass
{
    std::vector<double> cycleMs;
    EndToEnd e2e; ///< Append rates and cycle walls with steal shares.
    double ingestSeconds = 0.0;
    size_t versions = 0;
    size_t causes = 0;
    std::vector<std::string> causeLists; ///< One per cycle, rank order.
};

Pass
runCycles(const Setup &s, uint64_t seed, double budget, size_t minCycles,
          size_t maxCycles, Result &result)
{
    using namespace nazar;
    static obs::SpanSite ingestSite("bench.diagnose.ingest");
    static obs::SpanSite cycleSite("bench.diagnose.cycle");
    const std::vector<AttributeSet> planted = plantedCauses(s.app);
    sim::Cloud cloud(sim::CloudConfig{}, s.base.model);
    nn::BnPatch clean = s.base.model.bnPatch();
    Pass pass;
    const auto start = Clock::now();
    for (size_t c = 0;
         c < maxCycles && (c < minCycles || secondsSince(start) < budget) &&
         secondsSince(start) < kMaxMeasureSeconds;
         ++c) {
        CycleInput in = makeCycle(s, seed, c);
        // Cloud::ingest runs on this thread alone, so its CPU time is
        // its wall time less what the hypervisor stole. Each chunk of
        // rows is one rate sample (see kChunkRows).
        obs::ScopedSpan ingestSpan(ingestSite);
        for (size_t from = 0; from < in.rows.size(); from += kChunkRows) {
            const size_t to = std::min(from + kChunkRows, in.rows.size());
            const auto c0 = Clock::now();
            const double cpu0 = threadCpuSeconds();
            for (size_t i = from; i < to; ++i)
                cloud.ingest(in.rows[i], std::move(in.uploads[i]));
            const double cpu = threadCpuSeconds() - cpu0;
            pass.e2e.eventsPerSec.add(double(to - from) / cpu, c0,
                                      Clock::now());
        }
        pass.ingestSeconds += ingestSpan.stop();
        const auto t1 = Clock::now();
        result.attempted += in.rows.size();

        obs::ScopedSpan cycleSpan(cycleSite);
        sim::CycleResult r = cloud.runCycle(clean);
        pass.cycleMs.push_back(cycleSpan.stop() * 1e3);
        pass.e2e.opMs.add(pass.cycleMs.back(), t1, Clock::now());
        if (r.newCleanPatch.has_value())
            clean = *r.newCleanPatch;

        std::string list;
        for (const auto &cause : r.analysis.rootCauses)
            list += cause.attrs.toString() + ";";
        for (const auto &p : planted) {
            bool found = std::any_of(
                r.analysis.rootCauses.begin(), r.analysis.rootCauses.end(),
                [&](const auto &cause) { return cause.attrs == p; });
            result.check(found, "diagnose: cycle " + std::to_string(c) +
                                    " missed planted cause " +
                                    p.toString());
        }
        pass.causeLists.push_back(std::move(list));
        pass.causes += r.analysis.rootCauses.size();
        pass.versions += r.newVersions.size();
    }
    return pass;
}

/** FNV-1a over the cause lists of the first kMinCycles cycles, so two
 *  runs of one seed can be compared from their reports. */
std::string
digest(const std::vector<std::string> &lists)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t c = 0; c < std::min(lists.size(), kMinCycles); ++c)
        for (char ch : lists[c] + "\n")
            h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

Result
runDiagnose(const Options &opts)
{
    Result result;
    result.meta.emplace_back(
        "diagnose", std::to_string(kRowsPerCycle) +
                        " rows/cycle, 1 upload per " +
                        std::to_string(kUploadEvery) + " rows, " +
                        std::to_string(kDevices) + " devices");

    if (!opts.trace) {
        beginPass(false);
        Timed setup;
        std::unique_ptr<Setup> s;
        for (int i = 0; i < kSetups; ++i) {
            const auto t0 = Clock::now();
            const double cpu0 = processCpuSeconds();
            s = setUp();
            setup.add(processCpuSeconds() - cpu0, t0, Clock::now());
        }
        Pass pass = runCycles(*s, opts.seed, opts.seconds, kMinCycles,
                              1000, result);
        pass.e2e.setupSeconds = setup;
        pass.e2e.eventsPercentile = kEventsPercentile;
        endToEndMetrics(pass.e2e, result);
        result.note("causes_per_cycle",
                    double(pass.causes) / double(pass.cycleMs.size()),
                    "count");
        result.meta.emplace_back("cycle0_causes", pass.causeLists.front());
        result.meta.emplace_back("causes_digest", digest(pass.causeLists));
        return result;
    }

    // Per-layer run: an untraced pass, then the same cycles traced.
    beginPass(false);
    Pass plain = runCycles(*setUp(), opts.seed, 0.0,
                           kTracedCycles, kTracedCycles, result);
    std::unique_ptr<Setup> s = setUp();
    beginPass(true);
    Pass traced = runCycles(*s, opts.seed, 0.0, kTracedCycles,
                            kTracedCycles, result);
    nazar::obs::setTracing(false);
    result.check(traced.causeLists == plain.causeLists,
                 "diagnose: traced cause lists differ from untraced");

    Attribution attr(nazar::obs::traceEvents(), {});
    LayerInputs in;
    in.trainMs = s->base.seconds * 1e3;
    in.cloudIngestMs = traced.ingestSeconds * 1e3;
    in.adaptVersions = double(traced.versions);
    in.rcaCauses = double(traced.causes);
    // The cycle spans' self time: runCycle wall outside every library
    // span (Cloud::ingest has no span; its time is sim.cloud.ingest_ms).
    in.unattributedMs = attr.totals("bench.diagnose.cycle").selfMs;
    double plainMs = plain.ingestSeconds * 1e3, tracedMs = in.cloudIngestMs;
    for (double ms : plain.cycleMs)
        plainMs += ms;
    for (double ms : traced.cycleMs)
        tracedMs += ms;
    in.traceOverhead = tracedMs / plainMs;
    layerMetrics(attr, in, result);
    writeTrace(opts, result);
    return result;
}

} // namespace perfbench
