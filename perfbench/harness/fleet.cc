/**
 * @file
 * The fleet workload: the paper's monitor → diagnose → adapt loop run
 * in-process by sim::Runner with the Nazar strategy, a pretrained
 * ResNet18-analog base, persistence off and the paper-default upload
 * rate. Device inference with MSP detection and TENT adaptation do
 * the work; there is no socket, WAL or snapshot.
 */
#include <memory>

#include "attribution.h"
#include "common.h"
#include "data/apps.h"
#include "data/stream.h"
#include "data/weather.h"
#include "obs/span.h"
#include "sim/runner.h"
#include "stats.h"

namespace perfbench {

namespace {

constexpr int kDays = 56;
constexpr int kWindows = 8;
constexpr int kDevicesPerLocation = 4;
constexpr double kImagesPerDay = 16.0;
constexpr size_t kClasses = 8;
constexpr int kSetups = 5;
constexpr size_t kMinLoops = 20;
constexpr size_t kTracedLoops = 3;

/** Everything one Runner needs; heap-held because Runner keeps
 *  references to the app and the weather. */
struct Fleet
{
    nazar::data::AppSpec app;
    nazar::data::WeatherModel weather;
    TrainedBase base;
    nazar::sim::RunnerConfig config;
    size_t streamEvents = 0; ///< Size of the generated event stream.
};

std::unique_ptr<Fleet>
setUp(uint64_t seed)
{
    using namespace nazar;
    data::AppSpec app = data::makeAnimalsApp(kScenarioSeed, kClasses);
    data::WeatherModel weather(app.locations, kDays, kScenarioSeed);
    TrainedBase base = trainBase(app, kScenarioSeed);
    auto fleet = std::unique_ptr<Fleet>(new Fleet{
        std::move(app), std::move(weather), std::move(base), {}, 0});
    sim::RunnerConfig &config = fleet->config;
    config.arch = nn::Architecture::kResNet18;
    config.strategy = sim::Strategy::kNazar;
    config.windows = kWindows;
    config.uploadSampleRate = 0.25;
    config.workload.days = kDays;
    config.workload.devicesPerLocation = kDevicesPerLocation;
    config.workload.imagesPerDevicePerDay = kImagesPerDay;
    config.workload.seed = seed;
    config.seed = seed;
    fleet->streamEvents =
        data::WorkloadGenerator(fleet->app, fleet->weather, config.workload)
            .generate()
            .size();
    return fleet;
}

/** One pass: loops of Runner::run until the budget is spent. */
struct Pass
{
    std::vector<double> loopMs;
    EndToEnd e2e; ///< Loop rates and walls with their steal shares.
    double accDrifted = 0.0;
    size_t versions = 0;
    size_t causes = 0;
};

Pass
runLoops(const Fleet &fleet, double budget, size_t minLoops,
         size_t maxLoops, Result &result)
{
    static nazar::obs::SpanSite loopSite("bench.fleet.loop");
    nazar::sim::Runner runner(fleet.app, fleet.weather, fleet.config,
                              &fleet.base.model);
    Pass pass;
    const auto start = Clock::now();
    while (pass.loopMs.size() < maxLoops &&
           (pass.loopMs.size() < minLoops || secondsSince(start) < budget) &&
           secondsSince(start) < kMaxMeasureSeconds) {
        const auto t0 = Clock::now();
        nazar::obs::ScopedSpan span(loopSite);
        nazar::sim::RunResult r = runner.run();
        const double seconds = span.stop();
        const auto t1 = Clock::now();
        size_t events = 0, versions = 0, causes = 0;
        for (const auto &w : r.windows) {
            events += w.events;
            versions += w.newVersions;
            causes += w.rootCauses;
        }
        result.attempted += events;
        result.check(events == fleet.streamEvents,
                     "fleet: events over windows != generated stream");
        result.check(r.cloudCrashes == 0 && r.cloudDiskFaults == 0,
                     "fleet: cloud was rebuilt");
        const double acc = r.avgAccuracyDrifted();
        if (pass.loopMs.empty()) {
            pass.accDrifted = acc;
            pass.versions = versions;
            pass.causes = causes;
        }
        result.check(acc == pass.accDrifted,
                     "fleet: loops of one seed disagree on acc_drifted");
        pass.loopMs.push_back(seconds * 1e3);
        pass.e2e.opMs.add(seconds * 1e3, t0, t1);
        pass.e2e.eventsPerSec.add(static_cast<double>(events) / seconds, t0,
                                  t1);
    }
    return pass;
}

} // namespace

Result
runFleet(const Options &opts)
{
    Result result;
    result.meta.emplace_back(
        "fleet", "animals/" + std::to_string(kClasses) + " classes, " +
                     std::to_string(kDevicesPerLocation) +
                     " devices/location x " +
                     std::to_string(int(kImagesPerDay)) + " images/day x " +
                     std::to_string(kDays) + " days, " +
                     std::to_string(kWindows) + " windows");

    if (!opts.trace) {
        beginPass(false);
        Timed setup;
        std::unique_ptr<Fleet> fleet;
        for (int i = 0; i < kSetups; ++i) {
            const auto t0 = Clock::now();
            const double cpu0 = processCpuSeconds();
            fleet = setUp(opts.seed);
            setup.add(processCpuSeconds() - cpu0, t0, Clock::now());
        }
        Pass pass = runLoops(*fleet, opts.seconds, kMinLoops, 1000, result);
        pass.e2e.setupSeconds = setup;
        endToEndMetrics(pass.e2e, result);
        result.note("acc_drifted", pass.accDrifted, "fraction");
        result.note("stream_events", double(fleet->streamEvents), "count");
        return result;
    }

    // Per-layer run: an untraced pass, then the same work traced. Set-up
    // stays outside the trace so its training does not count as nn
    // work of the loop; train.ms is the benchmark's own span.
    beginPass(false);
    Pass plain = runLoops(*setUp(opts.seed), 0.0, kTracedLoops,
                          kTracedLoops, result);
    std::unique_ptr<Fleet> fleet = setUp(opts.seed);
    beginPass(true);
    Pass traced = runLoops(*fleet, 0.0, kTracedLoops, kTracedLoops, result);
    nazar::obs::setTracing(false);
    result.check(traced.accDrifted == plain.accDrifted,
                 "fleet: traced acc_drifted differs from untraced");

    Attribution attr(nazar::obs::traceEvents(), {});
    LayerInputs in;
    in.trainMs = fleet->base.seconds * 1e3;
    in.adaptVersions = double(traced.versions * traced.loopMs.size());
    in.rcaCauses = double(traced.causes * traced.loopMs.size());
    in.accDrifted = traced.accDrifted;
    // The loop span's self time: the blocking thread's wall that no
    // library span covers.
    in.unattributedMs = attr.totals("bench.fleet.loop").selfMs;
    in.traceOverhead = median(traced.loopMs) / median(plain.loopMs);
    layerMetrics(attr, in, result);
    writeTrace(opts, result);
    return result;
}

} // namespace perfbench
