#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "attribution.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace

double
processCpuSeconds()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

void
Result::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    check(std::isfinite(value), "metric " + name + " is not finite");
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Result::note(const std::string &name, double value,
             const std::string &unit)
{
    report.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Timed::add(double value, Clock::time_point from, Clock::time_point to)
{
    values.push_back(value);
    spans.emplace_back(from, to);
}

namespace {

/** Steal share of each sample, from the live sampler. */
Samples
withSteal(const Timed &timed)
{
    const StealSampler *sampler = StealSampler::current();
    Samples samples;
    for (size_t i = 0; i < timed.values.size(); ++i) {
        const auto &[from, to] = timed.spans[i];
        samples.add(timed.values[i], sampler ? sampler->share(from, to) : 0.0);
    }
    return samples;
}

} // namespace

void
endToEndMetrics(const EndToEnd &e2e, Result &result)
{
    result.check(!e2e.opMs.values.empty(), "no latency samples");
    result.check(!e2e.eventsPerSec.values.empty(), "no throughput samples");
    // Let the sampler read past the last sample's window.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const Samples ops = withSteal(e2e.opMs);
    result.metric("setup_s", withSteal(e2e.setupSeconds).quietMedian(), "s");
    result.metric("peak_rss_mb", peakRssMb(), "MB");
    result.metric("events_per_s",
                  e2e.eventsPercentile
                      ? percentile(e2e.eventsPerSec.values,
                                   e2e.eventsPercentile)
                      : withSteal(e2e.eventsPerSec).quietMedian(),
                  "ev/s");
    result.metric("latency_p50_ms", ops.quietMedian(), "ms");
    // The tail goes to the report, not the result: at the highest
    // percentile with ten samples beyond it, it spreads too widely
    // between runs to gate on (see README.md).
    const TailPick tail = highestPercentile(ops.values);
    result.note("latency_tail_ms", tail.value, "ms");
    result.note("latency_steal_share", median(ops.steal), "fraction");
    result.meta.emplace_back("latency_samples",
                             std::to_string(ops.values.size()));
    result.meta.emplace_back("latency_tail_percentile",
                             tail.found ? std::to_string(tail.percentile)
                                        : "none");
    result.meta.emplace_back(
        "events_samples", std::to_string(e2e.eventsPerSec.values.size()));
    result.meta.emplace_back(
        "setup_repeats", std::to_string(e2e.setupSeconds.values.size()));
}

namespace {

const StealSampler *g_sampler = nullptr;

} // namespace

StealSampler::StealSampler()
{
    points_.push_back(read());
    thread_ = std::thread([this] { run(); });
    g_sampler = this;
}

StealSampler::~StealSampler()
{
    g_sampler = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

const StealSampler *
StealSampler::current()
{
    return g_sampler;
}

StealSampler::Point
StealSampler::read()
{
    Point p;
    p.t = Clock::now();
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t field = 0;
    in >> cpu;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && in >> field; ++i) {
        p.total += field;
        if (i == 7)
            p.steal = field;
    }
    return p;
}

void
StealSampler::run()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(20),
                         [this] { return stopping_; })) {
        lk.unlock();
        const Point p = read();
        lk.lock();
        points_.push_back(p);
    }
}

double
StealSampler::share(Clock::time_point from, Clock::time_point to) const
{
    const auto minWindow = std::chrono::milliseconds(100);
    if (to - from < minWindow) {
        const auto pad = (minWindow - (to - from)) / 2;
        from -= pad;
        to += pad;
    }
    std::lock_guard<std::mutex> lk(mu_);
    auto byTime = [](const Point &p, Clock::time_point t) { return p.t < t; };
    // The last reading at or before `from`, the first at or after `to`.
    auto last = std::lower_bound(points_.begin(), points_.end(), to, byTime);
    if (last == points_.end())
        --last;
    auto first = std::lower_bound(points_.begin(), points_.end(), from,
                                  byTime);
    if (first != points_.begin() && (first == points_.end() || first->t > from))
        --first;
    const uint64_t total = last->total - first->total;
    return total ? double(last->steal - first->steal) / double(total) : 0.0;
}

void
layerMetrics(const Attribution &attr, const LayerInputs &in,
             Result &result)
{
    auto self = [&](const char *name) { return attr.totals(name).selfMs; };
    auto total = [&](const char *name) {
        return attr.totals(name).totalMs;
    };
    const NameTotals forward = attr.totals("nn.forward");
    const NameTotals matmul = attr.totals("nn.matmul");
    const auto snap = nazar::obs::Registry::global().snapshot();
    auto counter = [&](const char *name) -> double {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0.0 : double(it->second);
    };

    result.metric("nn.forward.calls", double(forward.calls), "count");
    result.metric("nn.forward.self_ms", forward.selfMs, "ms");
    result.metric("nn.matmul.calls", double(matmul.calls), "count");
    result.metric("nn.matmul.self_ms", matmul.selfMs, "ms");
    result.metric("nn.matmul.rows_per_call",
                  matmul.calls ? counter("nn.matmul.rows") / matmul.calls
                               : 0.0,
                  "rows");
    result.metric("nn.backward.self_ms", self("nn.backward"), "ms");
    result.metric("detect.msp.self_ms", self("detect.msp.is_drift"), "ms");
    result.metric("sim.window.self_ms", self("sim.window"), "ms");
    result.metric("sim.cloud.ingest_ms", in.cloudIngestMs, "ms");
    result.metric("adapt.ms", total("sim.cloud.adapt"), "ms");
    result.metric("adapt.samples", counter("nn.backward.rows"), "rows");
    result.metric("adapt.versions", in.adaptVersions, "count");
    result.metric("adapt.acc_drifted", in.accDrifted, "fraction");
    result.metric("rca.ms", total("sim.cloud.rca"), "ms");
    result.metric("rca.fim.mine.ms", total("rca.fim.mine"), "ms");
    result.metric("rca.fim.levelk.ms", total("rca.fim.levelk"), "ms");
    result.metric("rca.metrics.ms", total("rca.metrics"), "ms");
    result.metric("rca.walk.ms", total("rca.walk"), "ms");
    result.metric("rca.causes", in.rcaCauses, "count");
    result.metric("driftlog.query.self_ms",
                  attr.totalsWithPrefix("driftlog.query.").selfMs, "ms");

    // Server stages. persist.wal.sync times all of
    // Cloud::ingestBatchFrom, so it is reported as the commit.
    const double commitMs = total("persist.wal.sync");
    const std::vector<double> queueWait =
        attr.waitMs("server.queue_wait", in.waitFrom, in.waitTo);
    result.metric("server.read.decode.ms", total("server.read.decode"),
                  "ms");
    result.metric("server.encode.ms", total("server.encode"), "ms");
    result.metric("server.ack.ms", total("server.ack"), "ms");
    result.metric("server.busy_sent", in.busySent, "count");
    result.metric("server.queue_wait.p50_ms", percentile(queueWait, 5000),
                  "ms");
    result.metric("server.queue_wait.p99_ms", percentile(queueWait, 9900),
                  "ms");
    result.metric("server.commit.ms", commitMs, "ms");
    result.metric("server.batch_size", in.batchSize, "msgs");
    result.metric("loadgen.late_p99_ms", in.lateP99Ms, "ms");

    const NameTotals full = attr.totals("persist.snapshot");
    const NameTotals delta = attr.totals("persist.snapshot_delta");
    result.metric("persist.snapshot.count", double(full.calls), "count");
    result.metric("persist.snapshot.ms", full.totalMs, "ms");
    result.metric("persist.snapshot.max_ms", full.maxMs, "ms");
    result.metric("persist.snapshot_delta.count", double(delta.calls),
                  "count");
    result.metric("persist.snapshot_delta.ms", delta.totalMs, "ms");
    result.metric("persist.snapshot.commit_share",
                  commitMs > 0.0 ? (full.totalMs + delta.totalMs) / commitMs
                                 : 0.0,
                  "fraction");
    result.metric("persist.wal.bytes", in.walBytes, "B");
    result.metric("persist.snapshot.bytes", in.snapshotBytes, "B");
    result.metric("persist.recover.ms", total("persist.recover"), "ms");
    result.metric("persist.replayed_records",
                  counter("persist.recover.replayed_records"), "count");

    result.metric("train.ms", in.trainMs, "ms");
    result.metric("unattributed_ms", in.unattributedMs, "ms");
    result.metric("trace_overhead", in.traceOverhead, "ratio");
    result.metric("trace_dropped", double(nazar::obs::traceDropped()),
                  "count");
    result.check(nazar::obs::traceDropped() == 0,
                 "trace rings dropped events");
}

void
beginPass(bool traced)
{
    nazar::obs::setTracing(false);
    nazar::obs::clearTrace();
    nazar::obs::Registry::global().reset();
    // Per stripe; the rings grow only as far as the events need.
    nazar::obs::setTraceCapacity(size_t{1} << 24);
    nazar::obs::setTracing(traced);
}

void
writeTrace(const Options &opts, Result &result)
{
    std::filesystem::create_directories(opts.outDir);
    const auto path = opts.outDir / (opts.workload + ".trace.json");
    nazar::obs::writeTraceFile(path.string());
    result.meta.emplace_back("trace_file", path.string());
}

double
traceSeconds(Clock::time_point t)
{
    return std::chrono::duration<double>(
               t - nazar::obs::Registry::global().epoch())
        .count();
}

TrainedBase
trainBase(const nazar::data::AppSpec &app, uint64_t seed)
{
    static nazar::obs::SpanSite trainSite("bench.train");
    nazar::nn::Classifier model(nazar::nn::Architecture::kResNet18,
                                app.domain.featureDim(),
                                app.domain.numClasses(), seed);
    nazar::Rng rng(seed);
    nazar::data::Dataset train =
        app.domain.makeBalancedDataset(app.trainPerClass, rng);
    nazar::obs::ScopedSpan span(trainSite);
    model.trainSupervised(train.x, train.labels, nazar::nn::TrainConfig{});
    const double seconds = span.stop();
    return {std::move(model), seconds};
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
dirBytes(const std::filesystem::path &dir)
{
    uint64_t bytes = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

} // namespace perfbench
