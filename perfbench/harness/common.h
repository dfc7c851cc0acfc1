/**
 * @file
 * What every workload shares: options, the result it fills, the
 * per-layer metric table, and host probes.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/apps.h"
#include "nn/classifier.h"
#include "stats.h"

namespace perfbench {

class Attribution;

using Clock = std::chrono::steady_clock;

/**
 * Seed of the scenario fleet and diagnose share: the app, its weather
 * and the trained base model. --seed draws the traffic (event stream,
 * upload sampling, drift-log rows, ingest messages), so runs at
 * different seeds differ in their inputs but not in which causes
 * exist, and their spread measures the system rather than the
 * scenario.
 */
constexpr uint64_t kScenarioSeed = 13;

/** Cap on one measured phase, whatever its minimum sample count asks,
 *  so a run ends well inside its time limit on a slow host. */
constexpr double kMaxMeasureSeconds = 60.0;

double secondsSince(Clock::time_point start);

/** CPU time this process (every thread) or the calling thread has
 *  used, in seconds. Time the hypervisor steals is not counted. */
double processCpuSeconds();
double threadCpuSeconds();

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< Measured time budget of one run.
    bool trace = false;    ///< Report per-layer metrics, not end-to-end.
    std::filesystem::path outDir = ".bench_out";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produces. `metrics` is the result line: the
 * end-to-end metrics (untraced run) or the per-layer ones (traced
 * run). `report` holds the workload's own numbers under their
 * workload-specific names, and `meta` the run metadata.
 */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< Failed output checks.
    std::vector<Metric> metrics;
    std::vector<Metric> report;
    std::vector<std::pair<std::string, std::string>> meta;

    /** Record an output check; a false @p ok fails the run. */
    void check(bool ok, const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &name, double value,
              const std::string &unit);
};

/** Samples of one quantity with the wall interval each was taken over. */
struct Timed
{
    std::vector<double> values;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;

    void add(double value, Clock::time_point from, Clock::time_point to);
};

/**
 * The end-to-end metrics every workload reports, each the workload's
 * own reading of a shared quantity (see README.md). Each metric is the
 * quiet median of its samples (stats.h), judged by the steal sampler,
 * unless eventsPercentile says otherwise.
 */
struct EndToEnd
{
    Timed setupSeconds; ///< One per set-up.
    Timed eventsPerSec; ///< Per loop, 10k-row chunk or run (pooled).
    Timed opMs;         ///< Latency of one operation.
    /**
     * When not 0, events_per_s is this nearest-rank percentile of the
     * samples (in hundredths, as percentile() takes it). For
     * single-thread CPU-time rates: steal does not enter them, but a
     * neighbour busy on the same physical core slows a sample down by
     * up to half, so the upper percentile reads the uncontended rate.
     */
    unsigned eventsPercentile = 0;
};

/**
 * Samples the machine's CPU time counters (/proc/stat) every 20 ms on
 * a thread of its own, so any interval of the run can be given the
 * share of CPU time the hypervisor stole during it. One instance lives
 * for the run; endToEndMetrics() reads it through current().
 */
class StealSampler
{
  public:
    StealSampler();
    ~StealSampler();

    StealSampler(const StealSampler &) = delete;
    StealSampler &operator=(const StealSampler &) = delete;

    /** Stolen share of CPU time over [from, to], widened to at least
     *  100 ms so the 10 ms tick counters resolve it; 0 where
     *  /proc/stat is unreadable. */
    double share(Clock::time_point from, Clock::time_point to) const;

    /** The live sampler, or null. */
    static const StealSampler *current();

  private:
    struct Point
    {
        Clock::time_point t;
        uint64_t steal = 0;
        uint64_t total = 0;
    };

    static Point read();
    void run();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::vector<Point> points_;
    std::thread thread_; ///< Last: starts after the members it uses.
};

/** Fill @p result.metrics with the end-to-end metrics. */
void endToEndMetrics(const EndToEnd &e2e, Result &result);

/** Inputs to the per-layer table that do not come from the trace. */
struct LayerInputs
{
    double trainMs = 0.0;       ///< Benchmark-timed trainSupervised.
    double cloudIngestMs = 0.0; ///< Benchmark-timed Cloud::ingest.
    double adaptVersions = 0.0;
    double accDrifted = 0.0;
    double rcaCauses = 0.0;
    double busySent = 0.0;
    double batchSize = 0.0;
    double lateP99Ms = 0.0;
    /** Trace-epoch window whose queue waits are reported. */
    double waitFrom = 0.0, waitTo = 0.0;
    double walBytes = 0.0;
    double snapshotBytes = 0.0;
    double unattributedMs = 0.0;
    double traceOverhead = 0.0;
};

/**
 * Fill @p result.metrics with every per-layer metric listed in
 * BENCHMARK.json, zero where the workload does not reach the layer.
 */
void layerMetrics(const Attribution &attr, const LayerInputs &in,
                  Result &result);

/**
 * Reset the metric registry and the trace rings and switch tracing
 * on or off; a traced pass gets rings large enough to drop nothing.
 */
void beginPass(bool traced);

/** Write the trace rings as a Perfetto file into the output dir. */
void writeTrace(const Options &opts, Result &result);

/** Seconds since the trace epoch, the time base of trace events. */
double traceSeconds(Clock::time_point t);

/** A ResNet18-analog base trained on an app's clean data. */
struct TrainedBase
{
    nazar::nn::Classifier model;
    double seconds = 0.0; ///< trainSupervised wall (bench.train span).
};

TrainedBase trainBase(const nazar::data::AppSpec &app, uint64_t seed);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** Total size of the regular files under @p dir, in bytes. */
uint64_t dirBytes(const std::filesystem::path &dir);

Result runFleet(const Options &opts);
Result runIngest(const Options &opts);
Result runDiagnose(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
