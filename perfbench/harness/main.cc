/**
 * @file
 * The repository benchmark's entry point.
 *
 * Usage: perfbench --workload fleet|ingest|diagnose --seed N
 *                  --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Prints two JSON lines on stdout. The first is the run's report: its
 * metadata, the workload's own end-to-end numbers and any failed
 * output check. The last is the result: `correct`, `attempted`,
 * `failed` and `metrics` — the end-to-end metrics with --trace 0, the
 * per-layer metrics of a traced run with --trace 1. Exits 1 when an
 * output check fails and 2 on a usage error or an exception.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/logging.h"
#include "runtime/thread_pool.h"

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fleet|ingest|diagnose --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n",
                 msg);
    return 2;
}

bool
parse(int argc, char **argv, Options &opts)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opts.trace = std::string(value) == "1";
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else {
            return false;
        }
        if (end != nullptr && (end == value || *end != '\0'))
            return false;
    }
    return argc % 2 == 1 && haveWorkload && opts.seconds > 0.0 &&
           opts.seconds <= 60.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts))
        return usage("bad arguments");
    nazar::setLogLevel(nazar::LogLevel::kSilent);

    Result result;
    try {
        const StealSampler steal;
        if (opts.workload == "fleet")
            result = runFleet(opts);
        else if (opts.workload == "ingest")
            result = runIngest(opts);
        else if (opts.workload == "diagnose")
            result = runDiagnose(opts);
        else
            return usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 2;
    }

    const char *envThreads = std::getenv("NAZAR_THREADS");
    std::ostringstream report;
    report << "{\"workload\": " << jsonString(opts.workload)
           << ", \"seed\": " << opts.seed
           << ", \"seconds\": " << jsonNumber(opts.seconds)
           << ", \"trace\": " << (opts.trace ? 1 : 0)
           << ", \"host_cores\": " << std::thread::hardware_concurrency()
           << ", \"nazar_threads_env\": "
           << (envThreads ? jsonString(envThreads) : "null")
           << ", \"threads\": " << nazar::runtime::threadCount()
           << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE);
    for (const auto &[key, value] : result.meta)
        report << ", " << jsonString(key) << ": " << jsonString(value);
    report << ", \"report\": " << metricsJson(result.report)
           << ", \"failures\": [";
    for (size_t i = 0; i < result.failures.size(); ++i)
        report << (i ? ", " : "") << jsonString(result.failures[i]);
    report << "]}";
    for (const auto &f : result.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

    const bool correct = result.failures.empty();
    std::printf("%s\n", report.str().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metricsJson(result.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
