/**
 * @file
 * The ingest workload: a persisted sim::Cloud (fdatasync, default
 * snapshot cadence) behind server::IngestServer on loopback, driven by
 * net::IngestClient threads in this process, in three phases on one
 * state directory:
 *  1. paced: an open loop at a fixed total rate, each ack timed from
 *     the send time its schedule gave it;
 *  2. saturated: every client sends as fast as it can;
 *  3. recover: rebuild a Cloud from the directory, several times.
 * Transport, the single committer, WAL append and fsync, drift-log
 * apply and snapshot writes do the work; no nn, RCA or TENT.
 */
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "attribution.h"
#include "common.h"
#include "common/rng.h"
#include "common/sim_date.h"
#include "net/ingest_client.h"
#include "nn/classifier.h"
#include "obs/span.h"
#include "persist/cloud_persist.h"
#include "server/ingest_server.h"
#include "sim/cloud.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using nazar::net::WireIngest;

constexpr int kClients = 4;
/** Paced total rate, about a third of saturation. A client reads acks
 *  when it next sends, so ack latency resolves to one send interval,
 *  kClients / kPacedRate; see README.md for why it is not finer. */
constexpr double kPacedRate = 6000.0;
constexpr size_t kPacedEvents = 18000; ///< 3 s at kPacedRate.
constexpr size_t kSaturatedEvents = 100000;
/** Approximate wall of one round; --seconds / this sets the rounds. */
constexpr double kRoundSeconds = 10.0;
constexpr int kUploadEvery = 4;
constexpr int kFeatureDim = 8;
constexpr int kRecoveries = 5;
constexpr int kSetups = 5; ///< At least; one per round.

const char *const kModels[] = {"pixel-4", "galaxy-s10", "xperia-5", "mi-9"};
const char *const kLocations[] = {"park",   "street", "indoor",
                                  "harbor", "forest", "rooftop"};
const char *const kWeather[] = {"clear-day", "rain", "fog", "snow"};

/** Per-client message streams for both load phases. */
struct Inputs
{
    std::vector<std::vector<WireIngest>> paced;
    std::vector<std::vector<WireIngest>> saturated;
};

WireIngest
makeEvent(nazar::Rng &rng, int client, uint64_t seq)
{
    WireIngest m;
    m.device = 1000 + client;
    m.seq = seq;
    const int e = static_cast<int>(seq);
    m.entry.time = nazar::SimDate(e / 288, (e % 288) * 300);
    m.entry.deviceId = "bench-device-" + std::to_string(client);
    m.entry.deviceModel = kModels[rng.index(4)];
    m.entry.location = kLocations[rng.index(6)];
    m.entry.weather = kWeather[rng.index(4)];
    m.entry.modelVersion = 1;
    m.entry.drift = rng.bernoulli(0.15);
    if (seq % kUploadEvery == 0) {
        nazar::persist::UploadRecord up;
        for (int f = 0; f < kFeatureDim; ++f)
            up.features.push_back(rng.normal(0.0, 1.0));
        up.context = nazar::rca::AttributeSet(
            {{"location", nazar::driftlog::Value(m.entry.location)},
             {"weather", nazar::driftlog::Value(m.entry.weather)}});
        up.driftFlag = m.entry.drift;
        m.upload = std::move(up);
    }
    return m;
}

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    in.paced.resize(kClients);
    in.saturated.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
        nazar::Rng rng(seed * 7919 + static_cast<uint64_t>(c));
        uint64_t seq = 1;
        for (size_t k = 0; k < kPacedEvents / kClients; ++k)
            in.paced[c].push_back(makeEvent(rng, c, seq++));
        for (size_t k = 0; k < kSaturatedEvents / kClients; ++k)
            in.saturated[c].push_back(makeEvent(rng, c, seq++));
    }
    return in;
}

/** A persisted cloud behind a started server on a fresh directory. */
struct Stack
{
    fs::path dir;
    nazar::sim::CloudConfig config;
    std::unique_ptr<nazar::nn::Classifier> base;
    std::unique_ptr<nazar::sim::Cloud> cloud;
    std::unique_ptr<nazar::server::IngestServer> server;

    ~Stack()
    {
        server.reset();
        cloud.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
};

std::unique_ptr<Stack>
startStack(const fs::path &dir, uint64_t seed)
{
    auto s = std::make_unique<Stack>();
    s->dir = dir;
    fs::remove_all(dir);
    fs::create_directories(dir);
    s->config.persist.dir = dir.string();
    s->config.persist.sync = nazar::persist::SyncMode::kFdatasync;
    // The cloud keeps a reference for adaptation, which ingest never
    // reaches; an untrained model will do.
    s->base = std::make_unique<nazar::nn::Classifier>(
        nazar::nn::Architecture::kResNet18, kFeatureDim, 2, seed);
    s->cloud = std::make_unique<nazar::sim::Cloud>(s->config, *s->base);
    s->server = std::make_unique<nazar::server::IngestServer>(*s->cloud);
    s->server->start();
    return s;
}

/** What one client thread saw. */
struct ClientRun
{
    nazar::net::ClientStats stats;
    std::vector<double> ackMs;  ///< Paced: ack observed − due time.
    std::vector<Clock::time_point> ackDue; ///< Paced: each ack's due time.
    std::vector<double> lateMs; ///< Paced: actual − due send time.
    std::string error;
};

/**
 * Run one load phase: every client connects, then all start at one
 * instant. @p rate > 0 paces client c's k-th message at
 * start + (k·clients + c) / rate; rate 0 sends back to back.
 * Returns the phase wall from the common start to the last bye.
 */
double
runPhase(uint16_t port, const std::vector<std::vector<WireIngest>> &streams,
         double rate, std::vector<ClientRun> &runs,
         Clock::time_point &startOut)
{
    runs.assign(streams.size(), ClientRun{});
    std::vector<std::unique_ptr<nazar::net::IngestClient>> clients;
    for (size_t c = 0; c < streams.size(); ++c)
        clients.push_back(std::make_unique<nazar::net::IngestClient>(
            port, nazar::net::FaultConfig{}, "bench-" + std::to_string(c)));
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    startOut = start;
    std::vector<std::jthread> threads; // joined on every exit path
    for (size_t c = 0; c < streams.size(); ++c) {
        threads.emplace_back([&, c] {
            ClientRun &run = runs[c];
            nazar::net::IngestClient &client = *clients[c];
            std::unordered_map<uint64_t, Clock::time_point> due;
            if (rate > 0.0) {
                client.setAckObserver([&](const nazar::net::WireAck &ack) {
                    auto it = due.find(ack.seq);
                    if (it == due.end())
                        return;
                    run.ackMs.push_back(
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - it->second)
                            .count());
                    run.ackDue.push_back(it->second);
                    due.erase(it);
                });
            }
            // Wake on schedule: the default 50 us timer slack is large
            // against the paced send interval.
            if (rate > 0.0)
                ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            try {
                std::this_thread::sleep_until(start);
                const auto &stream = streams[c];
                for (size_t k = 0; k < stream.size(); ++k) {
                    if (rate > 0.0) {
                        const auto when =
                            start + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(
                                            double(k * streams.size() + c) /
                                            rate));
                        std::this_thread::sleep_until(when);
                        run.lateMs.push_back(
                            std::chrono::duration<double, std::milli>(
                                Clock::now() - when)
                                .count());
                        due.emplace(stream[k].seq, when);
                    }
                    client.sendIngest(stream[k]);
                }
                client.bye();
                run.stats = client.stats();
            } catch (const std::exception &e) {
                run.error = e.what();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return secondsSince(start);
}

/** One pass of all three phases on a fresh directory. */
struct Pass
{
    double saturatedSeconds = 0.0;
    /** Phase windows in trace-epoch seconds. */
    double pacedStart = 0.0, pacedEnd = 0.0, satStart = 0.0, satEnd = 0.0;
    uint64_t accepted = 0;
    double satAccepted = 0.0;
    std::vector<double> lateMs, recoverMs;
    Timed ackMs;   ///< Paced acks, each over [due, observed].
    Clock::time_point satFrom, satTo;
    nazar::server::ServerStats server;
    uint64_t walBytes = 0, stateBytes = 0;
};

void
checkPhase(const std::vector<ClientRun> &runs,
           const std::vector<std::vector<WireIngest>> &streams,
           const std::string &phase, Result &result, uint64_t &accepted)
{
    for (size_t c = 0; c < runs.size(); ++c) {
        const auto &r = runs[c];
        result.check(r.error.empty(),
                     "ingest " + phase + ": client failed: " + r.error);
        result.check(r.stats.sent == streams[c].size() &&
                         r.stats.acksAccepted == r.stats.sent &&
                         r.stats.acksRejected == 0,
                     "ingest " + phase + ": exactly-once reconciliation");
        result.attempted += streams[c].size();
        result.failed += streams[c].size() - std::min<uint64_t>(
                                                 streams[c].size(),
                                                 r.stats.acksAccepted);
        accepted += r.stats.acksAccepted;
    }
}

Pass
runPass(std::unique_ptr<Stack> stack, const Inputs &in, Result &result)
{
    Pass pass;
    const uint16_t port = stack->server->port();
    std::vector<ClientRun> runs;
    Clock::time_point start;

    const double pacedSeconds =
        runPhase(port, in.paced, kPacedRate, runs, start);
    pass.pacedStart = traceSeconds(start);
    pass.pacedEnd = pass.pacedStart + pacedSeconds;
    checkPhase(runs, in.paced, "paced", result, pass.accepted);
    for (const auto &r : runs) {
        for (size_t i = 0; i < r.ackMs.size(); ++i)
            pass.ackMs.add(r.ackMs[i], r.ackDue[i],
                           r.ackDue[i] +
                               std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       r.ackMs[i])));
        pass.lateMs.insert(pass.lateMs.end(), r.lateMs.begin(),
                           r.lateMs.end());
    }

    const uint64_t before = pass.accepted;
    pass.saturatedSeconds = runPhase(port, in.saturated, 0.0, runs, start);
    pass.satFrom = start;
    pass.satTo = Clock::now();
    pass.satStart = traceSeconds(start);
    pass.satEnd = pass.satStart + pass.saturatedSeconds;
    checkPhase(runs, in.saturated, "saturated", result, pass.accepted);
    pass.satAccepted = double(pass.accepted - before);

    pass.server = stack->server->stats();
    result.check(pass.server.protocolErrors == 0,
                 "ingest: server saw protocol errors");
    stack->server->stop();
    stack->server.reset();
    stack->cloud.reset(); // releases the WAL before recovery reopens it
    pass.stateBytes = dirBytes(stack->dir);
    std::error_code ec;
    pass.walBytes = fs::file_size(stack->dir / "wal.log", ec);

    static nazar::obs::SpanSite recoverSite("bench.ingest.recover");
    for (int i = 0; i < kRecoveries; ++i) {
        nazar::obs::ScopedSpan span(recoverSite);
        nazar::sim::Cloud cloud(stack->config, *stack->base);
        pass.recoverMs.push_back(span.stop() * 1e3);
        result.check(cloud.totalIngested() == pass.accepted,
                     "ingest: recovered totalIngested != accepted acks");
    }
    const auto scrub = nazar::persist::scrubStateDir(stack->dir);
    result.check(scrub.ok, "ingest: scrubStateDir found issues");
    return pass;
}

fs::path
stateDir(const Options &opts)
{
    return opts.outDir / ("ingest-state-" + std::to_string(::getpid()));
}

} // namespace

Result
runIngest(const Options &opts)
{
    Result result;
    result.meta.emplace_back(
        "ingest", std::to_string(kClients) + " clients, paced " +
                      std::to_string(int(kPacedRate)) + " ev/s x " +
                      std::to_string(kPacedEvents) + " events, saturated " +
                      std::to_string(kSaturatedEvents) + " events");
    result.meta.emplace_back("sync_mode", "fdatasync");

    if (!opts.trace) {
        // Rounds of all three phases, each on a fresh directory; the
        // run's numbers are medians over rounds (latencies pooled),
        // except throughput, which pools the saturated phases of all
        // rounds: a single round's rate swings with the steal in it.
        const int rounds =
            std::max(1, static_cast<int>(opts.seconds / kRoundSeconds + 0.5));
        beginPass(false);
        EndToEnd e2e;
        std::vector<double> recoverMs, stateMb, lateMs;
        double satAccepted = 0.0, satSeconds = 0.0;
        Clock::time_point satFrom, satTo;
        for (int r = 0; r < rounds; ++r) {
            // Extra set-ups before the first round steady setup_s.
            std::unique_ptr<Stack> stack;
            Inputs in;
            const int setups = r == 0 ? std::max(1, kSetups - rounds + 1) : 1;
            for (int i = 0; i < setups; ++i) {
                stack.reset();
                const auto t0 = Clock::now();
                const double cpu0 = processCpuSeconds();
                in = makeInputs(opts.seed);
                stack = startStack(stateDir(opts), opts.seed);
                e2e.setupSeconds.add(processCpuSeconds() - cpu0, t0,
                                     Clock::now());
            }
            Pass pass = runPass(std::move(stack), in, result);
            satAccepted += pass.satAccepted;
            satSeconds += pass.saturatedSeconds;
            if (r == 0)
                satFrom = pass.satFrom;
            satTo = pass.satTo;
            recoverMs.push_back(median(pass.recoverMs));
            stateMb.push_back(double(pass.stateBytes) / (1 << 20));
            for (size_t i = 0; i < pass.ackMs.values.size(); ++i)
                e2e.opMs.add(pass.ackMs.values[i], pass.ackMs.spans[i].first,
                             pass.ackMs.spans[i].second);
            lateMs.insert(lateMs.end(), pass.lateMs.begin(),
                          pass.lateMs.end());
        }
        e2e.eventsPerSec.add(satAccepted / satSeconds, satFrom, satTo);
        endToEndMetrics(e2e, result);
        result.note("ack_p99_ms", percentile(e2e.opMs.values, 9900), "ms");
        result.note("recover_ms", median(recoverMs), "ms");
        result.note("disk_mb", median(stateMb), "MB");
        result.note("loadgen_late_p99_ms", percentile(lateMs, 9900), "ms");
        result.meta.emplace_back("rounds", std::to_string(rounds));
        return result;
    }

    // Per-layer run: one untraced round, then the same round traced.
    const Inputs in = makeInputs(opts.seed);
    beginPass(false);
    Pass plain = runPass(startStack(stateDir(opts), opts.seed), in, result);
    auto stack = startStack(stateDir(opts), opts.seed);
    beginPass(true);
    Pass traced = runPass(std::move(stack), in, result);
    nazar::obs::setTracing(false);
    Attribution attr(nazar::obs::traceEvents(),
                     {"server.queue_wait", "net.client.ingest"});
    LayerInputs inputs;
    inputs.busySent = double(traced.server.busySent);
    inputs.batchSize = traced.server.batches
                           ? double(traced.server.ingestMessages) /
                                 double(traced.server.batches)
                           : 0.0;
    inputs.lateP99Ms = percentile(traced.lateMs, 9900);
    inputs.waitFrom = traced.pacedStart;
    inputs.waitTo = traced.pacedEnd;
    inputs.walBytes = double(traced.walBytes);
    inputs.snapshotBytes = double(traced.stateBytes - traced.walBytes);
    // The committer is the blocking thread of the saturated phase: its
    // wall minus its busy self time is idle or unspanned committer work.
    const size_t committer = attr.threadOf("persist.wal.sync");
    inputs.unattributedMs =
        (traced.satEnd - traced.satStart) * 1e3 -
        attr.selfMsOnThread(committer, traced.satStart, traced.satEnd);
    inputs.traceOverhead = traced.saturatedSeconds / plain.saturatedSeconds;
    layerMetrics(attr, inputs, result);
    writeTrace(opts, result);
    return result;
}

} // namespace perfbench
