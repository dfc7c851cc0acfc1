/**
 * @file
 * Unit test of the benchmark's trace attribution and percentile rule
 * on synthetic spans. Exits non-zero on the first report of a failed
 * expectation count; prints each failure.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>

#include "attribution.h"
#include "stats.h"

using nazar::obs::TraceEvent;
using perfbench::Attribution;

namespace {

int g_failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::fabs(got - want) > 1e-6) {
        std::printf("FAIL %s: got %.9f want %.9f\n", what, got, want);
        ++g_failures;
    }
}

void
expectTrue(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++g_failures;
    }
}

/** A synthetic event; times in milliseconds for readability. */
TraceEvent
ev(const char *name, size_t thread, double startMs, double durMs,
   uint64_t id, uint64_t parent = 0)
{
    TraceEvent e;
    e.name = name;
    e.threadId = thread;
    e.startSeconds = startMs / 1e3;
    e.durationSeconds = durMs / 1e3;
    e.traceId = 1;
    e.spanId = id;
    e.parentId = parent;
    return e;
}

void
testNested()
{
    // outer [0,10) holds mid [1,4) holding leaf [2,3), and a sibling
    // leaf2 [5,6), all linked by parent ids on one thread.
    Attribution a({ev("outer", 1, 0, 10, 1), ev("mid", 1, 1, 3, 2, 1),
                   ev("leaf", 1, 2, 1, 3, 2), ev("leaf2", 1, 5, 1, 4, 1)},
                  {});
    expectNear(a.totals("outer").selfMs, 6.0, "nested: outer self");
    expectNear(a.totals("mid").selfMs, 2.0, "nested: mid self");
    expectNear(a.totals("leaf").selfMs, 1.0, "nested: leaf self");
    expectNear(a.totals("outer").totalMs, 10.0, "nested: outer total");
    expectNear(a.selfMsOnThread(1, 0.0, 1.0), 10.0,
               "nested: thread self sums to wall");
    expectNear(a.totalsWithPrefix("leaf").selfMs, 2.0,
               "nested: prefix sum");
}

void
testCrossThread()
{
    // A pool worker's span linked to a span on the caller's thread is
    // not subtracted from the caller: it is busy time on its own lane.
    Attribution a({ev("window", 1, 0, 10, 1), ev("forward", 2, 2, 6, 2, 1),
                   ev("matmul", 2, 3, 2, 3, 2)},
                  {});
    expectNear(a.totals("window").selfMs, 10.0, "cross: caller self");
    expectNear(a.totals("forward").selfMs, 4.0, "cross: worker self");
    expectTrue(a.nodes().size() == 3, "cross: three nodes");
    expectTrue(a.threadOf("forward") == 2, "cross: thread of forward");
}

void
testParentless()
{
    // recordSpan stages: the commit's link names the upload's root on
    // a client thread (absent here), and a snapshot opened inside the
    // commit links to that foreign root too. Containment places the
    // snapshot under the commit; the three per-item copies of the
    // commit interval collapse into one node.
    Attribution a({ev("commit", 3, 0, 5, 10, 900),
                   ev("commit", 3, 0, 5, 11, 901),
                   ev("commit", 3, 0, 5, 12, 902),
                   ev("snapshot", 3, 1, 2, 13, 900),
                   ev("ack", 3, 5, 0.5, 14, 900),
                   ev("ack", 3, 5.5, 0.5, 15, 901),
                   ev("queue_wait", 3, -1, 1, 16, 900),
                   ev("queue_wait", 3, -2, 4, 17, 901)},
                  {"queue_wait"});
    const auto commit = a.totals("commit");
    expectTrue(commit.calls == 3, "parentless: commit calls");
    expectTrue(commit.intervals == 1, "parentless: commit collapsed");
    expectNear(commit.totalMs, 5.0, "parentless: commit total");
    expectNear(commit.selfMs, 3.0, "parentless: commit self");
    expectNear(a.totals("snapshot").selfMs, 2.0, "parentless: snap self");
    expectNear(a.totals("ack").totalMs, 1.0, "parentless: ack total");
    auto waits = a.waitMs("queue_wait", -1.0, 1.0);
    std::sort(waits.begin(), waits.end());
    expectTrue(waits.size() == 2, "parentless: waits kept per item");
    expectNear(waits.back(), 4.0, "parentless: wait duration");
    expectTrue(a.waitMs("queue_wait", -0.0015, 1.0).size() == 1,
               "parentless: waits filtered by start");
    expectTrue(a.totals("queue_wait").calls == 0,
               "parentless: waits are not busy");
}

void
testOverlapAndTies()
{
    // Overlapping recordSpan children are subtracted as a union; a
    // child with its parent's exact interval sorts after it by id.
    Attribution a({ev("p", 1, 0, 10, 1), ev("c1", 1, 1, 4, 2),
                   ev("c2", 1, 3, 4, 3), ev("q", 2, 0, 4, 4),
                   ev("qc", 2, 0, 4, 5, 4)},
                  {});
    expectNear(a.totals("p").selfMs, 4.0, "overlap: union of children");
    expectNear(a.totals("q").selfMs, 0.0, "tie: parent self");
    expectNear(a.totals("qc").selfMs, 4.0, "tie: child self");
}

void
testPercentileRule()
{
    auto seq = [](size_t n) {
        std::vector<double> xs(n);
        std::iota(xs.begin(), xs.end(), 1.0);
        std::shuffle(xs.begin(), xs.end(), std::mt19937(7));
        return xs;
    };
    expectTrue(!perfbench::highestPercentile(seq(19)).found,
               "rule: 19 samples give no percentile");
    auto p = perfbench::highestPercentile(seq(20));
    expectTrue(p.found && p.percentile == 50.0 && p.beyond == 10,
               "rule: 20 samples give p50");
    expectNear(p.value, 10.0, "rule: p50 of 1..20");
    p = perfbench::highestPercentile(seq(99));
    expectTrue(p.percentile == 50.0, "rule: 99 samples give p50");
    p = perfbench::highestPercentile(seq(100));
    expectTrue(p.percentile == 90.0 && p.beyond == 10,
               "rule: 100 samples give p90");
    p = perfbench::highestPercentile(seq(999));
    expectTrue(p.percentile == 90.0, "rule: 999 samples give p90");
    p = perfbench::highestPercentile(seq(1000));
    expectTrue(p.percentile == 99.0 && p.beyond == 10,
               "rule: 1000 samples give p99");
    expectNear(p.value, 990.0, "rule: p99 of 1..1000");
    p = perfbench::highestPercentile(seq(10000));
    expectTrue(p.percentile == 99.9, "rule: 10000 samples give p99.9");
    perfbench::Samples quiet;
    for (double v : {10.0, 50.0, 11.0, 12.0, 40.0, 45.0, 44.0, 43.0})
        quiet.add(v, v > 20.0 ? 0.05 : 0.0);
    expectNear(quiet.quietMedian(), 10.5, "quiet median skips stolen");
    perfbench::Samples calm;
    for (double v : {4.0, 1.0, 3.0, 2.0, 9.0, 9.0, 9.0, 9.0})
        calm.add(v, 0.0);
    expectNear(calm.quietMedian(), 2.5, "quiet median keeps order");
    expectNear(perfbench::median({3, 1, 2}), 2.0, "median odd");
    expectNear(perfbench::median({4, 1, 3, 2}), 2.5, "median even");
}

} // namespace

int
main()
{
    testNested();
    testCrossThread();
    testParentless();
    testOverlapAndTies();
    testPercentileRule();
    if (g_failures != 0) {
        std::printf("%d expectation(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench attribution tests passed\n");
    return 0;
}
