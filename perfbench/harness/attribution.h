/**
 * @file
 * Exclusive (self) time from the library's trace events.
 *
 * A span's self time is its duration minus the union of its direct
 * children on the same thread. A span's parent is the innermost span
 * on its thread whose interval contains it. For NAZAR_SPAN nesting that
 * is the span its parent link names, and on identical intervals the
 * older span id, which is the parent's (minted before its children's),
 * comes first. Spans recorded with obs::recordSpan (server.*,
 * persist.wal.sync) are not on the thread-local span stack: their links
 * point at the upload's trace root on a client thread, or nowhere, so
 * they and the spans opened inside them are placed by containment
 * alone. A span linked to a parent on another thread (a pool worker's)
 * is a root on its own thread.
 *
 * Two kinds of event need care:
 *  - Batch stages recorded once per item (the committer records
 *    server.encode and persist.wal.sync for every message of a group
 *    commit with the batch's interval) collapse into one node per
 *    interval, whose `calls` is the number of items.
 *  - Waiting stages (queue wait, a client's send-to-ack interval) span
 *    time in which their thread did other work. They never take part
 *    in the busy-time tree; only their durations are kept.
 */
#ifndef PERFBENCH_ATTRIBUTION_H
#define PERFBENCH_ATTRIBUTION_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

/** One busy interval on one thread after collapsing per-item copies. */
struct SpanNode
{
    std::string name;
    size_t thread = 0;
    double start = 0.0; ///< Seconds since the registry epoch.
    double end = 0.0;
    uint64_t calls = 1; ///< Trace events collapsed into this node.
    double selfSeconds = 0.0;
};

/** Per-name sums over every thread. */
struct NameTotals
{
    uint64_t calls = 0;     ///< Trace events.
    uint64_t intervals = 0; ///< Nodes (distinct intervals).
    double totalMs = 0.0;   ///< Sum of node durations.
    double selfMs = 0.0;    ///< Sum of node self times.
    double maxMs = 0.0;     ///< Longest node.
};

class Attribution
{
  public:
    Attribution(const std::vector<nazar::obs::TraceEvent> &events,
                const std::set<std::string> &waitStages);

    const std::vector<SpanNode> &nodes() const { return nodes_; }

    /** Totals of every node named exactly @p name (zero if none). */
    NameTotals totals(const std::string &name) const;

    /** Totals summed over every name starting with @p prefix. */
    NameTotals totalsWithPrefix(const std::string &prefix) const;

    /** Durations (ms) of one waiting stage, one per event, of the
     *  events that start in [from, to) seconds. */
    std::vector<double> waitMs(const std::string &name, double from,
                               double to) const;

    /** Sum of self time (ms) of the nodes on @p thread that start in
     *  [from, to) seconds. */
    double selfMsOnThread(size_t thread, double from, double to) const;

    /** Thread that recorded the most events named @p name. */
    size_t threadOf(const std::string &name) const;

  private:
    std::vector<SpanNode> nodes_;
    std::map<std::string, NameTotals> totals_;
    /** Waiting stages: (start seconds, duration ms) per event. */
    std::map<std::string, std::vector<std::pair<double, double>>> waits_;
};

} // namespace perfbench

#endif // PERFBENCH_ATTRIBUTION_H
