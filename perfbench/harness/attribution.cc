#include "attribution.h"

#include <algorithm>
#include <tuple>

namespace perfbench {

namespace {

/** Slack for comparing interval ends computed as start + duration. */
constexpr double kEps = 1e-9;

bool
contains(const SpanNode &outer, const SpanNode &inner)
{
    return outer.start <= inner.start + kEps &&
           inner.end <= outer.end + kEps;
}

} // namespace

Attribution::Attribution(
    const std::vector<nazar::obs::TraceEvent> &events,
    const std::set<std::string> &waitStages)
{
    // Busy events sorted so that, per thread, a parent precedes its
    // children: start ascending, longer first, and on identical
    // intervals the older span id (a parent's id is minted before its
    // children's) first.
    std::vector<const nazar::obs::TraceEvent *> busy;
    busy.reserve(events.size());
    for (const auto &ev : events) {
        if (waitStages.count(ev.name)) {
            waits_[ev.name].emplace_back(ev.startSeconds,
                                         ev.durationSeconds * 1e3);
            continue;
        }
        busy.push_back(&ev);
    }
    auto key = [](const nazar::obs::TraceEvent *e) {
        return std::make_tuple(e->threadId, e->startSeconds,
                               -e->durationSeconds, e->spanId);
    };
    std::sort(busy.begin(), busy.end(),
              [&](const auto *a, const auto *b) { return key(a) < key(b); });

    // Collapse per-item copies of one interval into a single node.
    nodes_.reserve(busy.size());
    for (const auto *ev : busy) {
        const double end = ev->startSeconds + ev->durationSeconds;
        if (!nodes_.empty()) {
            SpanNode &last = nodes_.back();
            if (last.thread == ev->threadId &&
                last.start == ev->startSeconds && last.end == end &&
                last.name == ev->name) {
                ++last.calls;
                continue;
            }
        }
        SpanNode node;
        node.name = ev->name;
        node.thread = ev->threadId;
        node.start = ev->startSeconds;
        node.end = end;
        nodes_.push_back(std::move(node));
    }

    // Containment sweep per thread: the innermost open node that
    // contains a node is its parent. Children arrive in start order,
    // so each parent's covered time is a running union.
    std::vector<int> stack;
    std::vector<double> coverEnd(nodes_.size());
    std::vector<double> covered(nodes_.size(), 0.0);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        SpanNode &n = nodes_[i];
        if (i > 0 && nodes_[i - 1].thread != n.thread)
            stack.clear();
        while (!stack.empty() && !contains(nodes_[stack.back()], n))
            stack.pop_back();
        coverEnd[i] = n.start;
        if (!stack.empty()) {
            const int p = stack.back();
            const double from = std::max(n.start, coverEnd[p]);
            const double to = std::min(n.end, nodes_[p].end);
            if (to > from) {
                covered[p] += to - from;
                coverEnd[p] = to;
            }
        }
        stack.push_back(static_cast<int>(i));
    }

    for (size_t i = 0; i < nodes_.size(); ++i) {
        SpanNode &n = nodes_[i];
        n.selfSeconds = std::max(0.0, (n.end - n.start) - covered[i]);
        NameTotals &t = totals_[n.name];
        const double ms = (n.end - n.start) * 1e3;
        t.calls += n.calls;
        ++t.intervals;
        t.totalMs += ms;
        t.selfMs += n.selfSeconds * 1e3;
        t.maxMs = std::max(t.maxMs, ms);
    }
}

NameTotals
Attribution::totals(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? NameTotals{} : it->second;
}

NameTotals
Attribution::totalsWithPrefix(const std::string &prefix) const
{
    NameTotals sum;
    for (auto it = totals_.lower_bound(prefix);
         it != totals_.end() && it->first.compare(0, prefix.size(),
                                                  prefix) == 0;
         ++it) {
        sum.calls += it->second.calls;
        sum.intervals += it->second.intervals;
        sum.totalMs += it->second.totalMs;
        sum.selfMs += it->second.selfMs;
        sum.maxMs = std::max(sum.maxMs, it->second.maxMs);
    }
    return sum;
}

std::vector<double>
Attribution::waitMs(const std::string &name, double from, double to) const
{
    std::vector<double> ms;
    auto it = waits_.find(name);
    if (it != waits_.end())
        for (const auto &[start, dur] : it->second)
            if (start >= from && start < to)
                ms.push_back(dur);
    return ms;
}

double
Attribution::selfMsOnThread(size_t thread, double from, double to) const
{
    double ms = 0.0;
    for (const auto &n : nodes_)
        if (n.thread == thread && n.start >= from && n.start < to)
            ms += n.selfSeconds * 1e3;
    return ms;
}

size_t
Attribution::threadOf(const std::string &name) const
{
    std::map<size_t, uint64_t> calls;
    for (const auto &n : nodes_)
        if (n.name == name)
            calls[n.thread] += n.calls;
    size_t best = 0;
    uint64_t most = 0;
    for (const auto &[thread, c] : calls) {
        if (c > most) {
            most = c;
            best = thread;
        }
    }
    return best;
}

} // namespace perfbench
