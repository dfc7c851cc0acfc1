#include "stats.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p hundredths among @p n. */
size_t
nearestRank(size_t n, unsigned hundredths)
{
    size_t rank = (static_cast<size_t>(hundredths) * n + 9999) / 10000;
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, unsigned hundredths)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[nearestRank(xs.size(), hundredths) - 1];
}

TailPick
highestPercentile(const std::vector<double> &xs, size_t minBeyond)
{
    static const unsigned kCandidates[] = {9999, 9990, 9900, 9000, 5000};
    TailPick pick;
    const size_t n = xs.size();
    if (n == 0)
        return pick;
    for (unsigned p : kCandidates) {
        size_t beyond = n - nearestRank(n, p);
        if (beyond >= minBeyond) {
            pick.found = true;
            pick.percentile = p / 100.0;
            pick.value = percentile(xs, p);
            pick.beyond = beyond;
            return pick;
        }
    }
    return pick;
}

void
Samples::add(double value, double stealShare)
{
    values.push_back(value);
    steal.push_back(stealShare);
}

double
Samples::quietMedian() const
{
    std::vector<size_t> order(values.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return steal[a] < steal[b];
    });
    order.resize((order.size() + 3) / 4);
    std::vector<double> kept;
    for (size_t i : order)
        kept.push_back(values[i]);
    return median(kept);
}

} // namespace perfbench
