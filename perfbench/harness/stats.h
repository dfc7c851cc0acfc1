/**
 * @file
 * Order statistics for the benchmark's timings: the median and the
 * highest percentile that still has enough samples beyond it to mean
 * something.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of @p xs (mean of the two middle values); 0 when empty. */
double median(std::vector<double> xs);

/**
 * Nearest-rank percentile: the ceil(p/100 · n)-th smallest sample.
 * @p hundredths is p in hundredths of a percent (9900 = p99), so the
 * rank is exact integer arithmetic. 0 when empty.
 */
double percentile(std::vector<double> xs, unsigned hundredths);

/** The percentile picked by highestPercentile(). */
struct TailPick
{
    bool found = false;
    double percentile = 0.0; ///< e.g. 99.0
    double value = 0.0;
    size_t beyond = 0;       ///< Samples ranked above the pick.
};

/**
 * The highest of p50, p90, p99, p99.9 and p99.99 whose nearest-rank
 * sample has at least @p minBeyond samples ranked above it. Not found
 * when even p50 has fewer (n < 2 · minBeyond).
 */
TailPick highestPercentile(const std::vector<double> &xs,
                           size_t minBeyond = 10);

/**
 * Timed samples of one quantity, each with the share of the machine's
 * CPU time the hypervisor stole while it was taken. On a shared virtual
 * machine a stolen interval runs slow by far more than the stolen
 * share, so the median is taken over the quietest quarter.
 */
struct Samples
{
    std::vector<double> values;
    std::vector<double> steal;

    void add(double value, double stealShare);

    /** Median of the ceil(n/4) samples with the least steal, ties
     *  broken by sample order; 0 when empty. */
    double quietMedian() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
