/**
 * @file
 * Order statistics for the benchmark's reports: medians of repeated
 * passes and latency percentiles that carry their sample count, so a
 * reader can tell how many samples lie beyond the reported value.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/** One percentile of a sample, with the counts that qualify it. */
struct Percentile
{
    double value = 0.0;      //!< the sample at the percentile's rank
    std::size_t samples = 0; //!< sample size
    std::size_t beyond = 0;  //!< samples strictly above the rank
};

/**
 * Nearest-rank percentile @p q (0 < q <= 100) of @p values: the
 * smallest sample with at least q% of the sample at or below it.
 * Takes the vector by value because it sorts. An empty sample gives
 * value 0 with samples 0.
 */
inline Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    double exact = q / 100.0 * static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    p.beyond = values.size() - rank;
    return p;
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
