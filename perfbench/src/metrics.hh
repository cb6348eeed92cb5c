/**
 * @file
 * Order statistics for the benchmark's host-time samples.
 *
 * Percentiles use the nearest-rank definition: the p-th percentile of
 * n samples is the ceil(p/100 * n)-th smallest. A percentile is only
 * reported when at least minTail samples lie beyond it, so a "p90"
 * computed from 30 samples (3 beyond it) is refused rather than
 * reported as if it meant something.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench
{

/** Samples that must lie strictly beyond a reported percentile. */
constexpr std::size_t minTail = 10;

/** 1-based nearest rank of percentile p (0 < p <= 100) among n. */
std::size_t nearestRank(double p, std::size_t n);

/** Samples beyond the nearest-rank p-th percentile of n samples. */
std::size_t samplesBeyond(double p, std::size_t n);

/**
 * Nearest-rank p-th percentile, or nullopt when fewer than minTail
 * samples lie beyond it (including the empty case).
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** Median (mean of the middle two for even n); 0 when empty. */
double median(std::vector<double> samples);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
