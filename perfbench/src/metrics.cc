#include "metrics.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

std::size_t
nearestRank(double p, std::size_t n)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t
samplesBeyond(double p, std::size_t n)
{
    return n == 0 ? 0 : n - nearestRank(p, n);
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samples.empty() || samplesBeyond(p, samples.size()) < minTail)
        return std::nullopt;
    std::size_t rank = nearestRank(p, samples.size());
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

} // namespace perfbench
