#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace
{

/** Nearest rank (1-based) of percentile @p p over @p n samples. */
std::size_t
rankOf(double p, std::size_t n)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) -
                               1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

Percentile
tail(std::vector<double> samples, double wanted)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();

    std::size_t rank = rankOf(wanted, n);
    if (n - rank < kTailDepth && n > kTailDepth) {
        // The deepest rank that keeps kTailDepth samples beyond it.
        rank = n - kTailDepth;
    }
    const double p = 100.0 * static_cast<double>(rank) /
                     static_cast<double>(n);
    if (n - rank >= kTailDepth && p >= 50.0) {
        out.value = samples[rank - 1];
        out.percentile = std::min(p, wanted);
        return out;
    }
    out.value = median(samples);
    out.percentile = 50;
    return out;
}

} // namespace perfbench
