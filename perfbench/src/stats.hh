/**
 * @file
 * Sample summaries used by every benchmark metric: the median, and
 * the tail-percentile rule.
 *
 * The rule: a tail is reported as the highest percentile (up to the
 * one the metric is named after) that still has at least ten samples
 * beyond it, together with the sample count — a p99 read off 200
 * samples is two samples deep and says nothing.  Percentiles use the
 * nearest-rank definition, so "samples beyond" is exact.  When even
 * the median has fewer than ten samples beyond it, the median itself
 * is reported and flagged.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples a reported tail percentile must have beyond it. */
inline constexpr std::size_t kTailDepth = 10;

/** A percentile read off a sample set, with its provenance. */
struct Percentile {
    double value = 0;
    /** The percentile actually reported, in (0, 100]; 50 also marks
     * the median fallback. */
    double percentile = 0;
    std::size_t samples = 0;
};

/** Median (mean of the middle two for even counts); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The tail of @p samples by the rule in the file comment: the
 * percentile @p wanted if it has kTailDepth samples beyond it,
 * otherwise the highest percentile >= 50 that does, otherwise the
 * median.
 */
Percentile tail(std::vector<double> samples, double wanted);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
