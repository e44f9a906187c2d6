#ifndef PDMBENCH_STATS_H_
#define PDMBENCH_STATS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace pdmbench {

/// Fewest samples a p90 may rest on: with fewer, the ten samples above
/// the 90th percentile are no tail at all.
inline constexpr size_t kMinTailSamples = 100;

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (1-based),
/// q in (0, 1]. Fails on an empty sample or q outside (0, 1].
pdm::Result<double> NearestRank(std::vector<double> samples, double q);

/// The p90 of `samples`, refused (an error, not a number) when fewer
/// than kMinTailSamples samples back it.
pdm::Result<double> P90(const std::vector<double>& samples);

/// Median of `samples` by nearest rank (p50).
pdm::Result<double> P50(const std::vector<double>& samples);

}  // namespace pdmbench

#endif  // PDMBENCH_STATS_H_
