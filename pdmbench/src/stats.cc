#include "stats.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pdmbench {

pdm::Result<double> NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return pdm::Status::InvalidArgument("quantile of an empty sample");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    return pdm::Status::InvalidArgument("quantile outside (0, 1]");
  }
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

pdm::Result<double> P50(const std::vector<double>& samples) {
  return NearestRank(samples, 0.5);
}

pdm::Result<double> P90(const std::vector<double>& samples) {
  if (samples.size() < kMinTailSamples) {
    return pdm::Status::InvalidArgument(
        "p90 needs at least " + std::to_string(kMinTailSamples) +
        " samples, got " + std::to_string(samples.size()));
  }
  return NearestRank(samples, 0.9);
}

}  // namespace pdmbench
