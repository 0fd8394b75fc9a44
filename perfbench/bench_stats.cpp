#include "bench_stats.h"

#include <algorithm>

#include "support/common.h"
#include "support/stats.h"

namespace perfbench {

using perfdojo::require;

namespace {

/// 0-based index of the nearest-rank percentile: ceil(n * permille / 1000) - 1,
/// in integers so p90 of 100 samples is exactly the 90th value.
std::size_t rankIndex(std::size_t n, int permille) {
  require(n > 0 && permille >= 1 && permille <= 1000,
          "percentile: empty sample or permille out of range");
  const std::size_t rank = (n * static_cast<std::size_t>(permille) + 999) / 1000;
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::size_t samplesBeyond(std::size_t n, int permille) {
  if (n == 0) return 0;
  return n - 1 - rankIndex(n, permille);
}

bool tailSupported(std::size_t n, int permille) {
  return samplesBeyond(n, permille) >= kTailSamples;
}

int highestTailPermille(std::size_t n) {
  for (int p : {999, 990, 900, 750, 500})
    if (tailSupported(n, p)) return p;
  return 0;
}

double percentile(std::vector<double> xs, int permille) {
  const std::size_t i = rankIndex(xs.size(), permille);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(i),
                   xs.end());
  return xs[i];
}

double speedupGeomean(const std::vector<double>& baseline,
                      const std::vector<double>& tuned) {
  require(baseline.size() == tuned.size(),
          "speedupGeomean: baseline and tuned differ in length");
  std::vector<double> ratios;
  ratios.reserve(tuned.size());
  for (std::size_t i = 0; i < tuned.size(); ++i) {
    require(baseline[i] > 0 && tuned[i] > 0,
            "speedupGeomean: runtimes must be positive");
    ratios.push_back(baseline[i] / tuned[i]);
  }
  return perfdojo::geomean(ratios);
}

double failedFrac(std::int64_t failed, std::int64_t attempted) {
  require(attempted >= 1 && failed >= 0 && failed <= attempted,
          "failedFrac: need 0 <= failed <= attempted and attempted >= 1");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
