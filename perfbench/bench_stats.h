// Summary statistics of the benchmark: the percentile rule for timings, the
// speedup geomean and the failure fraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it, so it is never one outlier's value.
constexpr std::size_t kTailSamples = 10;

/// Samples strictly beyond the nearest-rank percentile `permille` (1..1000)
/// of `n` samples.
std::size_t samplesBeyond(std::size_t n, int permille);

/// Whether the percentile `permille` of `n` samples has kTailSamples beyond.
bool tailSupported(std::size_t n, int permille);

/// The highest of p99.9, p99, p90, p75 and p50 that tailSupported() allows
/// for `n` samples, in per mille; 0 when even the median has too few.
int highestTailPermille(std::size_t n);

/// Nearest-rank percentile (`permille` in 1..1000) of a non-empty sample.
double percentile(std::vector<double> xs, int permille);

/// Geometric mean of baseline[i] / tuned[i]: modeled speedup of the tuned
/// schedules over the untransformed kernels. Both vectors are non-empty, of
/// equal size and strictly positive.
double speedupGeomean(const std::vector<double>& baseline,
                      const std::vector<double>& tuned);

/// failed / attempted; attempted must be at least 1.
double failedFrac(std::int64_t failed, std::int64_t attempted);

}  // namespace perfbench
