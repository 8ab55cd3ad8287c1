// Small statistics helpers shared by the workloads and their tests.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of `v` (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that has at least
// `min_beyond` samples above it in a sample of `n`, or 0 when even the
// median does not.  A tail percentile is only reported when it rests on
// that many samples.
double highest_supported_quantile(std::uint64_t n,
                                  std::uint64_t min_beyond = 10);

// Share of offered requests that completed, in percent.  Give-ups and sheds
// are the rest of `offered`, so they count as failures.  100 when nothing
// was offered.
double completed_pct(std::uint64_t offered, std::uint64_t completed);

}  // namespace perfbench
