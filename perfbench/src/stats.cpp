#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

double highest_supported_quantile(std::uint64_t n, std::uint64_t min_beyond) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    // Samples strictly above the nearest-rank q-quantile.
    const auto rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    if (n - rank >= min_beyond) return q;
  }
  return 0.0;
}

double completed_pct(std::uint64_t offered, std::uint64_t completed) {
  if (offered == 0) return 100.0;
  return 100.0 * static_cast<double>(completed) / static_cast<double>(offered);
}

}  // namespace perfbench
