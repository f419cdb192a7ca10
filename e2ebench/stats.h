#ifndef RLCUT_E2EBENCH_STATS_H_
#define RLCUT_E2EBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

/// One percentile of a sample set, with the facts needed to judge it.
struct Percentile {
  double value = 0;
  /// Number of samples the percentile was taken over.
  size_t samples = 0;
  /// 1-based rank of the returned sample in ascending order.
  size_t rank = 0;
  /// Samples strictly above the returned rank.
  size_t beyond() const { return samples - rank; }
};

/// Exact nearest-rank percentile: the ceil(percent/100 * n)-th smallest
/// sample (percent in [1, 100]). Integer rank arithmetic, so p90 of 100
/// samples is exactly the 90th smallest. Every median and tail of the
/// benchmark goes through this one function. Empty input yields
/// samples == 0 and value 0.
inline Percentile NearestRank(std::vector<double> values, int percent) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t n = values.size();
  size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.rank = rank;
  return out;
}

inline Percentile Median(std::vector<double> values) {
  return NearestRank(std::move(values), 50);
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it (p90 therefore needs 100 samples).
inline constexpr size_t kMinSamplesBeyondTail = 10;

inline bool TailSupported(const Percentile& p) {
  return p.samples > 0 && p.beyond() >= kMinSamplesBeyondTail;
}

}  // namespace e2e

#endif  // RLCUT_E2EBENCH_STATS_H_
