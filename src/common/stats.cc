#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace rlcut {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  if (count_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  if (count_ == 0 || mean_ == 0) return 0.0;
  return stddev() / mean_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t n = values.size();
  // The epsilon keeps a rank that should be whole (0.07 * 100) from
  // rounding up to the next sample.
  const double exact = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(exact - 1e-9)), 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

Pow2Histogram::Pow2Histogram() : buckets_(65, 0) {}

void Pow2Histogram::Add(uint64_t value) {
  size_t bucket = 0;
  while ((1ull << (bucket + 1)) <= value && bucket < 63) ++bucket;
  ++buckets_[bucket];
  ++total_;
}

}  // namespace rlcut
