#ifndef RLCUT_COMMON_STATS_H_
#define RLCUT_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace rlcut {

/// Streaming summary statistics (count/mean/variance via Welford, min/max).
/// Used for load-balance metrics and benchmark repetitions.
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance.
  double variance() const { return count_ > 0 ? m2_ / count_ : 0.0; }
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  double cv() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

/// Exact nearest-rank percentile: the ceil(q * n)-th smallest of the n
/// samples, for q in [0, 1] (q = 0 is the minimum, q = 1 the maximum).
/// Returns 0 for no samples. obs::Histogram::Percentile is the
/// bounded-memory estimate for streams too long to keep.
double Percentile(std::vector<double> values, double q);

/// Fixed-bucket histogram over [0, +inf) with power-of-two bucket bounds;
/// used for degree distributions in tests and dataset reports.
class Pow2Histogram {
 public:
  Pow2Histogram();

  void Add(uint64_t value);

  /// Bucket i counts values in [2^i, 2^{i+1}) with bucket 0 = {0, 1}.
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t total() const { return total_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

}  // namespace rlcut

#endif  // RLCUT_COMMON_STATS_H_
