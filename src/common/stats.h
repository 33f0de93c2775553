// Small statistics helpers used by the harness (speed averaging) and the
// auto-tuner (noise estimation, search-cost summaries).
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace bsched {

// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  // Folds `other` into this accumulator (Chan et al. parallel combination),
  // as if every sample fed to `other` had been fed here. Lets SweepRunner
  // workers keep private accumulators and combine them after the join.
  void Merge(const RunningStats& other);

  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of `n` ascending order statistics with linear interpolation
// between ranks; p in [0, 100], 0 when n == 0. `at(k)` returns the k-th
// smallest value; it is asked for the lower rank first and then, only when
// the interpolation needs it, for the next one. The one rank convention
// behind Percentile, PercentileInPlace and the log2-sketch percentiles
// (SketchPercentiles in src/obs/metrics.h), so they agree bit for bit.
template <typename At>
double PercentileOfSorted(size_t n, double p, At&& at) {
  if (n == 0) {
    return 0.0;
  }
  if (n == 1) {
    return at(size_t{0});
  }
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const double lo_value = at(lo);
  if (hi == lo || frac == 0.0) {
    return lo_value;
  }
  return lo_value * (1.0 - frac) + at(hi) * frac;
}

// Percentile of a sample set with linear interpolation; p in [0, 100].
// Returns 0 for an empty vector.
double Percentile(std::vector<double> values, double p);

// Same, but selects in place over the caller's storage (partial reorder via
// std::nth_element, O(n) instead of a full sort) — no copy, no allocation.
// Percentile() above forwards here with a by-value copy for callers that
// need their vector untouched.
double PercentileInPlace(std::span<double> values, double p);

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

}  // namespace bsched

#endif  // SRC_COMMON_STATS_H_
