#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace bsched {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  const size_t n = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / static_cast<double>(n);
  n_ = n;
}

double Percentile(std::vector<double> values, double p) {
  return PercentileInPlace(values, p);
}

double PercentileInPlace(std::span<double> values, double p) {
  // Select the lower rank in place; its upper neighbour is then the minimum
  // of the partition right of it.
  bool selected = false;
  return PercentileOfSorted(values.size(), p, [&](size_t k) {
    const auto kth = values.begin() + static_cast<ptrdiff_t>(k);
    if (selected) {
      return *std::min_element(kth, values.end());
    }
    selected = true;
    std::nth_element(values.begin(), kth, values.end());
    return *kth;
  });
}

double Mean(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) {
    s.Add(v);
  }
  return s.mean();
}

double StdDev(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) {
    s.Add(v);
  }
  return s.stddev();
}

}  // namespace bsched
