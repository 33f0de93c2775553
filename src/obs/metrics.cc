#include "src/obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>

#include "src/common/stats.h"
#include "src/obs/json_lite.h"

namespace bsched {

char* PutPercentile(char* p, double v) {
  // std::to_chars writes the same bytes as printf("%.4f") in the C locale.
  if (!std::signbit(v) && v < 0x1p63 && v == std::trunc(v)) {
    return std::to_chars(p, p + kPercentileChars, static_cast<int64_t>(v)).ptr;
  }
  char* end = std::to_chars(p, p + kPercentileChars, v, std::chars_format::fixed, 4).ptr;
  while (end > p && end[-1] == '0') {
    --end;
  }
  if (end > p && end[-1] == '.') {
    --end;
  }
  return end;
}

int64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) {
    return 0;
  }
  if (index >= kNumBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return (int64_t{1} << index) - 1;
}

int64_t Histogram::BucketLowerBound(int index) {
  if (index <= 0) {
    return 0;
  }
  return int64_t{1} << (index - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c > 0) {
      snap.buckets.emplace_back(i, c);
      snap.count += c;
    }
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  const double target = q / 100.0 * static_cast<double>(count);
  uint64_t cum = 0;
  for (const auto& [index, c] : buckets) {
    cum += c;
    if (static_cast<double>(cum) >= target) {
      // Interpolate within the bucket's value range by the target's position
      // among the bucket's samples.
      const double lo = static_cast<double>(Histogram::BucketLowerBound(index));
      const double hi = static_cast<double>(Histogram::BucketUpperBound(index));
      const double into = static_cast<double>(c) - (static_cast<double>(cum) - target);
      const double frac = into / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
  }
  return static_cast<double>(Histogram::BucketUpperBound(buckets.back().first));
}

void SketchPercentiles(std::span<const uint64_t, Histogram::kNumBuckets> buckets, uint64_t count,
                       std::span<const double> ps, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (count == 0) {
    return;
  }
  // Points per bucket: one per observation, or above 4096 observations a
  // proportional share of 4096 (at least one per non-empty bucket). The cap
  // once bounded a materialised sample array; it stays because it defines
  // the estimates the exported CSVs carry.
  constexpr uint64_t kMaxPoints = 4096;
  uint64_t points[Histogram::kNumBuckets] = {};
  uint64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t c = buckets[i];
    points[i] = c == 0 ? 0 : count > kMaxPoints ? std::max<uint64_t>(1, c * kMaxPoints / count) : c;
    total += points[i];
  }
  const auto point_at = [&points](size_t k) {
    int i = 0;
    while (k >= points[i]) {
      k -= points[i];
      ++i;
    }
    const double lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const double hi = static_cast<double>(Histogram::BucketUpperBound(i));
    const double frac =
        (2.0 * static_cast<double>(k) + 1.0) / (2.0 * static_cast<double>(points[i]));
    return lo + (hi - lo) * frac;
  };
  for (size_t i = 0; i < ps.size(); ++i) {
    out[i] = PercentileOfSorted(total, ps[i], point_at);
  }
}

std::vector<double> HistogramSnapshot::Percentiles(const std::vector<double>& ps) const {
  uint64_t dense[Histogram::kNumBuckets] = {};
  for (const auto& [index, c] : buckets) {
    dense[index] += c;
  }
  std::vector<double> out(ps.size());
  SketchPercentiles(dense, count, ps, out);
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(name, h->Snapshot());
  }
  return snap;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n" : ",\n") << "    \"" << obs::JsonEscape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << obs::JsonEscape(name) << "\": " << v;
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << obs::JsonEscape(name) << "\": {\"count\": "
       << h.count << ", \"sum\": " << h.sum << ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [index, c] : h.buckets) {
      os << (first_bucket ? "" : ", ") << "[" << index << ", " << c << "]";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
}

void MetricsSnapshot::WriteCsv(std::ostream& os) const {
  os << "kind,name,value,count,sum,p50,p95,p99\n";
  for (const auto& [name, v] : counters) {
    os << "counter," << name << "," << v << ",,,,,\n";
  }
  for (const auto& [name, v] : gauges) {
    os << "gauge," << name << "," << v << ",,,,,\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::vector<double> p = h.Percentiles({50.0, 95.0, 99.0});
    os << "histogram," << name << ",," << h.count << "," << h.sum;
    for (double v : p) {
      char cell[kPercentileChars];
      os << ',' << std::string_view(cell, PutPercentile(cell, v) - cell);
    }
    os << '\n';
  }
}

}  // namespace bsched
