// Metrics registry for the observability layer: counters, gauges and
// histograms with fixed log2 buckets. Designed for zero overhead when
// disabled (subsystems hold nullptr handles and skip every call site) and a
// lock-free fast path when enabled: handles are plain atomics updated with
// relaxed operations, so concurrent simulations on the src/exec/ thread pool
// can share one registry without contention or TSan reports. Registration
// (get-or-create by name) takes a mutex; subsystems cache the returned
// handles at setup time, keeping the hot path to a null check + atomic add.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace bsched {

// Monotonically increasing count (events, bytes, retries).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (bytes in flight, final credit, busy nanoseconds).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Exported state of one histogram: total count/sum plus the non-empty
// buckets as (bucket index, count) pairs.
struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  std::vector<std::pair<int, uint64_t>> buckets;

  // Approximate quantile (q in [0, 100]) by linear interpolation inside the
  // target bucket's [lower, upper] value range. 0 for an empty histogram.
  double Quantile(double q) const;

  // Percentile estimates (each p in [0, 100]): each non-empty bucket stands
  // for a bounded set of representative points spread evenly across its
  // value range, and the percentile interpolates between ranks of those
  // points with the PercentileOfSorted convention (src/common/stats.h).
  // Computed in closed form by SketchPercentiles below — the points are never
  // materialised — with the same values, bit for bit, as sorting them would
  // give. Returns one value per requested percentile; all zeros for an empty
  // histogram.
  std::vector<double> Percentiles(const std::vector<double>& ps) const;
};

// Fixed log2-bucket histogram over non-negative integer samples (bytes,
// nanoseconds, queue depths). Bucket 0 holds v <= 0; bucket k (k >= 1) holds
// v in [2^(k-1), 2^k - 1], i.e. the bit width of v. Observations are relaxed
// atomic increments — no locks, no allocation. A running observation count,
// bumped with the bucket, makes count() O(1): the time-series recorder
// compares it across ticks to skip the bucket scan of an empty window.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Observe(int64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  static int BucketIndex(int64_t v) {
    if (v <= 0) {
      return 0;
    }
    const int width = std::bit_width(static_cast<uint64_t>(v));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  // Largest value that lands in `index` (inclusive); bucket 0 tops out at 0.
  static int64_t BucketUpperBound(int index);
  // Smallest value of `index`; bucket 0 has no meaningful lower bound.
  static int64_t BucketLowerBound(int index);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

// The percentile core behind HistogramSnapshot::Percentiles, over dense
// per-bucket counts (`buckets[i]` observations in bucket i, `count` their
// total). Bucket i with c observations stands for n points
// lo + (hi - lo) * (2j + 1) / (2n), j < n, where n = c, or a proportional
// share of at most 4096 points in all (at least one per non-empty bucket)
// when count exceeds that. Buckets ascend and so do the points inside one,
// so the point at rank k is found by walking the bucket point counts. Writes
// one value per entry of `ps` to `out` (all zeros when count == 0) and
// allocates nothing: the time-series recorder calls it once per sketch on
// every tick with the window's bucket deltas.
void SketchPercentiles(std::span<const uint64_t, Histogram::kNumBuckets> buckets, uint64_t count,
                       std::span<const double> ps, std::span<double> out);

// Percentile cells of the metrics and time-series CSVs: "%.4f" with trailing
// zeros (and then a bare '.') trimmed, so an integral estimate prints as an
// integer and no cell ever takes an exponent. Writes at most
// kPercentileChars bytes at `p` (the widest is the top bucket bound 2^63,
// "9223372036854775808.0000") and returns the end.
constexpr size_t kPercentileChars = 24;
char* PutPercentile(char* p, double v);

// Point-in-time export of a whole registry. Maps are name-sorted, so two
// snapshots of identical metric state serialize byte-identically regardless
// of registration order or thread interleaving.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void WriteJson(std::ostream& os) const;
  void WriteCsv(std::ostream& os) const;
};

// Get-or-create registry of named metrics. Handles are stable for the
// registry's lifetime; the same name always returns the same handle.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the maps; never held on the update path
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bsched

#endif  // SRC_OBS_METRICS_H_
