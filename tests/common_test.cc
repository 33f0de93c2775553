#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/ring_queue.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace bsched {
namespace {

TEST(SimTimeTest, ConstructorsAndConversions) {
  EXPECT_EQ(SimTime::Nanos(5).nanos(), 5);
  EXPECT_EQ(SimTime::Micros(3).nanos(), 3000);
  EXPECT_EQ(SimTime::Millis(2).nanos(), 2'000'000);
  EXPECT_EQ(SimTime::Seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(SimTime::Seconds(2.0).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime::Millis(5).ToMillis(), 5.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(7).ToMicros(), 7.0);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime a = SimTime::Micros(10);
  SimTime b = SimTime::Micros(4);
  EXPECT_EQ((a + b).nanos(), 14'000);
  EXPECT_EQ((a - b).nanos(), 6'000);
  EXPECT_EQ((b * 3).nanos(), 12'000);
  a += b;
  EXPECT_EQ(a.nanos(), 14'000);
}

TEST(SimTimeTest, Comparison) {
  EXPECT_LT(SimTime::Micros(1), SimTime::Micros(2));
  EXPECT_EQ(SimTime::Millis(1), SimTime::Micros(1000));
  EXPECT_GT(SimTime::Max(), SimTime::Seconds(1e9));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::Nanos(12).ToString(), "12ns");
  EXPECT_EQ(SimTime::Micros(12).ToString(), "12.000us");
  EXPECT_EQ(SimTime::Millis(12).ToString(), "12.000ms");
  EXPECT_EQ(SimTime::Seconds(1.25).ToString(), "1.250s");
}

TEST(BytesTest, Helpers) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(1), 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(KiB(2)), "2.00KiB");
  EXPECT_EQ(FormatBytes(MiB(3)), "3.00MiB");
}

TEST(BandwidthTest, GbpsConversion) {
  Bandwidth b = Bandwidth::Gbps(10);
  EXPECT_DOUBLE_EQ(b.bytes_per_sec(), 1.25e9);
  EXPECT_DOUBLE_EQ(b.ToGbps(), 10.0);
}

TEST(BandwidthTest, TransmitTime) {
  Bandwidth b = Bandwidth::Gbps(8);  // 1 GB/s
  EXPECT_EQ(b.TransmitTime(1'000'000'000).nanos(), 1'000'000'000);
  EXPECT_EQ(b.TransmitTime(1000).nanos(), 1000);
}

TEST(BandwidthTest, ZeroBandwidthNeverCompletes) {
  Bandwidth b;
  EXPECT_EQ(b.TransmitTime(1), SimTime::Max());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) {
    s.Add(rng.Gaussian(5.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(123);
  Rng child = parent.Fork();
  // Child stream should not reproduce the parent stream.
  Rng parent2(123);
  (void)parent2.NextU64();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent2.NextU64()) {
      ++same;
    }
  }
  EXPECT_LE(same, 1);
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(PercentileTest, Basics) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 99), 42.0);
}

TEST(PercentileTest, InPlaceMatchesFullSort) {
  Rng rng(97);
  std::vector<double> values;
  for (int i = 0; i < 501; ++i) {
    values.push_back(rng.Uniform(0.0, 1000.0));
  }
  for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    std::vector<double> scratch = values;
    EXPECT_DOUBLE_EQ(PercentileInPlace(scratch, p), Percentile(values, p)) << "p=" << p;
  }
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PercentileInPlace(empty, 50), 0.0);
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(one, 99), 42.0);
}

TEST(RunningStatsTest, MergeMatchesSingleAccumulator) {
  Rng rng(31);
  RunningStats combined;
  RunningStats parts[4];
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.Gaussian(3.0, 1.5);
    combined.Add(v);
    parts[i % 4].Add(v);
  }
  RunningStats merged;
  for (const RunningStats& part : parts) {
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_NEAR(merged.mean(), combined.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), combined.variance(), 1e-9);
  EXPECT_EQ(merged.min(), combined.min());
  EXPECT_EQ(merged.max(), combined.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats filled;
  filled.Add(1.0);
  filled.Add(3.0);

  RunningStats target;
  target.Merge(filled);  // empty.Merge(filled) == copy
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);

  RunningStats empty;
  target.Merge(empty);  // merging an empty accumulator is a no-op
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(MeanStdDevTest, Vector) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 1.0);
}

TEST(TableTest, AsciiRendering) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"bb", "22"});
  std::ostringstream os;
  t.RenderAscii(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name | value |"), std::string::npos);
  EXPECT_NE(out.find("| bb   | 22    |"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table t({"x", "y"});
  t.AddNumericRow("r", {1.25, 2.5}, 2);
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "x,y\nr,1.25\n");
}

TEST(TableTest, RowPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.RenderCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(10.0, 0), "10");
}

template <typename T>
std::vector<T> Drain(RingQueue<T>* q) {
  std::vector<T> out;
  while (!q->empty()) {
    out.push_back(q->front());
    q->pop_front();
  }
  return out;
}

TEST(RingQueueTest, InsertMidFifoKeepsOrder) {
  // SchedulerCore::PushRun slots a requeued retry back among later runs
  // this way.
  RingQueue<int> q;
  for (int v : {10, 20, 40, 50}) {
    q.push_back(v);
  }
  q.Insert(2, 30);
  q.Insert(0, 0);
  q.Insert(q.size(), 60);
  EXPECT_EQ(q.size(), 7u);
  EXPECT_EQ(q[3], 30);
  EXPECT_EQ(Drain(&q), (std::vector<int>{0, 10, 20, 30, 40, 50, 60}));
}

TEST(RingQueueTest, WrapAroundSurvivesGrow) {
  RingQueue<int> q;
  // Move the head to slot 5 of the initial 8, so the next pushes wrap.
  for (int v = 0; v < 6; ++v) {
    q.push_back(v);
  }
  for (int v = 0; v < 5; ++v) {
    q.pop_front();
  }
  for (int v = 6; v < 12; ++v) {
    q.push_back(v);  // 7 of 8 slots used, wrapped past the end
  }
  q.Insert(4, 100);  // mid insert whose swaps cross the wrap point
  q.push_back(12);   // full while wrapped: grows
  q.push_back(13);
  EXPECT_EQ(Drain(&q), (std::vector<int>{5, 6, 7, 8, 100, 9, 10, 11, 12, 13}));
  // Reused after draining: still FIFO.
  q.push_back(1);
  q.push_back(2);
  EXPECT_EQ(Drain(&q), (std::vector<int>{1, 2}));
}

TEST(SlotPoolTest, ReleasedSlotsAreReusedLifo) {
  SlotPool<int> pool;
  const uint32_t a = pool.Acquire();
  const uint32_t b = pool.Acquire();
  const uint32_t c = pool.Acquire();
  EXPECT_EQ(pool.live(), 3u);
  pool.Release(a);
  pool.Release(c);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.Acquire(), c);
  EXPECT_EQ(pool.Acquire(), a);
  EXPECT_EQ(pool.Acquire(), 3u);  // free list empty: a fresh record
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 4u);
}

TEST(SlotPoolTest, ReferencesStayValidAcrossAcquire) {
  SlotPool<std::pair<int, int>> pool;
  const uint32_t first = pool.Acquire();
  pool[first] = {7, 8};
  std::pair<int, int>& ref = pool[first];
  for (int i = 0; i < 10000; ++i) {
    pool[pool.Acquire()] = {i, i};
  }
  EXPECT_EQ(&ref, &pool[first]);
  EXPECT_EQ(ref, (std::pair<int, int>{7, 8}));
}

TEST(SlotPoolTest, ReleaseAfterMovingOutHoldsNothing) {
  // Release does not reset the record; the callers' contract is to move the
  // owning member out first, which leaves nothing alive in the slab.
  struct Record {
    int value = 0;
    InlineFn<void()> fn;
  };
  SlotPool<Record> pool;
  auto token = std::make_shared<int>(1);
  const uint32_t id = pool.Acquire();
  pool[id] = Record{5, [token] {}};
  EXPECT_EQ(token.use_count(), 2);
  {
    InlineFn<void()> fn = std::move(pool[id].fn);
    pool.Release(id);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(pool.Acquire(), id);
  EXPECT_FALSE(pool[id].fn);
}

}  // namespace
}  // namespace bsched
