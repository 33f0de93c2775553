// Observability layer tests: metrics registry exactness (including under the
// parallel sweep pool — run with the tsan preset for the data-race proof),
// histogram bucket boundaries, snapshot determinism across worker counts,
// and round-trip parsing of the exported trace + metrics artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/exec/sweep_runner.h"
#include "src/model/zoo.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

JobConfig SmallJob() {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(4);
  job.credit_bytes = MiB(16);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  return job;
}

// ---- histogram buckets ----------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0: v <= 0. Bucket k >= 1: [2^(k-1), 2^k - 1] (the bit width).
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  for (int k = 1; k < 62; ++k) {
    const int64_t lo = int64_t{1} << (k - 1);
    const int64_t hi = (int64_t{1} << k) - 1;
    EXPECT_EQ(Histogram::BucketIndex(lo), k) << "lo of bucket " << k;
    EXPECT_EQ(Histogram::BucketIndex(hi), k) << "hi of bucket " << k;
    EXPECT_EQ(Histogram::BucketLowerBound(k), lo);
    EXPECT_EQ(Histogram::BucketUpperBound(k), hi);
  }
  // The top bucket absorbs everything wider than 63 bits of range.
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
}

TEST(HistogramTest, ObserveAndSnapshot) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1011);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);

  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1011);
  EXPECT_EQ(snap.buckets.size(), 4u);  // only non-empty buckets exported
  // The median observation (5) lives in bucket 3 = [4, 7].
  EXPECT_GE(snap.Quantile(50), 4.0);
  EXPECT_LE(snap.Quantile(50), 7.0);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.Quantile(50), snap.Quantile(90));
  EXPECT_LE(snap.Quantile(90), snap.Quantile(100));
}

// ---- sketch percentiles ---------------------------------------------------

// The expand-and-select implementation HistogramSnapshot::Percentiles had
// before it went closed form: materialise each bucket's representative
// points (at most ~4096 in all) and select with PercentileInPlace. Kept as
// the oracle the closed form must match bit for bit.
std::vector<double> ExpandedPercentiles(const HistogramSnapshot& snap,
                                        const std::vector<double>& ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (snap.count == 0) {
    return out;
  }
  constexpr uint64_t kMaxPoints = 4096;
  std::vector<double> samples;
  for (const auto& [index, c] : snap.buckets) {
    const uint64_t n =
        snap.count > kMaxPoints ? std::max<uint64_t>(1, c * kMaxPoints / snap.count) : c;
    const double lo = static_cast<double>(Histogram::BucketLowerBound(index));
    const double hi = static_cast<double>(Histogram::BucketUpperBound(index));
    for (uint64_t j = 0; j < n; ++j) {
      const double frac = (2.0 * static_cast<double>(j) + 1.0) / (2.0 * static_cast<double>(n));
      samples.push_back(lo + (hi - lo) * frac);
    }
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    out[i] = PercentileInPlace(std::span<double>(samples), ps[i]);
  }
  return out;
}

HistogramSnapshot SnapshotOf(const std::map<int, uint64_t>& buckets) {
  HistogramSnapshot snap;
  for (const auto& [index, c] : buckets) {
    snap.buckets.emplace_back(index, c);
    snap.count += c;
  }
  return snap;
}

void ExpectMatchesOracle(const HistogramSnapshot& snap, const std::string& what) {
  const std::vector<double> ps = {0.0, 1.0, 50.0, 95.0, 99.0, 100.0};
  const std::vector<double> got = snap.Percentiles(ps);
  const std::vector<double> want = ExpandedPercentiles(snap, ps);
  ASSERT_EQ(got.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    // Exact equality: the closed form must reproduce every bit.
    EXPECT_EQ(got[i], want[i]) << what << " p" << ps[i];
  }
}

TEST(SketchPercentilesTest, EdgeHistogramsMatchExpandedOracle) {
  ExpectMatchesOracle(SnapshotOf({}), "empty");
  EXPECT_EQ(SnapshotOf({}).Percentiles({50.0}), std::vector<double>{0.0});
  ExpectMatchesOracle(SnapshotOf({{11, 1}}), "single sample");
  ExpectMatchesOracle(SnapshotOf({{0, 1}}), "one zero");
  ExpectMatchesOracle(SnapshotOf({{0, 37}}), "bucket 0 only");
  ExpectMatchesOracle(SnapshotOf({{63, 1}}), "bucket 63, one sample");
  ExpectMatchesOracle(SnapshotOf({{63, 9}}), "bucket 63 only");
  ExpectMatchesOracle(SnapshotOf({{0, 3}, {1, 2}, {62, 4}, {63, 5}}), "both ends");
  ExpectMatchesOracle(SnapshotOf({{5, 4096}}), "exactly the cap");
  ExpectMatchesOracle(SnapshotOf({{5, 4097}}), "one over the cap");
  ExpectMatchesOracle(SnapshotOf({{3, 1}, {20, 1000000}, {63, 2}}), "rare buckets over the cap");
  ExpectMatchesOracle(SnapshotOf({{1, uint64_t{1} << 40}, {40, 3}, {63, uint64_t{1} << 41}}),
                      "counts near 2^41");
  // A histogram filled through Observe agrees with its snapshot's oracle.
  Histogram h;
  for (const int64_t v : {int64_t{-3}, int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1000},
                          INT64_MAX, INT64_MAX}) {
    h.Observe(v);
  }
  ExpectMatchesOracle(h.Snapshot(), "observed");
}

TEST(SketchPercentilesTest, RandomHistogramsMatchExpandedOracle) {
  std::mt19937_64 rng(20191027);
  for (int trial = 0; trial < 400; ++trial) {
    std::map<int, uint64_t> buckets;
    const int nonempty = 1 + static_cast<int>(rng() % 12);
    // Small counts exercise the one-point-per-sample path; large ones the
    // proportional cap.
    const uint64_t max_count = trial % 2 == 0 ? 600 : 2000000;
    for (int b = 0; b < nonempty; ++b) {
      buckets[static_cast<int>(rng() % Histogram::kNumBuckets)] += 1 + rng() % max_count;
    }
    ExpectMatchesOracle(SnapshotOf(buckets), "trial " + std::to_string(trial));
  }
}

// ---- registry -------------------------------------------------------------

TEST(MetricsRegistryTest, StableHandles) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a");
  EXPECT_EQ(reg.counter("a"), c);
  EXPECT_NE(reg.counter("b"), c);
  Gauge* g = reg.gauge("a");  // same name, different kind: distinct handle
  EXPECT_EQ(reg.gauge("a"), g);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  g->Set(-7);
  g->Add(3);
  EXPECT_EQ(g->value(), -4);
}

// The TSan-visible proof that a shared registry is safe under the exec/
// thread pool: concurrent relaxed increments lose nothing.
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* counter = reg.counter("shared.counter");
  Gauge* gauge = reg.gauge("shared.gauge");
  Histogram* hist = reg.histogram("shared.hist");
  constexpr int kTasks = 16;
  constexpr int kPerTask = 10'000;
  SweepRunner runner(4);
  runner.ParallelFor(kTasks, [&](size_t i) {
    for (int k = 0; k < kPerTask; ++k) {
      counter->Inc();
      gauge->Add(1);
      hist->Observe(static_cast<int64_t>(i) + 1);
    }
  });
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(gauge->value(), static_cast<int64_t>(kTasks) * kPerTask);
  EXPECT_EQ(reg.histogram("shared.hist")->count(), static_cast<uint64_t>(kTasks) * kPerTask);
}

TEST(MetricsSnapshotTest, JsonIndependentOfRegistrationOrder) {
  MetricsRegistry a;
  a.counter("x")->Inc(3);
  a.gauge("y")->Set(9);
  a.histogram("z")->Observe(5);

  MetricsRegistry b;  // same state, reverse registration order
  b.histogram("z")->Observe(5);
  b.gauge("y")->Set(9);
  b.counter("x")->Inc(3);

  std::ostringstream ja;
  std::ostringstream jb;
  a.Snapshot().WriteJson(ja);
  b.Snapshot().WriteJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

// ---- end-to-end job instrumentation --------------------------------------

TEST(ObsJobTest, MetricsDoNotPerturbSimulation) {
  JobConfig job = SmallJob();
  const JobResult plain = RunTrainingJob(job);

  MetricsRegistry metrics;
  TraceRecorder trace;
  job.metrics = &metrics;
  job.trace = &trace;
  const JobResult observed = RunTrainingJob(job);
  EXPECT_EQ(observed.avg_iter_time, plain.avg_iter_time);
  EXPECT_EQ(observed.sim_events, plain.sim_events);
}

// The same job snapshots byte-identically whether the surrounding sweep ran
// serially or on the pool (each run owns a private registry).
TEST(ObsJobTest, SnapshotDeterministicAcrossJobCounts) {
  auto run_once = [](size_t) {
    MetricsRegistry metrics;
    JobConfig job = SmallJob();
    job.metrics = &metrics;
    RunTrainingJob(job);
    std::ostringstream os;
    metrics.Snapshot().WriteJson(os);
    return os.str();
  };
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const std::vector<std::string> one = serial.ParallelFor(2, run_once);
  const std::vector<std::string> many = parallel.ParallelFor(4, run_once);
  for (const std::string& snapshot : many) {
    EXPECT_EQ(snapshot, one.front());
  }
  EXPECT_EQ(one.back(), one.front());
}

TEST(ObsJobTest, TraceRoundTripsThroughParser) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.trace = &trace;
  job.metrics = &metrics;
  RunTrainingJob(job);

  std::ostringstream os;
  trace.WriteChromeTrace(os);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_array());
  ASSERT_FALSE(root.array.empty());

  std::set<int> named_tids;
  std::map<uint64_t, std::set<int>> flow_tracks;
  std::map<uint64_t, std::set<std::string>> flow_phases;
  for (const obs::JsonValue& ev : root.array) {
    ASSERT_TRUE(ev.is_object());
    const obs::JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    const obs::JsonValue* pid = ev.Find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->IntOr(-1), 1);
    const std::string phase = ph->str;
    const int tid = static_cast<int>(ev.Find("tid")->IntOr(-1));
    if (phase == "M") {
      named_tids.insert(tid);
    } else if (phase == "s" || phase == "t" || phase == "f") {
      const uint64_t id = static_cast<uint64_t>(ev.Find("id")->IntOr(0));
      EXPECT_NE(id, 0u);
      flow_tracks[id].insert(tid);
      flow_phases[id].insert(phase);
    } else {
      // Every span/instant lands on a track announced via thread_name.
      EXPECT_TRUE(named_tids.count(tid)) << "unnamed tid " << tid;
    }
  }
  // At least one partition is traceable end-to-end: its arc opens, closes,
  // and crosses >= 3 distinct tracks (scheduler -> link -> shard -> ...).
  bool end_to_end = false;
  for (const auto& [id, tracks] : flow_tracks) {
    if (tracks.size() >= 3 && flow_phases[id].count("s") && flow_phases[id].count("f")) {
      end_to_end = true;
      break;
    }
  }
  EXPECT_TRUE(end_to_end);
}

TEST(ObsJobTest, MetricsRoundTripsWithAcceptanceKeys) {
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.metrics = &metrics;
  RunTrainingJob(job);

  std::ostringstream os;
  metrics.Snapshot().WriteJson(os);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_object());

  const obs::JsonValue* counters = root.Find("counters");
  const obs::JsonValue* gauges = root.Find("gauges");
  const obs::JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);

  // Scheduler queue depth + credit occupancy histograms, populated.
  const obs::JsonValue* queue_depth = histograms->Find("sched.w0.queue_depth");
  ASSERT_NE(queue_depth, nullptr);
  EXPECT_GT(queue_depth->Find("count")->IntOr(0), 0);
  const obs::JsonValue* credit = histograms->Find("sched.w0.credit_in_use");
  ASSERT_NE(credit, nullptr);
  EXPECT_GT(credit->Find("count")->IntOr(0), 0);

  // Link busy time gauge for at least one link.
  bool link_busy = false;
  for (const auto& [name, value] : gauges->object) {
    if (name.rfind("net.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".busy_ns") == 0 && value.IntOr(0) > 0) {
      link_busy = true;
      break;
    }
  }
  EXPECT_TRUE(link_busy);

  // Fault-recovery counters always exported (zero without chaos).
  const obs::JsonValue* retries = counters->Find("fault.core_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->IntOr(-1), 0);

  // Link byte counters account for real traffic.
  bool link_bytes = false;
  for (const auto& [name, value] : counters->object) {
    if (name.rfind("net.", 0) == 0 && value.IntOr(0) > 0) {
      link_bytes = true;
      break;
    }
  }
  EXPECT_TRUE(link_bytes);
}

TEST(ObsJobTest, ChaosJobExportsRetryCounters) {
  MetricsRegistry metrics;
  JobConfig job = SmallJob();
  job.chaos = FaultPlanConfig::Chaos(1);
  job.metrics = &metrics;
  const JobResult result = RunTrainingJob(job);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("fault.core_retries"), result.fault_stats.core_retries);
  EXPECT_EQ(snap.counters.at("fault.backend_retransmits"),
            result.fault_stats.backend_retransmits);
  EXPECT_EQ(snap.counters.at("fault.drops_injected"), result.fault_stats.drops_injected);
}

TEST(MetricsSnapshotTest, CsvShape) {
  MetricsRegistry reg;
  reg.counter("c")->Inc(2);
  reg.gauge("g")->Set(5);
  reg.histogram("h")->Observe(10);
  std::ostringstream os;
  reg.Snapshot().WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("kind,name,value,count,sum,p50,p95,p99", 0), 0u);
  EXPECT_NE(csv.find("counter,c,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h"), std::string::npos);
}

// Millisecond-scale latencies in ns interpolate to seven-digit, non-integral
// percentiles; they print like the time-series CSV's ("%.4f", trailing zeros
// trimmed), never in the stream's default exponent form ("1.61604e+06").
TEST(MetricsSnapshotTest, CsvPercentilesAreFixedPoint) {
  MetricsRegistry reg;
  for (int64_t ns = 1'000'000; ns <= 2'200'000; ns += 10'000) {
    reg.histogram("lat_ns")->Observe(ns);
  }
  std::ostringstream os;
  reg.Snapshot().WriteCsv(os);
  const std::string csv = os.str();
  const size_t row = csv.find("histogram,lat_ns,,121,");
  ASSERT_NE(row, std::string::npos) << csv;
  std::vector<std::string> cells;
  std::stringstream line(csv.substr(row, csv.find('\n', row) - row));
  for (std::string cell; std::getline(line, cell, ',');) {
    cells.push_back(cell);
  }
  ASSERT_EQ(cells.size(), 8u);
  for (size_t i = 5; i < 8; ++i) {
    SCOPED_TRACE(cells[i]);
    EXPECT_EQ(cells[i].find_first_of("eE"), std::string::npos);
    const double v = std::stod(cells[i]);
    // Inside the samples' power-of-two buckets, [2^19, 2^22).
    EXPECT_GE(v, 524288.0);
    EXPECT_LT(v, 4194304.0);
    const size_t dot = cells[i].find('.');
    if (dot != std::string::npos) {
      EXPECT_LE(cells[i].size() - dot - 1, 4u);
    }
  }
}

// ---- pool stats (per-worker task counts / idle time) ----------------------

TEST(PoolStatsTest, SweepRunnerAccountsEveryTask) {
  SweepRunner runner(2);
  constexpr size_t kTasks = 12;
  // Stats() right after ParallelFor returns must already count the last
  // task; repeated so a publication race between a task's completion signal
  // and its stats update shows up.
  constexpr size_t kRounds = 2000;
  for (size_t round = 1; round <= kRounds; ++round) {
    std::vector<double> sink =
        runner.ParallelFor(kTasks, [](size_t i) { return static_cast<double>(i); });
    ASSERT_EQ(sink.size(), kTasks);
    ASSERT_EQ(runner.Stats().total_tasks(), round * kTasks) << "round " << round;
  }
  const PoolStats stats = runner.Stats();
  EXPECT_EQ(stats.workers.size(), 2u);
  const RunningStats merged = stats.merged_task_sec();
  EXPECT_EQ(merged.count(), kRounds * kTasks);
  EXPECT_GE(merged.min(), 0.0);
  // Inline runners expose empty stats rather than lying.
  SweepRunner inline_runner(1);
  inline_runner.ParallelFor(3, [](size_t) { return 0; });
  EXPECT_EQ(inline_runner.Stats().total_tasks(), 0u);
}

// ---- ObsContext flow bookkeeping ------------------------------------------

TEST(ObsContextTest, FlowLifecycle) {
  TraceRecorder trace;
  ObsContext obs(&trace, nullptr);
  EXPECT_TRUE(obs.tracing());
  EXPECT_EQ(obs.metrics(), nullptr);
  const uint64_t flow = obs.BeginPartitionFlow(0, 7, 2);
  EXPECT_NE(flow, 0u);
  EXPECT_EQ(obs.LookupPartitionFlow(0, 7, 2), flow);
  EXPECT_EQ(obs.LookupPartitionFlow(0, 7, 3), 0u);
  // Reopening the same slot (next iteration) hands out a fresh id.
  const uint64_t next = obs.BeginPartitionFlow(0, 7, 2);
  EXPECT_NE(next, flow);
  obs.EndPartitionFlow(0, 7, 2);
  EXPECT_EQ(obs.LookupPartitionFlow(0, 7, 2), 0u);
}

// The flow table grows past its first capacity and keeps every key distinct,
// including keys that differ in one field only; closed flows stay closed.
TEST(ObsContextTest, FlowTableKeepsManyPartitions) {
  ObsContext obs;
  EXPECT_EQ(obs.LookupPartitionFlow(0, 0, 0), 0u);
  obs.EndPartitionFlow(0, 0, 0);  // no table yet: a no-op
  std::vector<uint64_t> ids;
  for (int w = 0; w < 4; ++w) {
    for (int64_t t = 0; t < 40; ++t) {
      for (int p = 0; p < 3; ++p) {
        ids.push_back(obs.BeginPartitionFlow(w, t, p));
      }
    }
  }
  size_t i = 0;
  for (int w = 0; w < 4; ++w) {
    for (int64_t t = 0; t < 40; ++t) {
      for (int p = 0; p < 3; ++p) {
        ASSERT_EQ(obs.LookupPartitionFlow(w, t, p), ids[i++]) << w << " " << t << " " << p;
        if ((w + t + p) % 2 == 0) {
          obs.EndPartitionFlow(w, t, p);
        }
      }
    }
  }
  i = 0;
  for (int w = 0; w < 4; ++w) {
    for (int64_t t = 0; t < 40; ++t) {
      for (int p = 0; p < 3; ++p, ++i) {
        EXPECT_EQ(obs.LookupPartitionFlow(w, t, p), (w + t + p) % 2 == 0 ? 0u : ids[i]);
      }
    }
  }
  EXPECT_EQ(obs.LookupPartitionFlow(4, 0, 0), 0u);
}

}  // namespace
}  // namespace bsched
