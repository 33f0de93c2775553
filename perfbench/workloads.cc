// Workload generation and op execution for the repo benchmark.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

#include "perfbench/perfbench.h"
#include "src/common/rng.h"
#include "src/model/zoo.h"
#include "src/obs/json_lite.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/tuning/auto_tuner.h"
#include "src/tuning/search.h"

namespace perfbench {

using bsched::Bandwidth;
using bsched::Bytes;
using bsched::JobConfig;
using bsched::JobResult;
using bsched::Rng;
using bsched::SchedMode;
using bsched::Setup;
using bsched::SimTime;

double CpuSec() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return total;
}

double ThreadCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  long peak_kb = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    peak_kb = std::max(peak_kb, ru.ru_maxrss);
  }
  return static_cast<double>(peak_kb) / 1024.0;
}

void Digest::AddBytes(std::string_view s) {
  Add(s.size());
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    h_ = (h_ ^ w) * kPrime;
    h_ ^= h_ >> 29;
  }
  for (; i < s.size(); ++i) {
    h_ = (h_ ^ static_cast<unsigned char>(s[i])) * kPrime;
  }
}

void JobCounts::Merge(const JobCounts& o) {
  sim_events += o.sim_events;
  cancelled += o.cancelled;
  net_msgs += o.net_msgs;
  push_legs += o.push_legs;
  retransmits += o.retransmits;
  stale_drops += o.stale_drops;
  repaces += o.repaces;
  subtasks += o.subtasks;
  ps_subtasks += o.ps_subtasks;
  retries += o.retries;
  injected += o.injected;
  dag_ops += o.dag_ops;
  imperative_ops += o.imperative_ops;
  ticks += o.ticks;
  csv_bytes += o.csv_bytes;
}

bool ParseKind(const std::string& name, Kind* kind) {
  static const std::pair<const char*, Kind> kKinds[] = {
      {"ps_sweep", Kind::kPsSweep},
      {"allreduce_tune", Kind::kAllreduceTune},
      {"volatile_ps", Kind::kVolatilePs},
      {"observed_job", Kind::kObservedJob},
  };
  for (const auto& [n, k] : kKinds) {
    if (name == n) {
      *kind = k;
      return true;
    }
  }
  return false;
}

namespace {

// Replicas of each serial workload's stratified design, sized so that one
// pass over the pool takes about a 20-second run on a 4-CPU host: a
// run then measures the whole pool once, and the per-seed draws average out
// over many ops.
constexpr int kTuneReps = 9;
constexpr int kVolatileReps = 42;
constexpr int kObservedReps = 8;

// Log-uniform draw near the middle of stratum `k` of `n` equal slices of
// [lo, hi] (log scale). A seeded permutation of strata keeps every seed's
// pool spread over the whole range, and the narrow draw inside a stratum
// keeps the amount of work nearly the same from seed to seed.
Bytes LogStratum(Rng& rng, int k, int n, double lo, double hi) {
  const double u = (k + rng.Uniform(0.35, 0.65)) / n;
  return static_cast<Bytes>(
      std::llround(std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)))));
}

std::vector<int> Permutation(Rng& rng, int n) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) {
    p[i] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[i], p[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  return p;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
}

JobConfig MakeJob(const std::string& model, const Setup& setup, int machines, double gbps,
                  SchedMode mode) {
  JobConfig job;
  job.model = bsched::ModelByName(model);
  job.setup = setup;
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(gbps);
  job.mode = mode;
  const bsched::TunedParams tuned =
      bsched::DefaultTunedParams(job.model, setup.arch, setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  return job;
}

// ps_sweep: the fig10-13 grid (PS setup x model x {1,2,4,8} machines x
// {10,25,100} Gbps x mode). The seed draws the ByteScheduler cells'
// partition (1-16 MiB) and credit (1-16 partitions) sizes, log-uniform
// inside strata it permutes over the three bandwidths.
std::vector<Op> PsSweepPool(Rng& rng, int /*rep*/) {
  const std::vector<Setup> setups = {Setup::MxnetPsTcp(), Setup::MxnetPsRdma(),
                                     Setup::TensorFlowPsTcp()};
  const std::vector<std::string> models = {"resnet50", "vgg16", "transformer"};
  const double gbps[] = {10, 25, 100};
  const double kMiB = 1024.0 * 1024.0;
  std::vector<Op> pool;
  for (const Setup& setup : setups) {
    for (const std::string& model : models) {
      for (int machines : {1, 2, 4, 8}) {
        const std::vector<int> partition_strata = Permutation(rng, 3);
        const std::vector<int> credit_strata = Permutation(rng, 3);
        for (int b = 0; b < 3; ++b) {
          for (SchedMode mode :
               {SchedMode::kVanilla, SchedMode::kByteScheduler, SchedMode::kP3}) {
            Op op;
            op.job = MakeJob(model, setup, machines, gbps[b], mode);
            if (mode == SchedMode::kByteScheduler) {
              const Bytes partition = LogStratum(rng, partition_strata[b], 3, kMiB, 16 * kMiB);
              op.job.partition_bytes = partition;
              op.job.credit_bytes = LogStratum(rng, credit_strata[b], 3,
                                               static_cast<double>(partition),
                                               16.0 * static_cast<double>(partition));
            }
            op.job.warmup_iters = 2;
            op.job.measure_iters = 5;
            pool.push_back(std::move(op));
          }
        }
      }
    }
  }
  // One sweep per bandwidth, each a full fig10-12-style grid.
  std::stable_sort(pool.begin(), pool.end(), [](const Op& a, const Op& b) {
    return a.job.bandwidth.ToGbps() < b.job.bandwidth.ToGbps();
  });
  return pool;
}

// allreduce_tune: one BO tuning session per (all-reduce setup, zoo model,
// machine bucket). The trial count (10, 20, 30) and the bandwidth rotate
// with the replica `rep`, so that every kTuneReps replicas hold each
// (bucket, trials, bandwidth) combination once; the seed draws the machine
// count inside the bucket and the BO seed.
std::vector<Op> AllreduceTunePool(Rng& rng, int rep) {
  const std::vector<Setup> setups = {Setup::MxnetNcclRdma(), Setup::PyTorchNcclTcp()};
  const std::vector<std::string> models = {"alexnet", "resnet50",    "vgg16",
                                           "vgg19",   "transformer", "bert-large"};
  const int buckets[3][2] = {{1, 2}, {3, 5}, {6, 8}};
  const int trial_counts[3] = {10, 20, 30};
  const double gbps[3] = {10, 25, 100};
  std::vector<Op> pool;
  for (const Setup& setup : setups) {
    for (const std::string& model : models) {
      for (int b = 0; b < 3; ++b) {
        Op op;
        op.job = MakeJob(model, setup,
                         static_cast<int>(rng.UniformInt(buckets[b][0], buckets[b][1])),
                         gbps[(b + rep / 3) % 3], SchedMode::kByteScheduler);
        op.trials = trial_counts[(b + rep) % 3];
        op.search_seed = rng.NextU64();
        pool.push_back(std::move(op));
      }
    }
  }
  return pool;
}

// volatile_ps: PS jobs on the dynamic fabric, one per (fabric preset,
// bandwidth, model) for each of vanilla, ByteScheduler, and ByteScheduler
// under chaos. The presets are fig15's (MXNet PS TCP on 2 machines: random-walk
// drift + cross flows), quickstart --volatility's (MXNet PS RDMA on 4
// machines: drift, cross flows, asymmetric downlinks, AIMD) and a two-tier
// rack fabric (MXNet PS TCP on 2 racks of 2). The seed draws the fabric and
// fault-plan seeds and fig15's drift amplitude.
//
// Chaos jobs use FaultPlanConfig::Chaos(seed) with a 250 ms retry timeout
// instead of 25 ms: with the default timeout, and for vanilla jobs under
// chaos at all, a share of the jobs aborts on a BSCHED_CHECK (README.md,
// "Known aborts"). The traced run counts those aborts on a sample of the
// pool run under the default plan (fault.aborted_jobs).
constexpr SimTime kVolatileRetryTimeout = SimTime::Millis(250);

std::vector<Op> VolatilePsPool(Rng& rng, int /*rep*/) {
  const std::vector<double> amplitudes = {0.2, 0.4, 0.6, 0.8};
  std::vector<Op> pool;
  for (int preset = 0; preset < 3; ++preset) {
    for (double gbps : {25.0, 100.0}) {
      for (int variant = 0; variant < 3; ++variant) {
        for (const char* model : {"resnet50", "vgg16"}) {
          Op op;
          op.job = MakeJob(model, preset == 1 ? Setup::MxnetPsRdma() : Setup::MxnetPsTcp(),
                           preset == 0 ? 2 : 4, gbps,
                           variant == 0 ? SchedMode::kVanilla : SchedMode::kByteScheduler);
          op.job.warmup_iters = 1;
          op.job.measure_iters = 3;
          bsched::NetDynamicsConfig dyn;
          dyn.seed = rng.NextU64();
          dyn.volatility_period = SimTime::Millis(2);
          if (preset == 0) {  // fig15
            const double a = Pick(rng, amplitudes);
            dyn.volatility_amplitude = a;
            dyn.cross_flows = 2;
            dyn.cross_load = 0.35 * a;
            dyn.force_enable = true;
          } else if (preset == 1) {  // quickstart --volatility
            dyn.volatility_amplitude = 0.7;
            dyn.cross_flows = 2;
            dyn.cross_load = 0.5;
            dyn.down_scale = 0.8;
            dyn.aimd.enable = true;
          } else {  // two-tier racks
            dyn.volatility_amplitude = 0.4;
            dyn.cross_flows = 1;
            dyn.cross_load = 0.3;
            dyn.racks = 2;
            dyn.oversubscription = 4.0;
          }
          op.job.dynamics = dyn;
          const uint64_t chaos_seed = rng.NextU64();
          if (variant == 2) {
            op.job.chaos = bsched::FaultPlanConfig::Chaos(chaos_seed);
            op.job.chaos->retry_timeout = kVolatileRetryTimeout;
          }
          pool.push_back(std::move(op));
        }
      }
    }
  }
  return pool;
}

// observed_job: quickstart-shaped ByteScheduler jobs (setup x model x
// {2,4} machines x {40,100} Gbps) with every --obs sink attached. Partition
// and credit lie within 1.5x of the tuned values: each replica `rep` takes a
// different one of kObservedReps log strata of that range (offset per cell,
// so partition and credit strata differ), and the seed draws the value
// inside it, so every seed's pool covers the same range.
std::vector<Op> ObservedJobPool(Rng& rng, int rep) {
  const std::vector<Setup> setups = {Setup::MxnetPsRdma(), Setup::MxnetNcclRdma()};
  const std::vector<std::string> models = {"resnet50", "vgg16", "transformer"};
  std::vector<Op> pool;
  int cell = 0;
  for (const Setup& setup : setups) {
    for (const std::string& model : models) {
      for (int machines : {2, 4}) {
        for (double gbps : {40.0, 100.0}) {
          Op op;
          op.job = MakeJob(model, setup, machines, gbps, SchedMode::kByteScheduler);
          const double partition = static_cast<double>(op.job.partition_bytes);
          const double credit = static_cast<double>(op.job.credit_bytes);
          op.job.partition_bytes = LogStratum(rng, (rep + cell) % kObservedReps, kObservedReps,
                                              partition / 1.5, partition * 1.5);
          op.job.credit_bytes =
              std::max(op.job.partition_bytes,
                       LogStratum(rng, (rep + 3 * cell + 1) % kObservedReps, kObservedReps,
                                  credit / 1.5, credit * 1.5));
          op.job.warmup_iters = 1;
          op.job.measure_iters = 3;
          pool.push_back(std::move(op));
          ++cell;
        }
      }
    }
  }
  return pool;
}

void AddSpan(const RunOptions& o, const char* name, double start, double end) {
  if (o.tracer != nullptr) {
    o.tracer->Add(Span{name, start, end, o.parent, o.op_id});
  }
}

// Per-op invariant check of a finished training job; empty when it holds.
std::string CheckJob(const JobConfig& job, const JobResult& result) {
  if (result.iter_end_times.size() !=
      static_cast<size_t>(job.warmup_iters + job.measure_iters)) {
    return "not every iteration finished";
  }
  if (result.subtasks_abandoned != 0 || result.fault_stats.core_abandoned != 0) {
    return "subtasks were abandoned";
  }
  // A relative 1e-9 absorbs rounding in the speed computation only.
  const double linear = bsched::LinearScalingSpeed(job.model, job.total_gpus());
  if (!(result.samples_per_sec > 0.0) || result.samples_per_sec > linear * (1.0 + 1e-9)) {
    return "samples_per_sec outside (0, LinearScalingSpeed]";
  }
  return "";
}

// Folds a job's simulated outputs into `digest`.
void DigestJob(const JobResult& result, Digest* digest) {
  digest->AddDouble(result.samples_per_sec);
  digest->Add(static_cast<uint64_t>(result.avg_iter_time.nanos()));
  digest->AddDouble(result.shard_load_imbalance);
  digest->Add(result.sim_events);
  digest->Add(result.subtasks_started);
  for (const SimTime& t : result.iter_end_times) {
    digest->Add(static_cast<uint64_t>(t.nanos()));
  }
  const bsched::FaultStats& f = result.fault_stats;
  for (uint64_t v : {f.messages_seen, f.drops_injected, f.delays_injected, f.compute_slowdowns,
                     f.shard_slowdowns, f.core_timeouts, f.core_retries,
                     f.core_late_completions, f.core_abandoned, f.backend_retransmits}) {
    digest->Add(v);
  }
  digest->Add(static_cast<uint64_t>(f.delay_injected_total.nanos()));
  digest->Add(static_cast<uint64_t>(f.credit_restored));
  digest->Add(result.subtasks_abandoned);
  digest->Add(result.rate_ctrl_decreases);
  digest->Add(result.rate_ctrl_increases);
  digest->Add(result.link_repaces);
}

// Harvests counts from a finished job and its registry (may be null).
JobCounts CountJob(const JobConfig& job, const JobResult& result,
                   const bsched::MetricsRegistry* registry) {
  JobCounts c;
  c.sim_events = result.sim_events;
  c.subtasks = result.subtasks_started;
  if (job.setup.arch == bsched::ArchType::kPs) {
    c.ps_subtasks = result.subtasks_started;
  }
  c.retries = result.fault_stats.core_retries;
  c.injected = result.fault_stats.drops_injected + result.fault_stats.delays_injected;
  c.repaces = result.link_repaces;
  // One FP and one BP compute op per layer, iteration and engine (PS runs an
  // engine per machine, all-reduce one for the ring).
  const uint64_t engines = job.setup.arch == bsched::ArchType::kPs ? job.num_machines : 1;
  const uint64_t ops = engines * static_cast<uint64_t>(job.warmup_iters + job.measure_iters) * 2 *
                       static_cast<uint64_t>(job.model.num_layers());
  (bsched::IsImperative(job.setup.framework) ? c.imperative_ops : c.dag_ops) = ops;
  if (registry != nullptr) {
    const bsched::MetricsSnapshot snap = registry->Snapshot();
    auto gauge = [&snap](const char* name) -> uint64_t {
      const auto it = snap.gauges.find(name);
      return it == snap.gauges.end() ? 0 : static_cast<uint64_t>(it->second);
    };
    auto counter = [&snap](const char* name) -> uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    c.cancelled = gauge("sim.skipped_cancelled");
    c.retransmits = counter("ps.push_retransmits");
    c.stale_drops = counter("net.stale_push_drops");
    for (const auto& [name, value] : snap.counters) {
      const std::string_view n = name;
      if (n.starts_with("net.") && n.ends_with(".msgs")) {
        c.net_msgs += value;
        if (n.starts_with("net.worker") && n.ends_with(".up.msgs")) {
          c.push_legs += value;
        }
      }
    }
  }
  return c;
}

}  // namespace

Outcome RunJob(const JobConfig& config, const RunOptions& o) {
  Outcome out;
  JobConfig job = config;
  std::unique_ptr<bsched::MetricsRegistry> registry;
  if (o.count) {
    registry = std::make_unique<bsched::MetricsRegistry>();
    job.metrics = registry.get();
  }
  try {
    const double c0 = ThreadCpuSec();
    const double t0 = NowSec();
    const JobResult result = bsched::RunTrainingJob(job);
    const double t1 = NowSec();
    out.cpu_ms = (ThreadCpuSec() - c0) * 1e3;
    AddSpan(o, "runtime.RunTrainingJob", t0, t1);
    out.start_s = t0;
    out.host_ms = (t1 - t0) * 1e3;
    out.error = CheckJob(job, result);
    out.ok = out.error.empty();
    Digest digest;
    DigestJob(result, &digest);
    out.digest = digest.value();
    out.counts = CountJob(job, result, registry.get());
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

namespace {

// Wraps the tuner's search so the traced run can split a session into
// search time (Suggest/Observe) and profiling time. Forwards every call, so
// the session's results are identical to the unwrapped search.
class TimedSearch : public bsched::ParamSearch {
 public:
  TimedSearch(bsched::ParamSearch* inner, const RunOptions& o) : inner_(inner), o_(o) {}
  std::vector<double> Suggest() override {
    const double t0 = NowSec();
    std::vector<double> x = inner_->Suggest();
    Record("tuning.Suggest", t0);
    return x;
  }
  std::vector<std::vector<double>> SuggestBatch(int k) override {
    const double t0 = NowSec();
    std::vector<std::vector<double>> xs = inner_->SuggestBatch(k);
    Record("tuning.Suggest", t0);
    return xs;
  }
  void Observe(const std::vector<double>& x, double y) override {
    const double t0 = NowSec();
    inner_->Observe(x, y);
    Record("tuning.Observe", t0);
  }
  const std::string& name() const override { return inner_->name(); }
  int dims() const override { return inner_->dims(); }
  double total_sec() const { return total_sec_; }

 private:
  void Record(const char* name, double t0) {
    const double t1 = NowSec();
    total_sec_ += t1 - t0;
    AddSpan(o_, name, t0, t1);
  }
  bsched::ParamSearch* inner_;
  RunOptions o_;
  double total_sec_ = 0.0;
};

Outcome RunTuneSession(const Op& op, const RunOptions& o) {
  Outcome out;
  bsched::AutoTunerOptions options;
  options.max_trials = op.trials;
  options.batch_size = 1;
  options.jobs = 1;
  options.seed = op.search_seed;
  try {
    const double c0 = ThreadCpuSec();
    const double t0 = NowSec();
    bsched::AutoTuner tuner(op.job, options);
    bsched::BayesianOptimizer bo(2, op.search_seed ^ 0xb0b0b0b0ULL);
    TimedSearch timed(&bo, o);
    const bsched::AutoTuner::Result result =
        o.tracer != nullptr ? tuner.Tune(timed) : tuner.Tune(bo);
    const double t1 = NowSec();
    out.cpu_ms = (ThreadCpuSec() - c0) * 1e3;
    AddSpan(o, "tuning.Tune", t0, t1);
    out.start_s = t0;
    out.host_ms = (t1 - t0) * 1e3;
    out.search_ms = timed.total_sec() * 1e3;

    Digest digest;
    bool best_found = false;
    for (const bsched::AutoTuner::Trial& t : result.trials) {
      digest.Add(static_cast<uint64_t>(t.partition_bytes));
      digest.Add(static_cast<uint64_t>(t.credit_bytes));
      digest.AddDouble(t.speed);
      out.trials.emplace_back(t.partition_bytes, t.credit_bytes);
      if (t.speed > result.best_speed) {
        out.error = "tuner best is below a trial";
      }
      best_found = best_found || (t.speed == result.best_speed &&
                                  t.partition_bytes == result.best.partition_bytes);
    }
    digest.Add(static_cast<uint64_t>(result.best.partition_bytes));
    digest.Add(static_cast<uint64_t>(result.best.credit_bytes));
    digest.AddDouble(result.best_speed);
    digest.AddDouble(result.tuning_cost_sec);
    out.digest = digest.value();
    if (static_cast<int>(result.trials.size()) != op.trials) {
      out.error = "tuner ran the wrong number of trials";
    } else if (!(result.best_speed > 0.0) || !best_found) {
      out.error = "tuner best is not one of its trials";
    }
    out.ok = out.error.empty();
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

// Number of (time, scope) groups in a time-series CSV; each is one tick.
bool CountCsvTicks(std::string_view csv, uint64_t* ticks) {
  const size_t header_end = csv.find('\n');
  if (header_end == std::string_view::npos ||
      csv.substr(0, header_end) != "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99") {
    return false;
  }
  uint64_t groups = 0;
  std::string_view last;
  size_t pos = header_end + 1;
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    if (eol == std::string_view::npos) {
      return false;  // every row ends with a newline
    }
    const std::string_view row = csv.substr(pos, eol - pos);
    const size_t c1 = row.find(',');
    const size_t c2 = c1 == std::string_view::npos ? c1 : row.find(',', c1 + 1);
    if (c2 == std::string_view::npos) {
      return false;
    }
    const std::string_view key = row.substr(0, c2);
    if (key != last) {
      ++groups;
      last = key;
    }
    pos = eol + 1;
  }
  *ticks = groups;
  return true;
}

Outcome RunObservedJob(const Op& op, const RunOptions& o) {
  Outcome out;
  JobConfig job = op.job;
  bsched::TraceRecorder trace;
  bsched::MetricsRegistry registry;
  bsched::TimeSeriesRecorder timeseries(&registry, SimTime::Micros(100));
  job.trace = &trace;
  job.metrics = &registry;
  job.timeseries = &timeseries;
  try {
    const double c0 = ThreadCpuSec();
    const double t0 = NowSec();
    const JobResult result = bsched::RunTrainingJob(job);
    const double t1 = NowSec();
    std::ostringstream json;
    registry.Snapshot().WriteJson(json);
    const std::string csv = timeseries.ToCsv();
    const double t2 = NowSec();
    out.cpu_ms = (ThreadCpuSec() - c0) * 1e3;
    AddSpan(o, "runtime.RunTrainingJob", t0, t1);
    AddSpan(o, "obs.export", t1, t2);
    out.start_s = t0;
    out.host_ms = (t2 - t0) * 1e3;
    out.export_ms = (t2 - t1) * 1e3;
    out.error = CheckJob(job, result);

    bsched::obs::JsonValue parsed;
    std::string parse_error;
    if (out.error.empty() &&
        (!bsched::obs::ParseJson(json.view(), &parsed, &parse_error) || !parsed.is_object() ||
         parsed.Find("counters") == nullptr)) {
      out.error = "metrics JSON does not parse back: " + parse_error;
    }
    uint64_t csv_ticks = 0;
    if (out.error.empty() && (!CountCsvTicks(csv, &csv_ticks) ||
                              csv_ticks != timeseries.total_ticks())) {
      out.error = "time-series CSV rows disagree with total_ticks";
    }
    out.ok = out.error.empty();

    Digest digest;
    DigestJob(result, &digest);
    digest.AddBytes(json.view());
    digest.AddBytes(csv);
    digest.Add(timeseries.total_ticks());
    digest.Add(trace.num_events());
    out.digest = digest.value();
    out.counts = CountJob(job, result, &registry);
    out.counts.ticks = timeseries.total_ticks();
    out.counts.csv_bytes = csv.size();
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

// ---- process isolation ----------------------------------------------------

// Fixed-size record a child writes to its parent, also from the SIGABRT
// handler (so only async-signal-safe calls may build it there).
struct ChildReport {
  uint32_t status = 0;  // kDone or kAborted
  uint8_t ok = 0;
  double host_ms = 0.0;
  double cpu_ms = 0.0;
  double start_s = 0.0;
  uint64_t digest = 0;
  JobCounts counts;
  char error[240] = {};
};
constexpr uint32_t kDone = 1;
constexpr uint32_t kAborted = 2;

int g_report_fd = -1;
double g_child_start_s = 0.0;
double g_child_start_cpu_s = 0.0;

double MonotonicSec() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n <= 0) {
      return;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
}

// Times an aborting job inside the isolation boundary: the job's clock
// stops here, before the default action kills the child.
void OnChildAbort(int) {
  ChildReport report;
  report.status = kAborted;
  report.start_s = g_child_start_s;
  report.host_ms = (MonotonicSec() - g_child_start_s) * 1e3;
  report.cpu_ms = (ThreadCpuSec() - g_child_start_cpu_s) * 1e3;
  WriteAll(g_report_fd, &report, sizeof(report));
}

// The abort message without the build's absolute source path and without
// the line number, so digests are the same in every checkout and do not
// change when lines are added or removed above the failing check.
std::string NormalizeAbort(const std::string& text) {
  std::string line = text;
  const size_t check = line.rfind("CHECK failed:");
  if (check != std::string::npos) {
    line = line.substr(check);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  const size_t at = line.rfind(" at ");
  const size_t src = line.rfind("src/");
  if (at != std::string::npos && src != std::string::npos && src > at) {
    line = line.substr(0, at + 4) + line.substr(src);
  }
  const size_t colon = line.rfind(':');
  if (colon != std::string::npos && colon + 1 < line.size() &&
      line.find_first_not_of("0123456789", colon + 1) == std::string::npos) {
    line.erase(colon);
  }
  return line;
}

}  // namespace

Outcome RunJobIsolated(const JobConfig& job, const RunOptions& options) {
  int report_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  std::fflush(stdout);
  std::fflush(stderr);
  const bool piped = pipe(report_pipe) == 0 && pipe(err_pipe) == 0;
  const pid_t pid = piped ? fork() : -1;
  if (pid < 0) {
    for (int fd : {report_pipe[0], report_pipe[1], err_pipe[0], err_pipe[1]}) {
      if (fd >= 0) {
        close(fd);
      }
    }
    Outcome out;
    out.error = piped ? "fork() failed" : "pipe() failed";
    return out;
  }
  if (pid == 0) {
    close(report_pipe[0]);
    close(err_pipe[0]);
    dup2(err_pipe[1], STDERR_FILENO);
    g_report_fd = report_pipe[1];
    signal(SIGABRT, OnChildAbort);
    alarm(120);  // a wedged job is killed and reported as failed
    RunOptions child = options;
    child.tracer = nullptr;
    g_child_start_s = NowSec();
    g_child_start_cpu_s = ThreadCpuSec();
    const Outcome out = RunJob(job, child);
    ChildReport report;
    report.status = kDone;
    report.ok = out.ok ? 1 : 0;
    report.host_ms = out.host_ms;
    report.cpu_ms = out.cpu_ms;
    report.start_s = out.start_s;
    report.digest = out.digest;
    report.counts = out.counts;
    std::snprintf(report.error, sizeof(report.error), "%s", out.error.c_str());
    WriteAll(report_pipe[1], &report, sizeof(report));
    _exit(0);
  }
  close(report_pipe[1]);
  close(err_pipe[1]);

  // Drain both pipes until the child closes them.
  ChildReport report;
  size_t got = 0;
  std::string err_text;
  pollfd fds[2] = {{report_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  int open_fds = 2;
  while (open_fds > 0) {
    if (poll(fds, 2, -1) < 0) {
      break;
    }
    for (pollfd& p : fds) {
      if (p.fd < 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = read(p.fd, buf, sizeof(buf));
      if (n <= 0) {
        close(p.fd);
        p.fd = -1;
        --open_fds;
      } else if (p.fd == report_pipe[0]) {
        const size_t take = std::min(static_cast<size_t>(n), sizeof(report) - got);
        std::memcpy(reinterpret_cast<char*>(&report) + got, buf, take);
        got += take;
      } else if (err_text.size() < 65536) {
        err_text.append(buf, static_cast<size_t>(n));
      }
    }
  }
  int status = 0;
  waitpid(pid, &status, 0);

  Outcome out;
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (got == sizeof(report)) {
    out.host_ms = report.host_ms;
    out.cpu_ms = report.cpu_ms;
    out.start_s = report.start_s;
  }
  if (clean_exit && got == sizeof(report) && report.status == kDone) {
    out.ok = report.ok != 0;
    out.error = report.error;
    out.digest = report.digest;
    out.counts = report.counts;
  } else {
    out.aborted = true;
    out.error = WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM ? std::string("timeout")
                                                                     : NormalizeAbort(err_text);
    if (out.error.empty()) {
      out.error = "child exited without a report";
    }
    Digest digest;
    digest.AddBytes("aborted");
    digest.AddBytes(out.error);
    out.digest = digest.value();
  }
  if (got == sizeof(report)) {
    AddSpan(options, "runtime.RunTrainingJob", out.start_s, out.start_s + out.host_ms / 1e3);
  }
  return out;
}

namespace {

// A workload's stratified design and how many replicas of it make a pool.
struct Design {
  std::vector<Op> (*make)(Rng&, int rep) = PsSweepPool;
  int reps = 1;
};

Design DesignOf(Kind kind) {
  switch (kind) {
    case Kind::kPsSweep:
      break;
    case Kind::kAllreduceTune:
      return {AllreduceTunePool, kTuneReps};
    case Kind::kVolatilePs:
      return {VolatilePsPool, kVolatileReps};
    case Kind::kObservedJob:
      return {ObservedJobPool, kObservedReps};
  }
  return {};
}

}  // namespace

std::vector<Op> GeneratePool(Kind kind, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(kind) + 1);
  const Design design = DesignOf(kind);
  std::vector<Op> pool;
  for (int rep = 0; rep < design.reps; ++rep) {
    for (Op& op : design.make(rng, rep)) {
      pool.push_back(std::move(op));
    }
  }
  // Seeded order, so that any prefix of a pass is a fair sample of the pool;
  // ps_sweep keeps its grid order, one sweep per bandwidth.
  if (kind != Kind::kPsSweep) {
    for (size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
    }
  }
  return pool;
}

Op WarmupOp(Kind kind) {
  Rng rng(0x5e7);
  return DesignOf(kind).make(rng, 0).front();
}

Outcome RunOp(Kind kind, const Op& op, const RunOptions& options) {
  switch (kind) {
    case Kind::kPsSweep:
      return RunJob(op.job, options);
    case Kind::kAllreduceTune:
      return RunTuneSession(op, options);
    case Kind::kVolatilePs:
      return RunJobIsolated(op.job, options);
    case Kind::kObservedJob:
      return RunObservedJob(op, options);
  }
  return {};
}

}  // namespace perfbench
