// Repo benchmark. One run measures one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics (host time and host resources);
// --trace 1 runs the same workload untraced and traced for S/2 each, then
// the layer drivers, and prints the per-layer ledger. The last line of
// stdout is always the JSON result. See README.md in this directory.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/tuning/auto_tuner.h"

namespace perfbench {
namespace {

constexpr int kSweepWorkers = 4;
// Cells per ParallelFor call: ps_sweep runs its pool as a series of
// figure-sized sweeps, one per bandwidth.
constexpr size_t kSweepCells = 108;
constexpr int kSetupReps = 31;
constexpr uint64_t kDefaultSeed = 1;

// sim_digest of every workload at kDefaultSeed. A change that alters
// simulated outputs on purpose updates these and says so; a speed-only
// change must leave them alone.
const std::map<std::string, uint64_t>& PinnedDigests() {
  static const std::map<std::string, uint64_t> kPinned = {
      {"ps_sweep", 0x740cbc5e093bd9bfULL},
      {"allreduce_tune", 0x980fc57136e7db78ULL},
      {"volatile_ps", 0x77f629ccb5289042ULL},
      {"observed_job", 0x2808bbb7669f5a6bULL},
  };
  return kPinned;
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile that still has at least 10 samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t count = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.count = v.size();
  if (v.empty()) {
    return t;
  }
  std::sort(v.begin(), v.end());
  const size_t k = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size());
  return t;
}

// Per-op correctness record shared by every phase of a run: the first
// outcome of each pool op, and every problem seen.
struct Checker {
  explicit Checker(size_t n) : first(n), seen(n, false) {}

  void Record(size_t index, const Outcome& out) {
    if (!out.ok) {
      ++failures[out.error];
      if (!out.aborted) {
        wrong = true;  // a completed op whose outputs violate an invariant
      }
    }
    if (seen[index]) {
      if (first[index].digest != out.digest || first[index].ok != out.ok) {
        wrong = true;
        problems.push_back("op " + std::to_string(index) + " is not deterministic");
      }
      return;
    }
    seen[index] = true;
    first[index] = out;
  }

  bool complete() const { return std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }); }

  uint64_t SimDigest() const {
    Digest d;
    for (const Outcome& out : first) {
      d.Add(out.digest);
    }
    return d.value();
  }

  std::vector<Outcome> first;
  std::vector<bool> seen;
  std::map<std::string, int> failures;
  std::vector<std::string> problems;
  bool wrong = false;
};

struct Phase {
  // Host (wall) ms of each completed op (failed ops are counted in `failed`
  // and reported through ok_share, not as latencies), and the CPU ms of the
  // thread that ran the same ops, a diagnostic.
  std::vector<double> op_ms;
  std::vector<double> op_cpu_ms;
  // The same wall ms by pool index: a run repeats a prefix of the pool, so
  // latency percentiles are taken over per-op medians, in which every pool
  // op weighs the same however often it ran.
  std::vector<std::vector<double>> op_ms_by_index;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // ps_sweep: per-sweep wall time and tail (sweep end minus the moment the
  // first worker ran out of cells), and pool busy time.
  std::vector<double> sweep_wall_s;
  std::vector<double> sweep_tail_s;
  double pool_busy_s = 0.0;
  // Sums over this phase's outcomes.
  double search_ms = 0.0;
  double export_ms = 0.0;
  uint64_t trials = 0;
  // Completed jobs: simulator events and host job time (without export).
  double ok_events = 0.0;
  double ok_job_ms = 0.0;

  double ops_per_s() const {
    return timed_s > 0 ? static_cast<double>(op_ms.size()) / timed_s : 0.0;
  }
};

double PoolBusySec(const bsched::SweepRunner& runner) {
  double busy = 0.0;
  for (const bsched::PoolWorkerStats& w : runner.Stats().workers) {
    busy += w.task_sec.mean() * static_cast<double>(w.task_sec.count());
  }
  return busy;
}

void Account(Phase& phase, Checker& checker, size_t index, const Outcome& out) {
  ++phase.attempted;
  phase.search_ms += out.search_ms;
  phase.export_ms += out.export_ms;
  phase.trials += out.trials.size();
  if (out.ok) {
    phase.op_ms.push_back(out.host_ms);
    phase.op_cpu_ms.push_back(out.cpu_ms);
    phase.op_ms_by_index[index].push_back(out.host_ms);
    phase.ok_events += static_cast<double>(out.counts.sim_events);
    phase.ok_job_ms += out.host_ms - out.export_ms;
  } else {
    ++phase.failed;
  }
  checker.Record(index, out);
}

// Closed-loop timed phase: ops run back to back (ps_sweep: sweeps of
// kSweepCells cells on kSweepWorkers workers) until `seconds` of wall time
// passed and every pool op ran at least once. Only the op (sweep) intervals
// are timed; the per-op checks between them, and `between`, which runs after
// every op (sweep), are not. With `speed`, each op is followed by the
// host-speed reference when it is due: outside the timed interval for serial
// ops, inside the sweep for ps_sweep cells (on the worker that ran the cell).
Phase RunPhase(Workload& w, double seconds, HostSpeed* speed, Tracer* tracer, Checker& checker,
               int64_t* op_id, const std::function<void()>& between = [] {}) {
  Phase phase;
  const size_t n = w.pool.size();
  phase.op_ms_by_index.resize(n);
  const double start = NowSec();
  if (w.kind == Kind::kPsSweep) {
    const double busy0 = PoolBusySec(*w.runner);
    const size_t sweeps = (n + kSweepCells - 1) / kSweepCells;
    for (size_t s = 0; s < sweeps || NowSec() - start < seconds; ++s) {
      const size_t begin = (s % sweeps) * kSweepCells;
      const size_t count = std::min(kSweepCells, n - begin);
      const int64_t sweep_span = tracer != nullptr ? tracer->Open("exec.sweep", -1, -1) : -1;
      std::mutex mu;
      std::map<std::thread::id, double> last_end;
      const int64_t base = *op_id;
      const double cpu0 = CpuSec();
      const double t0 = NowSec();
      const std::vector<Outcome> outs = w.runner->ParallelFor(count, [&](size_t i) {
        RunOptions o;
        o.tracer = tracer;
        o.op_id = base + static_cast<int64_t>(i);
        o.parent = tracer != nullptr ? tracer->Open("op", sweep_span, o.op_id) : -1;
        Outcome out = RunOp(w.kind, w.pool[begin + i], o);
        if (tracer != nullptr) {
          tracer->Close(o.parent);
        }
        if (speed != nullptr) {
          speed->After(out.host_ms / 1e3);
        }
        const double end = NowSec();
        std::lock_guard<std::mutex> lock(mu);
        double& last = last_end[std::this_thread::get_id()];
        last = std::max(last, end);
        return out;
      });
      const double t1 = NowSec();
      const double cpu1 = CpuSec();
      if (tracer != nullptr) {
        tracer->Close(sweep_span);
      }
      *op_id += static_cast<int64_t>(count);
      phase.timed_s += t1 - t0;
      phase.cpu_s += cpu1 - cpu0;
      phase.sweep_wall_s.push_back(t1 - t0);
      double first_idle = t1;
      for (const auto& [id, end] : last_end) {
        first_idle = std::min(first_idle, end);
      }
      phase.sweep_tail_s.push_back(t1 - first_idle);
      for (size_t i = 0; i < count; ++i) {
        Account(phase, checker, begin + i, outs[i]);
      }
      between();
    }
    phase.pool_busy_s = PoolBusySec(*w.runner) - busy0;
    return phase;
  }
  for (size_t i = 0; i < n || NowSec() - start < seconds; ++i) {
    RunOptions o;
    o.tracer = tracer;
    o.op_id = (*op_id)++;
    o.parent = tracer != nullptr ? tracer->Open("op", -1, o.op_id) : -1;
    const double cpu0 = CpuSec();
    const double t0 = NowSec();
    const Outcome out = RunOp(w.kind, w.pool[i % n], o);
    const double t1 = NowSec();
    const double cpu1 = CpuSec();
    if (tracer != nullptr) {
      tracer->Close(o.parent);
    }
    if (speed != nullptr) {
      speed->After(t1 - t0);
    }
    phase.timed_s += t1 - t0;
    phase.cpu_s += cpu1 - cpu0;
    Account(phase, checker, i % n, out);
    between();
  }
  return phase;
}

// Generates the workload from the seed, builds the sweep pool (ps_sweep) and
// runs one untimed warm-up op.
Workload SetUp(Kind kind, uint64_t seed) {
  Workload w{kind, GeneratePool(kind, seed), nullptr};
  const Op warmup = WarmupOp(kind);
  if (kind == Kind::kPsSweep) {
    w.runner = std::make_unique<bsched::SweepRunner>(kSweepWorkers);
    w.runner->ParallelFor(kSweepWorkers,
                          [&](size_t) { return RunOp(w.kind, warmup, {}).ok; });
  } else {
    RunOp(kind, warmup, {});
  }
  return w;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Correctness verdict shared by both modes; prints the digest lines.
bool Verdict(const Args& args, const Checker& checker) {
  bool correct = !checker.wrong && checker.complete();
  const uint64_t digest = checker.SimDigest();
  std::printf("  sim_digest     %016" PRIx64, digest);
  const auto pinned = PinnedDigests().find(args.workload);
  if (args.seed == kDefaultSeed && pinned != PinnedDigests().end()) {
    const bool match = pinned->second == digest;
    correct = correct && match;
    std::printf("  (pinned %016" PRIx64 ": %s)\n", pinned->second, match ? "match" : "MISMATCH");
  } else {
    std::printf("  (pinned only for seed %" PRIu64 ")\n", kDefaultSeed);
  }
  for (const auto& [error, count] : checker.failures) {
    std::printf("  failed op x%-4d %s\n", count, error.c_str());
  }
  for (const std::string& p : checker.problems) {
    std::printf("  problem        %s\n", p.c_str());
  }
  std::printf("  correct        %s\n", correct ? "yes" : "NO");
  return correct;
}

// ---- traced run -------------------------------------------------------------

// Per-op counts of the workload, from a pass with a MetricsRegistry attached
// to every job (allreduce_tune: a replay of the sessions' trial jobs). The
// serial pools are in seeded order, so their first kCountOps ops are a fair
// sample; ps_sweep counts its whole grid.
constexpr size_t kCountOps = 192;
constexpr size_t kReplaySessions = 36;

struct CountPass {
  JobCounts per_op;           // summed over ops with counts
  double ops = 0.0;           // ops that contributed
  double jobs_per_op = 1.0;   // training jobs per op
  // allreduce_tune: host ms and simulator events of the replayed trial jobs.
  std::vector<double> job_ms;
  double replay_events = 0.0;
};

bsched::JobConfig TrialJob(const Op& op, bsched::Bytes partition, bsched::Bytes credit) {
  // Mirrors AutoTuner's profiling job (src/tuning/auto_tuner.cc).
  bsched::JobConfig job = op.job;
  job.mode = bsched::SchedMode::kByteScheduler;
  job.warmup_iters = bsched::AutoTunerOptions().profile_warmup;
  job.measure_iters = bsched::AutoTunerOptions().profile_iters;
  job.partition_bytes = partition;
  job.credit_bytes = std::max(credit, partition);
  return job;
}

CountPass Count(Workload& w, const Checker& checker) {
  CountPass c;
  const size_t n = w.pool.size();
  auto add = [&c](const Outcome& out) {
    if (out.ok) {
      c.per_op.Merge(out.counts);
      c.ops += 1.0;
    }
  };
  RunOptions counting;
  counting.count = true;
  switch (w.kind) {
    case Kind::kPsSweep:
      for (const Outcome& out : w.runner->ParallelFor(
               n, [&](size_t i) { return RunOp(w.kind, w.pool[i], counting); })) {
        add(out);
      }
      break;
    case Kind::kVolatilePs:
      for (size_t i = 0; i < std::min(n, kCountOps); ++i) {
        add(RunOp(w.kind, w.pool[i], counting));
      }
      break;
    case Kind::kObservedJob:
      for (const Outcome& out : checker.first) {
        add(out);
      }
      break;
    case Kind::kAllreduceTune: {
      double trials = 0.0;
      for (size_t i = 0; i < std::min(n, kReplaySessions); ++i) {
        JobCounts session;
        for (const auto& [partition, credit] : checker.first[i].trials) {
          const bsched::JobConfig job = TrialJob(w.pool[i], partition, credit);
          const Outcome timed = RunJob(job, {});
          c.job_ms.push_back(timed.host_ms);
          c.replay_events += static_cast<double>(timed.counts.sim_events);
          session.Merge(RunJob(job, counting).counts);
          trials += 1.0;
        }
        c.per_op.Merge(session);
        c.ops += 1.0;
      }
      c.jobs_per_op = c.ops > 0 ? trials / c.ops : 0.0;
      break;
    }
  }
  return c;
}

// Job time at two measured-iteration counts; the intercept is the per-job
// fixed cost (building the job, engines, backends and sinks).
double BuildMs(const Workload& w, const Checker& checker) {
  std::vector<size_t> order;
  for (size_t i = 0; i < w.pool.size(); ++i) {
    if (checker.first[i].ok && !w.pool[i].job.chaos.has_value()) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return checker.first[a].host_ms < checker.first[b].host_ms;
  });
  // Four ops from the cheaper half of the workload.
  std::vector<size_t> picks;
  for (int q = 1; q <= 4 && !order.empty(); ++q) {
    picks.push_back(order[order.size() * q / 10]);
  }
  auto job_ms = [&w](bsched::JobConfig job, int iters) {
    job.measure_iters = iters;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Op op = {job, 0, 0};
      double ms = 0.0;
      if (w.kind == Kind::kObservedJob) {
        const Outcome out = RunOp(w.kind, op, {});
        ms = out.host_ms - out.export_ms;
      } else if (w.kind == Kind::kVolatilePs) {
        ms = RunJobIsolated(job, {}).host_ms;
      } else {
        ms = RunJob(job, {}).host_ms;
      }
      best = std::min(best, ms);
    }
    return best;
  };
  std::vector<double> intercepts;
  for (size_t i : picks) {
    bsched::JobConfig job = w.pool[i].job;
    if (w.kind == Kind::kAllreduceTune) {
      job = TrialJob(w.pool[i], job.partition_bytes, job.credit_bytes);
    }
    const double t1 = job_ms(job, 1);
    const double t5 = job_ms(job, 5);
    intercepts.push_back(t1 - (t5 - t1) / 4.0);
  }
  return Median(intercepts);
}

// Job time of the first 12 observed_job ops (a seeded sample) with no sinks,
// metrics only, metrics + time series, and every sink (trace too); returns
// the sums in that order.
std::vector<double> ObsVariants(const Workload& w) {
  std::vector<double> sums(4, 0.0);
  for (size_t i = 0; i < std::min<size_t>(w.pool.size(), 12); ++i) {
    for (int variant = 0; variant < 4; ++variant) {
      bsched::JobConfig job = w.pool[i].job;
      bsched::TraceRecorder trace;
      bsched::MetricsRegistry registry;
      bsched::TimeSeriesRecorder timeseries(&registry, bsched::SimTime::Micros(100));
      if (variant >= 1) {
        job.metrics = &registry;
      }
      if (variant >= 2) {
        job.timeseries = &timeseries;
      }
      if (variant >= 3) {
        job.trace = &trace;
      }
      const double t0 = NowSec();
      bsched::RunTrainingJob(job);
      sums[variant] += NowSec() - t0;
    }
  }
  return sums;
}

// volatile_ps: the first kCensusOps pool jobs rerun under the default
// FaultPlanConfig::Chaos plan (25 ms retry timeout, vanilla jobs too), each
// in isolation. The timed pool avoids the aborts this plan hits
// (workloads.cc), so this census is where those known defects show. Returns
// the aborts by message.
constexpr size_t kCensusOps = 96;

std::map<std::string, int> AbortCensus(const Workload& w) {
  std::map<std::string, int> aborts;
  for (size_t i = 0; i < std::min(w.pool.size(), kCensusOps); ++i) {
    bsched::JobConfig job = w.pool[i].job;
    job.chaos = bsched::FaultPlanConfig::Chaos(job.chaos.has_value() ? job.chaos->seed
                                                                     : job.dynamics->seed);
    const Outcome out = RunJobIsolated(job, {});
    if (out.aborted) {
      ++aborts[out.error];
    }
  }
  return aborts;
}

void WriteSpans(const Args& args, const Tracer& tracer, double t_origin) {
  const std::filesystem::path dir = std::filesystem::path(".bench_build") / "spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path =
      dir / (args.workload + "-seed" + std::to_string(args.seed) + ".jsonl");
  std::ofstream out(path);
  const std::vector<Span> spans = tracer.spans();
  for (const Span& s : spans) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, \"parent\": %" PRId64
                  ", \"op\": %" PRId64 "}\n",
                  s.name.c_str(), (s.start - t_origin) * 1e6, (s.end - s.start) * 1e6, s.parent,
                  s.op);
    out << buf;
  }
  std::printf("  spans          %s (%zu spans)\n", path.string().c_str(), spans.size());
}

int TracedRun(const Args& args, Workload& w, double t_main) {
  Checker checker(w.pool.size());
  int64_t op_id = 0;
  const Phase plain = RunPhase(w, args.seconds / 2, nullptr, nullptr, checker, &op_id);
  Tracer tracer;
  const Phase traced = RunPhase(w, args.seconds / 2, nullptr, &tracer, checker, &op_id);

  if (w.kind == Kind::kPsSweep) {
    // Results must not depend on the worker count.
    bsched::SweepRunner serial(1);
    const std::vector<Outcome> outs =
        serial.ParallelFor(w.pool.size(), [&](size_t i) { return RunOp(w.kind, w.pool[i], {}); });
    Checker one(w.pool.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      one.Record(i, outs[i]);
    }
    if (one.SimDigest() != checker.SimDigest()) {
      checker.wrong = true;
      checker.problems.push_back("ps_sweep digest differs between 1 and 4 workers");
    }
  }

  const CountPass counts = Count(w, checker);
  const double per = counts.ops > 0 ? 1.0 / counts.ops : 0.0;
  const JobCounts& c = counts.per_op;
  auto per_op = [per](uint64_t v) { return static_cast<double>(v) * per; };
  const double jobs_per_op = counts.jobs_per_op;
  auto per_job = [&](uint64_t v) { return jobs_per_op > 0 ? per_op(v) / jobs_per_op : 0.0; };

  // Job spans: the traced phase's RunTrainingJob calls (allreduce_tune: the
  // replayed trial jobs, which AutoTuner runs internally).
  std::vector<double> job_ms = counts.job_ms;
  double events_per_s = 0.0;
  if (w.kind == Kind::kAllreduceTune) {
    const double replay_ms = std::accumulate(job_ms.begin(), job_ms.end(), 0.0);
    events_per_s = replay_ms > 0 ? counts.replay_events / (replay_ms / 1e3) : 0.0;
  } else {
    for (const Span& s : tracer.spans()) {
      if (s.name == "runtime.RunTrainingJob") {
        job_ms.push_back((s.end - s.start) * 1e3);
      }
    }
    events_per_s = traced.ok_job_ms > 0 ? traced.ok_events / (traced.ok_job_ms / 1e3) : 0.0;
  }

  const bool dynamic = std::any_of(w.pool.begin(), w.pool.end(),
                                   [](const Op& op) { return op.job.dynamics.has_value(); });
  const double cancel_share =
      c.sim_events + c.cancelled > 0
          ? static_cast<double>(c.cancelled) / static_cast<double>(c.sim_events + c.cancelled)
          : 0.0;
  const DriverResult sim = SimEventDriver(cancel_share);
  const DriverResult send = LinkSendDriver(w.pool, false);
  const DriverResult send_dyn = LinkSendDriver(w.pool, true);
  const DriverResult core = CoreSubtaskDriver(w.pool);
  const DriverResult ps = PsRoundtripDriver(w.pool);
  const DriverResult ar = AllReduceDriver(w.pool);
  const DriverResult dag = EngineDriver(w.pool, false);
  const DriverResult imp = EngineDriver(w.pool, true);
  const double build_ms = BuildMs(w, checker);

  std::vector<double> obs(4, 0.0);
  if (w.kind == Kind::kObservedJob) {
    obs = ObsVariants(w);
  }
  std::map<std::string, int> census;
  if (w.kind == Kind::kVolatilePs) {
    census = AbortCensus(w);
  }
  int census_aborts = 0;
  for (const auto& [error, count] : census) {
    census_aborts += count;
  }
  const double obs_all = obs[3] > 0 ? obs[3] : 1.0;

  // Ledger: exclusive host ms per op of each layer, from count x driver cost,
  // with the event loop's and the links' share taken out of the layers that
  // nest them.
  const double e_ns = sim.ns_per_op;
  auto excl = [e_ns](const DriverResult& d) {
    return std::max(0.0, d.ns_per_op - d.events_per_op * e_ns);
  };
  const DriverResult& link = dynamic ? send_dyn : send;
  const double net_excl = excl(link);
  const double ps_excl = std::max(0.0, excl(ps) - ps.msgs_per_op * net_excl);
  const double op_ms_sum = std::accumulate(traced.op_ms.begin(), traced.op_ms.end(), 0.0);
  const double op_ms_mean = op_ms_sum / std::max(1.0, static_cast<double>(traced.op_ms.size()));
  const double attempted = std::max(1.0, static_cast<double>(traced.attempted));
  const double trials_per_op = static_cast<double>(traced.trials) / attempted;
  const double search_ms_per_op = traced.search_ms / attempted;
  const double export_ms_mean = traced.export_ms / attempted;
  struct Row {
    const char* layer;
    const char* unit;
    double count;
    double ns;
    double ms;
  };
  // obs: the sinks' share of job time (from the variants) plus the export.
  const double obs_ms = w.kind == Kind::kObservedJob
                            ? (obs[3] - obs[0]) / obs_all * (op_ms_mean - export_ms_mean) +
                                  export_ms_mean
                            : 0.0;
  std::vector<Row> rows = {
      {"sim", "event", per_op(c.sim_events), e_ns, 0},
      {"net", "msg", per_op(c.net_msgs), net_excl, 0},
      {"core", "subtask", per_op(c.subtasks), core.ns_per_op, 0},
      {"comm.ps", "roundtrip", per_op(c.ps_subtasks) / 2.0, ps_excl, 0},
      {"comm.ar", "op", per_op(c.subtasks - c.ps_subtasks), excl(ar), 0},
      {"engine.dag", "op", per_op(c.dag_ops), excl(dag), 0},
      {"engine.imp", "op", per_op(c.imperative_ops), excl(imp), 0},
      {"obs", "op", w.kind == Kind::kObservedJob ? 1.0 : 0.0, obs_ms * 1e6, 0},
      {"tuning", "trial", trials_per_op,
       trials_per_op > 0 ? search_ms_per_op * 1e6 / trials_per_op : 0.0, 0},
  };
  double covered_ms = 0.0;
  for (Row& r : rows) {
    r.ms = r.count * r.ns / 1e6;
    covered_ms += r.ms;
  }
  const double coverage = op_ms_mean > 0 ? covered_ms / op_ms_mean : 0.0;
  const double overhead =
      plain.ops_per_s() > 0 ? 1.0 - traced.ops_per_s() / plain.ops_per_s() : 0.0;

  std::printf("workload %s  seed %" PRIu64 "  traced run (%.1f s untraced + %.1f s traced)\n",
              args.workload.c_str(), args.seed, plain.timed_s, traced.timed_s);
  std::printf("  ledger: host time per op (mean op %.3f ms)\n", op_ms_mean);
  std::printf("  %-11s %14s %-10s %12s %10s %7s\n", "layer", "count/op", "unit", "excl ns/unit",
              "ms/op", "share");
  for (const Row& r : rows) {
    std::printf("  %-11s %14.1f %-10s %12.1f %10.4f %6.1f%%\n", r.layer, r.count, r.unit, r.ns,
                r.ms, op_ms_mean > 0 ? 100.0 * r.ms / op_ms_mean : 0.0);
  }
  std::printf("  runtime.layer_coverage %.3f   bench.trace_overhead %+.3f\n", coverage, overhead);

  const Tail job_tail = TailOf(job_ms);
  std::vector<double> sweep_tail = traced.sweep_tail_s;
  double sweep_wall = 0.0;
  for (double s : traced.sweep_wall_s) {
    sweep_wall += s;
  }
  const double legs = static_cast<double>(c.push_legs);
  const std::vector<Metric> metrics = {
      {"exec.busy_share", sweep_wall > 0 ? traced.pool_busy_s / (kSweepWorkers * sweep_wall) : 0.0,
       "share"},
      {"exec.tail_s", Median(sweep_tail), "s"},
      {"runtime.job_ms_p50", Median(job_ms), "ms"},
      {"runtime.job_ms_tail", job_tail.value, "ms"},
      {"runtime.build_ms", build_ms, "ms"},
      {"runtime.events_per_s", events_per_s, "1/s"},
      {"sim.events_per_job", per_job(c.sim_events), "count"},
      {"sim.cancelled_share", cancel_share, "share"},
      {"sim.event_ns", sim.ns_per_op, "ns"},
      {"net.msgs_per_job", per_job(c.net_msgs), "count"},
      {"net.repaces_per_job", per_job(c.repaces), "count"},
      {"net.send_ns", send.ns_per_op, "ns"},
      {"net.send_dyn_ns", send_dyn.ns_per_op, "ns"},
      {"core.subtasks_per_job", per_job(c.subtasks), "count"},
      {"core.retries_per_job", per_job(c.retries), "count"},
      {"core.subtask_ns", core.ns_per_op, "ns"},
      {"comm.ps_roundtrip_ns", ps.ns_per_op, "ns"},
      {"comm.allreduce_ns", ar.ns_per_op, "ns"},
      {"comm.push_useful_share",
       legs > 0 ? 1.0 - static_cast<double>(c.retransmits + c.stale_drops) / legs : 0.0, "share"},
      {"engine.dag_op_ns", dag.ns_per_op, "ns"},
      {"engine.imperative_op_ns", imp.ns_per_op, "ns"},
      {"fault.injected_per_job", per_job(c.injected), "count"},
      {"fault.aborted_jobs", static_cast<double>(census_aborts), "count"},
      {"tuning.search_ms_per_trial",
       traced.trials > 0 ? traced.search_ms / static_cast<double>(traced.trials) : 0.0, "ms"},
      {"tuning.profile_ms_per_trial",
       traced.trials > 0 ? (op_ms_sum - traced.search_ms) /
                               static_cast<double>(traced.trials)
                         : 0.0,
       "ms"},
      {"obs.sampling_share", (obs[2] - obs[1]) / obs_all, "share"},
      {"obs.metrics_share", (obs[1] - obs[0]) / obs_all, "share"},
      {"obs.trace_share", (obs[3] - obs[2]) / obs_all, "share"},
      {"obs.ticks_per_job", per_job(c.ticks), "count"},
      {"obs.csv_bytes_per_job", per_job(c.csv_bytes), "bytes"},
      {"obs.export_ms", export_ms_mean, "ms"},
      {"runtime.layer_coverage", coverage, "share"},
      {"bench.trace_overhead", overhead, "share"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  runtime.job_ms_tail at p%.1f of %zu jobs\n", job_tail.percentile, job_tail.count);
  if (w.kind == Kind::kVolatilePs) {
    std::printf("  abort census: %d of %zu jobs abort under the default Chaos plan\n",
                census_aborts, std::min(w.pool.size(), kCensusOps));
    for (const auto& [error, count] : census) {
      std::printf("    x%-4d %s\n", count, error.c_str());
    }
  }
  WriteSpans(args, tracer, t_main);
  const bool correct = Verdict(args, checker);
  PrintResult(correct, plain.attempted + traced.attempted, plain.failed + traced.failed, metrics);
  return 0;
}

int UntracedRun(const Args& args, Workload& w, double first_setup_s) {
  // Set-up is measured kSetupReps times and its median reported: the first
  // time from process start, the others between ops at even intervals of the
  // timed phase, so that they sample the host over the same period as the
  // other metrics. The repeated set-ups build a workload that is discarded.
  std::vector<double> setups = {first_setup_s};
  const double start = NowSec();
  auto set_up_again = [&](bool due_only) {
    while (setups.size() < static_cast<size_t>(kSetupReps) &&
           (!due_only || NowSec() - start >= args.seconds * static_cast<double>(setups.size()) /
                                                 kSetupReps)) {
      const double t0 = NowSec();
      const Workload again = SetUp(w.kind, args.seed);
      setups.push_back(NowSec() - t0);
    }
  };
  Checker checker(w.pool.size());
  int64_t op_id = 0;
  HostSpeed speed;
  const Phase p =
      RunPhase(w, args.seconds, &speed, nullptr, checker, &op_id, [&] { set_up_again(true); });
  set_up_again(false);
  const double setup_s = Median(setups);
  const double ops = std::max<double>(1.0, static_cast<double>(p.op_ms.size()));
  std::vector<double> per_op_ms;
  for (const std::vector<double>& samples : p.op_ms_by_index) {
    if (!samples.empty()) {
      per_op_ms.push_back(Median(samples));
    }
  }
  const Tail tail = TailOf(per_op_ms);
  const double failed_share = static_cast<double>(p.failed) / static_cast<double>(p.attempted);
  // Host times as measured, then scaled to the baseline host's speed.
  const double scale = speed.Scale();
  const std::vector<Metric> raw = {
      {"ops_per_s", p.ops_per_s(), "1/s"},
      {"op_ms_p50", Median(per_op_ms), "ms"},
      {"op_ms_tail", tail.value, "ms"},
      {"cpu_ms_per_op", p.cpu_s * 1e3 / ops, "ms"},
      {"setup_s", setup_s, "s"},
  };
  const std::vector<Metric> metrics = {
      {"ops_per_s", raw[0].value / scale, "1/s"},
      {"op_ms_p50", raw[1].value * scale, "ms"},
      {"op_ms_tail", raw[2].value * scale, "ms"},
      {"cpu_ms_per_op", raw[3].value * scale, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"setup_s", raw[4].value * scale, "s"},
      {"ok_share", 1.0 - failed_share, "share"},
  };
  std::printf("workload %s  seed %" PRIu64 "  %" PRIu64 " ops over %.2f s timed (%zu-op pool)\n",
              args.workload.c_str(), args.seed, p.attempted, p.timed_s, w.pool.size());
  for (const Metric& m : metrics) {
    std::printf("  %-14s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  host-speed scale %.4f (%zu reference slices); as measured:", scale,
              speed.samples());
  for (const Metric& m : raw) {
    std::printf(" %s %.6g", m.name.c_str(), m.value);
  }
  std::printf("\n");
  std::printf("  op_ms_tail is p%.1f of %zu completed pool ops (10 beyond it)\n",
              tail.percentile, tail.count);
  std::printf("  op_cpu_ms_p50  %14.6g ms (CPU clock of the op's thread, diagnostic)\n",
              Median(p.op_cpu_ms));
  std::printf("  failed_share   %14.6g (%" PRIu64 " of %" PRIu64 ")\n", failed_share, p.failed,
              p.attempted);
  const bool correct = Verdict(args, checker);
  PrintResult(correct, p.attempted, p.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double t_main = NowSec();
  Args args;
  Kind kind;
  if (!ParseArgs(argc, argv, &args) || !ParseKind(args.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ps_sweep|allreduce_tune|volatile_ps|observed_job"
                 " [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  Workload w = SetUp(kind, args.seed);
  const double setup_s = NowSec() - t_main;
  return args.trace ? TracedRun(args, w, t_main) : UntracedRun(args, w, setup_s);
}
