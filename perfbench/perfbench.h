// Shared types of the repo benchmark (see README.md in this directory).
//
// Vocabulary: a *workload* is a seeded pool of ops; an *op* is one sweep cell
// (ps_sweep), one tuning session (allreduce_tune) or one training job
// (volatile_ps, observed_job). Every host time here is measured by the
// benchmark from outside the program; simulated statistics are outputs that
// are checked and folded into a digest, never gated.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/sweep_runner.h"
#include "src/runtime/training_job.h"

namespace perfbench {

inline double NowSec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + sys) of this process and of its waited-for
// children, in seconds.
double CpuSec();

// CPU time of the calling thread, in seconds. Ops are single-threaded and
// never block, so this is their wall time minus the time the host took the
// CPU away (VM steal, preemption by other tenants).
double ThreadCpuSec();

// Peak resident set of this process or any waited-for child, in MiB.
double PeakRssMb();

// 64-bit FNV-1a style digest over simulated outputs. Wide inputs (exported
// CSV) are folded a word at a time so hashing stays cheap next to the job.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * kPrime;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void AddBytes(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// One recorded span: [start, end] in steady-clock seconds. `parent` is the
// index of the enclosing span in the same recorder, or -1.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  int64_t op = -1;
};

// In-memory span store, written out once at the end of a traced run.
// Thread-safe: ps_sweep cells record from the sweep workers.
class Tracer {
 public:
  int64_t Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Opens a span now; Close() stamps its end.
  int64_t Open(std::string name, int64_t parent, int64_t op) {
    return Add(Span{std::move(name), NowSec(), 0.0, parent, op});
  }
  void Close(int64_t id) {
    const double now = NowSec();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = now;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Host-speed reference (host_speed.cc). A shared host's speed drifts by up
// to a third between runs, and every host time of a run drifts with it. A
// fixed reference loop, independent of the program, is timed in ~1 ms slices
// interleaved with the ops (one per 50 ms of op time, on the thread that ran
// them), and Scale() is the nominal slice time over the mean measured one:
// a host time times Scale() is that time at the baseline host's speed.
class HostSpeed {
 public:
  // Call after each op with its measured host seconds; runs a slice when due.
  // Thread-safe.
  void After(double op_sec);
  double Scale() const;
  size_t samples() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> slices_sec_;
  uint64_t checksum_ = 0;  // keeps the reference work observable
};

// Per-job counts read from the program's public sinks (JobResult and, when
// attached, the job's MetricsRegistry). Plain data so it can cross the
// fork boundary of volatile_ps.
struct JobCounts {
  uint64_t sim_events = 0;       // JobResult::sim_events (sim.processed_events)
  uint64_t cancelled = 0;        // gauge sim.skipped_cancelled
  uint64_t net_msgs = 0;         // sum of net.*.msgs
  uint64_t push_legs = 0;        // sum of net.worker*.up.msgs
  uint64_t retransmits = 0;      // ps.push_retransmits
  uint64_t stale_drops = 0;      // net.stale_push_drops
  uint64_t repaces = 0;          // JobResult::link_repaces
  uint64_t subtasks = 0;         // JobResult::subtasks_started
  uint64_t ps_subtasks = 0;      // the same, PS jobs only
  uint64_t retries = 0;          // FaultStats::core_retries
  uint64_t injected = 0;         // FaultStats drops + delays
  uint64_t dag_ops = 0;          // FP/BP ops run by declarative engines
  uint64_t imperative_ops = 0;   // FP/BP ops run by imperative engines
  uint64_t ticks = 0;            // TimeSeriesRecorder::total_ticks
  uint64_t csv_bytes = 0;        // exported time-series CSV size

  void Merge(const JobCounts& o);
};

enum class Kind { kPsSweep, kAllreduceTune, kVolatilePs, kObservedJob };

// One generated op. For allreduce_tune `job` is the tuner's base config.
struct Op {
  bsched::JobConfig job;
  int trials = 0;            // allreduce_tune: BO trials per session
  uint64_t search_seed = 0;  // allreduce_tune: BO and jitter seed
};

// Outcome of one op run.
struct Outcome {
  bool ok = false;         // ran to completion and every invariant held
  bool aborted = false;    // the isolated process died (volatile_ps)
  std::string error;       // invariant or abort message
  uint64_t digest = 0;     // over the op's simulated outputs
  double host_ms = 0.0;    // wall time of the op, measured at its boundary
  double cpu_ms = 0.0;     // CPU time of the thread that ran the op
  double start_s = 0.0;    // steady-clock start of the op's job/session
  double search_ms = 0.0;  // allreduce_tune, traced: time in Suggest/Observe
  double export_ms = 0.0;  // observed_job: metrics JSON + CSV export
  JobCounts counts;
  // allreduce_tune: the trial configurations the session profiled.
  std::vector<std::pair<bsched::Bytes, bsched::Bytes>> trials;
};

// Options for one op execution.
struct RunOptions {
  Tracer* tracer = nullptr;  // record spans (traced phase)
  int64_t parent = -1;       // enclosing span
  int64_t op_id = -1;
  bool count = false;        // attach a MetricsRegistry and harvest counts
};

struct Workload {
  Kind kind = Kind::kPsSweep;
  std::vector<Op> pool;
  // ps_sweep only: the sweep runner (4 workers), built during setup.
  std::unique_ptr<bsched::SweepRunner> runner;
};

bool ParseKind(const std::string& name, Kind* kind);

// Generates the op pool for `kind` from `seed`; the program sees only the
// generated JobConfigs.
std::vector<Op> GeneratePool(Kind kind, uint64_t seed);

// The untimed warm-up op of set-up: the first op of the workload's design
// drawn from a fixed seed (allreduce_tune: a 10-trial session on the
// smallest machine bucket), so set-up does the same work at every seed.
Op WarmupOp(Kind kind);

// Runs one op in the calling thread (volatile_ps: inside a forked child, so
// a process abort becomes a failed outcome). Never throws.
Outcome RunOp(Kind kind, const Op& op, const RunOptions& options);

// Runs a training job in this process (no isolation).
Outcome RunJob(const bsched::JobConfig& job, const RunOptions& options);

// Runs a training job in a forked child, so that a process abort becomes a
// failed outcome carrying the abort message; the job is timed in the child.
Outcome RunJobIsolated(const bsched::JobConfig& job, const RunOptions& options);

// ---- layer drivers (drivers.cc) ----------------------------------------
// Each driver calls only one layer's public API, with inputs derived from a
// workload's generated configs, and returns host ns per operation (median of
// a few rounds), plus the simulator events and link messages each operation
// fired, so the ledger can subtract the nested layers' cost.
struct DriverResult {
  double ns_per_op = 0.0;
  double events_per_op = 0.0;
  double msgs_per_op = 0.0;  // link messages per operation (comm drivers)
};

DriverResult SimEventDriver(double cancel_share);
DriverResult LinkSendDriver(const std::vector<Op>& pool, bool dynamic);
DriverResult CoreSubtaskDriver(const std::vector<Op>& pool);
DriverResult PsRoundtripDriver(const std::vector<Op>& pool);
DriverResult AllReduceDriver(const std::vector<Op>& pool);
DriverResult EngineDriver(const std::vector<Op>& pool, bool imperative);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
