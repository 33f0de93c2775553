// Trajectory pins: exact (sim_events, avg_iter_time, subtasks_started) of a
// table of end-to-end jobs covering every scheduler mode, transport,
// architecture and optional fabric (chaos, dynamic network with AIMD, the
// sharded coordinator, obs sinks). The values were recorded before the
// allocation-free rewrite of the partition hot path (Resource, Link, Core,
// PS and all-reduce backends); any change to event order, timing or
// admission count shows up here as an exact mismatch. A deliberate model
// change must re-pin and say so in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

struct Pin {
  uint64_t sim_events;
  int64_t avg_iter_ns;
  uint64_t subtasks_started;
};

JobConfig Job(const ModelProfile& model, const Setup& setup, int machines, double gbps,
              SchedMode mode) {
  JobConfig job;
  job.model = model;
  job.setup = setup;
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(gbps);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  job.mode = mode;
  if (mode == SchedMode::kByteScheduler) {
    const TunedParams tuned =
        DefaultTunedParams(job.model, setup.arch, setup.transport, job.bandwidth);
    job.partition_bytes = tuned.partition_bytes;
    job.credit_bytes = tuned.credit_bytes;
  }
  return job;
}

JobConfig Chaos(JobConfig job, uint64_t seed) {
  FaultPlanConfig chaos = FaultPlanConfig::Chaos(seed);
  chaos.horizon = SimTime::Millis(150);
  job.chaos = chaos;
  return job;
}

// fig15's volatile fabric (drift plus on/off cross traffic) with the AIMD
// uplink controller switched on.
JobConfig VolatileAimd(JobConfig job) {
  NetDynamicsConfig dyn;
  dyn.seed = 3;
  dyn.volatility_amplitude = 0.8;
  dyn.volatility_period = SimTime::Millis(2);
  dyn.cross_flows = 2;
  dyn.cross_load = 0.35 * 0.8;
  dyn.force_enable = true;
  dyn.aimd.enable = true;
  job.dynamics = dyn;
  return job;
}

struct Case {
  std::string name;
  std::function<JobConfig()> make;
  Pin pin;
};

std::vector<Case> Cases() {
  using M = SchedMode;
  return {
      {"mxnet_tcp_vanilla", [] { return Job(Vgg16(), Setup::MxnetPsTcp(), 4, 10, M::kVanilla); },
       {6108, 1531848532, 1248}},
      {"mxnet_tcp_p3", [] { return Job(Vgg16(), Setup::MxnetPsTcp(), 4, 10, M::kP3); },
       {336075, 637344026, 81240}},
      {"mxnet_tcp_bytescheduler",
       [] { return Job(Vgg16(), Setup::MxnetPsTcp(), 4, 10, M::kByteScheduler); },
       {99267, 553740008, 23832}},
      {"mxnet_rdma_vanilla",
       [] { return Job(ResNet50(), Setup::MxnetPsRdma(), 4, 25, M::kVanilla); },
       {7020, 94433325, 1440}},
      {"mxnet_rdma_p3", [] { return Job(ResNet50(), Setup::MxnetPsRdma(), 4, 25, M::kP3); },
       {63648, 94433325, 15168}},
      {"mxnet_rdma_bytescheduler",
       [] { return Job(ResNet50(), Setup::MxnetPsRdma(), 4, 25, M::kByteScheduler); },
       {8802, 94433325, 1872}},
      {"tf_tcp_vanilla",
       [] { return Job(Vgg16(), Setup::TensorFlowPsTcp(), 2, 25, M::kVanilla); },
       {2010, 2121570516, 336}},
      {"tf_tcp_p3", [] { return Job(Vgg16(), Setup::TensorFlowPsTcp(), 2, 25, M::kP3); },
       {173185, 1049326811, 40620}},
      {"tf_tcp_bytescheduler",
       [] { return Job(Vgg16(), Setup::TensorFlowPsTcp(), 2, 25, M::kByteScheduler); },
       {65473, 808159322, 15276}},
      {"async_ps_vanilla",
       [] {
         JobConfig job = Job(Vgg16(), Setup::MxnetPsTcp(), 2, 25, M::kVanilla);
         job.ps_async = true;
         return job;
       },
       {1992, 520212878, 336}},
      {"async_ps_bytescheduler",
       [] {
         JobConfig job = Job(Vgg16(), Setup::MxnetPsTcp(), 2, 25, M::kByteScheduler);
         job.ps_async = true;
         return job;
       },
       {22134, 223813203, 4812}},
      {"nccl_rdma_vanilla",
       [] { return Job(Vgg16(), Setup::MxnetNcclRdma(), 4, 25, M::kVanilla); },
       {336, 424628986, 48}},
      {"nccl_rdma_bytescheduler",
       [] { return Job(Vgg16(), Setup::MxnetNcclRdma(), 4, 25, M::kByteScheduler); },
       {360, 365492041, 60}},
      {"pytorch_nccl_bytescheduler",
       [] { return Job(Transformer(), Setup::PyTorchNcclTcp(), 2, 25, M::kByteScheduler); },
       {345, 604503395, 45}},
      {"chaos1_bytescheduler",
       [] { return Chaos(Job(Vgg16(), Setup::MxnetPsRdma(), 2, 100, M::kByteScheduler), 1); },
       {12411, 181440186, 2764}},
      {"chaos2_bytescheduler",
       [] { return Chaos(Job(Vgg16(), Setup::MxnetPsTcp(), 2, 25, M::kByteScheduler), 2); },
       {21413, 235084771, 4841}},
      {"chaos3_bytescheduler",
       [] { return Chaos(Job(ResNet50(), Setup::MxnetPsTcp(), 2, 25, M::kByteScheduler), 3); },
       {5045, 94872080, 1043}},
      {"fig15_aimd_vanilla",
       [] { return VolatileAimd(Job(ResNet50(), Setup::MxnetPsTcp(), 2, 25, M::kVanilla)); },
       {2172, 202245377, 384}},
      {"fig15_aimd_bytescheduler",
       [] {
         return VolatileAimd(Job(ResNet50(), Setup::MxnetPsTcp(), 2, 25, M::kByteScheduler));
       },
       {4824, 144518931, 1008}},
      {"shards2_bytescheduler",
       [] {
         JobConfig job = Job(Vgg16(), Setup::MxnetPsTcp(), 4, 10, M::kByteScheduler);
         job.shards = 2;
         return job;
       },
       {111183, 553740008, 23832}},
  };
}

// FNV-1a over an exported artifact, so a pin covers its exact bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

void ExpectPinned(const std::string& name, const JobResult& r, const Pin& pin) {
  // On mismatch, print the row in table syntax so a deliberate re-pin is a
  // copy-paste.
  const bool match = r.sim_events == pin.sim_events &&
                     r.avg_iter_time.nanos() == pin.avg_iter_ns &&
                     r.subtasks_started == pin.subtasks_started;
  if (!match) {
    std::printf("PIN %s {%llu, %lld, %llu}\n", name.c_str(),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<long long>(r.avg_iter_time.nanos()),
                static_cast<unsigned long long>(r.subtasks_started));
  }
  EXPECT_EQ(r.sim_events, pin.sim_events) << name;
  EXPECT_EQ(r.avg_iter_time.nanos(), pin.avg_iter_ns) << name;
  EXPECT_EQ(r.subtasks_started, pin.subtasks_started) << name;
}

TEST(TrajectoryPinTest, EveryModeAndFabric) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    ExpectPinned(c.name, RunTrainingJob(c.make()), c.pin);
  }
}

TEST(TrajectoryPinTest, MetricsAndTraceOn) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  JobConfig job = Job(Vgg16(), Setup::MxnetPsTcp(), 2, 25, SchedMode::kByteScheduler);
  job.trace = &trace;
  job.metrics = &metrics;
  ExpectPinned("metrics_trace_bytescheduler", RunTrainingJob(job), {20931, 225600759, 4812});
  std::ostringstream trace_json;
  trace.WriteChromeTrace(trace_json);
  std::ostringstream metrics_json;
  metrics.Snapshot().WriteJson(metrics_json);
  EXPECT_EQ(trace.num_events(), 26872u);
  EXPECT_EQ(Fnv1a(trace_json.str()), 17204608295317980769ull);
  EXPECT_EQ(Fnv1a(metrics_json.str()), 53037998254880850ull);
}

// Chrome-trace pins for the track kinds the ByteScheduler PS job above does
// not reach: the NCCL ring track with GPU and comm spans, the faults/plan
// spans, injected-fault instants and retries of a chaos run, and the TF PS
// path, whose pulls are separate tasks admitted after the step barrier that
// look up and continue their push's flow. Recorded before the trace
// recorder stored numeric records and formatted at export.
TEST(TrajectoryPinTest, TraceExports) {
  struct TracePin {
    std::string name;
    JobConfig job;
    uint64_t events;
    uint64_t trace_fnv;
  };
  const std::vector<TracePin> pins = {
      {"nccl_rdma_bytescheduler",
       Job(Vgg16(), Setup::MxnetNcclRdma(), 4, 25, SchedMode::kByteScheduler), 420,
       15934823659402064788ull},
      {"chaos1_bytescheduler",
       Chaos(Job(Vgg16(), Setup::MxnetPsRdma(), 2, 100, SchedMode::kByteScheduler), 1), 15633,
       12261621011132006074ull},
      {"tf_tcp_vanilla", Job(Vgg16(), Setup::TensorFlowPsTcp(), 2, 25, SchedMode::kVanilla), 1704,
       13811954293779470487ull},
  };
  for (const TracePin& pin : pins) {
    SCOPED_TRACE(pin.name);
    TraceRecorder trace;
    JobConfig job = pin.job;
    job.trace = &trace;
    RunTrainingJob(job);
    std::ostringstream json;
    trace.WriteChromeTrace(json);
    const uint64_t fnv = Fnv1a(json.str());
    if (trace.num_events() != pin.events || fnv != pin.trace_fnv) {
      std::printf("TRACE PIN %s %zu, %lluull\n", pin.name.c_str(), trace.num_events(),
                  static_cast<unsigned long long>(fnv));
    }
    EXPECT_EQ(trace.num_events(), pin.events);
    EXPECT_EQ(fnv, pin.trace_fnv);
  }
}

// Exported-artifact pins for the sampling pipeline: the time-series CSV, its
// tick count and the metrics CSV (whose p50/p95/p99 columns come from the
// log2 sketch), recorded before the recorder stored numeric samples and
// formatted at export. The fig15 job adds the per-link rate_bps probe rows.
TEST(TrajectoryPinTest, TimeSeriesAndMetricsCsv) {
  struct CsvPin {
    std::string name;
    JobConfig job;
    uint64_t ticks;
    uint64_t timeseries_fnv;
    uint64_t metrics_csv_fnv;
  };
  const std::vector<CsvPin> pins = {
      {"mxnet_rdma_bytescheduler",
       Job(Vgg16(), Setup::MxnetPsRdma(), 2, 100, SchedMode::kByteScheduler), 10698,
       10107500440778084370ull, 712967330919896707ull},
      {"fig15_aimd_bytescheduler",
       VolatileAimd(Job(ResNet50(), Setup::MxnetPsTcp(), 2, 25, SchedMode::kByteScheduler)), 9590,
       16414662488301330103ull, 10725668093544028847ull},
  };
  for (const CsvPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    MetricsRegistry metrics;
    TimeSeriesRecorder timeseries(&metrics, SimTime::Micros(100));
    JobConfig job = pin.job;
    job.metrics = &metrics;
    job.timeseries = &timeseries;
    RunTrainingJob(job);
    const std::string csv = timeseries.ToCsv();
    std::ostringstream streamed;
    timeseries.WriteCsv(streamed);
    EXPECT_EQ(streamed.str(), csv);
    std::ostringstream metrics_csv;
    metrics.Snapshot().WriteCsv(metrics_csv);
    const uint64_t ticks = timeseries.total_ticks();
    const uint64_t csv_fnv = Fnv1a(csv);
    const uint64_t metrics_fnv = Fnv1a(metrics_csv.str());
    if (ticks != pin.ticks || csv_fnv != pin.timeseries_fnv ||
        metrics_fnv != pin.metrics_csv_fnv) {
      std::printf("CSV PIN %s %llu, %lluull, %lluull\n", pin.name.c_str(),
                  static_cast<unsigned long long>(ticks),
                  static_cast<unsigned long long>(csv_fnv),
                  static_cast<unsigned long long>(metrics_fnv));
    }
    EXPECT_EQ(ticks, pin.ticks);
    EXPECT_EQ(csv_fnv, pin.timeseries_fnv);
    EXPECT_EQ(metrics_fnv, pin.metrics_csv_fnv);
  }
}

TEST(TrajectoryPinTest, CoscheduledJobs) {
  const JobConfig a = Job(Vgg16(), Setup::MxnetPsTcp(), 2, 25, SchedMode::kByteScheduler);
  const JobConfig b = Job(ResNet50(), Setup::MxnetPsTcp(), 2, 25, SchedMode::kByteScheduler);
  const std::vector<JobResult> independent =
      RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kIndependent);
  ExpectPinned("cosched_independent_a", independent[0], {25755, 276752642, 4812});
  ExpectPinned("cosched_independent_b", independent[1], {25755, 112942383, 1008});
  const std::vector<JobResult> coordinated =
      RunCoscheduledPsJobs({a, b}, CoschedulePolicy::kCoordinated);
  ExpectPinned("cosched_coordinated_a", coordinated[0], {25755, 248020645, 5820});
  ExpectPinned("cosched_coordinated_b", coordinated[1], {25755, 377207756, 5820});
}

}  // namespace
}  // namespace bsched
