// Parameterized property sweeps across the full configuration space:
// determinism, liveness (no deadlock for arbitrary knob settings), the
// "ByteScheduler never loses" property, and scheduler-core credit
// conservation under randomized event orders.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/rng.h"
#include "src/core/scheduler_core.h"
#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"
#include "src/sim/simulator.h"
#include "tests/reference_simulator.h"

namespace bsched {
namespace {

Setup SetupByIndex(int index) {
  switch (index) {
    case 0:
      return Setup::MxnetPsTcp();
    case 1:
      return Setup::MxnetPsRdma();
    case 2:
      return Setup::TensorFlowPsTcp();
    case 3:
      return Setup::MxnetNcclRdma();
    default:
      return Setup::PyTorchNcclTcp();
  }
}

// ---- full-grid sweep: model x setup x machines ------------------------------

using SweepParam = std::tuple<std::string, int, int>;  // model, setup idx, machines

class SpeedupSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SpeedupSweepTest, SchedulingNeverLosesAndStaysUnderLinear) {
  const auto& [model_name, setup_idx, machines] = GetParam();
  JobConfig job;
  job.model = ModelByName(model_name);
  job.setup = SetupByIndex(setup_idx);
  job.num_machines = machines;
  job.bandwidth = Bandwidth::Gbps(100);
  job.warmup_iters = 2;
  job.measure_iters = 3;

  job.mode = SchedMode::kVanilla;
  const JobResult baseline = RunTrainingJob(job);

  job.mode = SchedMode::kByteScheduler;
  const TunedParams tuned =
      DefaultTunedParams(job.model, job.setup.arch, job.setup.transport, job.bandwidth);
  job.partition_bytes = tuned.partition_bytes;
  job.credit_bytes = tuned.credit_bytes;
  const JobResult sched = RunTrainingJob(job);

  const double linear = PaperLinearScaling(job);
  EXPECT_GT(baseline.samples_per_sec, 0.0);
  // ByteScheduler never loses to the baseline (±0.5% tolerance).
  EXPECT_GE(sched.samples_per_sec, baseline.samples_per_sec * 0.995);
  // Nothing exceeds compute-bound linear scaling.
  EXPECT_LE(sched.samples_per_sec, linear * 1.005);
  EXPECT_LE(baseline.samples_per_sec, linear * 1.005);
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, SpeedupSweepTest,
    ::testing::Combine(::testing::Values("vgg16", "resnet50", "transformer", "alexnet"),
                       ::testing::Values(0, 1, 2, 3, 4), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + "_setup" + std::to_string(std::get<1>(info.param)) +
             "_m" + std::to_string(std::get<2>(info.param));
    });

// ---- fuzz: random models, random knobs, all modes — must terminate ----------

class JobFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JobFuzzTest, RandomConfigurationsRunToCompletion) {
  Rng rng(GetParam() * 0x9e3779b9ULL + 17);
  SyntheticSpec spec;
  spec.num_layers = static_cast<int>(rng.UniformInt(2, 30));
  spec.min_layer_bytes = KiB(1);
  spec.max_layer_bytes = MiB(static_cast<int64_t>(rng.UniformInt(1, 64)));
  spec.total_compute = SimTime::Millis(static_cast<int64_t>(rng.UniformInt(5, 80)));
  ModelProfile model = SyntheticModel(spec, rng);
  if (rng.NextDouble() < 0.3) {
    model.layers[0].splittable = false;
  }

  JobConfig job;
  job.model = model;
  job.setup = SetupByIndex(static_cast<int>(rng.UniformInt(0, 4)));
  job.num_machines = static_cast<int>(rng.UniformInt(1, 6));
  job.gpus_per_machine = static_cast<int>(rng.UniformInt(1, 8));
  job.bandwidth = Bandwidth::Gbps(rng.Uniform(0.5, 120.0));
  job.warmup_iters = 1;
  job.measure_iters = static_cast<int>(rng.UniformInt(1, 3));
  job.ps_async = job.setup.arch == ArchType::kPs && rng.NextDouble() < 0.25;

  const int mode = static_cast<int>(rng.UniformInt(0, 2));
  job.mode = mode == 0 ? SchedMode::kVanilla
                       : (mode == 1 ? SchedMode::kByteScheduler : SchedMode::kP3);
  if (job.mode == SchedMode::kByteScheduler) {
    // Adversarial knobs, including credit < partition and tiny partitions.
    job.partition_bytes = static_cast<Bytes>(rng.UniformInt(KiB(1), MiB(8)));
    job.credit_bytes = static_cast<Bytes>(rng.UniformInt(KiB(1), MiB(64)));
  }

  // The real assertion is inside RunTrainingJob: engines must drain (any
  // deadlock aborts via BSCHED_CHECK). Completion + positive speed == pass.
  const JobResult result = RunTrainingJob(job);
  EXPECT_GT(result.samples_per_sec, 0.0);
  // Determinism under the exact same configuration.
  const JobResult again = RunTrainingJob(job);
  EXPECT_EQ(result.avg_iter_time, again.avg_iter_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobFuzzTest, ::testing::Range<uint64_t>(0, 24));

// ---- scheduler-core fuzz: randomized completion order -----------------------

class ReorderBackend : public CommBackend {
 public:
  explicit ReorderBackend(uint64_t seed) : rng_(seed) {}

  void Start(const SubCommTask& subtask, Callback on_finish) override {
    pending_.push_back(std::move(on_finish));
    (void)subtask;
  }

  // Completes a random in-flight subtask (models out-of-order networks).
  bool FinishRandom() {
    if (pending_.empty()) {
      return false;
    }
    const size_t i = static_cast<size_t>(rng_.UniformInt(0, pending_.size() - 1));
    auto cb = std::move(pending_[i]);
    pending_.erase(pending_.begin() + static_cast<long>(i));
    cb();
    return true;
  }

  size_t in_flight() const { return pending_.size(); }

 private:
  Rng rng_;
  std::vector<Callback> pending_;
};

class CoreFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreFuzzTest, CreditConservedUnderRandomCompletionOrder) {
  Rng rng(GetParam() + 1000);
  ReorderBackend backend(GetParam());
  const Bytes credit = KiB(static_cast<int64_t>(rng.UniformInt(64, 4096)));
  const Bytes partition = KiB(static_cast<int64_t>(rng.UniformInt(16, 2048)));
  SchedulerCore core(SchedulerConfig::ByteScheduler(partition, credit), &backend);

  int finished = 0;
  const int num_tasks = static_cast<int>(rng.UniformInt(5, 60));
  std::vector<CommTaskId> ids;
  for (int i = 0; i < num_tasks; ++i) {
    CommTaskDesc desc;
    desc.layer = static_cast<int>(rng.UniformInt(0, 20));
    desc.tensor_bytes = rng.UniformInt(1, MiB(4));
    desc.type = rng.NextDouble() < 0.5 ? CommOpType::kPush : CommOpType::kAllReduce;
    desc.on_finish = [&finished] { ++finished; };
    ids.push_back(core.Enqueue(std::move(desc)));
  }
  // Interleave readiness notifications with random completions.
  size_t next_ready = 0;
  while (finished < num_tasks) {
    if (next_ready < ids.size() && rng.NextDouble() < 0.4) {
      core.NotifyReady(ids[next_ready++]);
    } else if (!backend.FinishRandom() && next_ready < ids.size()) {
      core.NotifyReady(ids[next_ready++]);
    }
  }
  EXPECT_EQ(core.credit(), credit);  // every charged byte returned
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_EQ(core.tasks_finished(), static_cast<uint64_t>(num_tasks));
  EXPECT_EQ(backend.in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreFuzzTest, ::testing::Range<uint64_t>(0, 16));

// ---- event-queue differential property --------------------------------------

// For any randomized schedule/cancel/run-to-deadline workload, the Simulator
// (a flat 4-ary heap) and ReferenceSimulator (a std::set-ordered oracle) must
// fire the same events at the same times with identical accounting. The suite
// name dates from when two queue policies were compared; deeper structural
// cases live in tests/event_queue_test.cc.
class QueuePolicyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

template <typename Sim, typename Handle>
std::vector<int64_t> RunQueueFuzz(uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  std::vector<int64_t> trace;
  std::vector<Handle> handles;
  int next_id = 0;
  for (int op = 0; op < 1500; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.5) {
      const int id = next_id++;
      // Ties, near timers and timers up to a minute out.
      const int64_t delay =
          rng.NextDouble() < 0.3 ? 1000 : rng.UniformInt(0, int64_t{1} << 36);
      handles.push_back(sim.Schedule(SimTime::Nanos(delay), [&trace, &sim, id] {
        trace.push_back(id);
        trace.push_back(sim.Now().nanos());
      }));
    } else if (r < 0.8 && !handles.empty()) {
      handles[rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1)].Cancel();
    } else {
      sim.Run(sim.Now() + SimTime::Nanos(rng.UniformInt(0, 1'000'000)));
      trace.push_back(static_cast<int64_t>(sim.PendingEvents()));
      trace.push_back(static_cast<int64_t>(sim.QueuedEvents()));
    }
  }
  sim.Run();
  trace.push_back(static_cast<int64_t>(sim.processed_events()));
  trace.push_back(static_cast<int64_t>(sim.skipped_cancelled()));
  trace.push_back(static_cast<int64_t>(sim.compactions()));
  trace.push_back(sim.Now().nanos());
  return trace;
}

TEST_P(QueuePolicyFuzzTest, WheelAndHeapTrajectoriesAreIdentical) {
  const uint64_t seed = GetParam();
  EXPECT_EQ((RunQueueFuzz<Simulator, EventHandle>(seed)),
            (RunQueueFuzz<ReferenceSimulator, ReferenceSimulator::Handle>(seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueuePolicyFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace bsched
