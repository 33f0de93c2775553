// Microbenchmarks (google-benchmark) of the hot paths: scheduler Core
// enqueue/admission, the discrete-event loop, and GP posterior evaluation.
// These bound the scheduling overhead that §4.1 assumes negligible.
#include <benchmark/benchmark.h>

#include <deque>
#include <functional>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/rng.h"
#include "src/core/scheduler_core.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/tuning/gaussian_process.h"

namespace bsched {
namespace {

// Backend that completes every subtask immediately.
class NullBackend : public CommBackend {
 public:
  void Start(const SubCommTask&, Callback on_finish) override { on_finish(); }
};

void BM_CoreEnqueueAndSchedule(benchmark::State& state) {
  const Bytes tensor = MiB(8);
  const Bytes partition = KiB(static_cast<int64_t>(state.range(0)));
  for (auto _ : state) {
    NullBackend backend;
    SchedulerCore core(SchedulerConfig::ByteScheduler(partition, MiB(16)), &backend);
    CommTaskDesc desc;
    desc.layer = 0;
    desc.tensor_bytes = tensor;
    desc.type = CommOpType::kPush;
    CommTaskId id = core.Enqueue(desc);
    core.NotifyReady(id);
    benchmark::DoNotOptimize(core.tasks_finished());
  }
  state.SetItemsProcessed(state.iterations() * (tensor / partition));
}
BENCHMARK(BM_CoreEnqueueAndSchedule)->Arg(64)->Arg(256)->Arg(1024);

void BM_PriorityAdmissionChurn(benchmark::State& state) {
  const int num_tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    NullBackend backend;
    SchedulerCore core(SchedulerConfig::ByteScheduler(KiB(256), MiB(4)), &backend);
    for (int i = 0; i < num_tasks; ++i) {
      CommTaskDesc desc;
      desc.layer = num_tasks - i;  // reverse priority arrival (BP order)
      desc.tensor_bytes = KiB(512);
      CommTaskId id = core.Enqueue(desc);
      core.NotifyReady(id);
    }
    benchmark::DoNotOptimize(core.subtasks_started());
  }
  state.SetItemsProcessed(state.iterations() * num_tasks);
}
BENCHMARK(BM_PriorityAdmissionChurn)->Arg(16)->Arg(64)->Arg(256);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Resource resource(&sim, "r");
    for (int i = 0; i < 1000; ++i) {
      resource.Submit(SimTime::Micros(1), nullptr);
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_GpPredict(benchmark::State& state) {
  const int samples = static_cast<int>(state.range(0));
  GaussianProcess gp(2);
  Rng rng(1);
  for (int i = 0; i < samples; ++i) {
    gp.Add({rng.NextDouble(), rng.NextDouble()}, rng.NextDouble());
  }
  std::vector<double> x = {0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Predict(x));
    x[0] = x[0] < 0.99 ? x[0] + 0.001 : 0.0;  // defeat caching
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(30)->Arg(60);

}  // namespace
}  // namespace bsched

BENCHMARK_MAIN();
