#include "src/comm/allreduce_backend.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace bsched {

AllReduceConfig AllReduceConfig::Nccl(int num_workers, Bandwidth link_rate,
                                      const TransportModel& transport) {
  AllReduceConfig cfg;
  cfg.num_workers = num_workers;
  cfg.link_rate = link_rate;
  cfg.transport = transport;
  if (transport.name == "rdma") {
    cfg.launch_overhead = SimTime::Micros(100);
    cfg.step_latency = SimTime::Micros(3);
  } else if (transport.name == "tcp") {
    cfg.launch_overhead = SimTime::Micros(250);
    cfg.step_latency = SimTime::Micros(15);
  } else {
    cfg.launch_overhead = SimTime();
    cfg.step_latency = SimTime();
  }
  return cfg;
}

AllReduceBackend::AllReduceBackend(Simulator* sim, const AllReduceConfig& config)
    : sim_(sim), config_(config), ring_(std::make_unique<Resource>(sim, "ring")) {
  BSCHED_CHECK(sim_ != nullptr);
  BSCHED_CHECK(config_.num_workers >= 1);
  if (config_.faults != nullptr) {
    ring_site_hash_ = FaultPlan::HashSite("ring");
  }
  if (config_.obs != nullptr && config_.obs->tracing()) {
    TraceRecorder* trace = config_.obs->trace();
    trace_ids_.ring = trace->Intern("ring");
    trace_ids_.layer_stem = trace->Intern("L");
    trace_ids_.part_sep = trace->Intern(".p");
    trace_ids_.ring_done = trace->Intern("ring_done");
    trace_ids_.bytes = trace->Intern("bytes");
    trace_ids_.layer = trace->Intern("layer");
  }
}

SimTime AllReduceBackend::RingTime(Bytes bytes) const {
  const int w = config_.num_workers;
  if (w == 1) {
    return SimTime();
  }
  const Bandwidth rate = config_.transport.EffectiveRate(config_.link_rate);
  const double chunk = static_cast<double>(bytes) / w;
  const double step_sec =
      config_.step_latency.ToSeconds() + chunk / rate.bytes_per_sec();
  return SimTime::Seconds(2.0 * (w - 1) * step_sec);
}

void AllReduceBackend::Start(const SubCommTask& subtask, Callback on_finish) {
  BSCHED_CHECK(subtask.type == CommOpType::kAllReduce);
  BSCHED_CHECK(on_finish != nullptr);
  // Optional negotiation quantization: the operation is agreed upon by all
  // workers only at the next coordination-cycle boundary.
  SimTime wait;
  if (config_.nego_cycle.nanos() > 0) {
    const int64_t cycle = config_.nego_cycle.nanos();
    const int64_t now = sim_->Now().nanos();
    wait = SimTime(((now + cycle - 1) / cycle) * cycle - now);
  }
  if (config_.faults != nullptr) {
    const FaultInjector::MessageFault fate =
        config_.faults->OnMessageSend(ring_site_hash_, sim_->Now());
    if (fate.drop) {
      // The collective launch is lost (e.g. a worker missed the negotiation);
      // the master Core's timeout recovery relaunches the operation.
      return;
    }
    wait += fate.delay;
  }
  // The launch/negotiation phase runs host-side, concurrently with whatever
  // the ring is currently transferring; the ring pass itself serializes.
  const uint32_t op = ops_.Acquire();
  ops_[op] = Op{subtask.bytes, subtask.layer, subtask.partition, subtask.flow, SimTime(),
                std::move(on_finish)};
  sim_->Schedule(wait + config_.launch_overhead, [this, op] { Launch(op); });
}

void AllReduceBackend::Launch(uint32_t op) {
  Op& o = ops_[op];
  o.ring_time = RingTime(o.bytes);
  if (config_.obs == nullptr || !config_.obs->tracing()) {
    // The ring's own FIFO holds the completion from here on.
    const SimTime ring_time = o.ring_time;
    Callback on_finish = std::move(o.on_finish);
    ops_.Release(op);
    ring_->Submit(ring_time, std::move(on_finish));
    return;
  }
  ring_->Submit(o.ring_time, [this, op] { OnRingDone(op); });
}

void AllReduceBackend::OnRingDone(uint32_t op) {
  Op& o = ops_[op];
  const SimTime end = sim_->Now();
  TraceRecorder* trace = config_.obs->trace();
  const TraceIds& ids = trace_ids_;
  trace->AddSpan(ids.ring,
                 {.stem = ids.layer_stem, .sep = ids.part_sep, .a = o.layer, .b = o.partition},
                 end - o.ring_time, end, {{ids.bytes, o.bytes}, {ids.layer, o.layer}});
  if (o.flow != 0) {
    trace->AddFlow(ids.ring, {.stem = ids.ring_done}, end, o.flow, FlowPhase::kStep);
  }
  Callback on_finish = std::move(o.on_finish);
  ops_.Release(op);
  on_finish();
}

void AllReduceBackend::ExportMetrics() {
  if (config_.obs == nullptr || config_.obs->metrics() == nullptr) {
    return;
  }
  MetricsRegistry* m = config_.obs->metrics();
  m->gauge("ring.busy_ns")->Set(ring_busy_time().nanos());
  m->counter("ring.ops")->Inc(ops_completed());
}

}  // namespace bsched
