#include "src/fault/fault_injector.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <string_view>

#include "src/common/check.h"

namespace bsched {

std::string FaultStats::DebugString() const {
  return "faults[injected: msgs=" + std::to_string(messages_seen) +
         " drops=" + std::to_string(drops_injected) +
         " delays=" + std::to_string(delays_injected) + " (" + delay_injected_total.ToString() +
         ") compute_slow=" + std::to_string(compute_slowdowns) +
         " shard_slow=" + std::to_string(shard_slowdowns) +
         " | recovered: timeouts=" + std::to_string(core_timeouts) +
         " retries=" + std::to_string(core_retries) +
         " late=" + std::to_string(core_late_completions) +
         " abandoned=" + std::to_string(core_abandoned) +
         " retransmits=" + std::to_string(backend_retransmits) +
         " credit_restored=" + FormatBytes(credit_restored) + "]";
}

FaultInjector::FaultInjector(const FaultPlanConfig& config, Simulator* sim, TraceRecorder* trace)
    : plan_(config), sim_(sim), trace_(trace) {
  // Sharded runs have no single simulator; they pass sim == nullptr, which is
  // fine because the only sim use is trace timestamps and tracing is
  // serial-mode-only.
  BSCHED_CHECK(sim_ != nullptr || trace_ == nullptr);
  if (trace_ == nullptr) {
    return;
  }
  const TraceId plan = trace_->Intern("faults/plan");
  injected_track_ = trace_->Intern("faults/injected");
  recovery_track_ = trace_->Intern("faults/recovery");
  drop_name_ = trace_->Intern("drop");
  straggler_name_ = trace_->Intern("straggler w");
  shard_slow_name_ = trace_->Intern("shard_slow s");
  for (const FaultEpisode& ep : plan_.episodes()) {
    trace_->AddSpan(plan, {.stem = trace_->Intern(ToString(ep.kind))}, ep.start, ep.end);
  }
}

void FaultInjector::RecoveryInstant(const char* what, int worker, int layer, int partition,
                                    int attempt) {
  if (trace_ != nullptr) {
    char name[96];
    const int n = std::snprintf(name, sizeof(name), "%s w%d L%d.p%d #%d", what, worker, layer,
                                partition, attempt);
    trace_->AddInstant(recovery_track_, std::string_view(name, static_cast<size_t>(n)),
                       sim_->Now());
  }
}

FaultInjector::MessageFault FaultInjector::OnMessageSend(uint64_t site_hash, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.messages_seen;
  const uint64_t msg_index = site_msg_counts_[site_hash]++;
  MessageFault fate;
  if (plan_.DropMessage(site_hash, msg_index, now)) {
    fate.drop = true;
    ++stats_.drops_injected;
    if (trace_ != nullptr) {
      trace_->AddInstant(injected_track_, {.stem = drop_name_}, sim_->Now());
    }
    return fate;
  }
  fate.delay = plan_.ExtraLatency(site_hash, now);
  if (fate.delay.nanos() > 0) {
    ++stats_.delays_injected;
    stats_.delay_injected_total += fate.delay;
    if (trace_ != nullptr) {
      trace_->AddInstant(injected_track_, "delay+" + fate.delay.ToString(), sim_->Now());
    }
  }
  return fate;
}

SimTime FaultInjector::ScaleCompute(int worker, SimTime duration, SimTime now) {
  const double factor = plan_.ComputeFactor(worker, now);
  if (factor <= 1.0) {
    return duration;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.compute_slowdowns;
  if (trace_ != nullptr) {
    trace_->AddInstant(injected_track_, {.stem = straggler_name_, .a = worker}, sim_->Now());
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(duration.nanos()) * factor));
}

SimTime FaultInjector::ScaleShard(int shard, SimTime duration, SimTime now) {
  const double factor = plan_.ShardFactor(shard, now);
  if (factor <= 1.0) {
    return duration;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.shard_slowdowns;
  if (trace_ != nullptr) {
    trace_->AddInstant(injected_track_, {.stem = shard_slow_name_, .a = shard}, sim_->Now());
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(duration.nanos()) * factor));
}

void FaultInjector::RecordCoreTimeout(int worker, int layer, int partition, int attempt,
                                      Bytes restored) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.core_timeouts;
  stats_.credit_restored += restored;
  RecoveryInstant("timeout", worker, layer, partition, attempt);
}

void FaultInjector::RecordCoreRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.core_retries;
}

void FaultInjector::RecordLateCompletion() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.core_late_completions;
}

void FaultInjector::RecordAbandon() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.core_abandoned;
}

void FaultInjector::RecordBackendRetransmit(int worker, int layer, int partition, int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.backend_retransmits;
  RecoveryInstant("retransmit", worker, layer, partition, attempt);
}

}  // namespace bsched
