#include "src/comm/ps_backend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace bsched {
namespace {

// Cross-shard channel kinds (see Chan()). One ordered stream per
// (kind, source entity, destination entity).
constexpr uint64_t kChanPushData = 1;   // worker uplink -> shard ingress
constexpr uint64_t kChanAckCancel = 2;  // shard -> worker (push acknowledged)
constexpr uint64_t kChanPullReq = 3;    // worker -> shard (pull request)
constexpr uint64_t kChanPullData = 4;   // shard egress -> worker downlink
constexpr uint64_t kChanAggNotify = 5;  // shard -> worker (aggregation listener)

}  // namespace

PsBackend::PsBackend(Simulator* sim, const PsConfig& config) : sim_(sim), config_(config) {
  BSCHED_CHECK(config_.num_workers > 0);
  BSCHED_CHECK(config_.num_shards > 0);
  if (Sharded()) {
    // Sharded mode: entities live on the coordinator's per-shard simulators;
    // a separate serial Simulator would be a second, disconnected clock.
    BSCHED_CHECK(sim_ == nullptr);
    // Every cross-entity hop must satisfy the conservative lookahead bound.
    BSCHED_CHECK(config_.coord->lookahead() <= config_.control_latency);
    BSCHED_CHECK(config_.coord->lookahead() <= config_.transport.latency);
    // Flow traces record global interleavings; only commutative metric
    // counters are shard-count-invariant.
    BSCHED_CHECK(config_.obs == nullptr || !config_.obs->tracing());
    const int k = config_.coord->shards();
    for (int w = 0; w < config_.num_workers; ++w) {
      worker_cshard_.push_back(w % k);
      worker_sims_.push_back(config_.coord->shard(w % k));
    }
    for (int s = 0; s < config_.num_shards; ++s) {
      shard_cshard_.push_back(s % k);
      shard_sims_.push_back(config_.coord->shard(s % k));
    }
  } else {
    BSCHED_CHECK(sim_ != nullptr);
    worker_sims_.assign(config_.num_workers, sim_);
    shard_sims_.assign(config_.num_shards, sim_);
    worker_cshard_.assign(config_.num_workers, 0);
    shard_cshard_.assign(config_.num_shards, 0);
  }
  TransportModel receiver = config_.transport;
  receiver.serial_overhead = SimTime();
  receiver.latency = SimTime();
  for (int w = 0; w < config_.num_workers; ++w) {
    const std::string name = "worker" + std::to_string(w);
    uplinks_.push_back(std::make_unique<Link>(WorkerSim(w), name + ".up", config_.link_rate,
                                              config_.transport));
    downlinks_.push_back(
        std::make_unique<Link>(WorkerSim(w), name + ".down", config_.link_rate, receiver));
  }
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::string name = "shard" + std::to_string(s);
    ingresses_.push_back(
        std::make_unique<Link>(ShardSim(s), name + ".in", config_.link_rate, receiver));
    egresses_.push_back(std::make_unique<Link>(ShardSim(s), name + ".out", config_.link_rate,
                                               config_.transport));
    shard_cpus_.push_back(std::make_unique<Resource>(ShardSim(s), name + ".cpu"));
  }
  slots_.resize(static_cast<size_t>(config_.num_shards));
  legs_.resize(static_cast<size_t>(config_.num_workers));
  flushes_.resize(static_cast<size_t>(config_.num_workers));
  pulls_ = std::vector<SlotPool<PullLeg>>(static_cast<size_t>(config_.num_workers));
  push_retransmits_.assign(static_cast<size_t>(config_.num_workers), 0);
  stale_push_drops_.assign(static_cast<size_t>(config_.num_shards), 0);
  if (config_.faults != nullptr) {
    BSCHED_CHECK(config_.retry_backoff >= 1.0);
    BSCHED_CHECK(config_.max_push_retries >= 0);
    for (auto& link : uplinks_) link->SetFaultInjector(config_.faults);
    for (auto& link : downlinks_) link->SetFaultInjector(config_.faults);
    for (auto& link : ingresses_) link->SetFaultInjector(config_.faults);
    for (auto& link : egresses_) link->SetFaultInjector(config_.faults);
  }
  if (config_.obs != nullptr) {
    for (auto& link : uplinks_) link->SetObs(config_.obs);
    for (auto& link : downlinks_) link->SetObs(config_.obs);
    for (auto& link : ingresses_) link->SetObs(config_.obs);
    for (auto& link : egresses_) link->SetObs(config_.obs);
  }
  if (Tracing()) {
    TraceRecorder* trace = config_.obs->trace();
    TraceIds& ids = trace_ids_;
    for (int w = 0; w < config_.num_workers; ++w) {
      const std::string net = "net/worker" + std::to_string(w);
      ids.up.push_back(trace->Intern(net + ".up"));
      ids.down.push_back(trace->Intern(net + ".down"));
    }
    for (int s = 0; s < config_.num_shards; ++s) {
      ids.shard.push_back(trace->Intern("ps/shard" + std::to_string(s)));
    }
    ids.tensor_stem = trace->Intern("t");
    ids.part_sep = trace->Intern(".p");
    ids.push = trace->Intern(".push");
    ids.pull = trace->Intern(".pull");
    ids.update = trace->Intern(".update");
    ids.flush = trace->Intern("flush");
    ids.arrive = trace->Intern("arrive");
    ids.updated = trace->Intern("update");
    ids.deliver = trace->Intern("deliver");
    ids.bytes = trace->Intern("bytes");
    ids.layer = trace->Intern("layer");
    ids.shard_key = trace->Intern("shard");
  }
  if (config_.dynamics != nullptr && config_.dynamics->enabled()) {
    const NetDynamicsConfig& dyn = *config_.dynamics;
    BSCHED_CHECK(dyn.racks <= 1 || config_.num_workers >= 1);
    // Each link's schedule is keyed on its stable name; the asymmetric
    // down_scale derates the worker receive direction.
    for (auto& link : uplinks_) link->SetRateModel(BuildLinkRateModel(dyn, link->name(), false));
    for (auto& link : downlinks_) link->SetRateModel(BuildLinkRateModel(dyn, link->name(), true));
    for (auto& link : ingresses_) link->SetRateModel(BuildLinkRateModel(dyn, link->name(), false));
    for (auto& link : egresses_) link->SetRateModel(BuildLinkRateModel(dyn, link->name(), false));
    if (dyn.aimd.enable) {
      for (int w = 0; w < config_.num_workers; ++w) {
        rate_ctrl_.push_back(std::make_unique<RateController>(uplinks_[w].get(), dyn.aimd));
      }
    }
  }
}

uint64_t PsBackend::link_repaces() const {
  uint64_t total = 0;
  for (const auto& link : uplinks_) total += link->repace_events();
  for (const auto& link : downlinks_) total += link->repace_events();
  for (const auto& link : ingresses_) total += link->repace_events();
  for (const auto& link : egresses_) total += link->repace_events();
  return total;
}

double PsBackend::MsgScale(int worker, int shard) const {
  return config_.dynamics != nullptr ? CrossRackScale(*config_.dynamics, worker, shard) : 1.0;
}

bool PsBackend::Tracing() const {
  return config_.obs != nullptr && config_.obs->tracing();
}

TraceName PsBackend::PartTraceName(int64_t tensor, int partition, TraceId suffix) const {
  return {.stem = trace_ids_.tensor_stem,
          .sep = trace_ids_.part_sep,
          .suffix = suffix,
          .a = tensor,
          .b = partition};
}

void PsBackend::Forward(int src, int dst, uint64_t channel, SimTime delay, EventFn fn) {
  if (Sharded()) {
    config_.coord->Post(src, dst, channel, delay, std::move(fn));
    return;
  }
  // Serial path: reproduce Link::SendWithFlush's delivery wrapper exactly —
  // a zero wire flight runs inline, anything else schedules.
  if (delay.nanos() == 0) {
    fn();
  } else {
    sim_->Schedule(delay, std::move(fn));
  }
}

int PsBackend::ShardFor(int64_t tensor_id, int partition) const {
  // Round-robin by tensor; partitions of one tensor stripe across shards.
  // Unpartitioned tensors (single partition 0) land whole on one shard,
  // reproducing the vanilla assignment and its imbalance on skewed models.
  return static_cast<int>((tensor_id + partition) % config_.num_shards);
}

PsBackend::SlotState& PsBackend::Slot(int shard, int64_t tensor, int partition) {
  SlotState& slot = slots_[shard].At(tensor, partition / config_.num_shards);
  if (slot.accepted_round.empty()) {
    slot.accepted_round.assign(static_cast<size_t>(config_.num_workers), 0);
    slot.arrived.assign(static_cast<size_t>(config_.num_workers + 63) / 64, 0);
  }
  return slot;
}

void PsBackend::Start(const SubCommTask& subtask, Callback on_finish) {
  BSCHED_CHECK(subtask.worker >= 0 && subtask.worker < config_.num_workers);
  BSCHED_CHECK(on_finish != nullptr);
  switch (subtask.type) {
    case CommOpType::kPush:
      HandlePush(subtask, std::move(on_finish));
      return;
    case CommOpType::kPull:
      HandlePull(subtask, std::move(on_finish));
      return;
    case CommOpType::kAllReduce:
      BSCHED_CHECK(false && "PS backend cannot execute all-reduce tasks");
  }
}

void PsBackend::HandlePush(const SubCommTask& subtask, Callback on_finish) {
  const int shard = ShardFor(subtask.tensor_id, subtask.partition);
  const int worker = subtask.worker;
  // Aggregation round for this slot from this worker: the data leg and any
  // retransmits of it all carry this round number, letting the shard drop a
  // stale duplicate whose original also made it through. A fresh push task
  // opens a new round; a Core-level retry re-enters here with the *same*
  // task id and must stay in its round, or its duplicate copy would count
  // as a phantom arrival in the next one.
  //
  // A Core-level retry of a push that a newer task has already superseded
  // (the old attempt's flush was slow, its gradient had long been
  // aggregated, and the pull it gated let the next iteration start) has no
  // round left: it is sent as round 0, which the shard never accepts, rather
  // than as a phantom arrival completing the newer round early.
  PushLeg& leg = legs_[worker].At(subtask.tensor_id, subtask.partition);
  const bool superseded = leg.round != 0 && subtask.task < leg.task;
  if (!superseded && (leg.task != subtask.task || leg.round == 0)) {
    leg.task = subtask.task;
    ++leg.round;
  }
  const uint64_t round = superseded ? 0 : leg.round;
  flushes_[worker].push_back(
      PushFlush{subtask, shard, round, WorkerSim(worker)->Now(), std::move(on_finish)});
  SendPushData(PushMsg::Of(subtask, round), [this, worker] { OnPushFlushed(worker); });
}

void PsBackend::OnPushFlushed(int worker) {
  // Sender-side completion (the stack flushed the partition): this is what
  // returns scheduler credit, after a small completion latency. From here
  // the data leg is the backend's responsibility; with faults enabled an
  // ack timer guarantees it eventually reaches the shard.
  PushFlush flush = std::move(flushes_[worker].front());
  flushes_[worker].pop_front();
  const SubCommTask& subtask = flush.subtask;
  Simulator* wsim = WorkerSim(worker);
  if (Tracing()) {
    const TraceIds& ids = trace_ids_;
    TraceRecorder* trace = config_.obs->trace();
    trace->AddSpan(ids.up[worker], PartTraceName(subtask.tensor_id, subtask.partition, ids.push),
                   flush.submit, wsim->Now(),
                   {{ids.bytes, subtask.bytes},
                    {ids.layer, subtask.layer},
                    {ids.shard_key, flush.shard}});
    if (subtask.flow != 0) {
      trace->AddFlow(ids.up[worker], {.stem = ids.flush}, wsim->Now(), subtask.flow,
                     FlowPhase::kStep);
    }
  }
  if (config_.faults != nullptr && flush.round != 0) {
    PushLeg& leg = legs_[worker].At(subtask.tensor_id, subtask.partition);
    leg.layer = subtask.layer;
    leg.msg = PushMsg::Of(subtask, flush.round);
    ArmPushAckTimer(worker, subtask.tensor_id, subtask.partition, /*attempt=*/0);
  }
  // Flush notification goes to this worker's own scheduler core — a
  // same-entity hop, so it stays a local schedule in sharded mode too.
  wsim->Schedule(config_.control_latency, std::move(flush.on_finish));
}

void PsBackend::SendPushData(const PushMsg& msg, Callback on_flushed) {
  // Retransmissions re-occupy the uplink (a resend spends real bandwidth)
  // but carry no flush callback — credit was already returned. Both ride the
  // same FIFO uplink and channel, so their flush order (and thus channel
  // order) matches wire order.
  const int worker = msg.worker;
  const int shard = ShardFor(msg.tensor, msg.partition);
  uplinks_[worker]->SendCrossShard(
      msg.bytes, MsgScale(worker, shard), std::move(on_flushed),
      /*deliver=*/[this, msg](SimTime wire) {
        // Store-and-forward: after the wire flight the partition serializes
        // into the shard NIC, where copies from all workers contend.
        const int to = ShardFor(msg.tensor, msg.partition);
        Forward(worker_cshard_[msg.worker], shard_cshard_[to],
                Chan(kChanPushData, msg.worker, to), wire, [this, msg] {
                  ingresses_[ShardFor(msg.tensor, msg.partition)]->Send(
                      msg.bytes, [this, msg] { OnPushArrived(msg); });
                });
      });
}

void PsBackend::ArmPushAckTimer(int worker, int64_t tensor, int partition, int attempt) {
  // Runs on (and schedules on) the owning worker's simulator.
  PushLeg& leg = legs_[worker].At(tensor, partition);
  // Supersede a stale timer left by a previous aggregation round of the same
  // (tensor, partition, worker) slot (async mode reuses keys freely).
  leg.ack.Cancel();
  double scale = 1.0;
  for (int i = 0; i < attempt; ++i) {
    scale *= config_.retry_backoff;
  }
  const SimTime timeout = SimTime(
      static_cast<int64_t>(static_cast<double>(config_.push_ack_timeout.nanos()) * scale));
  leg.attempt = attempt;
  leg.ack_armed = true;
  leg.ack = WorkerSim(worker)->Schedule(
      timeout, [this, tensor, worker, partition] { OnPushAckTimeout(worker, tensor, partition); });
}

void PsBackend::OnPushAckTimeout(int worker, int64_t tensor, int partition) {
  PushLeg& leg = legs_[worker].At(tensor, partition);
  leg.ack_armed = false;
  const int attempt = leg.attempt;
  BSCHED_CHECK(attempt < config_.max_push_retries &&
               "push data leg exhausted its retransmit budget");
  ++push_retransmits_[worker];
  if (config_.faults != nullptr) {
    config_.faults->RecordBackendRetransmit(worker, leg.layer, partition, attempt + 1);
  }
  if (!rate_ctrl_.empty()) {
    // Loss signal: the data leg timed out, so back off this worker's
    // uplink before spending bandwidth on the retransmit.
    rate_ctrl_[worker]->OnLoss();
  }
  const PushMsg msg = leg.msg;
  ArmPushAckTimer(worker, tensor, partition, attempt + 1);
  SendPushData(msg, nullptr);
}

SimTime PsBackend::ScaledUpdateTime(int shard, Bytes bytes) const {
  const SimTime update_time =
      SimTime::Seconds(static_cast<double>(bytes) / config_.update_bytes_per_sec) +
      config_.update_fixed_overhead;
  if (config_.faults != nullptr) {
    // The owning shard's clock decides which slowdown episode is active.
    return config_.faults->ScaleShard(shard, update_time, ShardSim(shard)->Now());
  }
  return update_time;
}

// Records the shard-CPU update execution window. Called from the update's
// completion callback, so the window is [now - update_time, now] (the shard
// CPU is a FIFO resource: the job ran contiguously and just ended). Tracing
// is serial-mode-only, so sim_ is the right clock here.
void PsBackend::RecordUpdateSpan(int shard, int64_t tensor, int partition, uint64_t flow,
                                 SimTime update_time) {
  if (!Tracing()) {
    return;
  }
  const TraceIds& ids = trace_ids_;
  const SimTime end = sim_->Now();
  TraceRecorder* trace = config_.obs->trace();
  trace->AddSpan(ids.shard[shard], PartTraceName(tensor, partition, ids.update),
                 end - update_time, end, {{ids.shard_key, shard}});
  if (flow != 0) {
    trace->AddFlow(ids.shard[shard], {.stem = ids.updated}, end, flow, FlowPhase::kStep);
  }
}

void PsBackend::OnPushArrived(const PushMsg& msg) {
  // Runs on the PS shard's simulator.
  const int worker = msg.worker;
  const int shard = ShardFor(msg.tensor, msg.partition);
  {
    // Round guard: drop a copy whose round was already counted — its ack
    // timer fired while the original was merely slow (long outage window or
    // a heavily derated volatile link) and both copies arrived. Counting it
    // would seed the slot's *next* aggregation round with a phantom arrival.
    // Checked before the ack-cancel below: any pending timer now belongs to
    // a newer round and must keep running.
    uint64_t& accepted = Slot(shard, msg.tensor, msg.partition).accepted_round[worker];
    if (msg.round <= accepted) {
      ++stale_push_drops_[shard];
      if (!Sharded() && msg.round == accepted) {
        // The shard already holds this round. A copy of it can still carry
        // a live ack timer — a Core-level retry of the push re-armed one
        // after the round was accepted — which nothing else would cancel:
        // every retransmit of it is dropped here, until the budget runs
        // out. Settle that timer (the data is home), but only when it
        // belongs to exactly this round.
        PushLeg& leg = legs_[worker].At(msg.tensor, msg.partition);
        if (leg.ack_armed && leg.msg.round == msg.round) {
          leg.ack.Cancel();
          leg.ack_armed = false;
        }
      }
      return;
    }
    accepted = msg.round;
  }
  if (config_.faults != nullptr) {
    if (!Sharded()) {
      PushLeg& leg = legs_[worker].At(msg.tensor, msg.partition);
      if (leg.ack_armed) {
        leg.ack.Cancel();
        leg.ack_armed = false;
        if (!rate_ctrl_.empty()) {
          rate_ctrl_[worker]->OnAck();
        }
      }
    } else {
      // The ack timer lives on the worker's shard: send an explicit ack
      // message back. It pays a control latency, so a timer may fire while
      // the ack is in flight — a spurious but deterministic retransmit, the
      // same race a real unreliable-datagram PS pays.
      config_.coord->Post(shard_cshard_[shard], worker_cshard_[worker],
                          Chan(kChanAckCancel, shard, worker), config_.control_latency,
                          [this, worker, tensor = msg.tensor, partition = msg.partition] {
                            PushLeg& leg = legs_[worker].At(tensor, partition);
                            if (leg.ack_armed) {
                              leg.ack.Cancel();
                              leg.ack_armed = false;
                              // Clean ack: recover the uplink's pacing. Runs
                              // on the worker's own shard, like the timer it
                              // cancels.
                              if (!rate_ctrl_.empty()) {
                                rate_ctrl_[worker]->OnAck();
                              }
                            }
                          });
    }
  }
  if (Tracing() && msg.flow != 0) {
    config_.obs->trace()->AddFlow(trace_ids_.shard[shard], {.stem = trace_ids_.arrive},
                                  sim_->Now(), msg.flow, FlowPhase::kStep);
  }
  const SimTime update_time = ScaledUpdateTime(shard, msg.bytes);
  if (config_.synchronous) {
    // A bitmap, not a counter: a retransmitted copy racing its
    // merely-delayed original must not count the same worker twice within
    // a round.
    SlotState& slot = Slot(shard, msg.tensor, msg.partition);
    uint64_t& word = slot.arrived[static_cast<size_t>(worker) / 64];
    const uint64_t bit = uint64_t{1} << (worker % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++slot.arrived_count;
    }
    if (slot.arrived_count < config_.num_workers) {
      return;
    }
    std::fill(slot.arrived.begin(), slot.arrived.end(), 0);
    slot.arrived_count = 0;
  }
  // Sync: all workers' gradients for this partition arrived; run the
  // update, then release any pulls that were admitted early. Async: apply
  // each worker's gradient on arrival; parameters become pullable after the
  // first update.
  shard_cpus_[shard]->Submit(
      update_time, [this, tensor = msg.tensor, bytes = msg.bytes, flow = msg.flow, update_time,
                    shard, partition = msg.partition] {
        OnUpdateDone(shard, tensor, partition, bytes, flow, update_time, config_.synchronous);
      });
}

void PsBackend::OnUpdateDone(int shard, int64_t tensor, int partition, Bytes bytes,
                             uint64_t flow, SimTime update_time, bool notify) {
  RecordUpdateSpan(shard, tensor, partition, flow, update_time);
  SlotState& slot = Slot(shard, tensor, partition);
  slot.aggregated = true;
  // DeliverPull only enqueues link traffic, so the slot stays put while the
  // pending list drains.
  for (const PendingPull& p : slot.pending_pulls) {
    DeliverPull(shard, p.worker, p.leg, bytes);
  }
  slot.pending_pulls.clear();
  if (!notify || listeners_.empty()) {
    return;
  }
  if (!Sharded()) {
    // Listener-major, worker-minor: matches the legacy order, where each
    // single listener looped workers 0..N-1 internally.
    for (auto& listener : listeners_) {
      for (int w = 0; w < config_.num_workers; ++w) {
        listener(tensor, partition, w);
      }
    }
    return;
  }
  // Sharded: the notification is a shard -> worker control message, so
  // each worker's listeners run on that worker's own shard.
  for (int w = 0; w < config_.num_workers; ++w) {
    config_.coord->Post(shard_cshard_[shard], worker_cshard_[w], Chan(kChanAggNotify, shard, w),
                        config_.control_latency, [this, tensor, partition, w] {
                          for (auto& listener : listeners_) {
                            listener(tensor, partition, w);
                          }
                        });
  }
}

void PsBackend::HandlePull(const SubCommTask& subtask, Callback on_finish) {
  const int shard = ShardFor(subtask.tensor_id, subtask.partition);
  const int worker = subtask.worker;
  const uint32_t leg = pulls_[worker].Acquire();
  pulls_[worker][leg] = PullLeg{subtask, std::move(on_finish)};
  // Pull request reaches the shard after a control-message latency (a
  // worker -> shard hop, so it crosses via Post in sharded mode).
  Forward(worker_cshard_[worker], shard_cshard_[shard], Chan(kChanPullReq, worker, shard),
          config_.control_latency,
          [this, tensor = subtask.tensor_id, bytes = subtask.bytes, worker, leg,
           partition = subtask.partition] {
            const int at = ShardFor(tensor, partition);
            SlotState& slot = Slot(at, tensor, partition);
            if (!slot.aggregated) {
              slot.pending_pulls.push_back(PendingPull{worker, leg});
              return;
            }
            DeliverPull(at, worker, leg, bytes);
          });
}

void PsBackend::DeliverPull(int shard, int worker, uint32_t leg, Bytes bytes) {
  // Runs on the PS shard's simulator. With tracing, the downlink span and
  // the flow hop are stamped at actual delivery time (after egress +
  // downlink serialization); tracing is serial-only, so sim_ is the clock.
  const SimTime submit = Tracing() ? sim_->Now() : SimTime();
  egresses_[shard]->SendCrossShard(
      bytes, MsgScale(worker, shard), /*on_flushed=*/nullptr,
      [this, bytes, submit, shard, worker, leg](SimTime wire) {
        Forward(shard_cshard_[shard], worker_cshard_[worker], Chan(kChanPullData, shard, worker),
                wire, [this, bytes, submit, worker, leg] {
                  downlinks_[worker]->Send(bytes, [this, bytes, submit, worker, leg] {
                    FinishPull(worker, leg, bytes, submit);
                  });
                });
      });
}

void PsBackend::FinishPull(int worker, uint32_t leg, Bytes bytes, SimTime submit) {
  // Runs on the worker's simulator.
  PullLeg& pull = pulls_[worker][leg];
  if (Tracing()) {
    const SubCommTask& subtask = pull.subtask;
    const TraceIds& ids = trace_ids_;
    TraceRecorder* trace = config_.obs->trace();
    trace->AddSpan(ids.down[worker], PartTraceName(subtask.tensor_id, subtask.partition, ids.pull),
                   submit, sim_->Now(), {{ids.bytes, bytes}});
    if (subtask.flow != 0) {
      trace->AddFlow(ids.down[worker], {.stem = ids.deliver}, sim_->Now(), subtask.flow,
                     FlowPhase::kStep);
    }
  }
  Callback on_finish = std::move(pull.on_finish);
  pulls_[worker].Release(leg);
  on_finish();
}

void PsBackend::ResetAggregationState() {
  for (auto& shard_slots : slots_) {
    shard_slots.Clear();
  }
  for (auto& worker_legs : legs_) {
    worker_legs.ForEach([](const PushLeg& leg) { EventHandle(leg.ack).Cancel(); });
    worker_legs.Clear();
  }
}

Bytes PsBackend::shard_bytes_in(int shard) const {
  BSCHED_CHECK(shard >= 0 && shard < config_.num_shards);
  return ingresses_[shard]->bytes_sent();
}

Bytes PsBackend::shard_bytes_out(int shard) const {
  BSCHED_CHECK(shard >= 0 && shard < config_.num_shards);
  return egresses_[shard]->bytes_sent();
}

double PsBackend::ShardLoadImbalance() const {
  Bytes max_out = 0;
  Bytes total = 0;
  for (int s = 0; s < config_.num_shards; ++s) {
    max_out = std::max(max_out, shard_bytes_out(s));
    total += shard_bytes_out(s);
  }
  if (total == 0) {
    return 1.0;
  }
  const double mean = static_cast<double>(total) / config_.num_shards;
  return static_cast<double>(max_out) / mean;
}

void PsBackend::ExportMetrics() {
  if (config_.obs == nullptr || config_.obs->metrics() == nullptr) {
    return;
  }
  for (auto& link : uplinks_) link->ExportMetrics();
  for (auto& link : downlinks_) link->ExportMetrics();
  for (auto& link : ingresses_) link->ExportMetrics();
  for (auto& link : egresses_) link->ExportMetrics();
  MetricsRegistry* m = config_.obs->metrics();
  for (int s = 0; s < config_.num_shards; ++s) {
    const std::string prefix = "ps.shard" + std::to_string(s);
    m->gauge(prefix + ".bytes_in")->Set(shard_bytes_in(s));
    m->gauge(prefix + ".bytes_out")->Set(shard_bytes_out(s));
    m->gauge(prefix + ".cpu_busy_ns")->Set(shard_cpus_[s]->busy_time().nanos());
  }
  m->counter("ps.push_retransmits")->Inc(push_retransmits());
  // Always exported (zero without dynamics) so the metric key set is stable
  // across configurations, like the fault.* counters.
  m->counter("net.rate_ctrl.decreases")->Inc(rate_ctrl_decreases());
  m->counter("net.rate_ctrl.increases")->Inc(rate_ctrl_increases());
  m->counter("net.link_repaces")->Inc(link_repaces());
  m->counter("net.stale_push_drops")->Inc(stale_push_drops());
}

std::string PsBackend::DebugString() const {
  int pending_pulls = 0;
  int waiting_slots = 0;
  for (const auto& shard_slots : slots_) {
    shard_slots.ForEach([&](const SlotState& slot) {
      pending_pulls += static_cast<int>(slot.pending_pulls.size());
      if (slot.arrived_count > 0) {
        ++waiting_slots;
      }
    });
  }
  std::string out = "ps pending_pulls=" + std::to_string(pending_pulls) +
                    " slots_awaiting_arrivals=" + std::to_string(waiting_slots);
  if (config_.faults != nullptr) {
    size_t unacked = 0;
    for (const auto& worker_legs : legs_) {
      worker_legs.ForEach([&](const PushLeg& leg) { unacked += leg.ack_armed ? 1 : 0; });
    }
    out += " unacked_pushes=" + std::to_string(unacked) +
           " retransmits=" + std::to_string(push_retransmits());
  }
  return out;
}

}  // namespace bsched
