// Parameter-server backend (ps-lite-style). Workers push gradient partitions
// to shards and pull updated parameters back over full-duplex links; shards
// aggregate across workers and run the update. Tensor-to-shard assignment is
// round-robin by (layer + partition index): with unpartitioned tensors this
// reproduces the vanilla frameworks' per-tensor round-robin (and its severe
// load imbalance on skewed models, §6.2 "PS load balancing"); partitioned
// tensors stripe across all shards.
//
// Transmission path (store-and-forward at partition granularity):
//   push:  worker uplink (pays sender overhead) -> transport latency ->
//          shard ingress (serialization only) -> aggregation + update
//   pull:  request latency -> [wait until aggregated] -> shard egress (pays
//          sender overhead + latency) -> worker downlink (serialization only)
// Push completion for the scheduler is the *sender-side* flush plus a
// completion latency, as in ps-lite's engine callbacks. A stop-and-wait
// scheduler (P3) pays that per-partition gap serially and cannot fill the
// pipe; the credit mechanism (§4.2) keeps multiple partitions in flight.
//
// Fault tolerance: because a push reports success to the scheduler at sender
// flush, a gradient lost *after* the flush is invisible to the Core — so the
// backend itself guarantees worker->shard delivery. With fault injection
// enabled, every push data leg arms an ack timer keyed by (tensor, partition,
// worker); if the shard has not seen the copy when it fires, the leg is
// retransmitted with exponential backoff and bounded retries. Shards dedupe
// arrivals per worker within an aggregation round, so a retransmit racing a
// merely-delayed original cannot inflate the arrival count. (A stale copy
// surviving into the next round can make that worker's arrival count early —
// a semantic staleness real async PS systems also accept — but never lose or
// double-aggregate a round.) Control messages are assumed reliable.
//
// Hot-path layout: all per-partition state is dense. Aggregation slots live
// per owning PS shard, push legs (round + ack timer) per worker, both in
// TensorTables indexed by [tensor][partition]; arrivals are a per-slot worker
// bitmap plus a count. Callbacks ride in the entities that own them — push
// completions in a per-worker FIFO that mirrors the uplink's flush order,
// pull completions in a per-worker slot pool — so every closure crossing a
// link or the event queue carries only `this` plus a compact message and
// fits the inline callback buffer.
#ifndef SRC_COMM_PS_BACKEND_H_
#define SRC_COMM_PS_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/inline_fn.h"
#include "src/common/ring_queue.h"
#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/net/net_dynamics.h"
#include "src/net/rate_controller.h"
#include "src/net/transport.h"
#include "src/sim/resource.h"
#include "src/sim/shard_coordinator.h"
#include "src/sim/simulator.h"

namespace bsched {

struct PsConfig {
  int num_workers = 1;
  int num_shards = 1;
  Bandwidth link_rate = Bandwidth::Gbps(100);
  TransportModel transport = TransportModel::Tcp();
  // Synchronous training: a partition becomes pullable once all workers'
  // copies arrived and the update ran. Asynchronous: pulls wait only for the
  // first update of their slot.
  bool synchronous = true;
  // Shard-side gradient update rate (summing + applying the optimizer).
  double update_bytes_per_sec = 20e9;
  // Fixed shard CPU cost per partition update (key lookup, op dispatch);
  // part of the per-partition overhead θ that penalizes tiny partitions.
  SimTime update_fixed_overhead = SimTime::Micros(25);
  // Latency of sender-side completion callbacks and pull-request control
  // messages.
  SimTime control_latency = SimTime::Micros(20);

  // Fault injection (null disables it and all recovery machinery; the
  // fault-free event sequence is then byte-identical to a faultless build).
  FaultInjector* faults = nullptr;
  // Observability (null disables): link metrics plus trace spans/flow steps
  // on net/worker* and ps/shard* tracks. Instrumentation is passive — it
  // never schedules events, so the event sequence is unchanged.
  ObsContext* obs = nullptr;
  // Push data-leg ack timeout; retransmits back off by retry_backoff^attempt
  // up to max_push_retries. Only armed when `faults` is set.
  SimTime push_ack_timeout = SimTime::Millis(25);
  double retry_backoff = 2.0;
  int max_push_retries = 12;

  // Dynamic-network fabric (null disables; the legacy fixed-rate link path is
  // then byte-identical to a build without dynamics). When enabled, every
  // link gets a deterministic RateModel keyed on (seed, link name), worker
  // uplinks optionally get AIMD rate controllers fed by the push ack timers,
  // and cross-rack transfers under the two-tier topology are paced at
  // line_rate / oversubscription. All decisions run on the owning entity's
  // simulator, so sharded runs stay bit-identical at any shard count.
  const NetDynamicsConfig* dynamics = nullptr;

  // Sharded parallel-DES mode. When set, each worker's entities (uplink,
  // downlink, ack timers) live on coordinator shard (worker % shards) and
  // each PS shard's entities (ingress, egress, CPU, slot state) on shard
  // (ps_shard % shards); every hop between a worker and a PS shard crosses
  // via ShardCoordinator::Post with a fixed merge order, so results are
  // bit-identical at any shard count. Requires coord->lookahead() <=
  // min(control_latency, transport.latency) and a trace-free ObsContext
  // (metric counters are commutative sums; flow traces are not). The serial
  // path (coord == nullptr) is byte-for-byte the legacy event sequence.
  ShardCoordinator* coord = nullptr;
};

// Dense (tensor, index) -> T table, grown on first use. Tensor ids are small
// within a job, but co-scheduled jobs offset theirs by a large stride, so an
// id splits into a page (high bits) and a row within it; every level grows
// only as far as the ids actually touched. At() may grow the row of `tensor`
// and so invalidates references into that row.
template <typename T>
class TensorTable {
 public:
  T& At(int64_t tensor, int index) {
    const size_t page = static_cast<size_t>(tensor) >> kPageBits;
    const size_t row = static_cast<size_t>(tensor) & ((size_t{1} << kPageBits) - 1);
    if (page >= pages_.size()) pages_.resize(page + 1);
    std::vector<std::vector<T>>& rows = pages_[page];
    if (row >= rows.size()) rows.resize(row + 1);
    std::vector<T>& cols = rows[row];
    if (static_cast<size_t>(index) >= cols.size()) cols.resize(static_cast<size_t>(index) + 1);
    return cols[static_cast<size_t>(index)];
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& rows : pages_) {
      for (const auto& cols : rows) {
        for (const T& entry : cols) fn(entry);
      }
    }
  }

  void Clear() { pages_.clear(); }

 private:
  static constexpr int kPageBits = 12;
  std::vector<std::vector<std::vector<T>>> pages_;
};

class PsBackend : public CommBackend {
 public:
  using AggregationListener = InlineFn<void(int64_t tensor_id, int partition, int worker)>;

  // `sim` hosts every entity in serial mode; it must be null when
  // config.coord is set (entities then live on the coordinator's shards).
  PsBackend(Simulator* sim, const PsConfig& config);

  void Start(const SubCommTask& subtask, Callback on_finish) override;

  // Clears per-partition aggregation state; call between independent jobs.
  void ResetAggregationState();

  // Human-readable aggregation/pending state for diagnostics.
  std::string DebugString() const;

  // Synchronous mode: invoked once per worker whenever a (tensor, partition)
  // finishes aggregation (all workers' gradients arrived and the update ran).
  // Plugins use this server-side notification to make pull partitions ready —
  // a pull scheduled before its data exists would otherwise park inside the
  // stack while holding sender credit, which can deadlock credit-limited
  // schedulers across workers (each waiting for another's queued push).
  // Multiple listeners are supported (co-scheduled jobs sharing the backend).
  // The worker-indexed signature is what lets sharded mode deliver each
  // worker's notification on that worker's own shard; serial mode invokes
  // workers 0..N-1 synchronously at aggregation time, as before.
  void AddAggregationListener(AggregationListener fn) { listeners_.push_back(std::move(fn)); }

  const PsConfig& config() const { return config_; }

  // Load-balance introspection.
  Bytes shard_bytes_in(int shard) const;
  Bytes shard_bytes_out(int shard) const;
  // Max-over-mean shard egress load; 1.0 == perfectly balanced.
  double ShardLoadImbalance() const;

  Link& worker_uplink(int worker) { return *uplinks_[worker]; }
  Link& worker_downlink(int worker) { return *downlinks_[worker]; }

  // Retransmissions attempted for lost push data legs (0 without faults);
  // summed over workers, so the total is shard-count-invariant.
  uint64_t push_retransmits() const {
    uint64_t total = 0;
    for (uint64_t r : push_retransmits_) total += r;
    return total;
  }

  // AIMD rate-control activity (0 without dynamics); commutative sums over
  // workers/links, so totals are shard-count-invariant.
  uint64_t rate_ctrl_decreases() const {
    uint64_t total = 0;
    for (const auto& c : rate_ctrl_) total += c->decreases();
    return total;
  }
  uint64_t rate_ctrl_increases() const {
    uint64_t total = 0;
    for (const auto& c : rate_ctrl_) total += c->increases();
    return total;
  }
  // In-flight transfers re-paced by controller rate changes, over all links.
  uint64_t link_repaces() const;

  // Stale retransmitted push copies dropped at the shard because their round
  // was already counted (both the original and the retransmit arrived).
  // Summed over shards, so the total is shard-count-invariant.
  uint64_t stale_push_drops() const {
    uint64_t total = 0;
    for (uint64_t d : stale_push_drops_) total += d;
    return total;
  }

  // Exports end-of-run metrics (per-link busy time, per-shard bytes/CPU
  // time, retransmit count) into the obs registry. No-op without obs.
  void ExportMetrics();

 private:
  // One push data leg (first transmission or retransmit) on its way from a
  // worker to the partition's shard. Compact enough that a closure carrying
  // it plus `this` fits the inline callback buffer; the shard is
  // ShardFor(tensor, partition).
  struct PushMsg {
    int64_t tensor = 0;
    uint64_t round = 0;
    uint64_t flow = 0;
    Bytes bytes = 0;
    int32_t worker = 0;
    int32_t partition = 0;

    static PushMsg Of(const SubCommTask& subtask, uint64_t round) {
      return PushMsg{subtask.tensor_id, round,          subtask.flow,
                     subtask.bytes,     subtask.worker, subtask.partition};
    }
  };

  // A push waiting for its uplink flush, in the uplink's FIFO order.
  struct PushFlush {
    SubCommTask subtask;
    int shard = 0;
    uint64_t round = 0;
    SimTime submit;
    Callback on_finish;
  };

  // Sender-side state of one (worker, tensor, partition) push slot.
  struct PushLeg {
    // Last push task id and its round. A new task id is a new aggregation
    // round; a repeated id is a Core-level retry of the same push, which
    // re-enters HandlePush but must keep its original round so the shard can
    // recognise duplicate copies. The round rides the data leg and all its
    // retransmits and is checked against SlotState::accepted_round.
    CommTaskId task = kInvalidCommTask;
    uint64_t round = 0;
    // Ack timer of the latest armed data leg (faults enabled only).
    bool ack_armed = false;
    int attempt = 0;
    int layer = 0;
    PushMsg msg;
    EventHandle ack;
  };

  // A pull between admission and delivery; slots are per worker.
  struct PullLeg {
    SubCommTask subtask;
    Callback on_finish;
  };

  // A pull admitted before its slot aggregated; replayed on aggregation.
  struct PendingPull {
    int worker = 0;
    uint32_t leg = 0;
  };

  // Aggregation state for one (tensor, partition) slot on its shard.
  struct SlotState {
    // Workers whose gradient copy arrived this aggregation round; a bitmap
    // (not a bare count) so retransmitted duplicates cannot inflate the
    // round.
    std::vector<uint64_t> arrived;
    int arrived_count = 0;
    bool aggregated = false;
    // Highest push round accepted per worker. Every data leg carries its
    // sender-side round number; a copy at or below the accepted round is a
    // stale duplicate — its retransmit timer fired while the original was
    // merely slow (a long outage or a heavily derated volatile link), both
    // copies arrived, and counting the second would pollute the *next*
    // aggregation round for this slot.
    std::vector<uint64_t> accepted_round;
    // Pull deliveries admitted before aggregation completed.
    std::vector<PendingPull> pending_pulls;
  };

  bool Tracing() const;
  // "t<tensor>.p<partition><suffix>".
  TraceName PartTraceName(int64_t tensor, int partition, TraceId suffix) const;
  bool Sharded() const { return config_.coord != nullptr; }
  // Simulated clock of the entity (worker NIC stack / shard CPU) hosting the
  // current callback; in serial mode both are the single shared Simulator.
  Simulator* WorkerSim(int worker) const { return worker_sims_[worker]; }
  Simulator* ShardSim(int shard) const { return shard_sims_[shard]; }
  // Cross-shard channel ids: one ordered stream per (message kind, source
  // entity, destination entity). Stable across shard counts by construction.
  static uint64_t Chan(uint64_t kind, int a, int b) {
    return (kind << 32) | (static_cast<uint64_t>(a) << 16) | static_cast<uint64_t>(b);
  }
  void RecordUpdateSpan(int shard, int64_t tensor, int partition, uint64_t flow,
                        SimTime update_time);
  int ShardFor(int64_t tensor_id, int partition) const;
  // The slot of (tensor, partition) on its owning shard. A shard holds
  // every num_shards-th partition of a tensor (see ShardFor), so the column
  // is partition / num_shards.
  SlotState& Slot(int shard, int64_t tensor, int partition);
  void HandlePush(const SubCommTask& subtask, Callback on_finish);
  void HandlePull(const SubCommTask& subtask, Callback on_finish);
  void OnPushFlushed(int worker);
  void OnPushArrived(const PushMsg& msg);
  // Runs the update for an aggregated (or, async, arrived) slot on the
  // shard CPU, then releases pending pulls and (sync) notifies listeners.
  void OnUpdateDone(int shard, int64_t tensor, int partition, Bytes bytes, uint64_t flow,
                    SimTime update_time, bool notify);
  // `bytes` is the delivered payload size: the pull's own size on the direct
  // path, the aggregating push's size when replayed from pending_pulls.
  void DeliverPull(int shard, int worker, uint32_t leg, Bytes bytes);
  void FinishPull(int worker, uint32_t leg, Bytes bytes, SimTime submit);
  // Sends one data leg on the worker uplink; on_flushed is set for the
  // first transmission only (retransmits return no credit).
  void SendPushData(const PushMsg& msg, Callback on_flushed);
  void ArmPushAckTimer(int worker, int64_t tensor, int partition, int attempt);
  void OnPushAckTimeout(int worker, int64_t tensor, int partition);
  // Pacing multiplier for one worker<->shard transfer (1.0 without the
  // two-tier topology; 1/oversubscription across racks). Applied on the
  // sender-side link, where the per-message overhead is paid.
  double MsgScale(int worker, int shard) const;
  SimTime ScaledUpdateTime(int shard, Bytes bytes) const;
  // Runs `fn` on the destination entity `delay` after the caller's now.
  // Serial: schedule on sim_ (delay 0 runs inline, matching the link wrapper
  // in Link::SendWithFlush). Sharded: ShardCoordinator::Post on `channel`
  // from coordinator shard `src` to `dst`.
  void Forward(int src, int dst, uint64_t channel, SimTime delay, EventFn fn);

  Simulator* sim_;  // null in sharded mode
  PsConfig config_;
  // Entity-to-simulator mapping (all point at sim_ in serial mode).
  std::vector<Simulator*> worker_sims_;
  std::vector<Simulator*> shard_sims_;
  std::vector<int> worker_cshard_;  // coordinator shard index per worker
  std::vector<int> shard_cshard_;   // coordinator shard index per PS shard
  // Sender-side links pay the per-message overhead θ; receiver-side links
  // model serialization into the receiving NIC only.
  std::vector<std::unique_ptr<Link>> uplinks_;     // worker -> network
  std::vector<std::unique_ptr<Link>> downlinks_;   // network -> worker
  std::vector<std::unique_ptr<Link>> ingresses_;   // network -> shard
  std::vector<std::unique_ptr<Link>> egresses_;    // shard -> network
  std::vector<std::unique_ptr<Resource>> shard_cpus_;
  // Aggregation state, partitioned by owning PS shard (only that shard's
  // simulator touches its table, which is what makes sharded mode
  // race-free).
  std::vector<TensorTable<SlotState>> slots_;
  std::vector<AggregationListener> listeners_;
  // Push rounds and un-acked data legs, partitioned by worker, whose
  // simulator owns the timers.
  std::vector<TensorTable<PushLeg>> legs_;
  // Pushes awaiting their uplink flush, per worker, in send order.
  std::vector<RingQueue<PushFlush>> flushes_;
  // Pulls in flight, per worker; closures carry the slot index.
  std::vector<SlotPool<PullLeg>> pulls_;
  std::vector<uint64_t> push_retransmits_;  // per worker
  std::vector<uint64_t> stale_push_drops_;  // per shard
  // Per-worker AIMD controllers on the uplinks (empty unless dynamics with
  // aimd.enable); each runs on its worker's simulator.
  std::vector<std::unique_ptr<RateController>> rate_ctrl_;
  // Trace ids, resolved at construction when tracing.
  struct TraceIds {
    std::vector<TraceId> up;     // "net/worker<w>.up" per worker
    std::vector<TraceId> down;   // "net/worker<w>.down" per worker
    std::vector<TraceId> shard;  // "ps/shard<s>" per shard
    TraceId tensor_stem = 0;     // "t"
    TraceId part_sep = 0;        // ".p"
    TraceId push = 0, pull = 0, update = 0;                // span name suffixes
    TraceId flush = 0, arrive = 0, updated = 0, deliver = 0;  // flow point names
    TraceId bytes = 0, layer = 0, shard_key = 0;           // arg keys
  };
  TraceIds trace_ids_;
};

}  // namespace bsched

#endif  // SRC_COMM_PS_BACKEND_H_
