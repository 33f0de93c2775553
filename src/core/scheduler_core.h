// ByteScheduler Core: Algorithm 1 of the paper. Holds a priority queue of
// ready SubCommTasks and admits them into the communication backend under
// credit-based preemption. One Core instance runs per scheduling worker (each
// PS worker schedules independently; all-reduce uses a single master Core).
//
// The Core is framework- and communication-method-agnostic: it sees only
// CommTaskDescs from plugins and a CommBackend to start partitions on. It is
// also simulator-agnostic — purely callback-driven — so unit tests drive it
// with a mock backend. The optional recovery layer (SchedulerConfig::retry)
// is the one exception: arming per-subtask timeouts needs a clock, so a
// Simulator is injected when recovery is enabled. On timeout the charged
// credit is restored, the partition is requeued at its original priority,
// and the next attempt backs off exponentially; completions of timed-out
// attempts are recognized by generation and ignored, so a delayed (rather
// than lost) message can never double-finish a partition or leak credit.
//
// Hot-path layout: task state lives in a window indexed by the dense task id
// (ids are issued in order; finished tasks are reclaimed from the window's
// front), per-partition admission and recovery state sits in the task's
// partition vectors, and the ready queue is one FIFO of partition runs per
// priority rank. A run is a block of one task's partitions made ready
// together, with consecutive arrival sequence numbers, so readying a task
// costs one queue entry however many partitions it has, and the runs of a
// rank, kept in arrival order, yield SubTaskKey order without comparisons.
// The SubCommTask is built only at admit. The completion closures handed to
// the backend capture only (this, task, partition[, generation]), so they
// fit the inline callback buffer.
#ifndef SRC_CORE_SCHEDULER_CORE_H_
#define SRC_CORE_SCHEDULER_CORE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/ring_queue.h"
#include "src/common/trace.h"
#include "src/core/comm_task.h"
#include "src/sim/simulator.h"

namespace bsched {

class FaultInjector;
class ObsContext;
class Counter;
class Histogram;

class SchedulerCore {
 public:
  // `sim` is required only when config.retry is enabled; `faults` (optional)
  // receives recovery events for global fault statistics and trace output.
  // `obs` (optional) enables admit-time metrics and, when a Simulator is also
  // present, queue-wait spans and partition flow arcs on track sched/w<id>.
  SchedulerCore(SchedulerConfig config, CommBackend* backend, int worker_id = 0,
                Simulator* sim = nullptr, FaultInjector* faults = nullptr,
                ObsContext* obs = nullptr);
  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // Core.enqueue(CommTask): registers the task and partitions it into
  // SubCommTasks of at most `partition_bytes` (CommTask.partition()).
  // Partitions are NOT schedulable until notified ready.
  CommTaskId Enqueue(CommTaskDesc desc);

  // CommTask.notify_ready(): all partitions of the task become schedulable.
  void NotifyReady(CommTaskId id);

  // Partition-granularity readiness; used by the PS plugin to release pull
  // partitions as their push partitions are acked.
  void NotifyReadyPartition(CommTaskId id, int partition);

  int NumPartitions(CommTaskId id) const;

  // Human-readable scheduler state (queue head, credit, recovery counters)
  // for diagnostics.
  std::string DebugString() const;

  // Live scheduler state (used by tests and by auto-tuning instrumentation).
  Bytes credit() const { return credit_; }
  Bytes credit_cap() const { return config_.credit_bytes; }
  size_t queue_length() const { return queued_; }
  uint64_t subtasks_started() const { return subtasks_started_; }
  uint64_t tasks_finished() const { return tasks_finished_; }
  const SchedulerConfig& config() const { return config_; }
  int worker_id() const { return worker_id_; }

  // Recovery counters (all zero when retry is disabled or no fault fired).
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  uint64_t retries() const { return retries_; }
  uint64_t late_completions() const { return late_completions_; }
  uint64_t subtasks_abandoned() const { return subtasks_abandoned_; }
  size_t subtasks_in_flight() const { return inflight_; }

  // Exports end-of-run totals (sched.w<id>.subtasks_started, retries,
  // timeouts, ...) into the obs metrics registry. Call once after the run;
  // no-op without an obs context.
  void ExportMetrics() const;

 private:
  // Per-partition recovery state (allocated only when retry is enabled).
  struct Watch {
    uint64_t seq = 0;         // original arrival_seq, reused on requeue
    int attempts = 0;         // 0-based attempt index of the running attempt
    uint64_t generation = 0;  // stale-completion filter; 0 = not under watch
    EventHandle timeout;
  };

  // Per-partition state is kept in parallel vectors so that the common
  // case (no tracing, no recovery) costs 8 bytes per partition.
  struct TaskState {
    CommTaskDesc desc;
    // Partition size; every partition but the last is exactly this big.
    Bytes unit = 0;
    // Credit charged by each partition's running attempt, or kNotReady
    // until the partition is notified ready.
    std::vector<Bytes> charged;
    // Trace flow arc id assigned at admit (tracing only; 0 = untracked).
    std::vector<uint64_t> flows;
    // Timeout watch per partition (recovery only).
    std::vector<Watch> watches;
    // Interned desc.name (tracing only); 0 for an unnamed task, whose trace
    // names use "L<layer>".
    TraceId trace_stem = 0;
    int partitions_finished = 0;
    bool live = false;

    static constexpr Bytes kNotReady = -1;

    int num_parts() const { return static_cast<int>(charged.size()); }
    Bytes PartBytes(int partition) const {
      return partition + 1 < num_parts() ? unit
                                         : desc.tensor_bytes - unit * (num_parts() - 1);
    }
  };

  // Ready queue entry: partitions [next, end) of one task, made ready at the
  // same moment, whose arrival_seqs run consecutively from `seq`. Only
  // `next` can head the queue, so the attempt count and the credit stamp
  // describe it. A requeued retry is a run of one.
  struct QueuedRun {
    CommTaskId task = kInvalidCommTask;
    int next = 0;
    int end = 0;
    uint64_t seq = 0;  // arrival_seq of partition `next`
    // Attempts of `next` that already timed out (0 for first admissions).
    int attempts = 0;
    // When the run became schedulable (valid only with a Simulator); admit
    // time minus this is the queue-wait span.
    SimTime ready_at;
    // When `next`, at the head of the queue, first blocked on credit (valid
    // only with a Simulator when credit_waiting is set). Splits the wait
    // span into queue-wait (behind higher-priority work) and credit-wait
    // (Algorithm 1 line 16 starvation) — the boundary the critical-path
    // analyzer attributes separately.
    SimTime credit_wait_since;
    bool credit_waiting = false;
  };

  bool recovery_enabled() const { return config_.retry.enabled() && sim_ != nullptr; }
  SimTime AttemptTimeout(int attempts) const;

  // Live task `id`, or null once it finished (or was never issued).
  TaskState* FindTask(CommTaskId id);
  const TaskState* FindTask(CommTaskId id) const;
  TaskState& LiveTask(CommTaskId id);
  SubCommTask MakeSubTask(const TaskState& state, CommTaskId id, int partition) const;

  // Records admit-time metrics/trace/flow for `st`, the head partition of
  // `run`; mutates st.flow. `queue_depth_before` is the queue size at pop
  // time.
  void RecordAdmit(SubCommTask& st, const QueuedRun& run, const SubTaskKey& key, Bytes charged,
                   size_t queue_depth_before);

  SubTaskKey KeyOf(const TaskState& state, uint64_t seq) const;
  // Marks partitions [begin, end) ready and queues them as one run.
  void EnqueueRun(TaskState& state, CommTaskId id, int begin, int end);
  // Queues partitions [begin, end) of task `id`, whose arrival_seqs start at
  // `seq`, as one run.
  void PushRun(const TaskState& state, CommTaskId id, int begin, int end, uint64_t seq,
               int attempts);
  // Rank of the queue head; the queue must not be empty.
  size_t HeadRank() const;
  void TrySchedule();
  void StartAttempt(const SubCommTask& subtask, uint64_t seq, Bytes charged, int attempts);
  void OnAttemptFinish(CommTaskId task, int partition, uint64_t generation);
  void OnAttemptTimeout(CommTaskId task, int partition, uint64_t generation);
  void OnSubTaskFinish(CommTaskId task, int partition);

  SchedulerConfig config_;
  CommBackend* backend_;
  int worker_id_;
  Simulator* sim_;
  FaultInjector* faults_;
  ObsContext* obs_;
  // Trace ids, resolved at construction when tracing.
  struct TraceIds {
    TraceId track = 0;       // "sched/w<id>"
    TraceId layer_stem = 0;  // "L", the stem of unnamed tasks
    TraceId part_sep = 0;    // ".p"
    TraceId finish = 0;
    // Name suffixes ".<type>.wait", ".<type>.credit_wait", ".<type>.admit"
    // by CommOpType.
    std::array<TraceId, 3> wait{};
    std::array<TraceId, 3> credit_wait{};
    std::array<TraceId, 3> admit{};
    // Arg keys of the wait spans.
    TraceId layer = 0, partition = 0, bytes = 0, attempt = 0, charged = 0;
  };
  TraceIds trace_ids_;
  // Cached metric handles (null when metrics are off).
  Histogram* m_queue_depth_ = nullptr;
  Histogram* m_credit_in_use_ = nullptr;
  Histogram* m_partition_bytes_ = nullptr;
  Counter* m_preemptions_ = nullptr;
  // Priority of the previous admission, for the preemption counter.
  SubTaskKey last_admitted_key_;
  bool has_last_admitted_ = false;

  CommTaskId next_task_id_ = 0;
  uint64_t next_arrival_seq_ = 0;
  uint64_t next_generation_ = 0;
  Bytes credit_;
  // Tasks first_task_ .. next_task_id_-1, indexed by id - first_task_.
  // Finished tasks stay as non-live entries until the front is reclaimed in
  // Enqueue; a deque never moves elements, so a TaskState reference survives
  // re-entrant Enqueue calls from callbacks.
  std::deque<TaskState> tasks_;
  CommTaskId first_task_ = 0;
  size_t live_tasks_ = 0;
  // Ready partitions, as runs: one FIFO per priority rank (layer,
  // type_rank), kept sorted by arrival_seq, and the head is the next
  // partition of the front run of the lowest non-empty rank — SubTaskKey
  // order in O(1) per admit. New runs always append (arrival_seq only
  // grows); only a requeued retry, which keeps its original seq, inserts
  // mid-FIFO. The runs of a rank cover disjoint seq ranges and a retried
  // partition has already left its run, so a retry never splits one.
  std::vector<RingQueue<QueuedRun>> ranks_;
  std::vector<uint64_t> nonempty_ranks_;  // bitmap over ranks_
  size_t queued_ = 0;                     // ready partitions, over all runs
  // Admitted subtasks under timeout watch (recovery only).
  size_t inflight_ = 0;
  bool scheduling_ = false;

  uint64_t subtasks_started_ = 0;
  uint64_t tasks_finished_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t retries_ = 0;
  uint64_t late_completions_ = 0;
  uint64_t subtasks_abandoned_ = 0;
};

}  // namespace bsched

#endif  // SRC_CORE_SCHEDULER_CORE_H_
