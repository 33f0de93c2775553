#include "src/core/scheduler_core.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/check.h"
#include "src/fault/fault_injector.h"
#include "src/obs/obs.h"

namespace bsched {

SchedulerCore::SchedulerCore(SchedulerConfig config, CommBackend* backend, int worker_id,
                             Simulator* sim, FaultInjector* faults, ObsContext* obs)
    : config_(std::move(config)),
      backend_(backend),
      worker_id_(worker_id),
      sim_(sim),
      faults_(faults),
      obs_(obs),
      credit_(config_.credit_bytes) {
  BSCHED_CHECK(backend_ != nullptr);
  BSCHED_CHECK(config_.credit_bytes > 0);
  if (config_.retry.enabled()) {
    BSCHED_CHECK(sim_ != nullptr && "retry recovery needs a Simulator for timeout timers");
    BSCHED_CHECK(config_.retry.backoff >= 1.0);
    BSCHED_CHECK(config_.retry.max_retries >= 0);
  }
  if (obs_ != nullptr) {
    if (TraceRecorder* trace = obs_->trace(); trace != nullptr) {
      TraceIds& ids = trace_ids_;
      ids.track = trace->Intern("sched/w" + std::to_string(worker_id_));
      ids.layer_stem = trace->Intern("L");
      ids.part_sep = trace->Intern(".p");
      ids.finish = trace->Intern("finish");
      for (const CommOpType type :
           {CommOpType::kPush, CommOpType::kPull, CommOpType::kAllReduce}) {
        const std::string suffix = std::string(".") + ToString(type);
        const auto t = static_cast<size_t>(type);
        ids.wait[t] = trace->Intern(suffix + ".wait");
        ids.credit_wait[t] = trace->Intern(suffix + ".credit_wait");
        ids.admit[t] = trace->Intern(suffix + ".admit");
      }
      ids.layer = trace->Intern("layer");
      ids.partition = trace->Intern("partition");
      ids.bytes = trace->Intern("bytes");
      ids.attempt = trace->Intern("attempt");
      ids.charged = trace->Intern("charged");
    }
    if (obs_->metrics() != nullptr) {
      const std::string prefix = "sched.w" + std::to_string(worker_id_);
      m_queue_depth_ = obs_->metrics()->histogram(prefix + ".queue_depth");
      m_credit_in_use_ = obs_->metrics()->histogram(prefix + ".credit_in_use");
      m_partition_bytes_ = obs_->metrics()->histogram(prefix + ".partition_bytes");
      m_preemptions_ = obs_->metrics()->counter(prefix + ".preemptions");
    }
  }
}

CommTaskId SchedulerCore::Enqueue(CommTaskDesc desc) {
  BSCHED_CHECK(desc.tensor_bytes > 0);
  // Reclaim finished tasks at the window's front; their slots' partition
  // vectors are dropped with them.
  while (!tasks_.empty() && !tasks_.front().live) {
    tasks_.pop_front();
    ++first_task_;
  }
  const CommTaskId id = next_task_id_++;
  TaskState& state = tasks_.emplace_back();
  BSCHED_DCHECK(id - first_task_ == static_cast<CommTaskId>(tasks_.size()) - 1);
  state.live = true;
  ++live_tasks_;

  // CommTask.partition(size): split into SubCommTasks no larger than the
  // configured partition size (zero-copy in real frameworks; here we only
  // track sizes).
  const Bytes unit = desc.partition_bytes_override > 0 ? desc.partition_bytes_override
                                                       : config_.partition_bytes;
  const bool split = unit > 0 && unit < desc.tensor_bytes;
  state.unit = split ? unit : desc.tensor_bytes;
  const size_t parts = static_cast<size_t>((desc.tensor_bytes + state.unit - 1) / state.unit);
  state.charged.assign(parts, TaskState::kNotReady);
  if (obs_ != nullptr && obs_->tracing()) {
    state.flows.resize(parts);
    state.trace_stem = obs_->trace()->Intern(desc.name);
  }
  if (recovery_enabled()) {
    state.watches.resize(parts);
  }
  state.desc = std::move(desc);
  return id;
}

SchedulerCore::TaskState* SchedulerCore::FindTask(CommTaskId id) {
  if (id < first_task_ || id >= next_task_id_) {
    return nullptr;
  }
  TaskState& state = tasks_[static_cast<size_t>(id - first_task_)];
  return state.live ? &state : nullptr;
}

const SchedulerCore::TaskState* SchedulerCore::FindTask(CommTaskId id) const {
  return const_cast<SchedulerCore*>(this)->FindTask(id);
}

SchedulerCore::TaskState& SchedulerCore::LiveTask(CommTaskId id) {
  TaskState* state = FindTask(id);
  BSCHED_CHECK(state != nullptr);
  return *state;
}

void SchedulerCore::NotifyReady(CommTaskId id) {
  TaskState& state = LiveTask(id);
  // One run per maximal block of partitions not yet ready: usually the whole
  // task, or what is left once some partitions were readied one by one.
  for (int p = 0; p < state.num_parts();) {
    if (state.charged[p] != TaskState::kNotReady) {
      ++p;
      continue;
    }
    int end = p + 1;
    while (end < state.num_parts() && state.charged[end] == TaskState::kNotReady) {
      ++end;
    }
    EnqueueRun(state, id, p, end);
    p = end;
  }
  TrySchedule();
}

void SchedulerCore::NotifyReadyPartition(CommTaskId id, int partition) {
  TaskState& state = LiveTask(id);
  BSCHED_CHECK(partition >= 0);
  BSCHED_CHECK(partition < state.num_parts());
  if (state.charged[partition] == TaskState::kNotReady) {
    EnqueueRun(state, id, partition, partition + 1);
  }
  TrySchedule();
}

int SchedulerCore::NumPartitions(CommTaskId id) const {
  const TaskState* state = FindTask(id);
  BSCHED_CHECK(state != nullptr);
  return state->num_parts();
}

SubTaskKey SchedulerCore::KeyOf(const TaskState& state, uint64_t seq) const {
  SubTaskKey key;
  key.arrival_seq = seq;
  if (config_.policy == SchedulerConfig::Policy::kPriority) {
    key.layer = state.desc.layer;
    // Pulls ahead of pushes at the same layer: a finished pull directly
    // unblocks next-iteration forward compute.
    key.type_rank = (state.desc.type == CommOpType::kPush) ? 1 : 0;
  }
  // For kFifo the key is pure arrival order (layer and type_rank stay 0).
  return key;
}

namespace {

// Position of a key's (layer, type_rank) in the rank order; layer-major, so
// comparing ranks then arrival_seq is exactly SubTaskKey's order.
size_t RankOf(const SubTaskKey& key) {
  BSCHED_DCHECK(key.layer >= 0 && (key.type_rank == 0 || key.type_rank == 1));
  return 2 * static_cast<size_t>(key.layer) + static_cast<size_t>(key.type_rank);
}

}  // namespace

void SchedulerCore::PushRun(const TaskState& state, CommTaskId id, int begin, int end,
                            uint64_t seq, int attempts) {
  const SubTaskKey key = KeyOf(state, seq);
  BSCHED_CHECK(key.layer >= 0);
  const size_t rank = RankOf(key);
  if (rank >= ranks_.size()) {
    ranks_.resize(rank + 1);
    nonempty_ranks_.resize(rank / 64 + 1, 0);
  }
  RingQueue<QueuedRun>& fifo = ranks_[rank];
  size_t pos = fifo.size();
  while (pos > 0 && fifo[pos - 1].seq > seq) {
    --pos;  // a requeued retry: slot it back in arrival order
  }
  fifo.Insert(pos, {.task = id, .next = begin, .end = end, .seq = seq, .attempts = attempts,
                    .ready_at = sim_ != nullptr ? sim_->Now() : SimTime(),
                    .credit_wait_since = SimTime(), .credit_waiting = false});
  queued_ += static_cast<size_t>(end - begin);
  nonempty_ranks_[rank / 64] |= uint64_t{1} << (rank % 64);
}

size_t SchedulerCore::HeadRank() const {
  size_t word = 0;
  while (nonempty_ranks_[word] == 0) {
    ++word;
  }
  return 64 * word + static_cast<size_t>(std::countr_zero(nonempty_ranks_[word]));
}

SubCommTask SchedulerCore::MakeSubTask(const TaskState& state, CommTaskId id,
                                       int partition) const {
  SubCommTask subtask;
  subtask.task = id;
  subtask.worker = state.desc.worker;
  subtask.layer = state.desc.layer;
  subtask.tensor_id = state.desc.tensor_id >= 0 ? state.desc.tensor_id : state.desc.layer;
  subtask.partition = partition;
  subtask.bytes = state.PartBytes(partition);
  subtask.type = state.desc.type;
  subtask.flow = state.flows.empty() ? 0 : state.flows[partition];
  return subtask;
}

void SchedulerCore::EnqueueRun(TaskState& state, CommTaskId id, int begin, int end) {
  std::fill(state.charged.begin() + begin, state.charged.begin() + end, Bytes{0});
  PushRun(state, id, begin, end, next_arrival_seq_, /*attempts=*/0);
  next_arrival_seq_ += static_cast<uint64_t>(end - begin);
}

void SchedulerCore::TrySchedule() {
  if (scheduling_) {
    // Re-entrant call (a finish callback released new work while we were
    // already draining the queue); the outer loop will pick it up.
    return;
  }
  scheduling_ = true;
  while (queued_ > 0) {
    const size_t rank = HeadRank();
    QueuedRun& head = ranks_[rank].front();
    const TaskState& state = LiveTask(head.task);
    const Bytes bytes = state.PartBytes(head.next);
    // Credits model the *sender's* buffer (§4.2): pushes and all-reduce
    // operations fill it; pull responses are sent by the server and consume
    // the server-side egress queue instead, so they admit freely.
    const bool charges_credit = state.desc.type != CommOpType::kPull;
    // Algorithm 1 line 16: wait unless the credit covers the head subtask.
    // A subtask larger than the whole credit pool is admitted only when the
    // pool is full, otherwise it could never start.
    const bool can_start =
        !charges_credit || credit_ >= bytes || credit_ == config_.credit_bytes;
    if (!can_start) {
      // Stamp the moment the head first starved on credit; RecordAdmit
      // splits the wait span there. No event is scheduled, so the
      // simulation trajectory is unchanged whether or not anyone traces.
      if (!head.credit_waiting && sim_ != nullptr) {
        head.credit_waiting = true;
        head.credit_wait_since = sim_->Now();
      }
      break;
    }
    // Take the partition off its run before StartAttempt: the backend may
    // complete inline and re-enter the Core, and a new run can grow ranks_
    // or a FIFO, so no reference into them may survive the call.
    const QueuedRun run = head;
    if (++head.next == head.end) {
      ranks_[rank].pop_front();
      if (ranks_[rank].empty()) {
        nonempty_ranks_[rank / 64] &= ~(uint64_t{1} << (rank % 64));
      }
    } else {
      ++head.seq;
      head.credit_waiting = false;
    }
    const size_t depth_before = queued_--;
    const Bytes charged = charges_credit ? std::min(bytes, credit_) : 0;
    credit_ -= charged;
    BSCHED_DCHECK(credit_ >= 0);
    ++subtasks_started_;
    SubCommTask subtask = MakeSubTask(state, run.task, run.next);
    if (obs_ != nullptr) {
      RecordAdmit(subtask, run, KeyOf(state, run.seq), charged, depth_before);
    }
    StartAttempt(subtask, run.seq, charged, run.attempts);
  }
  scheduling_ = false;
}

void SchedulerCore::RecordAdmit(SubCommTask& st, const QueuedRun& run, const SubTaskKey& key,
                                Bytes charged, size_t queue_depth_before) {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Observe(static_cast<int64_t>(queue_depth_before));
    m_credit_in_use_->Observe(config_.credit_bytes == SchedulerConfig::kUnlimited
                                  ? 0
                                  : config_.credit_bytes - credit_);
    m_partition_bytes_->Observe(st.bytes);
    // A preemption in the paper's sense: this admission outranks the one
    // before it, i.e. a higher-priority partition jumped the FIFO order a
    // vanilla scheduler would have used.
    if (has_last_admitted_ && key < last_admitted_key_) {
      m_preemptions_->Inc();
    }
  }
  last_admitted_key_ = key;
  has_last_admitted_ = true;

  // Trace spans/flows need a clock; metrics above work without one.
  if (!obs_->tracing() || sim_ == nullptr) {
    return;
  }
  // Assign (or continue) the partition's flow arc. Pushes and all-reduce
  // operations open the arc; a pull continues the arc its push opened, or
  // opens its own when no push of its partition was traced (no TrainingJob
  // path does that today; core_test covers it).
  FlowPhase phase = FlowPhase::kStep;
  if (st.flow == 0) {
    if (st.type == CommOpType::kPull) {
      st.flow = obs_->LookupPartitionFlow(st.worker, st.tensor_id, st.partition);
      if (st.flow == 0) {
        st.flow = obs_->BeginPartitionFlow(st.worker, st.tensor_id, st.partition);
        phase = FlowPhase::kStart;
      }
    } else {
      st.flow = obs_->BeginPartitionFlow(st.worker, st.tensor_id, st.partition);
      phase = FlowPhase::kStart;
    }
  }

  // Name "<tensor>.p<k>.<type>.<what>", where an unnamed task's tensor is
  // "L<layer>".
  const TraceIds& ids = trace_ids_;
  const TaskState* task = FindTask(st.task);
  TraceName name{.stem = ids.layer_stem, .sep = ids.part_sep, .a = st.layer, .b = st.partition};
  if (task != nullptr && task->trace_stem != 0) {
    name.stem = task->trace_stem;
    name.a = TraceName::kNone;
  }
  const auto type = static_cast<size_t>(st.type);
  const SimTime now = sim_->Now();
  TraceRecorder* trace = obs_->trace();
  // Wait decomposition: queue-wait (ready → first credit starvation at the
  // head, or admit when credit never blocked) and credit-wait (starvation →
  // admit). The critical-path analyzer attributes the two separately.
  const SimTime wait_end =
      run.credit_waiting ? std::max(run.ready_at, run.credit_wait_since) : now;
  const auto wait_span = [&](TraceId suffix, SimTime start, SimTime end) {
    name.suffix = suffix;
    trace->AddSpan(ids.track, name, start, end,
                   {{ids.layer, st.layer},
                    {ids.partition, st.partition},
                    {ids.bytes, st.bytes},
                    {ids.attempt, run.attempts},
                    {ids.charged, charged}});
  };
  if (wait_end > run.ready_at) {
    wait_span(ids.wait[type], run.ready_at, wait_end);
  }
  if (run.credit_waiting && now > run.credit_wait_since) {
    wait_span(ids.credit_wait[type], run.credit_wait_since, now);
  }
  name.suffix = ids.admit[type];
  trace->AddFlow(ids.track, name, now, st.flow, phase);
}

SimTime SchedulerCore::AttemptTimeout(int attempts) const {
  double scale = 1.0;
  for (int i = 0; i < attempts; ++i) {
    scale *= config_.retry.backoff;
  }
  return SimTime(static_cast<int64_t>(static_cast<double>(config_.retry.timeout.nanos()) * scale));
}

void SchedulerCore::StartAttempt(const SubCommTask& subtask, uint64_t seq, Bytes charged,
                                 int attempts) {
  const CommTaskId task = subtask.task;
  const int partition = subtask.partition;
  TaskState& state = LiveTask(task);
  state.charged[partition] = charged;
  if (!state.flows.empty()) {
    state.flows[partition] = subtask.flow;
  }
  if (!recovery_enabled()) {
    backend_->Start(subtask,
                    CommBackend::Callback([this, task, partition] { OnSubTaskFinish(task, partition); }));
    return;
  }
  Watch& watch = state.watches[partition];
  const uint64_t generation = ++next_generation_;
  watch.seq = seq;
  watch.attempts = attempts;
  watch.generation = generation;
  ++inflight_;
  watch.timeout = sim_->Schedule(AttemptTimeout(attempts), [this, task, partition, generation] {
    OnAttemptTimeout(task, partition, generation);
  });
  backend_->Start(subtask, CommBackend::Callback([this, task, partition, generation] {
                    OnAttemptFinish(task, partition, generation);
                  }));
}

void SchedulerCore::OnAttemptFinish(CommTaskId task, int partition, uint64_t generation) {
  TaskState* state = FindTask(task);
  if (state == nullptr || state->watches[partition].generation != generation) {
    // A delayed copy of an attempt that already timed out (and was retried)
    // or of a partition that already finished: the message was late, not
    // lost. Counting it would double-finish the partition and leak credit.
    ++late_completions_;
    if (faults_ != nullptr) {
      faults_->RecordLateCompletion();
    }
    return;
  }
  Watch& watch = state->watches[partition];
  watch.generation = 0;
  --inflight_;
  watch.timeout.Cancel();
  OnSubTaskFinish(task, partition);
}

void SchedulerCore::OnAttemptTimeout(CommTaskId task, int partition, uint64_t generation) {
  TaskState* state = FindTask(task);
  if (state == nullptr || state->watches[partition].generation != generation) {
    return;  // stale timer (attempt completed; Cancel raced the pop)
  }
  const Bytes charged = state->charged[partition];
  Watch& watch = state->watches[partition];
  watch.generation = 0;
  --inflight_;
  ++timeouts_fired_;
  // Credit restoration: the lost attempt's bytes are no longer in flight.
  credit_ += charged;
  BSCHED_DCHECK(credit_ <= config_.credit_bytes);
  const SubCommTask subtask = MakeSubTask(*state, task, partition);
  if (faults_ != nullptr) {
    faults_->RecordCoreTimeout(subtask.worker, subtask.layer, partition, watch.attempts + 1,
                               charged);
  }
  if (watch.attempts >= config_.retry.max_retries) {
    ++subtasks_abandoned_;
    if (faults_ != nullptr) {
      faults_->RecordAbandon();
    }
    if (config_.retry.on_abandon) {
      config_.retry.on_abandon(subtask);
      TrySchedule();  // the freed credit may admit queued work
      return;
    }
    BSCHED_CHECK(false && "subtask exhausted its retry budget; no on_abandon handler");
  }
  ++retries_;
  if (faults_ != nullptr) {
    faults_->RecordCoreRetry();
  }
  // Requeue at the ORIGINAL priority key: the retry competes exactly where
  // the partition always belonged, not behind newer arrivals.
  PushRun(*state, task, partition, partition + 1, watch.seq, watch.attempts + 1);
  TrySchedule();
}

void SchedulerCore::OnSubTaskFinish(CommTaskId task, int partition) {
  TaskState& state = LiveTask(task);
  credit_ += state.charged[partition];
  BSCHED_DCHECK(credit_ <= config_.credit_bytes);
  if (obs_ != nullptr && obs_->tracing() && sim_ != nullptr && !state.flows.empty() &&
      state.flows[partition] != 0 && state.desc.type != CommOpType::kPush) {
    // The pull (or ring op) completing ends the partition's arc; a push's
    // arc stays open for its pull to continue.
    const SubCommTask subtask = MakeSubTask(state, task, partition);
    obs_->trace()->AddFlow(trace_ids_.track, {.stem = trace_ids_.finish}, sim_->Now(),
                           subtask.flow, FlowPhase::kEnd);
    obs_->EndPartitionFlow(subtask.worker, subtask.tensor_id, partition);
  }
  ++state.partitions_finished;
  if (state.partitions_finished < state.num_parts()) {
    // The task stays live (this was not its last partition), so the callback
    // runs in place: a deque element never moves and is reclaimed only once
    // finished.
    if (state.desc.on_partition_finish) {
      state.desc.on_partition_finish(partition);
    }
    TrySchedule();
    return;
  }
  // Move the callbacks out before retiring the task: both may re-enter the
  // Core (enqueue/ready new tasks), which reclaims retired entries.
  ++tasks_finished_;
  auto on_partition_finish = std::move(state.desc.on_partition_finish);
  auto on_finish = std::move(state.desc.on_finish);
  state.live = false;
  --live_tasks_;
  if (on_partition_finish) {
    on_partition_finish(partition);
  }
  if (on_finish) {
    on_finish();
  }
  TrySchedule();
}

void SchedulerCore::ExportMetrics() const {
  if (obs_ == nullptr || obs_->metrics() == nullptr) {
    return;
  }
  MetricsRegistry* m = obs_->metrics();
  const std::string prefix = "sched.w" + std::to_string(worker_id_);
  m->counter(prefix + ".subtasks_started")->Inc(subtasks_started_);
  m->counter(prefix + ".tasks_finished")->Inc(tasks_finished_);
  m->counter(prefix + ".timeouts")->Inc(timeouts_fired_);
  m->counter(prefix + ".retries")->Inc(retries_);
  m->counter(prefix + ".late_completions")->Inc(late_completions_);
  m->counter(prefix + ".abandoned")->Inc(subtasks_abandoned_);
  m->gauge(prefix + ".credit_final")->Set(credit_);
  m->gauge(prefix + ".queue_len_final")->Set(static_cast<int64_t>(queued_));
}

std::string SchedulerCore::DebugString() const {
  std::string out = "core[" + std::to_string(worker_id_) + "] credit=" + std::to_string(credit_) +
                    "/" + std::to_string(config_.credit_bytes) +
                    " queued=" + std::to_string(queued_) +
                    " unfinished_tasks=" + std::to_string(live_tasks_);
  if (queued_ > 0) {
    const QueuedRun& run = ranks_[HeadRank()].front();
    const TaskState& head = *FindTask(run.task);
    out += " head=(layer=" + std::to_string(head.desc.layer) + " " + ToString(head.desc.type) +
           " part=" + std::to_string(run.next) +
           " bytes=" + std::to_string(head.PartBytes(run.next)) + ")";
  }
  if (recovery_enabled()) {
    out += " retry(timeouts=" + std::to_string(timeouts_fired_) +
           " retries=" + std::to_string(retries_) +
           " late=" + std::to_string(late_completions_) +
           " abandoned=" + std::to_string(subtasks_abandoned_) +
           " inflight=" + std::to_string(inflight_) + ")";
  }
  return out;
}

}  // namespace bsched
