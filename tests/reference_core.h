// A deliberately plain ByteScheduler Core used as the oracle for
// SchedulerCore's ready queue. Every ready partition is one entry in a
// std::set ordered by SubTaskKey, and admission is Algorithm 1 run on the
// set's minimum: stop while the head's credit is short (a subtask larger
// than the whole pool waits for a full pool), else charge it and start it.
// It keeps SchedulerCore's observable contract — arrival_seq drawn in
// partition order when a task becomes ready, pulls admitted without credit,
// re-entrant calls from finish callbacks deferred to the running admission
// loop, and recovery: a timed-out attempt restores its credit and requeues
// at its original key with one more attempt, a completion of a stale attempt
// counts as late and is ignored, and an exhausted budget calls on_abandon.
// No tracing, metrics or task-window reclamation.
#ifndef TESTS_REFERENCE_CORE_H_
#define TESTS_REFERENCE_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/check.h"
#include "src/core/comm_task.h"
#include "src/sim/simulator.h"

namespace bsched {

class ReferenceCore {
 public:
  ReferenceCore(SchedulerConfig config, CommBackend* backend, Simulator* sim = nullptr)
      : config_(std::move(config)), backend_(backend), sim_(sim), credit_(config_.credit_bytes) {}

  CommTaskId Enqueue(CommTaskDesc desc) {
    const CommTaskId id = next_task_id_++;
    Task& task = tasks_[id];
    const Bytes unit = desc.partition_bytes_override > 0 ? desc.partition_bytes_override
                                                         : config_.partition_bytes;
    for (Bytes left = desc.tensor_bytes; left > 0;) {
      const Bytes size = unit > 0 ? std::min(unit, left) : left;
      task.sizes.push_back(size);
      left -= size;
    }
    task.parts.resize(task.sizes.size());
    task.desc = std::move(desc);
    return id;
  }

  void NotifyReady(CommTaskId id) {
    Task& task = Live(id);
    for (int p = 0; p < static_cast<int>(task.parts.size()); ++p) {
      MakeReady(id, task, p);
    }
    TrySchedule();
  }

  void NotifyReadyPartition(CommTaskId id, int partition) {
    Task& task = Live(id);
    MakeReady(id, task, partition);
    TrySchedule();
  }

  int NumPartitions(CommTaskId id) const {
    return static_cast<int>(tasks_.at(id).parts.size());
  }
  Bytes credit() const { return credit_; }
  size_t queue_length() const { return queue_.size(); }
  uint64_t subtasks_started() const { return subtasks_started_; }
  uint64_t tasks_finished() const { return tasks_finished_; }
  uint64_t timeouts_fired() const { return timeouts_fired_; }
  uint64_t retries() const { return retries_; }
  uint64_t late_completions() const { return late_completions_; }
  uint64_t subtasks_abandoned() const { return subtasks_abandoned_; }

 private:
  struct Part {
    bool ready = false;
    Bytes charged = 0;
    SubTaskKey key;
    int attempts = 0;
    uint64_t generation = 0;  // 0 = no attempt under watch
    EventHandle timeout;
  };
  struct Task {
    CommTaskDesc desc;
    std::vector<Bytes> sizes;
    std::vector<Part> parts;
    int finished = 0;
    bool done = false;
  };
  struct Entry {
    SubTaskKey key;
    CommTaskId task = kInvalidCommTask;
    int partition = 0;
    int attempts = 0;
    bool operator<(const Entry& other) const { return key < other.key; }
  };

  bool recovery() const { return config_.retry.enabled() && sim_ != nullptr; }

  Task& Live(CommTaskId id) {
    auto it = tasks_.find(id);
    BSCHED_CHECK(it != tasks_.end() && !it->second.done);
    return it->second;
  }

  void MakeReady(CommTaskId id, Task& task, int partition) {
    BSCHED_CHECK(partition >= 0 && partition < static_cast<int>(task.parts.size()));
    Part& part = task.parts[partition];
    if (part.ready) {
      return;
    }
    part.ready = true;
    SubTaskKey key;
    key.arrival_seq = next_seq_++;
    if (config_.policy == SchedulerConfig::Policy::kPriority) {
      key.layer = task.desc.layer;
      key.type_rank = task.desc.type == CommOpType::kPush ? 1 : 0;
    }
    queue_.insert({key, id, partition, 0});
  }

  SubCommTask SubTaskOf(CommTaskId id, const Task& task, int partition) const {
    SubCommTask st;
    st.task = id;
    st.worker = task.desc.worker;
    st.layer = task.desc.layer;
    st.tensor_id = task.desc.tensor_id >= 0 ? task.desc.tensor_id : task.desc.layer;
    st.partition = partition;
    st.bytes = task.sizes[partition];
    st.type = task.desc.type;
    return st;
  }

  void TrySchedule() {
    if (scheduling_) {
      return;
    }
    scheduling_ = true;
    while (!queue_.empty()) {
      const Entry head = *queue_.begin();
      Task& task = tasks_.at(head.task);
      const Bytes bytes = task.sizes[head.partition];
      const bool charges = task.desc.type != CommOpType::kPull;
      if (charges && credit_ < bytes && credit_ != config_.credit_bytes) {
        break;
      }
      queue_.erase(queue_.begin());
      const Bytes charged = charges ? std::min(bytes, credit_) : 0;
      credit_ -= charged;
      ++subtasks_started_;
      Part& part = task.parts[head.partition];
      part.charged = charged;
      const CommTaskId id = head.task;
      const int partition = head.partition;
      if (!recovery()) {
        backend_->Start(SubTaskOf(id, task, partition),
                        CommBackend::Callback([this, id, partition] { Finish(id, partition); }));
        continue;
      }
      const uint64_t generation = ++next_generation_;
      part.key = head.key;
      part.attempts = head.attempts;
      part.generation = generation;
      double scale = 1.0;
      for (int i = 0; i < head.attempts; ++i) {
        scale *= config_.retry.backoff;
      }
      const SimTime timeout(
          static_cast<int64_t>(static_cast<double>(config_.retry.timeout.nanos()) * scale));
      part.timeout = sim_->Schedule(timeout, [this, id, partition, generation] {
        Timeout(id, partition, generation);
      });
      backend_->Start(SubTaskOf(id, task, partition),
                      CommBackend::Callback([this, id, partition, generation] {
                        Task& t = tasks_.at(id);
                        Part& p = t.parts[partition];
                        if (t.done || p.generation != generation) {
                          ++late_completions_;
                          return;
                        }
                        p.generation = 0;
                        p.timeout.Cancel();
                        Finish(id, partition);
                      }));
    }
    scheduling_ = false;
  }

  void Timeout(CommTaskId id, int partition, uint64_t generation) {
    Task& task = tasks_.at(id);
    Part& part = task.parts[partition];
    if (task.done || part.generation != generation) {
      return;
    }
    part.generation = 0;
    ++timeouts_fired_;
    credit_ += part.charged;
    if (part.attempts >= config_.retry.max_retries) {
      ++subtasks_abandoned_;
      BSCHED_CHECK(config_.retry.on_abandon);
      config_.retry.on_abandon(SubTaskOf(id, task, partition));
      TrySchedule();
      return;
    }
    ++retries_;
    queue_.insert({part.key, id, partition, part.attempts + 1});
    TrySchedule();
  }

  void Finish(CommTaskId id, int partition) {
    Task& task = tasks_.at(id);
    credit_ += task.parts[partition].charged;
    if (++task.finished < static_cast<int>(task.parts.size())) {
      if (task.desc.on_partition_finish) {
        task.desc.on_partition_finish(partition);
      }
      TrySchedule();
      return;
    }
    ++tasks_finished_;
    task.done = true;
    auto on_partition_finish = std::move(task.desc.on_partition_finish);
    auto on_finish = std::move(task.desc.on_finish);
    if (on_partition_finish) {
      on_partition_finish(partition);
    }
    if (on_finish) {
      on_finish();
    }
    TrySchedule();
  }

  SchedulerConfig config_;
  CommBackend* backend_;
  Simulator* sim_;
  Bytes credit_;
  // std::map never moves its nodes, so a Task reference survives re-entrant
  // Enqueue calls from callbacks.
  std::map<CommTaskId, Task> tasks_;
  std::set<Entry> queue_;
  CommTaskId next_task_id_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_generation_ = 0;
  bool scheduling_ = false;
  uint64_t subtasks_started_ = 0;
  uint64_t tasks_finished_ = 0;
  uint64_t timeouts_fired_ = 0;
  uint64_t retries_ = 0;
  uint64_t late_completions_ = 0;
  uint64_t subtasks_abandoned_ = 0;
};

}  // namespace bsched

#endif  // TESTS_REFERENCE_CORE_H_
