// A serialized FIFO resource: GPU compute streams, PS shard CPUs and the
// all-reduce ring (network links keep the same FIFO discipline in their own
// message queue, see src/net/link.h). Jobs submitted to a
// Resource execute one at a time, in submission order, each occupying the
// resource for its stated duration. This mirrors the paper's observation that
// the underlying communication stacks are "inherently based on FIFO queues":
// schedulers control *admission order*, never preempt an in-flight job.
//
// Each job's completion callback waits in the Resource's own FIFO — the
// running job stays at its front until it completes — so the completion
// event captures only `this` and fits the simulator's inline event slot, and
// steady-state Submit/complete traffic allocates nothing.
#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>
#include <string>

#include "src/common/inline_fn.h"
#include "src/common/ring_queue.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace bsched {

class Resource {
 public:
  using Callback = InlineFn<void()>;

  Resource(Simulator* sim, std::string name);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Enqueues a job that holds the resource for `duration`, then invokes
  // `on_done` (may be empty). Starts immediately if the resource is idle.
  void Submit(SimTime duration, Callback on_done);

  bool busy() const { return busy_; }
  // Jobs waiting behind the running one.
  size_t queue_length() const { return queue_.size() - (busy_ ? 1 : 0); }
  const std::string& name() const { return name_; }

  // Total time the resource has been occupied (for utilization reporting).
  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs_completed() const { return jobs_completed_; }

  // Virtual time at which all currently queued work will have drained,
  // assuming no further submissions.
  SimTime DrainTime() const;

 private:
  struct Job {
    SimTime duration;
    Callback on_done;
  };

  void StartNext();
  void OnJobDone();

  Simulator* sim_;
  std::string name_;
  bool busy_ = false;
  SimTime current_job_end_;
  // Submitted, not yet completed jobs; while busy_, front() is running.
  RingQueue<Job> queue_;
  SimTime busy_time_;
  uint64_t jobs_completed_ = 0;
};

}  // namespace bsched

#endif  // SRC_SIM_RESOURCE_H_
