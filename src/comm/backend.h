// Communication-backend interface. The Core is communication-method-agnostic:
// SubCommTask.start() hands a partition to a backend (PS push/pull or ring
// all-reduce), and the backend invokes the completion callback when the
// underlying operation finishes for that worker. Backends serialize admitted
// work in FIFO order — the Core controls only admission order and in-flight
// bytes, exactly as in the paper.
#ifndef SRC_COMM_BACKEND_H_
#define SRC_COMM_BACKEND_H_

#include <functional>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/inline_fn.h"
#include "src/core/comm_task.h"

namespace bsched {

class CommBackend {
 public:
  using Callback = InlineFn<void()>;

  virtual ~CommBackend() = default;

  // Admits one partition into the underlying stack. `on_finish` must be
  // invoked exactly once, when the operation completes from the perspective
  // of `subtask.worker` (push: ack received; pull: data delivered;
  // all-reduce: ring pass complete). Every in-tree backend overrides this.
  virtual void Start(const SubCommTask& subtask, Callback on_finish) {
    // Adapter for a backend that overrides only the std::function overload
    // below: the move-only callback is shared into a copyable wrapper (one
    // allocation per partition, off the in-tree hot path).
    auto shared = std::make_shared<Callback>(std::move(on_finish));
    Start(subtask, std::function<void()>([shared] { (*shared)(); }));
  }

  // The interface's former std::function signature, kept so that backends
  // written against it (the repo benchmark's stub) still compile and run.
  virtual void Start(const SubCommTask& /*subtask*/, std::function<void()> /*on_finish*/) {
    BSCHED_CHECK(false && "CommBackend must override Start");
  }
};

}  // namespace bsched

#endif  // SRC_COMM_BACKEND_H_
