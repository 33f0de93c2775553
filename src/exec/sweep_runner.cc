#include "src/exec/sweep_runner.h"

#include <atomic>
#include <thread>

namespace bsched {
namespace {

std::atomic<int> g_default_jobs{0};

int HardwareJobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

}  // namespace

void SweepRunner::SetDefaultJobs(int jobs) { g_default_jobs.store(jobs, std::memory_order_relaxed); }

int SweepRunner::DefaultJobs() {
  const int configured = g_default_jobs.load(std::memory_order_relaxed);
  return configured > 0 ? configured : HardwareJobs();
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs > 0 ? jobs : DefaultJobs()) {}

void SweepRunner::RunAll(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (jobs_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(jobs_);
  }

  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    // One slot per task, written only by that task.
    std::vector<std::exception_ptr> errors;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining = n;
  shared->errors.resize(n);

  for (size_t i = 0; i < n; ++i) {
    pool_->Submit(
        [shared, &fn, i] {
          try {
            fn(i);
          } catch (...) {
            shared->errors[i] = std::current_exception();
          }
        },
        // Signalled from on_done, after the pool recorded the task's stats,
        // so Stats() right after ParallelFor returns counts every task.
        [shared] {
          std::lock_guard<std::mutex> lock(shared->mu);
          if (--shared->remaining == 0) {
            shared->cv.notify_all();
          }
        });
  }

  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait(lock, [&shared] { return shared->remaining == 0; });
    // Take every error onto this thread before rethrowing: a pool worker may
    // still hold `shared` and drop its last reference after we return, and
    // it must not be the thread that destroys an exception object.
    errors.swap(shared->errors);
  }
  // Lowest-index exception wins so propagation is deterministic.
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace bsched
