// Host-speed reference for the end-to-end metrics (see HostSpeed in
// perfbench.h and "Host-speed scaling" in README.md).
#include <cmath>
#include <functional>
#include <queue>
#include <unordered_map>

#include "perfbench/perfbench.h"

namespace perfbench {

namespace {

// Reference slices run every this much measured op time of a thread.
constexpr double kSampleEverySec = 0.05;
// Timed events per slice (about 1 ms), after an untimed warm-up that brings
// the loop's small state back into cache after the op that ran before it.
constexpr int kWarmSteps = 1000;
constexpr int kSteps = 8000;
// Mean slice time of the baseline host (the 4-vCPU VM of README.md's
// baselines); Scale() maps a run onto that host's speed.
constexpr double kNominalSliceSec = 1.0e-3;

// A small discrete-event loop written for this benchmark: a binary heap of
// timestamped callbacks, a hash map of heap-allocated blocks and
// floating-point updates. It has the simulator's kind of instruction mix but
// shares none of its code, so a change to the program cannot change its
// speed; only the host can.
class ReferenceLoop {
 public:
  ReferenceLoop() {
    for (int i = 0; i < 64; ++i) {
      queue_.push(Event{Next() % 1000, seq_++, nullptr});
    }
  }

  void Run(int steps) {
    for (int i = 0; i < steps; ++i) {
      Event e = queue_.top();
      queue_.pop();
      const uint64_t now = e.when;
      const uint64_t key = Next() & 1023;
      std::unique_ptr<std::vector<double>>& block = blocks_[key];
      if (!block) {
        block = std::make_unique<std::vector<double>>(4, 1.0);
      }
      double& cell = (*block)[key & 3];
      cell = cell * 0.999 + std::sqrt(static_cast<double>(now & 0xffff));
      sum_ += cell;
      const uint64_t when = now + 1 + Next() % 1000;
      queue_.push(Event{when, seq_++, [this, when] { acc_ += when; }});
      if (e.fn) {
        e.fn();
      }
    }
  }

  uint64_t checksum() const { return acc_ + static_cast<uint64_t>(sum_); }

 private:
  struct Event {
    uint64_t when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const { return when != o.when ? when > o.when : seq > o.seq; }
  };

  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::unordered_map<uint64_t, std::unique_ptr<std::vector<double>>> blocks_;
  uint64_t x_ = 88172645463325252ULL;
  uint64_t seq_ = 0;
  uint64_t acc_ = 0;
  double sum_ = 0.0;
};

}  // namespace

void HostSpeed::After(double op_sec) {
  thread_local double pending_sec = 0.0;
  thread_local ReferenceLoop loop;
  pending_sec += op_sec;
  if (pending_sec < kSampleEverySec) {
    return;
  }
  pending_sec = 0.0;
  loop.Run(kWarmSteps);
  const double t0 = NowSec();
  loop.Run(kSteps);
  const double slice_sec = NowSec() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  slices_sec_.push_back(slice_sec);
  checksum_ ^= loop.checksum();
}

double HostSpeed::Scale() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_sec_.empty()) {
    return 1.0;
  }
  double total = 0.0;
  for (double s : slices_sec_) {
    total += s;
  }
  return kNominalSliceSec * static_cast<double>(slices_sec_.size()) / total;
}

size_t HostSpeed::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slices_sec_.size();
}

}  // namespace perfbench
