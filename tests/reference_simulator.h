// A deliberately plain event loop used as the oracle for Simulator's event
// queue. Pending entries sit in a std::set ordered by (when, seq), callbacks
// in a std::map keyed by seq, and cancellation erases the callback. It keeps
// Simulator's observable contract — FIFO ties, inclusive Run deadlines, lazy
// skipping of cancelled entries and the compaction trigger (at least 64
// queued entries, at least twice the live count) — so a differential test
// can compare every counter, not only the firing order.
#ifndef TESTS_REFERENCE_SIMULATOR_H_
#define TESTS_REFERENCE_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/common/units.h"

namespace bsched {

class ReferenceSimulator {
 public:
  class Handle {
   public:
    Handle() = default;
    void Cancel() {
      if (sim_ != nullptr) {
        sim_->CancelEvent(seq_);
      }
    }

   private:
    friend class ReferenceSimulator;
    Handle(ReferenceSimulator* sim, uint64_t seq) : sim_(sim), seq_(seq) {}
    ReferenceSimulator* sim_ = nullptr;
    uint64_t seq_ = 0;
  };

  SimTime Now() const { return now_; }

  Handle Schedule(SimTime delay, std::function<void()> fn) {
    BSCHED_CHECK(delay.nanos() >= 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  Handle ScheduleAt(SimTime when, std::function<void()> fn) {
    BSCHED_CHECK(when >= now_);
    const uint64_t seq = next_seq_++;
    queue_.emplace(when.nanos(), seq);
    fns_.emplace(seq, std::move(fn));
    return Handle(this, seq);
  }

  bool Step() {
    while (!queue_.empty()) {
      const Key head = *queue_.begin();
      queue_.erase(queue_.begin());
      if (fns_.count(head.second) == 0) {
        ++skipped_cancelled_;
        continue;
      }
      Fire(head);
      return true;
    }
    return false;
  }

  uint64_t Run(SimTime deadline = SimTime::Max()) {
    uint64_t count = 0;
    while (!queue_.empty()) {
      const Key head = *queue_.begin();
      if (fns_.count(head.second) == 0) {
        queue_.erase(queue_.begin());
        ++skipped_cancelled_;
        continue;
      }
      if (head.first > deadline.nanos()) {
        break;
      }
      queue_.erase(queue_.begin());
      Fire(head);
      ++count;
    }
    return count;
  }

  bool NextEventTime(SimTime* when) {
    while (!queue_.empty()) {
      const Key head = *queue_.begin();
      if (fns_.count(head.second) != 0) {
        *when = SimTime::Nanos(head.first);
        return true;
      }
      queue_.erase(queue_.begin());
      ++skipped_cancelled_;
    }
    return false;
  }

  bool Empty() const { return fns_.empty(); }
  size_t PendingEvents() const { return fns_.size(); }
  size_t QueuedEvents() const { return queue_.size(); }
  uint64_t processed_events() const { return processed_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t skipped_cancelled() const { return skipped_cancelled_; }

 private:
  using Key = std::pair<int64_t, uint64_t>;  // (when in ns, seq)

  void Fire(const Key& key) {
    auto it = fns_.find(key.second);
    std::function<void()> fn = std::move(it->second);
    fns_.erase(it);
    now_ = SimTime::Nanos(key.first);
    ++processed_;
    fn();
  }

  void CancelEvent(uint64_t seq) {
    if (fns_.erase(seq) == 0) {
      return;  // already fired or cancelled
    }
    if (queue_.size() < 64 || queue_.size() < 2 * fns_.size()) {
      return;
    }
    for (auto it = queue_.begin(); it != queue_.end();) {
      it = fns_.count(it->second) == 0 ? queue_.erase(it) : std::next(it);
    }
    ++compactions_;
  }

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t compactions_ = 0;
  uint64_t skipped_cancelled_ = 0;
  std::set<Key> queue_;
  std::map<uint64_t, std::function<void()>> fns_;  // live events by seq
};

}  // namespace bsched

#endif  // TESTS_REFERENCE_SIMULATOR_H_
