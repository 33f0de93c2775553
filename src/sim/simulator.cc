#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/check.h"

namespace bsched {
namespace {

// Compaction triggers when stale (cancelled) entries outnumber live ones and
// the queue is large enough for the rebuild to pay for itself.
constexpr size_t kCompactMinEntries = 64;

// seq takes the key bits above the slot index; the largest value is left
// unused so that no event's key equals a free slot's.
constexpr uint64_t kSeqLimit = (uint64_t{1} << (64 - kEventSlotBits)) - 1;

// Heap order: earlier time first, then lower key (= earlier seq).
bool Before(const EventEntry& a, const EventEntry& b) {
  return a.when < b.when || (a.when == b.when && a.key < b.key);
}

}  // namespace

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(key_);
  }
}

EventHandle Simulator::Schedule(SimTime delay, EventFn fn) {
  BSCHED_CHECK(delay.nanos() >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

namespace {

// Self-rescheduling periodic tick. Sized to fit EventFn's inline buffer
// (8 + 8 + 32 = 48 bytes) so the chain never heap-allocates per tick; the
// callable (and the captured predicate) dies with its event slot when the
// predicate returns false.
struct PeriodicEvent {
  Simulator* sim;
  SimTime interval;
  std::function<bool()> fn;

  void operator()() {
    if (fn()) {
      Simulator* s = sim;
      const SimTime i = interval;
      s->Schedule(i, PeriodicEvent{s, i, std::move(fn)});
    }
  }
};
static_assert(sizeof(PeriodicEvent) <= EventFn::kInlineBytes);

}  // namespace

void Simulator::SchedulePeriodic(SimTime interval, std::function<bool()> fn) {
  BSCHED_CHECK(interval.nanos() > 0);
  BSCHED_CHECK(fn != nullptr);
  Schedule(interval, PeriodicEvent{this, interval, std::move(fn)});
}

EventHandle Simulator::ScheduleAt(SimTime when, EventFn fn) {
  BSCHED_CHECK(when >= now_);
  BSCHED_CHECK(next_seq_ < kSeqLimit);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    BSCHED_CHECK(slots_.size() <= kEventSlotMask);
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.key = next_seq_++ << kEventSlotBits | slot;
  s.fn = std::move(fn);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, EventEntry{when, s.key});
  ++live_;
  return EventHandle(this, s.key);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.key = kFreeKey;
  s.fn.Reset();
  free_slots_.push_back(slot);
}

void Simulator::SiftUp(size_t i, EventEntry e) {
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(e, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDown(size_t i, EventEntry e) {
  const size_t n = heap_.size();
  for (size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
    size_t best = first;
    for (size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], e)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

EventEntry Simulator::PopEarliest() {
  const EventEntry e = heap_.front();
  const EventEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  return e;
}

void Simulator::Fire(const EventEntry& e) {
  // Move the callback out and release the slot first: the callback may
  // schedule new events, which can reuse this slot or grow the slot table.
  const auto slot = static_cast<uint32_t>(e.key & kEventSlotMask);
  EventFn fn = std::move(slots_[slot].fn);
  ReleaseSlot(slot);
  --live_;
  now_ = e.when;
  ++processed_;
  fn();
}

void Simulator::CancelEvent(uint64_t key) {
  const auto slot = static_cast<uint32_t>(key & kEventSlotMask);
  if (slot >= slots_.size() || slots_[slot].key != key) {
    return;  // already fired, already cancelled, or slot since reused
  }
  ReleaseSlot(slot);
  --live_;
  MaybeCompact();
}

void Simulator::MaybeCompact() {
  if (heap_.size() < kCompactMinEntries || heap_.size() < 2 * live_) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const EventEntry& e) { return !EntryLive(e); }),
              heap_.end());
  for (size_t i = (heap_.size() + 2) / 4; i-- > 0;) {  // every node with a child
    SiftDown(i, heap_[i]);
  }
  ++compactions_;
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    const EventEntry e = PopEarliest();
    if (!EntryLive(e)) {
      ++skipped_cancelled_;
      continue;
    }
    Fire(e);
    return true;
  }
  return false;
}

bool Simulator::NextEventTime(SimTime* when) {
  while (!heap_.empty()) {
    if (EntryLive(heap_.front())) {
      *when = heap_.front().when;
      return true;
    }
    PopEarliest();
    ++skipped_cancelled_;
  }
  return false;
}

uint64_t Simulator::Run(SimTime deadline) {
  uint64_t count = 0;
  while (!heap_.empty()) {
    const EventEntry& head = heap_.front();
    // Discard cancelled entries here rather than firing past them: a
    // cancelled head must not let an event beyond `deadline` fire. Each
    // discarded entry is popped (and counted) exactly once, even when the
    // deadline lands in the middle of a compaction-heavy stretch —
    // compaction only ever removes entries that were never popped.
    if (!EntryLive(head)) {
      PopEarliest();
      ++skipped_cancelled_;
      continue;
    }
    if (head.when > deadline) {
      break;
    }
    Fire(PopEarliest());
    ++count;
  }
  return count;
}

}  // namespace bsched
