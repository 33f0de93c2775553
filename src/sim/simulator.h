// Single-threaded discrete-event simulator. All substrates (network links,
// GPU compute streams, PS shards, the ring) advance by scheduling callbacks
// on one Simulator instance, which makes every experiment deterministic.
// Distinct Simulator instances share nothing, so independent simulations can
// run on separate threads (see src/exec/sweep_runner.h and the sharded
// parallel-DES coordinator in src/sim/shard_coordinator.h).
//
// Hot-path design: events live in a pooled slot table (reused across the
// run, so steady-state scheduling allocates nothing), callbacks are stored
// in a small-buffer-optimized EventFn (no heap allocation for closures that
// fit its inline buffer), and cancellation is a key comparison instead of a
// per-event shared_ptr control block: each slot stores the key of the event
// that owns it, and a queued entry is live iff its key still matches.
// Cancelled entries still queued are lazily skipped, and the queue is
// compacted when they pile up. The queue is one flat 4-ary min-heap of
// 16-byte entries over a vector the Simulator owns, ordered by (when, key).
// The key's high bits are the scheduling sequence number, which is unique,
// so the order is total and any correct priority queue pops the same
// sequence; the timer wheel this heap replaced measured slower on real jobs
// (EXPERIMENTS.md "Event queue: one flat heap", "Event entry: 16 bytes").
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/units.h"

namespace bsched {

// Event callbacks use the simulator's one callback type (src/common/
// inline_fn.h). A closure over at most 48 bytes — `this` plus a few indices —
// is stored in the event's pooled slot; a larger one costs one heap
// allocation, which the partition hot path avoids by keeping its bulky state
// (callbacks, subtasks) in the owning entity's queues and tables.
using EventFn = InlineFn<void()>;

// One queued event: 16 bytes, so the heap permutes these and never the
// callbacks, which stay in the Simulator's slot pool. key is
// seq << kEventSlotBits | slot, where seq counts ScheduleAt calls; ordering
// by (when, key) is therefore ordering by (when, seq): earlier time first,
// then FIFO among equal times.
struct EventEntry {
  SimTime when;
  uint64_t key;
};
static_assert(sizeof(EventEntry) == 16);

inline constexpr int kEventSlotBits = 24;
inline constexpr uint64_t kEventSlotMask = (uint64_t{1} << kEventSlotBits) - 1;

class Simulator;

// Handle returned by Schedule(); allows cancelling a pending event. Copyable;
// all copies refer to the same event. A handle carries the event's key: once
// the event fires or is cancelled its slot no longer holds that key (a later
// event reusing the slot has a fresh seq), so stale handles are harmless
// no-ops. Handles must not outlive their Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Idempotent.
  void Cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint64_t key) : sim_(sim), key_(key) {}

  Simulator* sim_ = nullptr;
  uint64_t key_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Events at equal times fire in
  // scheduling order (stable FIFO tie-break).
  EventHandle Schedule(SimTime delay, EventFn fn);

  // Schedules `fn` at an absolute time, which must be >= Now().
  EventHandle ScheduleAt(SimTime when, EventFn fn);

  // Fires `fn` at Now() + interval and then every `interval` after, until it
  // returns false (the final false tick is still a processed event). The
  // chain is an ordinary self-rescheduling event: it keeps the simulator
  // non-empty while armed, so the predicate must eventually return false for
  // Run() to drain. interval must be > 0.
  void SchedulePeriodic(SimTime interval, std::function<bool()> fn);

  // Runs events until the queue is empty or `deadline` is passed. Events at
  // exactly `deadline` still fire. Returns the number of events processed.
  uint64_t Run(SimTime deadline = SimTime::Max());

  // Fires the single earliest pending event. Returns false if queue is empty.
  bool Step();

  // Timestamp of the earliest live event, or false when none remain. Pops
  // (and counts) cancelled heads along the way, exactly as Run() would; the
  // shard coordinator uses this to compute lookahead windows.
  bool NextEventTime(SimTime* when);

  // True when no live (non-cancelled, not-yet-fired) events remain.
  bool Empty() const { return live_ == 0; }
  // Live events: scheduled, not cancelled, not yet fired.
  size_t PendingEvents() const { return live_; }
  // Raw queue entries, including cancelled events not yet reclaimed; equals
  // PendingEvents() after compaction. Debugging / test hook.
  size_t QueuedEvents() const { return heap_.size(); }
  // Slots ever allocated; stays flat under steady-state churn (pool reuse).
  size_t AllocatedSlots() const { return slots_.size(); }
  uint64_t processed_events() const { return processed_; }
  uint64_t compactions() const { return compactions_; }
  // Cancelled entries lazily skipped at pop time (not counting compaction).
  uint64_t skipped_cancelled() const { return skipped_cancelled_; }

 private:
  friend class EventHandle;

  // A free slot's key: no event has it, since seq stays below 2^40 - 1.
  static constexpr uint64_t kFreeKey = ~uint64_t{0};

  struct Slot {
    uint64_t key = kFreeKey;  // key of the event that owns the slot
    EventFn fn;
  };

  bool EntryLive(const EventEntry& e) const {
    return slots_[e.key & kEventSlotMask].key == e.key;
  }
  // Removes the earliest entry from the heap and returns it.
  EventEntry PopEarliest();
  // Hole-based 4-ary heap moves: place `e` at or above / at or below index i.
  void SiftUp(size_t i, EventEntry e);
  void SiftDown(size_t i, EventEntry e);
  // Fires `e`, which must be live: releases its slot, advances time, runs fn.
  void Fire(const EventEntry& e);
  // Marks the slot free (invalidating its queued entry and handles) and
  // returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  void CancelEvent(uint64_t key);
  // Rebuilds the queue without stale entries once they dominate it.
  void MaybeCompact();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  uint64_t compactions_ = 0;
  uint64_t skipped_cancelled_ = 0;
  size_t live_ = 0;
  std::vector<EventEntry> heap_;  // 4-ary min-heap by (when, key)
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace bsched

#endif  // SRC_SIM_SIMULATOR_H_
