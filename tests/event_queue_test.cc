// Differential tests for Simulator's event queue (a flat 4-ary min-heap
// ordered by (when, seq)): every test drives the Simulator and
// ReferenceSimulator, a plain std::set-ordered loop, through the same
// randomized schedule / cancel / step / run-to-deadline script and demands
// identical observations — fired-callback order and times, PendingEvents /
// QueuedEvents accounting, and the skip and compaction counters. The suite
// names date from when the queue was a pluggable policy; each test now checks
// the one queue against the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "tests/reference_simulator.h"

namespace bsched {
namespace {

// Everything observable about one run; the firing log holds (id, time) pairs.
struct SimScript {
  std::vector<int64_t> fired;
  std::vector<size_t> pending_after_op;
  std::vector<size_t> queued_after_op;
  uint64_t processed = 0;
  uint64_t compactions = 0;
  uint64_t skipped = 0;
  int64_t final_now = 0;

  bool operator==(const SimScript& o) const {
    return fired == o.fired && pending_after_op == o.pending_after_op &&
           queued_after_op == o.queued_after_op && processed == o.processed &&
           compactions == o.compactions && skipped == o.skipped &&
           final_now == o.final_now;
  }
};

template <typename Sim>
void Record(const Sim& sim, SimScript* script) {
  script->pending_after_op.push_back(sim.PendingEvents());
  script->queued_after_op.push_back(sim.QueuedEvents());
}

template <typename Sim>
void Finish(const Sim& sim, SimScript* script) {
  script->processed = sim.processed_events();
  script->compactions = sim.compactions();
  script->skipped = sim.skipped_cancelled();
  script->final_now = sim.Now().nanos();
}

// ---------------------------------------------------------------------------
// Queue level: absolute-time pushes and single-event pops.

template <typename Sim>
SimScript RunInterleavedPushPop(uint64_t seed) {
  Sim sim;
  Rng rng(seed * 1000003 + 17);
  SimScript script;
  int next_id = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rng.NextDouble() < 0.6 || sim.Empty()) {
      // Mix of near (ns..us), far (ms) and very far (minutes+) timers.
      const int64_t low_water = sim.Now().nanos();
      int64_t when;
      const double r = rng.NextDouble();
      if (r < 0.70) {
        when = low_water + rng.UniformInt(0, 4000);
      } else if (r < 0.90) {
        when = low_water + rng.UniformInt(0, 50'000'000);
      } else {
        when = low_water + rng.UniformInt(0, int64_t{1} << 42);
      }
      const int id = next_id++;
      sim.ScheduleAt(SimTime::Nanos(when), [&script, &sim, id] {
        script.fired.push_back(id);
        script.fired.push_back(sim.Now().nanos());
      });
    } else {
      EXPECT_TRUE(sim.Step());
    }
    Record(sim, &script);
  }
  sim.Run();
  Finish(sim, &script);
  return script;
}

TEST(EventQueueDifferentialTest, RandomizedInterleavedPushPop) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const SimScript heap = RunInterleavedPushPop<Simulator>(seed);
    const SimScript oracle = RunInterleavedPushPop<ReferenceSimulator>(seed);
    // Nothing is cancelled, so every scheduled event fires exactly once.
    EXPECT_EQ(heap.fired.size(), 2 * heap.processed) << "seed " << seed;
    EXPECT_TRUE(heap == oracle) << "divergence at seed " << seed;
  }
}

TEST(EventQueueDifferentialTest, SameTimestampTiesPopInSeqOrder) {
  // 64 events share one timestamp; they are scheduled in shuffled position
  // among 64 others at random earlier and later times, so the ties enter the
  // heap at many different depths. They must fire in scheduling order.
  Rng rng(7);
  std::vector<int64_t> whens;
  for (int i = 0; i < 64; ++i) {
    whens.push_back(5000);
    whens.push_back(rng.UniformInt(0, 10'000));
  }
  for (size_t i = whens.size(); i > 1; --i) {
    std::swap(whens[i - 1], whens[rng.UniformInt(0, static_cast<int64_t>(i) - 1)]);
  }
  auto run = [&whens](auto& sim) {
    std::vector<int> tied;
    std::vector<int64_t> all;
    for (size_t i = 0; i < whens.size(); ++i) {
      const int id = static_cast<int>(i);
      const bool is_tie = whens[i] == 5000;
      sim.ScheduleAt(SimTime::Nanos(whens[i]), [&tied, &all, &sim, id, is_tie] {
        all.push_back(id);
        all.push_back(sim.Now().nanos());
        if (is_tie) {
          tied.push_back(id);
        }
      });
    }
    sim.Run();
    EXPECT_TRUE(std::is_sorted(tied.begin(), tied.end()));
    return all;
  };
  Simulator heap;
  ReferenceSimulator oracle;
  EXPECT_EQ(run(heap), run(oracle));
}

template <typename Sim, typename Handle>
SimScript RunMassCancel(uint64_t seed) {
  Sim sim;
  Rng rng(seed + 99);
  SimScript script;
  std::vector<Handle> handles;
  std::vector<bool> dead;
  for (int id = 0; id < 3000; ++id) {
    const int64_t when = rng.UniformInt(0, int64_t{1} << 41);
    handles.push_back(sim.ScheduleAt(SimTime::Nanos(when), [&script, id] {
      script.fired.push_back(id);
    }));
    dead.push_back(rng.NextDouble() < 0.7);
  }
  // Cancel in a shuffled order so compaction passes run with the dead
  // entries scattered through the heap.
  std::vector<int> order;
  for (int id = 0; id < 3000; ++id) {
    if (dead[id]) {
      order.push_back(id);
    }
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(0, static_cast<int64_t>(i) - 1)]);
  }
  for (int id : order) {
    handles[id].Cancel();
    Record(sim, &script);
  }
  sim.Run();
  Finish(sim, &script);
  for (int64_t id : script.fired) {
    EXPECT_FALSE(dead[id]) << "cancelled event " << id << " fired";
  }
  return script;
}

TEST(EventQueueDifferentialTest, CompactDropsExactlyDeadEntries) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const SimScript heap = RunMassCancel<Simulator, EventHandle>(seed);
    const SimScript oracle = RunMassCancel<ReferenceSimulator, ReferenceSimulator::Handle>(seed);
    EXPECT_GE(heap.compactions, 1u) << "seed " << seed;
    EXPECT_TRUE(heap == oracle) << "divergence at seed " << seed;
  }
}

// A heap several levels deep (hundreds of pending events) under steady
// schedule / cancel / pop traffic, with periodic mass cancellations that
// trigger compaction, so the 4-ary sift-up, sift-down and the rebuild after
// compaction all run on large heaps with tied timestamps.
template <typename Sim, typename Handle>
SimScript RunDeepHeapWithCompaction(uint64_t seed, size_t* max_queued) {
  Sim sim;
  Rng rng(seed * 7919 + 3);
  SimScript script;
  std::vector<Handle> handles;
  auto schedule = [&] {
    const int id = static_cast<int>(handles.size());
    const int64_t delay = rng.NextDouble() < 0.3 ? 100 : rng.UniformInt(0, 1'000'000);
    const int64_t when = sim.Now().nanos() + delay;
    handles.push_back(sim.ScheduleAt(SimTime::Nanos(when), [&script, &sim, id] {
      script.fired.push_back(id);
      script.fired.push_back(sim.Now().nanos());
    }));
  };
  for (int i = 0; i < 400; ++i) {
    schedule();
  }
  for (int op = 0; op < 12000; ++op) {
    if (op % 1500 == 1499) {
      // Most events scheduled in the last 1000 ops are still pending.
      for (size_t i = handles.size() - 1000; i < handles.size(); ++i) {
        if (rng.NextDouble() < 0.8) {
          handles[i].Cancel();
        }
      }
    }
    const double r = rng.NextDouble();
    if (r < 0.5) {
      schedule();
    } else if (r < 0.6) {
      handles[rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1)].Cancel();
    } else {
      sim.Step();
    }
    *max_queued = std::max(*max_queued, sim.QueuedEvents());
    Record(sim, &script);
  }
  sim.Run();
  Finish(sim, &script);
  return script;
}

TEST(EventQueueDifferentialTest, DeepHeapWithCompactionMatchesOracle) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    size_t max_queued = 0;
    size_t oracle_max_queued = 0;
    const SimScript heap = RunDeepHeapWithCompaction<Simulator, EventHandle>(seed, &max_queued);
    const SimScript oracle =
        RunDeepHeapWithCompaction<ReferenceSimulator, ReferenceSimulator::Handle>(
            seed, &oracle_max_queued);
    EXPECT_GE(max_queued, 300u) << "seed " << seed;
    EXPECT_GE(heap.compactions, 3u) << "seed " << seed;
    EXPECT_TRUE(heap == oracle) << "divergence at seed " << seed;
  }
}

TEST(EventQueueDifferentialTest, PeekMatchesPopAndDoesNotConsume) {
  auto run = [](auto& sim, auto handle_type) {
    using Handle = decltype(handle_type);
    Rng rng(42);
    std::vector<int64_t> log;
    std::vector<Handle> handles;
    for (int id = 0; id < 500; ++id) {
      handles.push_back(sim.ScheduleAt(SimTime::Nanos(rng.UniformInt(0, 10'000'000)),
                                       [&log, id] { log.push_back(id); }));
    }
    // Cancelled entries at the head make NextEventTime discard them first.
    for (int i = 0; i < 100; ++i) {
      handles[rng.UniformInt(0, 499)].Cancel();
    }
    SimTime peek, again;
    while (sim.NextEventTime(&peek)) {
      const size_t pending = sim.PendingEvents();
      const size_t queued = sim.QueuedEvents();
      EXPECT_TRUE(sim.NextEventTime(&again));  // repeated peek: same entry
      EXPECT_EQ(peek, again);
      EXPECT_EQ(sim.PendingEvents(), pending);
      EXPECT_EQ(sim.QueuedEvents(), queued);
      EXPECT_TRUE(sim.Step());
      EXPECT_EQ(sim.Now(), peek);
      EXPECT_EQ(sim.PendingEvents(), pending - 1);
      log.push_back(sim.Now().nanos());
    }
    EXPECT_TRUE(sim.Empty());
    log.push_back(static_cast<int64_t>(sim.skipped_cancelled()));
    return log;
  };
  Simulator heap;
  ReferenceSimulator oracle;
  EXPECT_EQ(run(heap, EventHandle()), run(oracle, ReferenceSimulator::Handle()));
}

// ---------------------------------------------------------------------------
// Simulator level: a randomized schedule/cancel/step/run workload whose
// callbacks schedule follow-ups.

template <typename Sim, typename Handle>
SimScript RunRandomWorkload(uint64_t seed) {
  Sim sim;
  Rng rng(seed);
  SimScript script;
  std::vector<Handle> handles;
  int next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.45) {
      // Schedule with a mix of tie-heavy, near, far and very far delays;
      // the callback occasionally schedules a follow-up.
      int64_t delay;
      const double d = rng.NextDouble();
      if (d < 0.3) {
        delay = 100;  // deliberate same-timestamp ties
      } else if (d < 0.8) {
        delay = rng.UniformInt(0, 100'000);
      } else if (d < 0.95) {
        delay = rng.UniformInt(0, 40'000'000);
      } else {
        delay = rng.UniformInt(int64_t{1} << 40, int64_t{1} << 42);
      }
      const int id = next_id++;
      const bool chain = rng.NextDouble() < 0.25;
      handles.push_back(sim.Schedule(SimTime::Nanos(delay), [&script, &sim, id, chain] {
        script.fired.push_back(id);
        if (chain) {
          const int sub = -id - 1;
          sim.Schedule(SimTime::Nanos(50), [&script, sub] { script.fired.push_back(sub); });
        }
      }));
    } else if (r < 0.75 && !handles.empty()) {
      handles[rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1)].Cancel();
    } else if (r < 0.9) {
      sim.Step();
    } else {
      // Bounded run: deadline a little past now, so some events fire and the
      // rest stay queued.
      sim.Run(sim.Now() + SimTime::Nanos(rng.UniformInt(0, 200'000)));
    }
    Record(sim, &script);
  }
  sim.Run();
  Finish(sim, &script);
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  return script;
}

TEST(SimulatorDifferentialTest, PoliciesProduceIdenticalTrajectories) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SimScript heap = RunRandomWorkload<Simulator, EventHandle>(seed);
    const SimScript oracle = RunRandomWorkload<ReferenceSimulator, ReferenceSimulator::Handle>(seed);
    EXPECT_TRUE(heap == oracle) << "divergence at seed " << seed;
  }
}

TEST(SimulatorDifferentialTest, CancellationSemanticsMatch) {
  auto run = [](auto& sim) {
    int fired = 0;
    auto h = sim.Schedule(SimTime::Micros(10), [&] { ++fired; });
    sim.Schedule(SimTime::Micros(20), [&] { ++fired; });
    h.Cancel();
    h.Cancel();  // idempotent
    EXPECT_EQ(sim.PendingEvents(), 1u);
    EXPECT_EQ(sim.QueuedEvents(), 2u);  // cancelled entry still queued (lazy)
    sim.Run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.skipped_cancelled(), 1u);
  };
  Simulator heap;
  ReferenceSimulator oracle;
  run(heap);
  run(oracle);
}

}  // namespace
}  // namespace bsched
