// ObsContext: the handle every instrumented subsystem receives. Bundles the
// two observability sinks — a TraceRecorder for causal spans/flow events and
// a MetricsRegistry for counters/gauges/histograms — plus the flow-id
// bookkeeping that stitches a partition's life (queue admit -> credit grant
// -> link transit -> PS push/update/pull or ring hop -> finish) into one
// connected arc across tracks. The open flows live in a flat table of
// (worker, tensor, partition) slots that a closed flow keeps for the next
// iteration, so opening, finding and closing a flow allocates nothing once
// a job's partitions have been seen.
//
// A null ObsContext (or null members) disables the corresponding layer with
// a single pointer check at each site; no simulation events are ever
// scheduled by instrumentation, so an instrumented run is event-for-event
// identical to an uninstrumented one.
//
// Flow-id bookkeeping is NOT thread-safe: one ObsContext belongs to one
// job's (single-threaded) Simulator. The MetricsRegistry it points to may be
// shared across threads — its handles are atomics.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/trace.h"
#include "src/obs/metrics.h"

namespace bsched {

class ObsContext {
 public:
  ObsContext() = default;
  ObsContext(TraceRecorder* trace, MetricsRegistry* metrics)
      : trace_(trace), metrics_(metrics) {}

  TraceRecorder* trace() const { return trace_; }
  MetricsRegistry* metrics() const { return metrics_; }

  bool tracing() const { return trace_ != nullptr; }

  // ---- flow arcs ----------------------------------------------------------
  // A flow id ties trace events on different tracks into one arc. The
  // scheduler opens a flow when it first admits a push (or all-reduce)
  // partition; the backend steps it through link/shard hops; the matching
  // pull's completion closes it. Ids are never 0 (0 = "no flow").

  uint64_t NewFlow() { return ++last_flow_; }

  // Opens (or reopens, for a new iteration reusing the same slot) the flow of
  // one (worker, tensor, partition) and returns its id.
  uint64_t BeginPartitionFlow(int worker, int64_t tensor_id, int partition) {
    if (2 * (used_slots_ + 1) > slots_.size()) {
      Grow();
    }
    Slot& slot = slots_[Probe(worker, tensor_id, partition)];
    if (!slot.used) {
      slot = Slot{tensor_id, worker, partition, 0, true};
      ++used_slots_;
    }
    slot.flow = ++last_flow_;
    return slot.flow;
  }

  // The open flow of a partition, or 0 when none (e.g. a pull admitted with
  // no tracked push).
  uint64_t LookupPartitionFlow(int worker, int64_t tensor_id, int partition) const {
    return slots_.empty() ? 0 : slots_[Probe(worker, tensor_id, partition)].flow;
  }

  void EndPartitionFlow(int worker, int64_t tensor_id, int partition) {
    if (!slots_.empty()) {
      slots_[Probe(worker, tensor_id, partition)].flow = 0;
    }
  }

 private:
  // One (worker, tensor, partition) of the open-flow table. A closed flow
  // keeps its slot with flow 0: the same partitions reopen every iteration,
  // so the table holds one slot per partition ever traced and a flow costs
  // no allocation beyond the table's growth.
  struct Slot {
    int64_t tensor_id = 0;
    int worker = 0;
    int partition = 0;
    uint64_t flow = 0;
    bool used = false;
  };

  // Open addressing with linear probing over a power-of-two table kept at
  // most half full: the slot holding the key, or the empty slot ending its
  // probe run.
  size_t Probe(int worker, int64_t tensor_id, int partition) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(worker)) << 32) |
                         static_cast<uint32_t>(partition);
    uint64_t h = static_cast<uint64_t>(tensor_id) * 0x9E3779B97F4A7C15ull ^
                 key * 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 29;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used ||
          (s.tensor_id == tensor_id && s.worker == worker && s.partition == partition)) {
        return i;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.used) {
        slots_[Probe(s.worker, s.tensor_id, s.partition)] = s;
      }
    }
  }

  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t last_flow_ = 0;
  std::vector<Slot> slots_;
  size_t used_slots_ = 0;
};

}  // namespace bsched

#endif  // SRC_OBS_OBS_H_
