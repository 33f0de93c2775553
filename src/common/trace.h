// Execution-trace recording. The runtime can log per-op and per-tensor spans
// into a TraceRecorder, which exports Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto to see compute/communication overlap — the
// quantity ByteScheduler optimizes).
//
// Beyond plain spans and instants, the recorder supports:
//  - typed span metadata (TraceArg), rendered as the event's "args" object;
//  - flow events (Chrome phases "s"/"t"/"f"): points sharing a flow id are
//    drawn as one connected arc across tracks, which is how a partition's
//    life (queue admit -> link transit -> shard update -> pull -> finish)
//    stays followable in Perfetto.
//
// A recorded event is numbers, not text. Tracks, constant name pieces and
// arg keys are interned once into small integer ids (TraceId) — the
// instrumented subsystems resolve theirs when they are built — and each
// event is one fixed-size record: track id, a TraceName (interned pieces with
// up to two integers spliced between them, e.g. "<tensor>.p<k>.push.wait"
// as stem, ".p", partition, ".push.wait"), times, kind, flow id and phase,
// plus an offset into one side array of (key id, int64) args. Apart from the
// amortised growth of those arrays, recording allocates nothing; the JSON
// text is produced only in WriteChromeTrace. The std::string overloads are
// the slow path for tools and tests: they intern the track, copy the name
// into a side character buffer, and keep TraceArg lists (the only way to
// record string or double args) as given.
//
// Track ids ("tid") are assigned deterministically in first-event order —
// interning a track assigns none — and the thread-name metadata is emitted
// in that same order.
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"

namespace bsched {

// One typed key/value entry of a span's "args" metadata.
struct TraceArg {
  enum class Kind { kInt, kDouble, kString };

  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;

  static TraceArg Int(std::string key, int64_t v);
  static TraceArg Double(std::string key, double v);
  static TraceArg Str(std::string key, std::string v);
};

// Position of a flow point within its arc.
enum class FlowPhase : uint8_t {
  kStart,  // "s": opens the arc
  kStep,   // "t": intermediate hop
  kEnd,    // "f": closes the arc
};

// Interned text (a track name, a name piece or an arg key) of one recorder.
// Id 0 is the empty string.
using TraceId = uint32_t;

// An event name, rendered "<stem><a><sep><b><suffix>" at export. An absent
// integer (kNone) renders as nothing, and so does `sep` when `b` is absent.
// Field order is rendering order apart from the integers, which come last so
// the struct packs into 32 bytes.
struct TraceName {
  static constexpr int64_t kNone = std::numeric_limits<int64_t>::min();

  TraceId stem = 0;
  TraceId sep = 0;
  TraceId suffix = 0;
  int64_t a = kNone;
  int64_t b = kNone;
};

// One integer arg of the fast path: an interned key and its value.
struct TraceIntArg {
  TraceId key;
  int64_t value;
};

class TraceRecorder {
 public:
  TraceRecorder();
  // Not copyable: the intern table's keys view the recorder's own strings.
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Interns `text` (get-or-create) and returns its id; ids are stable for the
  // recorder's lifetime. A track is interned like any other text; it gets a
  // tid only when its first event is recorded.
  TraceId Intern(std::string_view text);

  // Fast path: events on interned tracks with composed names.
  //
  // Records a complete span [start, end] on a track (one trace "tid" per
  // track). Spans may be added in any order.
  void AddSpan(TraceId track, const TraceName& name, SimTime start, SimTime end,
               std::initializer_list<TraceIntArg> args = {});
  // Records a zero-duration instant marker.
  void AddInstant(TraceId track, const TraceName& name, SimTime at);
  // Same, with a name formatted by the caller (copied into the recorder).
  void AddInstant(TraceId track, std::string_view name, SimTime at);
  // Records one point of a flow arc. All points of one arc share `flow_id`
  // (which must be non-zero); Perfetto draws an arrow chain start -> steps ->
  // end across whatever tracks the points landed on.
  void AddFlow(TraceId track, const TraceName& name, SimTime at, uint64_t flow_id,
               FlowPhase phase);

  // Slow path: the same events by track and name text.
  void AddSpan(const std::string& track, const std::string& name, SimTime start, SimTime end);
  void AddSpan(const std::string& track, const std::string& name, SimTime start, SimTime end,
               std::vector<TraceArg> args);
  void AddInstant(const std::string& track, const std::string& name, SimTime at);
  void AddFlow(const std::string& track, const std::string& name, SimTime at, uint64_t flow_id,
               FlowPhase phase);

  size_t num_events() const { return records_.size(); }
  size_t num_flow_events() const { return num_flow_events_; }
  bool empty() const { return records_.empty(); }

  // Chrome trace-event JSON (array form); timestamps in microseconds.
  void WriteChromeTrace(std::ostream& os) const;

  // Total span time per track (utilization summaries in tests/tools). Flow
  // points and instants contribute nothing.
  SimTime TrackBusyTime(const std::string& track) const;
  // Names of the tracks that recorded an event, in lexicographic order.
  std::vector<std::string> Tracks() const;

 private:
  enum class EventKind : uint8_t { kSpan, kInstant, kFlow };
  // Where a record's name and args live.
  enum Flags : uint8_t {
    kTextName = 1,  // name.a/name.b are an offset/length into text_
    kSlowArgs = 2,  // args indexes slow_args_ (else args_, num_args entries)
  };

  struct Record {
    TraceName name;
    int64_t start;  // ns
    int64_t end;    // ns; == start for instants and flow points
    uint64_t flow_id;
    TraceId track;
    uint32_t args;
    uint8_t num_args;
    EventKind kind;
    FlowPhase flow_phase;
    uint8_t flags;
  };

  Record& Add(TraceId track, const TraceName& name, SimTime start, SimTime end, EventKind kind);
  // The slow path's name: a copy of `text` in text_.
  TraceName TextName(std::string_view text);
  void WriteName(std::ostream& os, const Record& rec,
                 const std::vector<std::string>& escaped) const;

  std::vector<Record> records_;
  std::vector<TraceIntArg> args_;
  std::vector<std::vector<TraceArg>> slow_args_;
  // Characters of slow-path and caller-formatted names.
  std::string text_;
  size_t num_flow_events_ = 0;

  // Interned text by id (a deque keeps each string, and so the views keying
  // ids_, in place), and its lookup table.
  std::deque<std::string> texts_;
  std::unordered_map<std::string_view, TraceId> ids_;
  // Per id: its tid once it recorded an event as a track, else -1.
  std::vector<int32_t> tids_;
  // Track id of each tid (first-event order).
  std::vector<TraceId> tid_tracks_;
};

}  // namespace bsched

#endif  // SRC_COMMON_TRACE_H_
