// Sim-time metrics sampling pipeline: a TimeSeriesRecorder registered
// against a MetricsRegistry snapshots selected counters, gauges, probes and
// log2 quantile sketches on a fixed simulated-time cadence, producing the
// windowed runtime signals (queueing delay, credit occupancy, straggler
// spread *during* a run) that partition and credit tuning reads.
//
// Sampling is driven by ordinary Simulator timer events, grouped into
// *scopes*: each scope binds to one simulator and samples only metrics that
// are written exclusively by events on that simulator (worker w's scheduler,
// NIC links and GPU). Under the sharded parallel-DES coordinator every
// scope's tick chain therefore runs on the shard thread that owns its
// sources — relaxed atomic reads observe writes made by the same thread, so
// the sampled values are exact and shard-count-invariant.
//
// A tick stores numbers, not text: each scope appends its tick time and one
// fixed-width group of 64-bit sample words per tick (one word per counter,
// gauge or probe; five per sketch — the window's count and sum and its
// p50/p95/p99 as bit-cast doubles, computed in closed form by
// SketchPercentiles). Apart from the amortised growth of those two vectors a
// tick allocates nothing. A sketch whose histogram count (O(1), see
// Histogram) has not moved since the previous tick — an empty window, common
// at a 100 us cadence — writes the same five zero words without reading the
// 64 buckets. The CSV text is produced once, at export: the per-scope
// series are merged in fixed (time, scope) order, the same discipline
// shard_coordinator uses for cross-shard messages, which makes the CSV
// byte-identical at any --shards K and any --jobs N.
//
// Zero-cost when disabled: a job with no recorder schedules no tick events
// and the simulation is bit-identical to a build without this file. An
// *enabled* recorder adds tick events (so event totals grow, identically at
// any shard count) but never mutates scheduler/network state, so iteration
// timings are unchanged.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace bsched {

class Simulator;

class TimeSeriesRecorder {
 public:
  // `registry` must outlive the recorder; `interval` is the sampling cadence
  // in simulated time (must be > 0). Keep it a few times smaller than an
  // iteration and no smaller than the coordinator lookahead — see
  // EXPERIMENTS.md §Observability for cadence guidance.
  TimeSeriesRecorder(MetricsRegistry* registry, SimTime interval);
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  MetricsRegistry* registry() const { return registry_; }
  SimTime interval() const { return interval_; }
  bool started() const { return started_; }

  // Registers a sampling scope on `sim`. Every source added to the scope
  // must be written only by events running on `sim` (per-worker metrics in
  // sharded mode). `active` is polled after each sample: the first tick on
  // which it returns false records the scope's final row and stops the
  // chain, so the predicate must eventually go false for the simulation to
  // drain (e.g. "engine not AllDone yet"). Returns the scope id.
  int AddScope(const std::string& name, Simulator* sim, std::function<bool()> active);

  // Source registration (before Start()): handles are resolved get-or-create
  // against the registry, exactly like the subsystems' own cached handles.
  // Counters and gauges record their instantaneous value per tick; sketches
  // record the *per-window* delta of a histogram (count, sum, p50/p95/p99 of
  // the observations that landed since the previous tick). Probes call an
  // arbitrary function (e.g. a Resource's busy time) on the scope's thread.
  void SampleCounter(int scope, const std::string& metric);
  void SampleGauge(int scope, const std::string& metric);
  void SampleSketch(int scope, const std::string& metric);
  void SampleProbe(int scope, const std::string& metric, std::function<int64_t()> probe);

  // Arms one periodic tick chain per scope (first tick at interval()).
  // Call exactly once, after every scope and source is registered and before
  // the simulation runs.
  void Start();

  // Merged CSV across all scopes in fixed (time, scope) order:
  //   time_ns,scope,metric,kind,value,count,sum,p50,p95,p99
  // Counter/gauge/probe rows fill `value`; sketch rows fill the window
  // aggregate columns. Byte-deterministic for deterministic simulations.
  // WriteCsv streams the text in bounded chunks; ToCsv returns the same bytes.
  void WriteCsv(std::ostream& os) const;
  std::string ToCsv() const;

  // Total tick rows recorded across all scopes (test / overhead probe).
  uint64_t total_ticks() const;

 private:
  struct Source {
    enum class Kind { kCounter, kGauge, kSketch, kProbe };
    Kind kind;
    // Constant text between a row's time and its values:
    // ",scope,metric,kind," (plus the empty value cell for sketches).
    std::string prefix;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* hist = nullptr;
    std::function<int64_t()> probe;
    // Sketch window state: per-bucket counts, sum and observation count as
    // of the previous tick.
    std::array<uint64_t, Histogram::kNumBuckets> last_buckets{};
    int64_t last_sum = 0;
    uint64_t last_count = 0;
  };

  struct Scope {
    std::string name;
    Simulator* sim = nullptr;
    std::function<bool()> active;
    std::vector<Source> sources;
    // Sample words per tick: the sum of the sources' widths.
    size_t words_per_tick = 0;
    // Appended only from the scope's own simulator thread; read at export
    // after the run joined. samples holds words_per_tick words per tick, in
    // source order.
    std::vector<int64_t> times;
    std::vector<int64_t> samples;
  };

  void AddSource(int scope, const std::string& metric, Source src);
  void SampleScope(Scope* scope);
  // Upper bound on the bytes of one formatted row of `src`.
  static size_t MaxRowBytes(const Source& src);
  // Formats the merged CSV; with `os` set, spills each full chunk there,
  // otherwise accumulates the whole text in `*out`.
  void FormatCsv(std::ostream* os, std::string* out) const;

  MetricsRegistry* registry_;
  SimTime interval_;
  bool started_ = false;
  // unique_ptr: scope addresses must stay stable once handed to tick chains.
  std::vector<std::unique_ptr<Scope>> scopes_;
};

}  // namespace bsched

#endif  // SRC_OBS_TIMESERIES_H_
