#include "src/obs/timeseries.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace {

constexpr double kTickPercentiles[] = {50.0, 95.0, 99.0};
// Sample words of one sketch per tick: count, sum, then the percentiles.
constexpr size_t kSketchWords = 2 + std::size(kTickPercentiles);

constexpr std::string_view kHeader = "time_ns,scope,metric,kind,value,count,sum,p50,p95,p99\n";
constexpr std::string_view kScalarTail = ",,,,,\n";
// Widest integer cell: an int64 with its sign. Percentile cells use
// PutPercentile (src/obs/metrics.h).
constexpr size_t kIntChars = 20;
// Formatted rows are spilled in chunks of about this many bytes.
constexpr size_t kChunkBytes = size_t{64} << 10;

// std::to_chars writes the same bytes as printf("%lld") in the C locale,
// without the format-string parse or the locale lookup.
char* PutInt(char* p, int64_t v) { return std::to_chars(p, p + kIntChars, v).ptr; }

char* Put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(MetricsRegistry* registry, SimTime interval)
    : registry_(registry), interval_(interval) {
  BSCHED_CHECK(registry_ != nullptr);
  BSCHED_CHECK(interval_.nanos() > 0);
}

int TimeSeriesRecorder::AddScope(const std::string& name, Simulator* sim,
                                 std::function<bool()> active) {
  BSCHED_CHECK(!started_);
  BSCHED_CHECK(sim != nullptr);
  BSCHED_CHECK(active != nullptr);
  auto scope = std::make_unique<Scope>();
  scope->name = name;
  scope->sim = sim;
  scope->active = std::move(active);
  scopes_.push_back(std::move(scope));
  return static_cast<int>(scopes_.size()) - 1;
}

void TimeSeriesRecorder::AddSource(int scope, const std::string& metric, Source src) {
  BSCHED_CHECK(!started_);
  Scope& s = *scopes_.at(scope);
  const bool sketch = src.kind == Source::Kind::kSketch;
  const char* kind = sketch                                 ? "sketch,,"
                     : src.kind == Source::Kind::kCounter ? "counter,"
                     : src.kind == Source::Kind::kGauge   ? "gauge,"
                                                          : "probe,";
  src.prefix = "," + s.name + "," + metric + "," + kind;
  s.words_per_tick += sketch ? kSketchWords : 1;
  s.sources.push_back(std::move(src));
}

void TimeSeriesRecorder::SampleCounter(int scope, const std::string& metric) {
  Source src;
  src.kind = Source::Kind::kCounter;
  src.counter = registry_->counter(metric);
  AddSource(scope, metric, std::move(src));
}

void TimeSeriesRecorder::SampleGauge(int scope, const std::string& metric) {
  Source src;
  src.kind = Source::Kind::kGauge;
  src.gauge = registry_->gauge(metric);
  AddSource(scope, metric, std::move(src));
}

void TimeSeriesRecorder::SampleSketch(int scope, const std::string& metric) {
  Source src;
  src.kind = Source::Kind::kSketch;
  src.hist = registry_->histogram(metric);
  AddSource(scope, metric, std::move(src));
}

void TimeSeriesRecorder::SampleProbe(int scope, const std::string& metric,
                                     std::function<int64_t()> probe) {
  BSCHED_CHECK(probe != nullptr);
  Source src;
  src.kind = Source::Kind::kProbe;
  src.probe = std::move(probe);
  AddSource(scope, metric, std::move(src));
}

void TimeSeriesRecorder::SampleScope(Scope* scope) {
  scope->times.push_back(scope->sim->Now().nanos());
  const size_t base = scope->samples.size();
  scope->samples.resize(base + scope->words_per_tick);
  int64_t* word = scope->samples.data() + base;
  for (Source& src : scope->sources) {
    switch (src.kind) {
      case Source::Kind::kCounter:
        *word++ = static_cast<int64_t>(src.counter->value());
        break;
      case Source::Kind::kGauge:
        *word++ = src.gauge->value();
        break;
      case Source::Kind::kProbe:
        *word++ = src.probe();
        break;
      case Source::Kind::kSketch: {
        // Per-window delta of the histogram: the bucket counts that landed
        // since the previous tick form a mergeable sketch of this window's
        // observations. Sources are written only by this scope's simulator
        // thread, so relaxed loads here are exact, not racy estimates.
        const uint64_t total = src.hist->count();
        if (total == src.last_count) {
          // Empty window: no bucket or the sum moved, and the full path
          // below would write count 0, sum 0 and three 0.0 percentiles —
          // all zero words.
          word = std::fill_n(word, kSketchWords, int64_t{0});
          break;
        }
        src.last_count = total;
        uint64_t window[Histogram::kNumBuckets] = {};
        uint64_t count = 0;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          const uint64_t cur = src.hist->bucket_count(i);
          window[i] = cur - src.last_buckets[i];
          src.last_buckets[i] = cur;
          count += window[i];
        }
        const int64_t cur_sum = src.hist->sum();
        double p[std::size(kTickPercentiles)] = {};
        SketchPercentiles(window, count, kTickPercentiles, p);
        *word++ = static_cast<int64_t>(count);
        *word++ = cur_sum - src.last_sum;
        src.last_sum = cur_sum;
        for (const double v : p) {
          *word++ = std::bit_cast<int64_t>(v);
        }
        break;
      }
    }
  }
}

void TimeSeriesRecorder::Start() {
  BSCHED_CHECK(!started_ && "TimeSeriesRecorder::Start() must be called exactly once");
  started_ = true;
  for (auto& scope : scopes_) {
    Scope* s = scope.get();
    s->sim->SchedulePeriodic(interval_, [this, s] {
      SampleScope(s);
      return s->active();
    });
  }
}

size_t TimeSeriesRecorder::MaxRowBytes(const Source& src) {
  // time, prefix, then "value,,,,,\n" or "count,sum,p50,p95,p99\n".
  const size_t values =
      src.kind == Source::Kind::kSketch
          ? 2 * kIntChars + 1 + std::size(kTickPercentiles) * (1 + kPercentileChars) + 1
          : kIntChars + kScalarTail.size();
  return kIntChars + src.prefix.size() + values;
}

void TimeSeriesRecorder::FormatCsv(std::ostream* os, std::string* out) const {
  size_t max_row = 0;
  for (const auto& scope : scopes_) {
    for (const Source& src : scope->sources) {
      max_row = std::max(max_row, MaxRowBytes(src));
    }
  }
  // A row starts only below kChunkBytes, so the tail room always fits it.
  std::string chunk(kChunkBytes + max_row, '\0');
  char* const begin = chunk.data();
  char* p = Put(begin, kHeader);
  const auto spill = [&] {
    if (os != nullptr) {
      os->write(begin, p - begin);
    } else {
      out->append(begin, p);
    }
    p = begin;
  };
  // Merge per-scope series in fixed (time, scope) order — the same ordering
  // discipline the shard coordinator uses — so the merged stream is
  // independent of which thread recorded which scope and of the shard count.
  // Scopes tick on one cadence, so this walks them time-major: each step
  // takes the earliest pending tick, the lowest scope on a tie.
  std::vector<size_t> next(scopes_.size(), 0);
  for (;;) {
    const Scope* scope = nullptr;
    size_t* cursor = nullptr;
    for (size_t si = 0; si < scopes_.size(); ++si) {
      const Scope& s = *scopes_[si];
      if (next[si] < s.times.size() &&
          (scope == nullptr || s.times[next[si]] < scope->times[*cursor])) {
        scope = &s;
        cursor = &next[si];
      }
    }
    if (scope == nullptr) {
      break;
    }
    const size_t tick = (*cursor)++;
    char time_text[kIntChars] = {};
    const char* time_end = PutInt(time_text, scope->times[tick]);
    const std::string_view time(time_text, static_cast<size_t>(time_end - time_text));
    const int64_t* word = scope->samples.data() + tick * scope->words_per_tick;
    for (const Source& src : scope->sources) {
      if (static_cast<size_t>(p - begin) >= kChunkBytes) {
        spill();
      }
      p = Put(p, time);
      p = Put(p, src.prefix);
      if (src.kind == Source::Kind::kSketch) {
        p = PutInt(p, word[0]);
        *p++ = ',';
        p = PutInt(p, word[1]);
        for (size_t i = 0; i < std::size(kTickPercentiles); ++i) {
          *p++ = ',';
          p = PutPercentile(p, std::bit_cast<double>(word[2 + i]));
        }
        *p++ = '\n';
        word += kSketchWords;
      } else {
        p = PutInt(p, *word++);
        p = Put(p, kScalarTail);
      }
    }
  }
  spill();
}

void TimeSeriesRecorder::WriteCsv(std::ostream& os) const { FormatCsv(&os, nullptr); }

std::string TimeSeriesRecorder::ToCsv() const {
  // Reserve an upper bound so the text is built in place, without regrowth
  // copies; the untouched tail of a large reservation costs no memory.
  size_t bound = kHeader.size();
  for (const auto& scope : scopes_) {
    for (const Source& src : scope->sources) {
      bound += scope->times.size() * MaxRowBytes(src);
    }
  }
  std::string csv;
  csv.reserve(bound);
  FormatCsv(nullptr, &csv);
  return csv;
}

uint64_t TimeSeriesRecorder::total_ticks() const {
  uint64_t total = 0;
  for (const auto& scope : scopes_) {
    total += scope->times.size();
  }
  return total;
}

}  // namespace bsched
