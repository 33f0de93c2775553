#include "src/common/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace bsched {
namespace {

// Full JSON string escaping: quotes, backslashes, and control characters
// (tensor names like grad["fc1"] or layer\tname must survive round-trip).
std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Fixed-precision microsecond timestamps: default double formatting drops
// sub-microsecond digits past 6 significant figures, which breaks span
// ordering for long runs.
std::string Micros(int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", SimTime(ns).ToMicros());
  return buf;
}

void WriteArgs(std::ostream& os, const std::vector<TraceArg>& args) {
  os << R"(,"args":{)";
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << '"' << Escape(arg.key) << "\":";
    switch (arg.kind) {
      case TraceArg::Kind::kInt:
        os << arg.int_value;
        break;
      case TraceArg::Kind::kDouble:
        os << arg.double_value;
        break;
      case TraceArg::Kind::kString:
        os << '"' << Escape(arg.string_value) << '"';
        break;
    }
  }
  os << "}";
}

}  // namespace

TraceArg TraceArg::Int(std::string key, int64_t v) {
  TraceArg arg;
  arg.key = std::move(key);
  arg.kind = Kind::kInt;
  arg.int_value = v;
  return arg;
}

TraceArg TraceArg::Double(std::string key, double v) {
  TraceArg arg;
  arg.key = std::move(key);
  arg.kind = Kind::kDouble;
  arg.double_value = v;
  return arg;
}

TraceArg TraceArg::Str(std::string key, std::string v) {
  TraceArg arg;
  arg.key = std::move(key);
  arg.kind = Kind::kString;
  arg.string_value = std::move(v);
  return arg;
}

TraceRecorder::TraceRecorder() { Intern(""); }

TraceId TraceRecorder::Intern(std::string_view text) {
  if (const auto it = ids_.find(text); it != ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<TraceId>(texts_.size());
  ids_.emplace(texts_.emplace_back(text), id);
  tids_.push_back(-1);
  return id;
}

TraceRecorder::Record& TraceRecorder::Add(TraceId track, const TraceName& name, SimTime start,
                                          SimTime end, EventKind kind) {
  BSCHED_DCHECK(track < tids_.size());
  if (tids_[track] < 0) {
    tids_[track] = static_cast<int32_t>(tid_tracks_.size());
    tid_tracks_.push_back(track);
  }
  return records_.emplace_back(
      Record{name, start.nanos(), end.nanos(), 0, track, 0, 0, kind, FlowPhase::kStart, 0});
}

void TraceRecorder::AddSpan(TraceId track, const TraceName& name, SimTime start, SimTime end,
                            std::initializer_list<TraceIntArg> args) {
  BSCHED_CHECK(end >= start);
  BSCHED_DCHECK(args.size() <= UINT8_MAX);
  Record& rec = Add(track, name, start, end, EventKind::kSpan);
  rec.args = static_cast<uint32_t>(args_.size());
  rec.num_args = static_cast<uint8_t>(args.size());
  args_.insert(args_.end(), args.begin(), args.end());
}

void TraceRecorder::AddInstant(TraceId track, const TraceName& name, SimTime at) {
  Add(track, name, at, at, EventKind::kInstant);
}

void TraceRecorder::AddInstant(TraceId track, std::string_view name, SimTime at) {
  Add(track, TextName(name), at, at, EventKind::kInstant).flags = kTextName;
}

void TraceRecorder::AddFlow(TraceId track, const TraceName& name, SimTime at, uint64_t flow_id,
                            FlowPhase phase) {
  BSCHED_CHECK(flow_id != 0);
  Record& rec = Add(track, name, at, at, EventKind::kFlow);
  rec.flow_id = flow_id;
  rec.flow_phase = phase;
  ++num_flow_events_;
}

TraceName TraceRecorder::TextName(std::string_view text) {
  TraceName name;
  name.a = static_cast<int64_t>(text_.size());
  name.b = static_cast<int64_t>(text.size());
  text_.append(text);
  return name;
}

void TraceRecorder::AddSpan(const std::string& track, const std::string& name, SimTime start,
                            SimTime end) {
  AddSpan(track, name, start, end, {});
}

void TraceRecorder::AddSpan(const std::string& track, const std::string& name, SimTime start,
                            SimTime end, std::vector<TraceArg> args) {
  BSCHED_CHECK(end >= start);
  Record& rec = Add(Intern(track), TextName(name), start, end, EventKind::kSpan);
  rec.flags = kTextName;
  if (!args.empty()) {
    rec.flags |= kSlowArgs;
    rec.args = static_cast<uint32_t>(slow_args_.size());
    slow_args_.push_back(std::move(args));
  }
}

void TraceRecorder::AddInstant(const std::string& track, const std::string& name, SimTime at) {
  AddInstant(Intern(track), std::string_view(name), at);
}

void TraceRecorder::AddFlow(const std::string& track, const std::string& name, SimTime at,
                            uint64_t flow_id, FlowPhase phase) {
  const TraceName text = TextName(name);
  AddFlow(Intern(track), text, at, flow_id, phase);
  records_.back().flags = kTextName;
}

void TraceRecorder::WriteName(std::ostream& os, const Record& rec,
                              const std::vector<std::string>& escaped) const {
  const TraceName& name = rec.name;
  if ((rec.flags & kTextName) != 0) {
    os << Escape(std::string_view(text_).substr(static_cast<size_t>(name.a),
                                                static_cast<size_t>(name.b)));
    return;
  }
  os << escaped[name.stem];
  if (name.a != TraceName::kNone) {
    os << name.a;
  }
  if (name.b != TraceName::kNone) {
    os << escaped[name.sep] << name.b;
  }
  os << escaped[name.suffix];
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  std::vector<std::string> escaped;
  escaped.reserve(texts_.size());
  for (const std::string& text : texts_) {
    escaped.push_back(Escape(text));
  }
  os << "[\n";
  bool first = true;
  // Thread-name metadata in ascending tid order (== first-event order), so
  // the file layout is deterministic and matches Perfetto's track numbering.
  for (size_t tid = 0; tid < tid_tracks_.size(); ++tid) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << R"({"ph":"M","pid":1,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << escaped[tid_tracks_[tid]] << "\"}}";
  }
  for (const Record& rec : records_) {
    const int tid = tids_[rec.track];
    if (!first) {
      os << ",\n";
    }
    first = false;
    switch (rec.kind) {
      case EventKind::kInstant:
        os << R"({"ph":"i","pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(rec.start)
           << R"(,"s":"t","name":")";
        WriteName(os, rec, escaped);
        os << "\"}";
        break;
      case EventKind::kSpan:
        os << R"({"ph":"X","pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(rec.start)
           << R"(,"dur":)" << Micros(rec.end - rec.start) << R"(,"name":")";
        WriteName(os, rec, escaped);
        os << '"';
        if ((rec.flags & kSlowArgs) != 0) {
          WriteArgs(os, slow_args_[rec.args]);
        } else if (rec.num_args > 0) {
          os << R"(,"args":{)";
          for (uint32_t i = rec.args; i < rec.args + rec.num_args; ++i) {
            os << (i == rec.args ? "\"" : ",\"") << escaped[args_[i].key] << "\":"
               << args_[i].value;
          }
          os << "}";
        }
        os << "}";
        break;
      case EventKind::kFlow: {
        const char* ph = rec.flow_phase == FlowPhase::kStart  ? "s"
                         : rec.flow_phase == FlowPhase::kStep ? "t"
                                                              : "f";
        os << R"({"ph":")" << ph << R"(","cat":"flow","id":)" << rec.flow_id
           << R"(,"pid":1,"tid":)" << tid << R"(,"ts":)" << Micros(rec.start);
        if (rec.flow_phase == FlowPhase::kEnd) {
          // Bind to the enclosing slice so the arrow lands on the span that
          // contains this point rather than the next slice to start.
          os << R"(,"bp":"e")";
        }
        os << R"(,"name":")";
        WriteName(os, rec, escaped);
        os << "\"}";
        break;
      }
    }
  }
  os << "\n]\n";
}

SimTime TraceRecorder::TrackBusyTime(const std::string& track) const {
  SimTime total;
  const auto it = ids_.find(track);
  if (it == ids_.end()) {
    return total;
  }
  for (const Record& rec : records_) {
    if (rec.track == it->second && rec.kind == EventKind::kSpan) {
      total += SimTime(rec.end - rec.start);
    }
  }
  return total;
}

std::vector<std::string> TraceRecorder::Tracks() const {
  std::vector<std::string> tracks;
  tracks.reserve(tid_tracks_.size());
  for (const TraceId track : tid_tracks_) {
    tracks.push_back(texts_[track]);
  }
  std::sort(tracks.begin(), tracks.end());
  return tracks;
}

}  // namespace bsched
