#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/flags.h"
#include "src/common/trace.h"
#include "src/model/zoo.h"
#include "src/runtime/cluster.h"
#include "src/runtime/training_job.h"

namespace bsched {
namespace {

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.empty());
  trace.AddSpan("gpu", "f0", SimTime::Micros(10), SimTime::Micros(40));
  trace.AddInstant("gpu", "marker", SimTime::Micros(50));
  trace.AddSpan("net", "push", SimTime::Micros(0), SimTime::Micros(100));
  EXPECT_EQ(trace.num_events(), 3u);
  EXPECT_EQ(trace.Tracks(), (std::vector<std::string>{"gpu", "net"}));
}

TEST(TraceRecorderTest, TrackBusyTime) {
  TraceRecorder trace;
  trace.AddSpan("gpu", "a", SimTime::Micros(0), SimTime::Micros(30));
  trace.AddSpan("gpu", "b", SimTime::Micros(40), SimTime::Micros(50));
  trace.AddInstant("gpu", "i", SimTime::Micros(60));  // no duration
  EXPECT_EQ(trace.TrackBusyTime("gpu"), SimTime::Micros(40));
  EXPECT_EQ(trace.TrackBusyTime("absent"), SimTime());
}

TEST(TraceRecorderTest, ChromeTraceJsonShape) {
  TraceRecorder trace;
  trace.AddSpan("track \"x\"", "op\\1", SimTime::Micros(5), SimTime::Micros(9));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  // Quotes/backslashes escaped.
  EXPECT_NE(json.find("track \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("op\\\\1"), std::string::npos);
  // Thread-name metadata present.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceRecorderTest, EscapesControlCharactersAndQuotedNames) {
  TraceRecorder trace;
  // A tensor named like an indexed parameter dict entry, plus raw control
  // characters that must never reach the JSON output unescaped.
  trace.AddSpan("net", "grad[\"fc1\"]", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("net", std::string("a\nb\tc\x01"), SimTime::Micros(2), SimTime::Micros(3));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("grad[\\\"fc1\\\"]"), std::string::npos);
  EXPECT_NE(json.find("a\\nb\\tc\\u0001"), std::string::npos);
  // No raw control characters inside any JSON string (the only control
  // bytes in the file are the inter-event newlines).
  for (char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

TEST(TraceRecorderTest, TrackIdsFollowFirstUseOrder) {
  TraceRecorder trace;
  trace.AddSpan("zeta", "a", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("alpha", "b", SimTime::Micros(0), SimTime::Micros(1));
  trace.AddSpan("zeta", "c", SimTime::Micros(2), SimTime::Micros(3));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  // "zeta" was seen first, so it owns the lower tid; the thread_name
  // metadata is emitted in ascending tid order.
  const size_t zeta = json.find("\"name\":\"zeta\"");
  const size_t alpha = json.find("\"name\":\"alpha\"");
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(alpha, std::string::npos);
  EXPECT_LT(zeta, alpha);
}

// Interning a track assigns no tid: tids follow the first recorded event.
TEST(TraceRecorderTest, TidsFollowFirstEventNotInterning) {
  TraceRecorder trace;
  const TraceId early = trace.Intern("interned_first");
  const TraceId late = trace.Intern("recorded_first");
  trace.Intern("never_recorded");
  trace.AddInstant(late, TraceName{}, SimTime::Micros(0));
  trace.AddInstant(early, TraceName{}, SimTime::Micros(1));
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find(R"("tid":0,"name":"thread_name","args":{"name":"recorded_first"})"),
            std::string::npos);
  EXPECT_NE(json.find(R"("tid":1,"name":"thread_name","args":{"name":"interned_first"})"),
            std::string::npos);
  EXPECT_EQ(json.find("never_recorded"), std::string::npos);
  EXPECT_EQ(trace.Tracks(), (std::vector<std::string>{"interned_first", "recorded_first"}));
}

// Composed names, interned arg keys and caller-formatted names export the
// same bytes as the text path.
TEST(TraceRecorderTest, ComposedNamesMatchText) {
  TraceRecorder text;
  text.AddSpan("sched/w0", "conv1.push.p3.push.wait", SimTime::Micros(1), SimTime::Micros(4),
               {TraceArg::Int("layer", 2), TraceArg::Int("bytes", -7)});
  text.AddSpan("ring", "L12.p0", SimTime::Micros(4), SimTime::Micros(6));
  text.AddInstant("faults/injected", "straggler w1", SimTime::Micros(5));
  text.AddInstant("faults/recovery", "timeout w0 L3.p1 #2", SimTime::Micros(6));
  text.AddFlow("sched/w0", "finish", SimTime::Micros(7), 9, FlowPhase::kEnd);

  TraceRecorder ids;
  const TraceId sched = ids.Intern("sched/w0");
  const TraceId sep = ids.Intern(".p");
  ids.AddSpan(sched,
              {.stem = ids.Intern("conv1.push"), .sep = sep, .suffix = ids.Intern(".push.wait"),
               .b = 3},
              SimTime::Micros(1), SimTime::Micros(4),
              {{ids.Intern("layer"), 2}, {ids.Intern("bytes"), -7}});
  ids.AddSpan(ids.Intern("ring"), {.stem = ids.Intern("L"), .sep = sep, .a = 12, .b = 0},
              SimTime::Micros(4), SimTime::Micros(6));
  ids.AddInstant(ids.Intern("faults/injected"), {.stem = ids.Intern("straggler w"), .a = 1},
                 SimTime::Micros(5));
  ids.AddInstant(ids.Intern("faults/recovery"), std::string_view("timeout w0 L3.p1 #2"),
                 SimTime::Micros(6));
  ids.AddFlow(sched, {.stem = ids.Intern("finish")}, SimTime::Micros(7), 9, FlowPhase::kEnd);

  std::ostringstream a;
  std::ostringstream b;
  text.WriteChromeTrace(a);
  ids.WriteChromeTrace(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(ids.num_events(), 5u);
  EXPECT_EQ(ids.num_flow_events(), 1u);
  EXPECT_EQ(ids.TrackBusyTime("sched/w0"), SimTime::Micros(3));
}

TEST(TraceRecorderTest, FlowEventsAndArgs) {
  TraceRecorder trace;
  trace.AddSpan("sched", "admit", SimTime::Micros(0), SimTime::Micros(2),
                {TraceArg::Int("bytes", 4096), TraceArg::Str("tensor", "fc1")});
  trace.AddFlow("sched", "t0.p0", SimTime::Micros(2), 7, FlowPhase::kStart);
  trace.AddFlow("link", "t0.p0", SimTime::Micros(5), 7, FlowPhase::kStep);
  trace.AddFlow("sched", "t0.p0", SimTime::Micros(9), 7, FlowPhase::kEnd);
  EXPECT_EQ(trace.num_flow_events(), 3u);
  std::ostringstream os;
  trace.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Binding point "e" on the closing event; shared flow id and category.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  // Typed args rendered into the span's args object.
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"tensor\":\"fc1\""), std::string::npos);
}

TEST(TraceRecorderTest, JobProducesCoherentTrace) {
  TraceRecorder trace;
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(4);
  job.credit_bytes = MiB(16);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  job.trace = &trace;
  const JobResult result = RunTrainingJob(job);

  // At least: 2 workers x 3 iterations x 16 layers x (fp + bp) compute spans,
  // plus one communication span per (worker, layer, iteration). The
  // observability layer adds scheduler/link/shard detail spans and partition
  // flow arcs on top.
  EXPECT_GE(trace.num_events(), 2u * 3 * 16 * 2 + 2u * 3 * 16);
  EXPECT_GT(trace.num_flow_events(), 0u);
  // GPU busy time per worker equals iterations x model compute time.
  const double gpu_busy = trace.TrackBusyTime("worker0/gpu").ToSeconds();
  EXPECT_NEAR(gpu_busy, 3 * job.model.TotalComputeTime().ToSeconds(), 1e-6);
  // Tracing must not perturb the simulation.
  job.trace = nullptr;
  EXPECT_EQ(RunTrainingJob(job).avg_iter_time, result.avg_iter_time);
}

TEST(FlagsTest, KeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7.5", "--gamma", "--delta=hello"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0), 7.5);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("delta", ""), "hello");
  EXPECT_FALSE(flags.Has("epsilon"));
  EXPECT_EQ(flags.GetInt("epsilon", 42), 42);
}

TEST(FlagsTest, NumbersMustBeWhole) {
  const char* argv[] = {"prog", "--n=-12", "--x=2.5e-3", "--bad=5x", "--word=abc", "--bare"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.GetInt("n", 0), -12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0), 2.5e-3);
  EXPECT_EXIT(flags.GetInt("bad", 0), ::testing::ExitedWithCode(2), "--bad: '5x'");
  EXPECT_EXIT(flags.GetDouble("bad", 0), ::testing::ExitedWithCode(2), "--bad: '5x'");
  EXPECT_EXIT(flags.GetInt("word", 0), ::testing::ExitedWithCode(2), "--word: 'abc'");
  EXPECT_EXIT(flags.GetInt("bare", 0), ::testing::ExitedWithCode(2), "--bare: 'true'");
}

TEST(FlagsTest, PositionalAndErrors) {
  const char* argv[] = {"prog", "input.txt", "-x", "--ok=1", "more"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"input.txt", "more"}));
  EXPECT_EQ(flags.errors(), (std::vector<std::string>{"-x"}));
  EXPECT_TRUE(flags.Has("ok"));
}

TEST(FlagsTest, BareFlagBeforeAnotherFlag) {
  const char* argv[] = {"prog", "--verbose", "--level=2"};
  Flags flags(3, argv);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("level", 0), 2);
}

TEST(FlagsTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"};
  Flags flags(6, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(FlagsTest, BoolMustBeABoolSpelling) {
  const char* argv[] = {"prog", "--n=no", "--obs=/some/dir", "--on=on", "--empty="};
  Flags flags(5, argv);
  EXPECT_FALSE(flags.GetBool("n", true));
  EXPECT_EXIT(flags.GetBool("obs", false), ::testing::ExitedWithCode(2), "--obs: '/some/dir'");
  EXPECT_EXIT(flags.GetBool("on", false), ::testing::ExitedWithCode(2), "--on: 'on'");
  EXPECT_EXIT(flags.GetBool("empty", false), ::testing::ExitedWithCode(2), "--empty: ''");
  EXPECT_EXIT(ParseObsFlags(flags), ::testing::ExitedWithCode(2), "--obs: '/some/dir'");
}

TEST(ObsFlagsTest, DisabledByDefault) {
  const char* argv[] = {"prog", "--jobs=4"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_FALSE(obs.enabled());
  EXPECT_TRUE(obs.trace_path.empty());
  EXPECT_TRUE(obs.metrics_path.empty());
}

TEST(ObsFlagsTest, ExplicitPaths) {
  const char* argv[] = {"prog", "--trace=/tmp/t.json", "--metrics=/tmp/m.json"};
  const ObsFlags obs = ParseObsFlags(Flags(3, argv));
  EXPECT_TRUE(obs.enabled());
  EXPECT_EQ(obs.trace_path, "/tmp/t.json");
  EXPECT_EQ(obs.metrics_path, "/tmp/m.json");
}

TEST(ObsFlagsTest, BareFlagsUseDefaults) {
  const char* argv[] = {"prog", "--trace"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_EQ(obs.trace_path, "trace.json");
  EXPECT_TRUE(obs.metrics_path.empty());
}

TEST(ObsFlagsTest, ObsEnablesBoth) {
  const char* argv[] = {"prog", "--obs"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_EQ(obs.trace_path, "trace.json");
  EXPECT_EQ(obs.metrics_path, "metrics.json");
}

TEST(ObsFlagsTest, ObsKeepsExplicitPaths) {
  const char* argv[] = {"prog", "--obs", "--trace=custom.json"};
  const ObsFlags obs = ParseObsFlags(Flags(3, argv));
  EXPECT_EQ(obs.trace_path, "custom.json");
  EXPECT_EQ(obs.metrics_path, "metrics.json");
}

TEST(ObsFlagsTest, SampleEveryAloneImpliesTimeseries) {
  const char* argv[] = {"prog", "--sample-every", "50"};
  const ObsFlags obs = ParseObsFlags(Flags(3, argv));
  EXPECT_TRUE(obs.error.empty());
  EXPECT_EQ(obs.timeseries_path, "timeseries.csv");
  EXPECT_EQ(obs.sample_every_us, 50);
}

TEST(ObsFlagsTest, TimeseriesDefaultsTo100us) {
  const char* argv[] = {"prog", "--timeseries=/tmp/ts.csv"};
  const ObsFlags obs = ParseObsFlags(Flags(2, argv));
  EXPECT_TRUE(obs.error.empty());
  EXPECT_EQ(obs.timeseries_path, "/tmp/ts.csv");
  EXPECT_EQ(obs.sample_every_us, 100);
}

TEST(ObsFlagsTest, RejectsNonPositiveSampleEvery) {
  // Each used to fall back to 100us, or (alone) to switch sampling off.
  const std::vector<std::vector<const char*>> cases = {
      {"prog", "--sample-every", "-5"},
      {"prog", "--sample-every=0"},
      {"prog", "--timeseries", "--sample-every=0"},
      {"prog", "--obs", "--sample-every=-100"},
      {"prog", "--sample-every=fast"},
      {"prog", "--sample-every"},
  };
  for (const auto& argv : cases) {
    const ObsFlags obs = ParseObsFlags(Flags(static_cast<int>(argv.size()), argv.data()));
    EXPECT_NE(obs.error.find("--sample-every"), std::string::npos) << argv.back();
  }
}

TEST(PerLayerPartitionTest, OverridesUniformSize) {
  JobConfig job;
  job.model = Vgg16();
  job.setup = Setup::MxnetPsRdma();
  job.num_machines = 2;
  job.bandwidth = Bandwidth::Gbps(100);
  job.mode = SchedMode::kByteScheduler;
  job.partition_bytes = MiB(2);
  job.credit_bytes = MiB(10);
  job.warmup_iters = 1;
  job.measure_iters = 2;
  const JobResult uniform = RunTrainingJob(job);

  // Same sizes expressed per layer: identical result.
  job.per_layer_partition.assign(job.model.layers.size(), MiB(2));
  EXPECT_EQ(RunTrainingJob(job).avg_iter_time, uniform.avg_iter_time);

  // Absurd per-layer sizes for the big fc layers: must change (hurt) timing.
  job.per_layer_partition.assign(job.model.layers.size(), MiB(2));
  job.per_layer_partition[13] = KiB(16);  // fc6 in 16 KiB pieces
  const JobResult skewed = RunTrainingJob(job);
  EXPECT_GT(skewed.avg_iter_time, uniform.avg_iter_time);
}

}  // namespace
}  // namespace bsched
