#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/comm/backend.h"
#include "src/common/trace.h"
#include "src/core/comm_task.h"
#include "src/core/scheduler_core.h"
#include "src/obs/json_lite.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "tests/reference_core.h"

namespace bsched {
namespace {

// Backend that records admissions and lets the test complete them manually,
// emulating the underlying FIFO stack.
class MockBackend : public CommBackend {
 public:
  void Start(const SubCommTask& subtask, Callback on_finish) override {
    started.push_back(subtask);
    pending.push_back(std::move(on_finish));
  }

  // Completes the oldest in-flight subtask (FIFO, like a network queue).
  void FinishOldest() {
    ASSERT_FALSE(pending.empty());
    auto cb = std::move(pending.front());
    pending.pop_front();
    cb();
  }

  void FinishAll() {
    while (!pending.empty()) {
      FinishOldest();
    }
  }

  std::vector<SubCommTask> started;
  std::deque<Callback> pending;
};

CommTaskDesc MakeDesc(int layer, Bytes bytes, CommOpType type = CommOpType::kPush) {
  CommTaskDesc desc;
  desc.layer = layer;
  desc.tensor_bytes = bytes;
  desc.type = type;
  desc.name = "t" + std::to_string(layer);
  return desc;
}

TEST(SchedulerConfigTest, Presets) {
  SchedulerConfig vanilla = SchedulerConfig::Vanilla();
  EXPECT_EQ(vanilla.policy, SchedulerConfig::Policy::kFifo);
  EXPECT_EQ(vanilla.partition_bytes, SchedulerConfig::kNoPartition);
  EXPECT_EQ(vanilla.credit_bytes, SchedulerConfig::kUnlimited);

  SchedulerConfig p3 = SchedulerConfig::P3();
  EXPECT_EQ(p3.policy, SchedulerConfig::Policy::kPriority);
  EXPECT_EQ(p3.partition_bytes, KiB(160));
  EXPECT_EQ(p3.credit_bytes, KiB(160));

  SchedulerConfig bs = SchedulerConfig::ByteScheduler(MiB(4), MiB(16));
  EXPECT_EQ(bs.partition_bytes, MiB(4));
  EXPECT_EQ(bs.credit_bytes, MiB(16));
}

TEST(CommOpTypeTest, ToString) {
  EXPECT_STREQ(ToString(CommOpType::kPush), "push");
  EXPECT_STREQ(ToString(CommOpType::kPull), "pull");
  EXPECT_STREQ(ToString(CommOpType::kAllReduce), "allreduce");
}

TEST(SchedulerCoreTest, PartitionCount) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId exact = core.Enqueue(MakeDesc(0, MiB(4)));
  EXPECT_EQ(core.NumPartitions(exact), 4);
  CommTaskId remainder = core.Enqueue(MakeDesc(1, MiB(4) + 1));
  EXPECT_EQ(core.NumPartitions(remainder), 5);
  CommTaskId small = core.Enqueue(MakeDesc(2, KiB(100)));
  EXPECT_EQ(core.NumPartitions(small), 1);
}

TEST(SchedulerCoreTest, NoPartitioningKeepsTensorWhole) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::Vanilla(), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(64)));
  EXPECT_EQ(core.NumPartitions(id), 1);
}

TEST(SchedulerCoreTest, NothingStartsBeforeNotifyReady) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(64)), &backend);
  core.Enqueue(MakeDesc(0, MiB(2)));
  EXPECT_TRUE(backend.started.empty());
}

TEST(SchedulerCoreTest, NotifyReadyStartsAllPartitions) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(3)));
  core.NotifyReady(id);
  ASSERT_EQ(backend.started.size(), 3u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(backend.started[p].partition, p);
    EXPECT_EQ(backend.started[p].bytes, MiB(1));
  }
}

TEST(SchedulerCoreTest, PriorityOrdersByLayer) {
  MockBackend backend;
  // Credit of one partition: admissions are strictly one at a time, so the
  // admission order exposes the queue order.
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  CommTaskId late = core.Enqueue(MakeDesc(5, MiB(1)));
  CommTaskId early = core.Enqueue(MakeDesc(1, MiB(1)));
  CommTaskId mid = core.Enqueue(MakeDesc(3, MiB(1)));
  core.NotifyReady(late);
  core.NotifyReady(early);
  core.NotifyReady(mid);
  // Layer 5 was ready first and admitted immediately (the queue was empty).
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(backend.started[0].layer, 5);
  // As credits return, priority picks layer 1 then 3.
  backend.FinishOldest();
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(backend.started[1].layer, 1);
  backend.FinishOldest();
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].layer, 3);
}

TEST(SchedulerCoreTest, FifoPolicyIgnoresLayer) {
  MockBackend backend;
  SchedulerConfig cfg = SchedulerConfig::Vanilla();
  cfg.credit_bytes = MiB(1);  // serialize admissions to observe order
  SchedulerCore core(cfg, &backend);
  std::vector<CommTaskId> ids;
  for (int layer : {7, 2, 9, 0}) {
    ids.push_back(core.Enqueue(MakeDesc(layer, MiB(1))));
  }
  for (CommTaskId id : ids) {
    core.NotifyReady(id);
  }
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 4u);
  EXPECT_EQ(backend.started[0].layer, 7);
  EXPECT_EQ(backend.started[1].layer, 2);
  EXPECT_EQ(backend.started[2].layer, 9);
  EXPECT_EQ(backend.started[3].layer, 0);
}

TEST(SchedulerCoreTest, PullBeatsPushAtSameLayer) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  CommTaskId blocker = core.Enqueue(MakeDesc(9, MiB(1)));
  core.NotifyReady(blocker);  // occupies the credit
  CommTaskId push = core.Enqueue(MakeDesc(2, MiB(1), CommOpType::kPush));
  CommTaskId pull = core.Enqueue(MakeDesc(2, MiB(1), CommOpType::kPull));
  core.NotifyReady(push);
  core.NotifyReady(pull);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[1].type, CommOpType::kPull);
  EXPECT_EQ(backend.started[2].type, CommOpType::kPush);
}

TEST(SchedulerCoreTest, CreditLimitsInFlightBytes) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(3)), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(10)));
  core.NotifyReady(id);
  // Only 3 MiB of credit: exactly 3 partitions admitted.
  EXPECT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(core.credit(), 0);
  backend.FinishOldest();
  EXPECT_EQ(backend.started.size(), 4u);
}

TEST(SchedulerCoreTest, CreditReturnsOnFinish) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(2)), &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(2)));
  core.NotifyReady(id);
  EXPECT_EQ(core.credit(), 0);
  backend.FinishAll();
  EXPECT_EQ(core.credit(), MiB(2));
}

TEST(SchedulerCoreTest, OversizedSubtaskAdmittedOnlyAtFullCredit) {
  MockBackend backend;
  // Partitioning disabled but priority on: a 4 MiB tensor with 1 MiB credit.
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(SchedulerConfig::kNoPartition, MiB(1));
  SchedulerCore core(cfg, &backend);
  CommTaskId big = core.Enqueue(MakeDesc(0, MiB(4)));
  core.NotifyReady(big);
  // Admitted despite exceeding the pool (pool was full), charging the pool.
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(core.credit(), 0);
  CommTaskId next = core.Enqueue(MakeDesc(1, KiB(1)));
  core.NotifyReady(next);
  EXPECT_EQ(backend.started.size(), 1u);  // blocked: no credit
  backend.FinishOldest();
  EXPECT_EQ(core.credit(), MiB(1) - KiB(1));
  EXPECT_EQ(backend.started.size(), 2u);
}

TEST(SchedulerCoreTest, HeadOfLineBlocking) {
  MockBackend backend;
  // Algorithm 1 waits for the head subtask's credit; it does not bypass it
  // with a smaller lower-priority subtask.
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(SchedulerConfig::kNoPartition, MiB(2));
  SchedulerCore core(cfg, &backend);
  CommTaskId hog = core.Enqueue(MakeDesc(5, MiB(1)));
  core.NotifyReady(hog);  // in flight, credit = 1 MiB left
  CommTaskId head = core.Enqueue(MakeDesc(0, MiB(2)));   // needs 2 MiB
  CommTaskId small = core.Enqueue(MakeDesc(1, KiB(1)));  // would fit
  core.NotifyReady(head);
  core.NotifyReady(small);
  EXPECT_EQ(backend.started.size(), 1u);  // both wait behind the head
  backend.FinishOldest();  // hog returns 1 MiB -> pool full -> head admitted
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(backend.started[1].layer, 0);
  backend.FinishOldest();  // head returns its credit -> small admitted
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].layer, 1);
}

TEST(SchedulerCoreTest, OnFinishFiresWhenAllPartitionsDone) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  int finished = 0;
  CommTaskDesc desc = MakeDesc(0, MiB(3));
  desc.on_finish = [&] { ++finished; };
  CommTaskId id = core.Enqueue(std::move(desc));
  core.NotifyReady(id);
  backend.FinishOldest();
  backend.FinishOldest();
  EXPECT_EQ(finished, 0);
  backend.FinishOldest();
  EXPECT_EQ(finished, 1);
  EXPECT_EQ(core.tasks_finished(), 1u);
}

TEST(SchedulerCoreTest, PartitionFinishCallbackChainsReadiness) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  // PS plugin pattern: pull partitions become ready as push partitions ack.
  CommTaskDesc pull_desc = MakeDesc(0, MiB(2), CommOpType::kPull);
  CommTaskId pull = core.Enqueue(std::move(pull_desc));

  CommTaskDesc push_desc = MakeDesc(0, MiB(2), CommOpType::kPush);
  push_desc.on_partition_finish = [&core, pull](int p) { core.NotifyReadyPartition(pull, p); };
  CommTaskId push = core.Enqueue(std::move(push_desc));

  core.NotifyReady(push);
  ASSERT_EQ(backend.started.size(), 2u);
  backend.FinishOldest();  // push partition 0 acked
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].type, CommOpType::kPull);
  EXPECT_EQ(backend.started[2].partition, 0);
  backend.FinishOldest();  // push partition 1
  ASSERT_EQ(backend.started.size(), 4u);
  EXPECT_EQ(backend.started[3].partition, 1);
}

TEST(SchedulerCoreTest, DoubleNotifyReadyIsIdempotent) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend);
  CommTaskId id = core.Enqueue(MakeDesc(0, MiB(2)));
  core.NotifyReady(id);
  core.NotifyReady(id);
  core.NotifyReadyPartition(id, 0);
  EXPECT_EQ(backend.started.size(), 2u);
}

TEST(SchedulerCoreTest, WorkerIdPropagates) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend, /*worker_id=*/3);
  CommTaskDesc desc = MakeDesc(0, MiB(1));
  desc.worker = 3;
  CommTaskId id = core.Enqueue(std::move(desc));
  core.NotifyReady(id);
  ASSERT_EQ(backend.started.size(), 1u);
  EXPECT_EQ(backend.started[0].worker, 3);
}

TEST(SchedulerCoreTest, StressManyTasksConserveCredit) {
  MockBackend backend;
  const Bytes credit = MiB(7);
  SchedulerCore core(SchedulerConfig::ByteScheduler(KiB(256), credit), &backend);
  std::vector<CommTaskId> ids;
  for (int layer = 0; layer < 40; ++layer) {
    ids.push_back(core.Enqueue(MakeDesc(layer, KiB(700) + layer * 13)));
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    core.NotifyReady(*it);
  }
  // Drain everything, finishing in admission order.
  while (!backend.pending.empty()) {
    backend.FinishOldest();
  }
  EXPECT_EQ(core.credit(), credit);
  EXPECT_EQ(core.tasks_finished(), 40u);
  EXPECT_EQ(core.queue_length(), 0u);
}

// Property: under priority policy, whenever credit frees up, the admitted
// subtask has the minimal (layer, type) key among queued-ready subtasks.
TEST(SchedulerCoreTest, PropertyAdmissionIsPriorityOrderedUnderSerialCredit) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(KiB(512), KiB(512)), &backend);
  // Make tasks ready in descending priority so the queue always holds all
  // remaining work, then check admissions are ascending by layer.
  std::vector<CommTaskId> ids;
  for (int layer = 19; layer >= 0; --layer) {
    CommTaskId id = core.Enqueue(MakeDesc(layer, KiB(512)));
    core.NotifyReady(id);
    ids.push_back(id);
  }
  // First admission was layer 19 (queue empty at the time). Finish it, then
  // the rest must come out 0,1,2,...
  backend.FinishOldest();
  while (!backend.pending.empty()) {
    backend.FinishOldest();
  }
  ASSERT_EQ(backend.started.size(), 20u);
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(backend.started[i].layer, i - 1) << "admission " << i;
  }
}

// A traced pull admitted with no earlier push for its partition opens its
// own flow arc: the admit point is the arc's start ("ph":"s") and the pull's
// finish ends it. TrainingJob never takes this branch today: every pull it
// issues (a PS pull, or a TF step-start variable read) follows the push of
// the same partition on the same Core, whose arc stays open until a pull
// closes it (checked on traced MXNet and TF PS jobs, synchronous and
// asynchronous, in every mode). This Core-level test is its only coverage.
TEST(SchedulerCoreTest, TracedPullWithoutPushOpensItsOwnFlow) {
  Simulator sim;
  TraceRecorder trace;
  ObsContext obs(&trace, nullptr);
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), SchedulerConfig::kUnlimited),
                     &backend, /*worker_id=*/0, &sim, /*faults=*/nullptr, &obs);
  const CommTaskId pull = core.Enqueue(MakeDesc(0, MiB(2), CommOpType::kPull));
  core.NotifyReady(pull);
  ASSERT_EQ(backend.started.size(), 2u);
  const uint64_t flow0 = backend.started[0].flow;
  const uint64_t flow1 = backend.started[1].flow;
  EXPECT_NE(flow0, 0u);
  EXPECT_NE(flow1, 0u);
  EXPECT_NE(flow0, flow1);
  EXPECT_EQ(obs.LookupPartitionFlow(0, 0, 0), flow0);
  backend.FinishAll();
  EXPECT_EQ(obs.LookupPartitionFlow(0, 0, 0), 0u);
  EXPECT_EQ(obs.LookupPartitionFlow(0, 0, 1), 0u);

  std::ostringstream os;
  trace.WriteChromeTrace(os);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(os.str(), &root, &error)) << error;
  std::map<std::string, std::string> admit_phase;  // admit name -> phase
  std::map<uint64_t, std::string> phases;          // flow id -> phases in order
  for (const obs::JsonValue& ev : root.array) {
    const std::string ph = ev.Find("ph")->str;
    if (ph != "s" && ph != "t" && ph != "f") {
      continue;
    }
    phases[static_cast<uint64_t>(ev.Find("id")->IntOr(0))] += ph;
    const std::string name = ev.Find("name")->str;
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".admit") == 0) {
      admit_phase[name] = ph;
    }
  }
  EXPECT_EQ(admit_phase["t0.p0.pull.admit"], "s");
  EXPECT_EQ(admit_phase["t0.p1.pull.admit"], "s");
  EXPECT_EQ(phases[flow0], "sf");
  EXPECT_EQ(phases[flow1], "sf");
}

// ---- Partition runs ---------------------------------------------------------

// A task partly readied one partition at a time is queued as a run of one
// plus a run per remaining block; queue_length() still counts partitions,
// and admission follows arrival order: the early partition, then the rest.
TEST(SchedulerCoreRunTest, PartialReadinessSplitsTaskIntoRuns) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  core.NotifyReady(core.Enqueue(MakeDesc(9, MiB(1))));  // holds the credit
  const CommTaskId task = core.Enqueue(MakeDesc(0, MiB(5)));
  core.NotifyReadyPartition(task, 2);
  EXPECT_EQ(core.queue_length(), 1u);
  core.NotifyReady(task);  // runs [0, 2) and [3, 5)
  EXPECT_EQ(core.queue_length(), 5u);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 6u);
  const std::vector<int> expected = {2, 0, 1, 3, 4};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(backend.started[i + 1].task, task);
    EXPECT_EQ(backend.started[i + 1].partition, expected[i]) << "admission " << i + 1;
    EXPECT_EQ(backend.started[i + 1].bytes, MiB(1));
  }
  EXPECT_EQ(core.queue_length(), 0u);
}

// A higher-priority task readied while a long run is half admitted takes
// the next credit; the rest of the run follows it.
TEST(SchedulerCoreRunTest, HigherPriorityRunOvertakesHalfAdmittedRun) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(2)), &backend);
  const CommTaskId low = core.Enqueue(MakeDesc(5, MiB(4)));
  core.NotifyReady(low);
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(core.queue_length(), 2u);
  const CommTaskId high = core.Enqueue(MakeDesc(1, MiB(2)));
  core.NotifyReady(high);
  EXPECT_EQ(core.queue_length(), 4u);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 6u);
  const std::vector<std::pair<CommTaskId, int>> expected = {{low, 0},  {low, 1},  {high, 0},
                                                            {high, 1}, {low, 2}, {low, 3}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(backend.started[i].task, expected[i].first) << "admission " << i;
    EXPECT_EQ(backend.started[i].partition, expected[i].second) << "admission " << i;
  }
}

// Under kFifo every task shares one rank, so runs are admitted strictly in
// the order they became ready, whatever their layers.
TEST(SchedulerCoreRunTest, FifoPolicyAdmitsRunsInReadyOrder) {
  MockBackend backend;
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(MiB(1), MiB(1));
  cfg.policy = SchedulerConfig::Policy::kFifo;
  SchedulerCore core(cfg, &backend);
  const CommTaskId a = core.Enqueue(MakeDesc(7, MiB(2)));
  const CommTaskId b = core.Enqueue(MakeDesc(0, MiB(2), CommOpType::kAllReduce));
  core.NotifyReadyPartition(a, 1);
  core.NotifyReady(b);
  core.NotifyReady(a);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 4u);
  const std::vector<std::pair<CommTaskId, int>> expected = {{a, 1}, {b, 0}, {b, 1}, {a, 0}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(backend.started[i].task, expected[i].first) << "admission " << i;
    EXPECT_EQ(backend.started[i].partition, expected[i].second) << "admission " << i;
  }
}

// DebugString names the head partition of a half-admitted run, not the
// partition the run started at.
TEST(SchedulerCoreRunTest, DebugStringShowsHeadPartitionOfRun) {
  MockBackend backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(2)), &backend);
  core.NotifyReady(core.Enqueue(MakeDesc(3, MiB(4) + KiB(1))));
  const std::string debug = core.DebugString();
  EXPECT_NE(debug.find("credit=0/2097152"), std::string::npos) << debug;
  EXPECT_NE(debug.find("queued=3"), std::string::npos) << debug;
  EXPECT_NE(debug.find("head=(layer=3 push part=2 bytes=1048576)"), std::string::npos) << debug;
  backend.FinishOldest();
  backend.FinishOldest();  // admits partitions 2 and 3; the 1 KiB tail heads
  EXPECT_NE(core.DebugString().find("head=(layer=3 push part=4 bytes=1024)"), std::string::npos)
      << core.DebugString();
}

// Backend for recovery tests: swallows the first `lose_first` starts (lost
// messages) and holds the rest until the test completes them.
class LossyBackend : public MockBackend {
 public:
  explicit LossyBackend(size_t lose_first) : lose_first_(lose_first) {}
  void Start(const SubCommTask& subtask, Callback on_finish) override {
    if (started.size() < lose_first_) {
      started.push_back(subtask);
      lost.push_back(std::move(on_finish));
      return;
    }
    MockBackend::Start(subtask, std::move(on_finish));
  }
  std::vector<Callback> lost;

 private:
  size_t lose_first_;
};

// Two retries of one rank wait behind a higher-priority head that needs the
// full credit pool. The second retry is older than a run readied after it
// but younger than the first retry, so it must go between them: admission
// resumes with both retries in seq order, then the later run.
TEST(SchedulerCoreRunTest, RetriesRequeueBetweenOlderAndNewerRuns) {
  Simulator sim;
  LossyBackend backend(/*lose_first=*/2);
  SchedulerConfig cfg = SchedulerConfig::ByteScheduler(MiB(1), MiB(2));
  cfg.retry.timeout = SimTime::Millis(10);
  SchedulerCore core(cfg, &backend, 0, &sim);
  const CommTaskId lost = core.Enqueue(MakeDesc(5, MiB(2)));
  core.NotifyReady(lost);  // both partitions admitted and lost
  const CommTaskId later = core.Enqueue(MakeDesc(5, MiB(2)));
  core.NotifyReady(later);  // queued behind them at the same rank
  CommTaskDesc hog_desc = MakeDesc(0, MiB(4));
  hog_desc.partition_bytes_override = MiB(4);  // admitted only at full credit
  const CommTaskId hog = core.Enqueue(std::move(hog_desc));
  core.NotifyReady(hog);
  ASSERT_EQ(backend.started.size(), 2u);
  EXPECT_EQ(core.queue_length(), 3u);

  sim.Run(SimTime::Millis(10));  // both attempts time out; the hog takes the pool
  EXPECT_EQ(core.retries(), 2u);
  ASSERT_EQ(backend.started.size(), 3u);
  EXPECT_EQ(backend.started[2].task, hog);
  EXPECT_EQ(core.queue_length(), 4u);
  backend.FinishAll();
  ASSERT_EQ(backend.started.size(), 7u);
  const std::vector<std::pair<CommTaskId, int>> expected = {
      {lost, 0}, {lost, 1}, {later, 0}, {later, 1}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(backend.started[i + 3].task, expected[i].first) << "admission " << i + 3;
    EXPECT_EQ(backend.started[i + 3].partition, expected[i].second) << "admission " << i + 3;
  }
  sim.Run();
  EXPECT_EQ(core.credit(), core.credit_cap());
  EXPECT_EQ(core.tasks_finished(), 3u);
}

// A backend that completes every subtask inside Start re-enters the Core
// while it admits: each finish readies the next task's partitions, which
// grows the rank FIFO the admission loop is walking.
TEST(SchedulerCoreRunTest, InlineCompletionsReenterAdmission) {
  struct InlineBackend : CommBackend {
    void Start(const SubCommTask& subtask, Callback on_finish) override {
      started.push_back(subtask);
      on_finish();
    }
    std::vector<SubCommTask> started;
  } backend;
  SchedulerCore core(SchedulerConfig::ByteScheduler(MiB(1), MiB(1)), &backend);
  constexpr int kTasks = 40;
  std::vector<CommTaskId> ids;
  for (int i = 0; i < kTasks; ++i) {
    ids.push_back(core.Enqueue(MakeDesc(0, MiB(3))));
  }
  for (int i = 0; i + 1 < kTasks; ++i) {
    CommTaskDesc desc = MakeDesc(0, MiB(1));
    const CommTaskId next = ids[i + 1];
    desc.on_finish = [&core, next] { core.NotifyReady(next); };
    core.NotifyReady(core.Enqueue(std::move(desc)));
  }
  core.NotifyReady(ids[0]);
  EXPECT_EQ(backend.started.size(), static_cast<size_t>(kTasks * 3 + kTasks - 1));
  EXPECT_EQ(core.tasks_finished(), static_cast<uint64_t>(2 * kTasks - 1));
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_EQ(core.credit(), core.credit_cap());
}

// ---- Differential test: SchedulerCore against ReferenceCore ----------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One admission as the backend saw it; `credit` is the Core's credit right
// after the partition was charged.
struct Admission {
  CommTaskId task = kInvalidCommTask;
  int partition = 0;
  Bytes bytes = 0;
  Bytes credit = 0;
  friend bool operator==(const Admission&, const Admission&) = default;
};

void PrintTo(const Admission& a, std::ostream* os) {
  *os << "(task " << a.task << " p" << a.partition << " " << a.bytes << "B credit " << a.credit
      << ")";
}

// Loses, completes inline or holds each admission; the choice is a function
// of the script seed and the admission's index, so both Cores see the same.
class ScriptBackend : public CommBackend {
 public:
  ScriptBackend(uint64_t seed, uint64_t lost_per_mille, uint64_t inline_per_mille)
      : seed_(seed), lost_(lost_per_mille), inline_(inline_per_mille) {}

  void Start(const SubCommTask& subtask, Callback on_finish) override {
    const uint64_t r = Mix(seed_ ^ Mix(log.size())) % 1000;
    log.push_back({subtask.task, subtask.partition, subtask.bytes, credit()});
    if (r < lost_) {
      lost.push_back(std::move(on_finish));
    } else if (r < lost_ + inline_) {
      on_finish();
    } else {
      pending.push_back(std::move(on_finish));
    }
  }

  std::function<Bytes()> credit;
  std::vector<Admission> log;
  std::vector<Callback> pending;
  std::vector<Callback> lost;

 private:
  uint64_t seed_;
  uint64_t lost_;
  uint64_t inline_;
};

// One Core with its own clock, backend and task bookkeeping. Tasks get the
// same ids on both sides as long as the Cores behave alike.
template <typename CoreT>
struct Side {
  Side(SchedulerConfig cfg, uint64_t seed, uint64_t lost, uint64_t inline_share)
      : backend(seed, lost, inline_share) {
    cfg.retry.on_abandon = [this](const SubCommTask& st) {
      abandoned.push_back({st.task, st.partition, st.bytes, 0});
    };
    if constexpr (std::is_same_v<CoreT, SchedulerCore>) {
      core = std::make_unique<CoreT>(cfg, &backend, 0, &sim);
    } else {
      core = std::make_unique<CoreT>(cfg, &backend, &sim);
    }
    backend.credit = [this] { return core->credit(); };
  }

  // Registers a task; `follow_up` makes its finish enqueue and ready one
  // more task from inside the callback.
  CommTaskId Add(CommTaskDesc desc, bool follow_up) {
    const auto id = static_cast<CommTaskId>(finished.size());
    finished.push_back(false);
    desc.on_finish = [this, id, follow_up, layer = desc.layer] {
      finished[id] = true;
      if (follow_up) {
        CommTaskDesc next = MakeDesc(layer, KiB(80), CommOpType::kAllReduce);
        const CommTaskId next_id = Add(std::move(next), false);
        core->NotifyReady(next_id);
      }
    };
    const CommTaskId got = core->Enqueue(std::move(desc));
    EXPECT_EQ(got, id);
    return id;
  }

  Simulator sim;
  ScriptBackend backend;
  std::unique_ptr<CoreT> core;
  std::vector<bool> finished;
  std::vector<Admission> abandoned;
};

// One scripted step. The words are raw draws; each side maps them onto its
// own state (live tasks, held completions), which matches while the Cores
// agree.
struct Step {
  int kind = 0;
  uint64_t a = 0, b = 0, c = 0;
};

template <typename CoreT>
void Apply(Side<CoreT>& side, const Step& step) {
  std::vector<CommTaskId> live;
  for (size_t id = 0; id < side.finished.size(); ++id) {
    if (!side.finished[id]) {
      live.push_back(static_cast<CommTaskId>(id));
    }
  }
  switch (step.kind) {
    case 0: {  // enqueue a task, a push maybe with a pull readied per partition
      const CommOpType type = static_cast<CommOpType>(step.b % 3);
      CommTaskDesc desc = MakeDesc(static_cast<int>(step.a % 6), KiB(16) * (1 + step.c % 24), type);
      if ((step.b / 3) % 4 == 0) {
        desc.partition_bytes_override = KiB(32);
      }
      const bool follow_up = (step.c / 24) % 4 == 0;
      if (type == CommOpType::kPush && (step.b / 12) % 2 == 0) {
        CommTaskDesc pull = desc;
        pull.type = CommOpType::kPull;
        const CommTaskId pull_id = side.Add(std::move(pull), false);
        desc.on_partition_finish = [&side, pull_id](int partition) {
          if (!side.finished[pull_id]) {
            side.core->NotifyReadyPartition(pull_id, partition);
          }
        };
      }
      side.Add(std::move(desc), follow_up);
      break;
    }
    case 1:  // ready a whole task (what is left of it)
      if (!live.empty()) {
        side.core->NotifyReady(live[step.a % live.size()]);
      }
      break;
    case 2: {  // ready one partition (one of the first four)
      if (!live.empty()) {
        const CommTaskId id = live[step.a % live.size()];
        side.core->NotifyReadyPartition(id,
                                        static_cast<int>(step.b % 4) % side.core->NumPartitions(id));
      }
      break;
    }
    case 3:  // complete a held subtask, in random order
      if (!side.backend.pending.empty()) {
        const size_t i = step.a % side.backend.pending.size();
        auto cb = std::move(side.backend.pending[i]);
        side.backend.pending.erase(side.backend.pending.begin() + static_cast<ptrdiff_t>(i));
        cb();
      }
      break;
    case 4: {  // let time pass: timeouts fire and retries requeue
      // A no-op event at the deadline moves the clock there even when no
      // timer is due before it.
      const SimTime delay = SimTime::Micros(static_cast<int64_t>(step.a % 3000));
      side.sim.Schedule(delay, [] {});
      side.sim.Run(side.sim.Now() + delay);
      break;
    }
    case 6:  // fire every pending timer
      side.sim.Run();
      break;
    case 5:  // a lost message turns up after all (late, or before its timeout)
      if (!side.backend.lost.empty()) {
        const size_t i = step.a % side.backend.lost.size();
        auto cb = std::move(side.backend.lost[i]);
        side.backend.lost.erase(side.backend.lost.begin() + static_cast<ptrdiff_t>(i));
        cb();
      }
      break;
  }
}

// Empty when both sides agree on everything observable.
std::string Diff(const Side<SchedulerCore>& a, const Side<ReferenceCore>& b) {
  std::ostringstream os;
  const auto field = [&os](const char* name, auto x, auto y) {
    if (x != y) {
      os << name << " " << x << " vs reference " << y << "; ";
    }
  };
  if (a.backend.log != b.backend.log) {
    const size_t n = std::min(a.backend.log.size(), b.backend.log.size());
    size_t i = 0;
    while (i < n && a.backend.log[i] == b.backend.log[i]) {
      ++i;
    }
    os << "admissions diverge at #" << i << " of " << a.backend.log.size() << "/"
       << b.backend.log.size() << "; ";
  }
  field("queue_length", a.core->queue_length(), b.core->queue_length());
  field("credit", a.core->credit(), b.core->credit());
  field("started", a.core->subtasks_started(), b.core->subtasks_started());
  field("tasks_finished", a.core->tasks_finished(), b.core->tasks_finished());
  field("timeouts", a.core->timeouts_fired(), b.core->timeouts_fired());
  field("retries", a.core->retries(), b.core->retries());
  field("late", a.core->late_completions(), b.core->late_completions());
  field("abandoned", a.core->subtasks_abandoned(), b.core->subtasks_abandoned());
  field("pending", a.backend.pending.size(), b.backend.pending.size());
  field("lost", a.backend.lost.size(), b.backend.lost.size());
  field("tasks", a.finished.size(), b.finished.size());
  field("now", a.sim.Now().nanos(), b.sim.Now().nanos());
  if (a.finished != b.finished || a.abandoned != b.abandoned) {
    os << "finished or abandoned tasks differ; ";
  }
  return os.str();
}

// Seeded random scripts drive SchedulerCore and ReferenceCore side by side:
// both policies, tight and unlimited credit, tasks readied whole, one
// partition at a time and both (which splits a task into several runs),
// pushes readying pulls partition by partition from their finish callbacks,
// finish callbacks that enqueue new work, completions in random order and
// inline inside Start, and lost messages whose timeouts requeue retries
// among younger runs, arrive late, or exhaust the retry budget. After every
// step the admission sequence (task, partition, bytes, credit), the queue
// length, the credit and every counter must match.
TEST(SchedulerCoreDifferentialTest, MatchesReferenceCoreOnRandomScripts) {
  uint64_t retries = 0, late = 0, abandoned = 0, admissions = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    const uint64_t r = Mix(seed * 7919);
    SchedulerConfig cfg = SchedulerConfig::ByteScheduler(
        r % 5 == 0 ? SchedulerConfig::kNoPartition : KiB(64),
        std::vector<Bytes>{KiB(64), KiB(128), KiB(200), SchedulerConfig::kUnlimited}[(r / 5) % 4]);
    cfg.policy = seed % 2 == 0 ? SchedulerConfig::Policy::kFifo : SchedulerConfig::Policy::kPriority;
    const bool recovery = (r / 20) % 3 != 0;
    if (recovery) {
      cfg.retry.timeout = SimTime::Millis(1);
      cfg.retry.max_retries = (r / 60) % 2 == 0 ? 1 : 3;
    }
    const uint64_t lost = recovery ? (r / 120) % 300 : 0;
    const uint64_t inline_share = (r / 36000) % 2 == 0 ? 0 : 200;
    Side<SchedulerCore> core(cfg, seed, lost, inline_share);
    Side<ReferenceCore> ref(cfg, seed, lost, inline_share);

    std::mt19937_64 rng(seed);
    for (int i = 0; i < 300; ++i) {
      Step step;
      const uint64_t k = rng() % 16;  // enqueue and complete most often
      step.kind = k < 4 ? 0 : k < 6 ? 1 : k < 8 ? 2 : k < 12 ? 3 : k < 14 ? 4 : 5;
      step.a = rng();
      step.b = rng();
      step.c = rng();
      Apply(core, step);
      Apply(ref, step);
      const std::string diff = Diff(core, ref);
      ASSERT_TRUE(diff.empty()) << "seed " << seed << " step " << i << " (kind " << step.kind
                                << "): " << diff;
    }
    // Drain: finish what is held and let every timer fire.
    for (int i = 0; i < 100000; ++i) {
      Step step;
      if (!core.backend.pending.empty()) {
        step.kind = 3;
      } else if (!core.sim.Empty()) {
        step.kind = 6;
      } else {
        break;
      }
      Apply(core, step);
      Apply(ref, step);
      const std::string diff = Diff(core, ref);
      ASSERT_TRUE(diff.empty()) << "seed " << seed << " drain " << i << ": " << diff;
    }
    EXPECT_EQ(core.backend.log, ref.backend.log) << "seed " << seed;
    EXPECT_EQ(core.core->queue_length(), 0u) << "seed " << seed;
    EXPECT_EQ(core.core->credit(), cfg.credit_bytes) << "seed " << seed;
    EXPECT_EQ(core.core->subtasks_in_flight(), 0u) << "seed " << seed;
    retries += core.core->retries();
    late += core.core->late_completions();
    abandoned += core.core->subtasks_abandoned();
    admissions += core.backend.log.size();
  }
  // The scripts reach every path they are meant to cover.
  EXPECT_GT(admissions, 10000u);
  EXPECT_GT(retries, 100u);
  EXPECT_GT(late, 10u);
  EXPECT_GT(abandoned, 0u);
}

}  // namespace
}  // namespace bsched
