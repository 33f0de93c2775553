// Layer drivers for the traced run: each loop calls one layer's public API
// with inputs taken from a workload's generated configs (tensor and
// partition sizes, credits, worker and shard counts, bandwidths, transports
// and RateModels), and reports host ns per operation.
#include <algorithm>
#include <deque>
#include <functional>

#include "perfbench/perfbench.h"
#include "src/comm/allreduce_backend.h"
#include "src/comm/ps_backend.h"
#include "src/core/scheduler_core.h"
#include "src/engine/dag_engine.h"
#include "src/engine/imperative_engine.h"
#include "src/net/link.h"
#include "src/net/net_dynamics.h"
#include "src/sim/simulator.h"

namespace perfbench {

using bsched::Bytes;
using bsched::CommOpType;
using bsched::JobConfig;
using bsched::SimTime;
using bsched::Simulator;
using bsched::SubCommTask;

namespace {

struct Round {
  double ops = 0.0;
  double events = 0.0;
  double msgs = 0.0;
};

// Repeats `round` for at least three rounds and ~0.2 s, and reports the
// median ns per op (rounds are equal-sized, so the median is robust to a
// descheduled round).
template <typename Fn>
DriverResult Measure(Fn&& round) {
  std::vector<double> ns;
  DriverResult result;
  const double start = NowSec();
  while (ns.size() < 3 || (NowSec() - start < 0.2 && ns.size() < 25)) {
    const double t0 = NowSec();
    const Round r = round();
    const double t1 = NowSec();
    if (r.ops <= 0) {
      return result;
    }
    ns.push_back((t1 - t0) * 1e9 / r.ops);
    result.events_per_op = r.events / r.ops;
    result.msgs_per_op = r.msgs / r.ops;
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  result.ns_per_op = ns[ns.size() / 2];
  return result;
}

// Up to `n` ops spread evenly over the pool (the pool is stratified, so an
// even stride keeps every stratum's inputs in the sample).
std::vector<const JobConfig*> Sample(const std::vector<Op>& pool, size_t n) {
  std::vector<const JobConfig*> jobs;
  const size_t step = std::max<size_t>(1, pool.size() / n);
  for (size_t i = 0; i < pool.size() && jobs.size() < n; i += step) {
    jobs.push_back(&pool[i].job);
  }
  return jobs;
}

// The partition size the job's scheduler uses (0 = whole tensors).
Bytes PartitionOf(const JobConfig& job) {
  switch (job.mode) {
    case bsched::SchedMode::kVanilla:
      return 0;
    case bsched::SchedMode::kP3:
      return bsched::SchedulerConfig::P3().partition_bytes;
    case bsched::SchedMode::kByteScheduler:
      break;
  }
  return job.partition_bytes;
}

bsched::SchedulerConfig CoreConfigOf(const JobConfig& job) {
  switch (job.mode) {
    case bsched::SchedMode::kVanilla:
      return bsched::SchedulerConfig::Vanilla();
    case bsched::SchedMode::kP3: {
      // As the job itself scales it (SchedulerConfigFor in
      // src/runtime/training_job.cc): one stop-and-wait stream per server.
      bsched::SchedulerConfig cfg = bsched::SchedulerConfig::P3();
      cfg.credit_bytes = cfg.partition_bytes * job.num_machines;
      return cfg;
    }
    case bsched::SchedMode::kByteScheduler:
      break;
  }
  return bsched::SchedulerConfig::ByteScheduler(job.partition_bytes, job.credit_bytes);
}

// (layer, partition, bytes) of every partition of the job's model.
struct Piece {
  int layer;
  int partition;
  Bytes bytes;
};
std::vector<Piece> Pieces(const JobConfig& job) {
  std::vector<Piece> pieces;
  const Bytes unit = PartitionOf(job);
  for (int i = 0; i < job.model.num_layers(); ++i) {
    Bytes remaining = job.model.layers[i].param_bytes;
    int p = 0;
    while (remaining > 0) {
      const Bytes piece = unit > 0 ? std::min(unit, remaining) : remaining;
      pieces.push_back({i, p++, piece});
      remaining -= piece;
    }
  }
  return pieces;
}

// Passes over a job's inputs per round, so that each round does at least
// `target` operations and the fresh simulator's setup is amortized.
size_t Repeats(size_t per_pass, size_t target) {
  return per_pass == 0 ? 1 : std::max<size_t>(1, (target + per_pass - 1) / per_pass);
}

class StubBackend : public bsched::CommBackend {
 public:
  void Start(const SubCommTask& /*subtask*/, std::function<void()> on_finish) override {
    pending.push_back(std::move(on_finish));
  }
  std::deque<std::function<void()>> pending;
};

}  // namespace

DriverResult SimEventDriver(double cancel_share) {
  // Timers armed (and later cancelled) per fired event, so that cancelled /
  // (fired + cancelled) matches the workload's share.
  const double share = std::clamp(cancel_share, 0.0, 0.9);
  const double timers_per_event = share / (1.0 - share);
  struct Chain {
    Simulator sim;
    int remaining = 100000;
    double q = 0.0;
    double acc = 0.0;
    bsched::EventHandle timer;
    uint64_t checksum = 0;
    void Step() {
      checksum += static_cast<uint64_t>(sim.Now().nanos());
      if (--remaining <= 0) {
        return;
      }
      for (acc += q; acc >= 1.0; acc -= 1.0) {
        timer.Cancel();
        timer = sim.Schedule(SimTime::Millis(50), [this] { ++checksum; });
      }
      sim.Schedule(SimTime::Nanos(100 + remaining % 7), [this] { Step(); });
    }
  };
  return Measure([&] {
    Chain chain;
    chain.q = timers_per_event;
    chain.Step();
    chain.sim.Run();
    const double fired = static_cast<double>(chain.sim.processed_events());
    return Round{fired, fired, 0.0};
  });
}

DriverResult LinkSendDriver(const std::vector<Op>& pool, bool dynamic) {
  const std::vector<const JobConfig*> jobs = Sample(pool, 4);
  bsched::RateModel model;  // identity: the dynamic path, idle
  if (dynamic) {
    for (const Op& op : pool) {
      if (op.job.dynamics.has_value()) {
        model = bsched::BuildLinkRateModel(*op.job.dynamics, "worker0.up", false);
        break;
      }
    }
  }
  return Measure([&] {
    Round r;
    for (const JobConfig* job : jobs) {
      Simulator sim;
      bsched::Link link(&sim, "worker0.up", job->bandwidth, job->setup.transport);
      if (dynamic) {
        link.SetRateModel(model);
      }
      // Four messages in flight, each delivery sending the next piece.
      struct Chain {
        bsched::Link* link;
        std::vector<Piece> pieces;
        size_t total = 0;
        size_t next = 0;
        void Send() {
          if (next < total) {
            link->Send(pieces[next++ % pieces.size()].bytes, [this] { Send(); });
          }
        }
      } chain{&link, Pieces(*job)};
      chain.total = chain.pieces.size() * Repeats(chain.pieces.size(), 8192);
      for (int i = 0; i < 4; ++i) {
        chain.Send();
      }
      sim.Run();
      r.ops += static_cast<double>(chain.total);
      r.events += static_cast<double>(sim.processed_events());
    }
    return r;
  });
}

DriverResult CoreSubtaskDriver(const std::vector<Op>& pool) {
  const std::vector<const JobConfig*> jobs = Sample(pool, 8);
  return Measure([&] {
    Round r;
    for (const JobConfig* job : jobs) {
      StubBackend backend;
      bsched::SchedulerCore core(CoreConfigOf(*job), &backend, 0);
      const size_t reps = Repeats(Pieces(*job).size(), 4096);
      for (size_t rep = 0; rep < reps; ++rep) {
        // One iteration's gradients in BP order (output layer first).
        for (int i = job->model.num_layers() - 1; i >= 0; --i) {
          bsched::CommTaskDesc desc;
          desc.layer = i;
          desc.tensor_id = i;
          desc.tensor_bytes = job->model.layers[i].param_bytes;
          desc.type = job->setup.arch == bsched::ArchType::kPs ? CommOpType::kPush
                                                               : CommOpType::kAllReduce;
          desc.on_finish = [] {};
          core.NotifyReady(core.Enqueue(std::move(desc)));
        }
        while (!backend.pending.empty()) {
          std::function<void()> finish = std::move(backend.pending.front());
          backend.pending.pop_front();
          finish();
        }
      }
      r.ops += static_cast<double>(core.subtasks_started());
    }
    return r;
  });
}

DriverResult PsRoundtripDriver(const std::vector<Op>& pool) {
  const std::vector<const JobConfig*> jobs = Sample(pool, 4);
  return Measure([&] {
    Round r;
    for (const JobConfig* job : jobs) {
      Simulator sim;
      bsched::PsConfig config;
      config.num_workers = job->num_machines;
      config.num_shards = job->num_machines;
      config.link_rate = job->bandwidth;
      config.transport = job->setup.transport;
      bsched::PsBackend ps(&sim, config);
      bsched::CommTaskId task = 0;
      uint64_t done = 0;
      const std::vector<Piece> pieces = Pieces(*job);
      const size_t reps = Repeats(pieces.size() * job->num_machines, 2048);
      // One aggregation round per pass, like consecutive iterations.
      for (size_t rep = 0; rep < reps; ++rep) {
        for (const Piece& piece : pieces) {
          for (int w = 0; w < job->num_machines; ++w) {
            SubCommTask sub;
            sub.worker = w;
            sub.layer = piece.layer;
            sub.tensor_id = piece.layer;
            sub.partition = piece.partition;
            sub.bytes = piece.bytes;
            sub.task = task++;
            sub.type = CommOpType::kPush;
            ps.Start(sub, [] {});
            sub.task = task++;
            sub.type = CommOpType::kPull;
            ps.Start(sub, [&done] { ++done; });
          }
        }
        sim.Run();
      }
      uint64_t worker_msgs = 0;
      for (int w = 0; w < job->num_machines; ++w) {
        worker_msgs += ps.worker_uplink(w).messages_sent() + ps.worker_downlink(w).messages_sent();
      }
      r.ops += static_cast<double>(done);
      r.events += static_cast<double>(sim.processed_events());
      // Every worker-side message has a shard-side twin (ingress / egress).
      r.msgs += 2.0 * static_cast<double>(worker_msgs);
    }
    return r;
  });
}

DriverResult AllReduceDriver(const std::vector<Op>& pool) {
  const std::vector<const JobConfig*> jobs = Sample(pool, 4);
  return Measure([&] {
    Round r;
    for (const JobConfig* job : jobs) {
      Simulator sim;
      bsched::AllReduceBackend ar(
          &sim, bsched::AllReduceConfig::Nccl(job->total_gpus(), job->bandwidth,
                                              job->setup.transport));
      uint64_t done = 0;
      bsched::CommTaskId task = 0;
      const std::vector<Piece> pieces = Pieces(*job);
      const size_t reps = Repeats(pieces.size(), 8192);
      for (size_t rep = 0; rep < reps; ++rep) {
        for (const Piece& piece : pieces) {
          SubCommTask sub;
          sub.task = task++;
          sub.layer = piece.layer;
          sub.tensor_id = piece.layer;
          sub.partition = piece.partition;
          sub.bytes = piece.bytes;
          sub.type = CommOpType::kAllReduce;
          ar.Start(sub, [&done] { ++done; });
        }
      }
      sim.Run();
      r.ops += static_cast<double>(done);
      r.events += static_cast<double>(sim.processed_events());
    }
    return r;
  });
}

DriverResult EngineDriver(const std::vector<Op>& pool, bool imperative) {
  const std::vector<const JobConfig*> jobs = Sample(pool, 4);
  return Measure([&] {
    Round r;
    for (const JobConfig* job : jobs) {
      Simulator sim;
      const bsched::ModelProfile& model = job->model;
      auto compute = [&sim](SimTime t) {
        return [&sim, t](bsched::DagEngine::Done done) { sim.Schedule(t, std::move(done)); };
      };
      const int layers = model.num_layers();
      const size_t reps = Repeats(2 * static_cast<size_t>(layers), 2048);
      for (size_t rep = 0; rep < reps; ++rep) {
        if (imperative) {
          bsched::ImperativeEngine engine(&sim);
          for (int i = 0; i < layers; ++i) {
            engine.PostForward(i, "fp" + std::to_string(i), compute(model.layers[i].fp_time));
          }
          for (int i = layers - 1; i >= 0; --i) {
            engine.PostBackward(i, "bp" + std::to_string(i), compute(model.layers[i].bp_time));
          }
          engine.Start();
          sim.Run();
        } else {
          bsched::DagEngine engine(&sim);
          bsched::OpId prev = bsched::kInvalidOp;
          auto chain = [&](bsched::OpId op) {
            if (prev != bsched::kInvalidOp) {
              engine.AddDep(prev, op);
            }
            prev = op;
          };
          for (int i = 0; i < layers; ++i) {
            chain(engine.AddOp("fp" + std::to_string(i), compute(model.layers[i].fp_time)));
          }
          for (int i = layers - 1; i >= 0; --i) {
            chain(engine.AddOp("bp" + std::to_string(i), compute(model.layers[i].bp_time)));
          }
          engine.Start();
          sim.Run();
        }
      }
      r.ops += 2.0 * layers * static_cast<double>(reps);
      r.events += static_cast<double>(sim.processed_events());
    }
    return r;
  });
}

}  // namespace perfbench
