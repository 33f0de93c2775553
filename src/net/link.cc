#include "src/net/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace bsched {

Link::Link(Simulator* sim, std::string name, Bandwidth line_rate, const TransportModel& transport)
    : sim_(sim), name_(std::move(name)), line_rate_(line_rate), transport_(transport) {
  BSCHED_CHECK(sim_ != nullptr);
}

void Link::Send(Bytes size, Callback on_delivered) {
  SendWithFlush(size, nullptr, std::move(on_delivered));
}

void Link::SetFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  site_hash_ = FaultPlan::HashSite(name_);
}

void Link::SetObs(ObsContext* obs) {
  obs_ = obs;
  if (obs == nullptr || obs->metrics() == nullptr) {
    obs_bytes_ = nullptr;
    obs_msgs_ = nullptr;
    obs_queue_ns_ = nullptr;
    obs_inflight_ = nullptr;
    return;
  }
  MetricsRegistry* m = obs->metrics();
  const std::string prefix = "net." + name_;
  obs_bytes_ = m->counter(prefix + ".bytes");
  obs_msgs_ = m->counter(prefix + ".msgs");
  obs_queue_ns_ = m->histogram(prefix + ".queue_ns");
  obs_inflight_ = m->gauge(prefix + ".inflight_bytes");
}

void Link::ExportMetrics() {
  if (obs_ == nullptr || obs_->metrics() == nullptr) {
    return;
  }
  obs_->metrics()->gauge("net." + name_ + ".busy_ns")->Set(busy_time().nanos());
}

SimTime Link::DrainTime() const {
  SimTime t = busy_ ? busy_until_ : sim_->Now();
  for (size_t i = busy_ ? 1 : 0; i < msgs_.size(); ++i) {
    // Nominal estimate at the message's pacing scale (exactly MessageTime
    // at scale 1.0).
    const Message& m = msgs_[i];
    t += transport_.MessageTime(Bandwidth::BytesPerSec(line_rate_.bytes_per_sec() * m.msg_scale),
                                m.size);
  }
  return t;
}

void Link::SendWithFlush(Bytes size, Callback on_flushed, Callback on_delivered) {
  Enqueue(size, 1.0, std::move(on_flushed), std::move(on_delivered), nullptr);
}

void Link::SendCrossShard(Bytes size, double msg_scale, Callback on_flushed, Deliver deliver) {
  Enqueue(size, msg_scale, std::move(on_flushed), nullptr, std::move(deliver));
}

void Link::Enqueue(Bytes size, double msg_scale, Callback on_flushed, Callback on_delivered,
                   Deliver deliver) {
  bytes_sent_ += size;
  if (obs_bytes_ != nullptr) {
    obs_bytes_->Inc(static_cast<uint64_t>(size));
    obs_msgs_->Inc();
    // Sender-side queueing delay this message will experience behind the
    // work already on the wire. Passive: reads drain state, schedules nothing.
    obs_queue_ns_->Observe((DrainTime() - sim_->Now()).nanos());
    obs_inflight_->Add(size);
  }
  if (dyn_ != nullptr) {
    BSCHED_CHECK(msg_scale > 0.0);
  } else {
    BSCHED_CHECK(msg_scale == 1.0 && "per-message pacing needs a RateModel installed");
  }
  Message msg{size, msg_scale, static_cast<bool>(on_flushed), Delivery::kNone};
  if (on_flushed) {
    flush_cbs_.push_back(std::move(on_flushed));
  }
  if (deliver) {
    msg.delivery = Delivery::kHook;
    hook_cbs_.push_back(std::move(deliver));
  } else if (on_delivered) {
    msg.delivery = Delivery::kLocal;
    local_cbs_.push_back(std::move(on_delivered));
  }
  msgs_.push_back(msg);
  if (!busy_) {
    StartNext();
  }
}

void Link::StartNext() {
  BSCHED_DCHECK(!busy_);
  if (msgs_.empty()) {
    return;
  }
  const Message& msg = msgs_.front();
  busy_ = true;
  busy_since_ = sim_->Now();
  if (dyn_ == nullptr) {
    const SimTime occupancy = MessageTime(msg.size);
    busy_until_ = sim_->Now() + occupancy;
    sim_->Schedule(occupancy, [this] { OnOccupancyEnd(); });
    return;
  }
  DynState& d = *dyn_;
  d.current_scale = msg.msg_scale;
  d.remaining = static_cast<double>(msg.size);
  d.anchor = sim_->Now() + transport_.serial_overhead;
  if (d.anchor >= d.unit_from && d.ctrl_scale == 1.0 && d.current_scale == 1.0) {
    // DynFinishTime would walk one segment at DynRate == EffectiveRate and
    // land on MessageTime's nanosecond; take the static arithmetic directly.
    const SimTime occupancy = MessageTime(msg.size);
    busy_until_ = sim_->Now() + occupancy;
    d.completion = sim_->Schedule(occupancy, [this] { OnOccupancyEnd(); });
    return;
  }
  DynScheduleCompletion();
}

void Link::OnOccupancyEnd() {
  busy_ = false;
  busy_time_ += sim_->Now() - busy_since_;
  ++msgs_done_;
  const Message msg = msgs_.front();
  msgs_.pop_front();
  Callback on_flushed;
  if (msg.has_flush) {
    on_flushed = std::move(flush_cbs_.front());
    flush_cbs_.pop_front();
  }
  Callback on_delivered;
  Deliver deliver;
  if (msg.delivery == Delivery::kLocal) {
    on_delivered = std::move(local_cbs_.front());
    local_cbs_.pop_front();
  } else if (msg.delivery == Delivery::kHook) {
    deliver = std::move(hook_cbs_.front());
    hook_cbs_.pop_front();
  }
  // Completion callbacks run before the next message starts, matching a real
  // stack where the ACK/CQE handler fires before the NIC pulls the next WQE.
  // A callback may submit new traffic, which starts itself.
  //
  // Flush == left the NIC queue; decrement here so fault drops (which
  // never deliver) still settle the gauge.
  if (obs_inflight_ != nullptr) {
    obs_inflight_->Add(-msg.size);
  }
  if (on_flushed) {
    on_flushed();
  }
  if (msg.delivery != Delivery::kNone) {
    DeliverMessage(std::move(on_delivered), std::move(deliver));
  }
  if (!busy_ && !msgs_.empty()) {
    StartNext();
  }
}

void Link::DeliverMessage(Callback on_delivered, Deliver deliver) {
  SimTime total = transport_.latency;
  if (faults_ != nullptr) {
    // Fault fate is decided at flush time: the sender's NIC accepted the
    // message, but the wire may lose or delay it. A link-down fault defers
    // delivery to the outage's end — the discrete-fault face of "rate 0 for
    // the outage window" (FaultPlan::OutageDeferral), shared with RateModel
    // zero-rate segments.
    const FaultInjector::MessageFault fate = faults_->OnMessageSend(site_hash_, sim_->Now());
    if (fate.drop) {
      return;  // lost in the network; recovery retransmits
    }
    total += fate.delay;
  }
  if (deliver) {
    deliver(total);
  } else if (total.nanos() == 0) {
    on_delivered();
  } else {
    // Delivery completes after the pipelined latency; the link itself is
    // already free for the next message.
    sim_->Schedule(total, std::move(on_delivered));
  }
}

// --- Dynamic rate path ----------------------------------------------------

void Link::SetRateModel(RateModel model) {
  BSCHED_CHECK(dyn_ == nullptr && "rate model already installed");
  BSCHED_CHECK(bytes_sent_ == 0 && !busy_ &&
               "install the rate model before any traffic");
  dyn_ = std::make_unique<DynState>();
  dyn_->model = std::move(model);
  const RateStep& last = dyn_->model.steps().back();
  if (last.scale == 1.0) {
    dyn_->unit_from = last.start;
  }
}

double Link::DynRate(SimTime t) const {
  const DynState& d = *dyn_;
  // Operation order matters for the zero-cost contract: with all scales at
  // 1.0 this must reduce to exactly EffectiveRate's line * efficiency.
  const double scale = d.model.ScaleAt(t) * d.ctrl_scale * d.current_scale;
  return std::min(line_rate_.bytes_per_sec() * scale * transport_.efficiency,
                  transport_.goodput_cap.bytes_per_sec());
}

SimTime Link::DynFinishTime() const {
  const DynState& d = *dyn_;
  double remaining = d.remaining;
  SimTime t = d.anchor;
  while (true) {
    const SimTime next = d.model.NextChangeAfter(t);
    const double rate = DynRate(t);
    if (rate <= 0.0) {
      // Zero-rate window (outage segment); progress resumes at the next step.
      BSCHED_CHECK(next < SimTime::Max() && "transfer stalled on a terminal zero-rate segment");
      t = next;
      continue;
    }
    // Same arithmetic as Bandwidth::TransmitTime so the identity schedule
    // lands on the identical nanosecond.
    const SimTime fin = t + SimTime(static_cast<int64_t>(std::llround(remaining / rate * 1e9)));
    if (next == SimTime::Max() || fin <= next) {
      return fin;
    }
    remaining -= rate * (next - t).ToSeconds();
    if (remaining < 0.0) remaining = 0.0;
    t = next;
  }
}

void Link::DynDrainUntil(SimTime until) {
  DynState& d = *dyn_;
  if (until <= d.anchor) {
    return;  // still paying serial overhead; nothing serialized yet
  }
  SimTime t = d.anchor;
  while (t < until) {
    const SimTime next = std::min(d.model.NextChangeAfter(t), until);
    const double rate = DynRate(t);
    if (rate > 0.0) {
      d.remaining -= rate * (next - t).ToSeconds();
      if (d.remaining < 0.0) d.remaining = 0.0;
    }
    t = next;
  }
  d.anchor = until;
}

void Link::DynScheduleCompletion() {
  busy_until_ = DynFinishTime();
  dyn_->completion = sim_->Schedule(busy_until_ - sim_->Now(), [this] { OnOccupancyEnd(); });
}

void Link::SetCtrlScale(double scale) {
  BSCHED_CHECK(dyn_ != nullptr && "SetCtrlScale needs the dynamic path installed");
  BSCHED_CHECK(scale > 0.0);
  DynState& d = *dyn_;
  if (scale == d.ctrl_scale) {
    return;
  }
  if (busy_) {
    // Settle bytes serialized under the old scale, then re-pace the rest.
    DynDrainUntil(sim_->Now());
    d.ctrl_scale = scale;
    d.completion.Cancel();
    ++d.repaces;
    DynScheduleCompletion();
  } else {
    d.ctrl_scale = scale;
  }
}

double Link::CurrentRateBps() const {
  if (dyn_ == nullptr) {
    return effective_rate().bytes_per_sec();
  }
  const DynState& d = *dyn_;
  const double scale = d.model.ScaleAt(sim_->Now()) * d.ctrl_scale;
  return std::min(line_rate_.bytes_per_sec() * scale * transport_.efficiency,
                  transport_.goodput_cap.bytes_per_sec());
}

DuplexLink::DuplexLink(Simulator* sim, const std::string& name, Bandwidth line_rate,
                       const TransportModel& transport)
    : up_(sim, name + ".up", line_rate, transport),
      down_(sim, name + ".down", line_rate, transport) {}

}  // namespace bsched
