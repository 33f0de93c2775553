// Link send-chain churn for the dynamic-network perf gate (micro_sim and
// obs_overhead): one Link carries a chain of back-to-back messages whose
// delivery callbacks send the successor — the NIC-bound pattern every PS
// worker uplink produces. Measured twice, on the legacy fixed-rate path and
// with an identity RateModel installed (enabled-but-idle dynamics), the
// ratio is the price of the integrating transmit path when nothing varies.
// The two variants run in alternating back-to-back pairs and the gate reads
// the median of the per-pair ratios: a slow host phase then lands on both
// sides of a pair, where two blocks run one after the other would charge it
// to one variant only (which made the gate trip under `ctest -j3`).
// The simulated timings are bit-identical by the zero-cost contract (see
// src/net/link.h); this measures host CPU only.
#ifndef BENCH_LINK_CHURN_H_
#define BENCH_LINK_CHURN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench/churn.h"
#include "src/common/units.h"
#include "src/net/link.h"
#include "src/net/rate_model.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace bsched {
namespace bench {

struct LinkChurnResult {
  double msgs_per_sec = 0.0;
  uint64_t checksum = 0;  // must match between the static and idle variants
};

// One round: `messages` chained sends over a fresh simulator + link, sizes
// cycling through a small deterministic set so the per-message arithmetic is
// exercised from microsecond to millisecond transfers. Returns CPU-time
// throughput.
inline LinkChurnResult RunLinkChurn(bool idle_model, int messages) {
  Simulator sim;
  Link link(&sim, "bench.up", Bandwidth::Gbps(10), TransportModel::Tcp());
  if (idle_model) {
    link.SetRateModel(RateModel());  // identity schedule: dynamic path, idle
  }
  static const Bytes kSizes[] = {KiB(4), KiB(64), KiB(512), MiB(1)};
  uint64_t checksum = 0;
  int remaining = messages;
  std::function<void()> send_next = [&] {
    if (remaining <= 0) {
      return;
    }
    const Bytes size = kSizes[remaining % 4];
    --remaining;
    link.Send(size, [&] {
      checksum += static_cast<uint64_t>(sim.Now().nanos() & 0xffff);
      send_next();
    });
  };
  const double start = CpuSeconds();
  send_next();
  sim.Run();
  const double sec = CpuSeconds() - start;
  LinkChurnResult result;
  result.msgs_per_sec = sec > 0 ? messages / sec : 0.0;
  result.checksum = checksum;
  return result;
}

struct IdleOverhead {
  double static_msgs_per_sec = 0.0;  // median over the pairs
  double idle_msgs_per_sec = 0.0;    // median over the pairs
  double overhead = 0.0;             // median of 1 - idle / static per pair
  bool checksums_match = true;
};

// 2 * rounds + 1 alternating static / idle-model pairs of `messages` sends
// each (an odd count, so the medians are measured pairs).
inline IdleOverhead MeasureIdleOverhead(int messages, int rounds) {
  const int pairs = 2 * rounds + 1;
  std::vector<double> statics;
  std::vector<double> idles;
  std::vector<double> overheads;
  IdleOverhead result;
  for (int p = 0; p < pairs; ++p) {
    const LinkChurnResult s = RunLinkChurn(false, messages);
    const LinkChurnResult i = RunLinkChurn(true, messages);
    result.checksums_match = result.checksums_match && s.checksum == i.checksum;
    statics.push_back(s.msgs_per_sec);
    idles.push_back(i.msgs_per_sec);
    overheads.push_back(1.0 - i.msgs_per_sec / s.msgs_per_sec);
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  result.static_msgs_per_sec = median(statics);
  result.idle_msgs_per_sec = median(idles);
  result.overhead = median(overheads);
  return result;
}

}  // namespace bench
}  // namespace bsched

#endif  // BENCH_LINK_CHURN_H_
