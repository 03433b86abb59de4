// End-to-end telemetry pipeline through the virtual switch.
//
// Scenario (paper §6.6): a software switch forwards 10G-class traffic
// while a measurement program — Priority Sampling over q-MAX — consumes
// per-packet records from a shared-memory ring on its own thread. Shows
// the throughput cost of monitoring and the byte-volume estimates the
// sampler produces.
//
//   ./build/examples/telemetry_pipeline [npackets]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "apps/priority_sampling.hpp"
#include "qmax/qmax.hpp"
#include "trace/synthetic.hpp"
#include "vswitch/multi_pmd.hpp"

int main(int argc, char** argv) {
  using namespace qmax;
  using apps::PrioritySampler;
  using apps::WeightedKey;

  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 2'000'000;

  std::printf("generating %zu CAIDA-like packets...\n", n);
  trace::CaidaLikeGenerator gen;
  const auto packets = trace::take_packets(gen, n);
  const double line = trace::line_rate_pps(10.0, 512);

  // Baseline: forwarding only, on one PMD.
  const vswitch::MultiPmdConfig one_pmd{.pmd_threads = 1};
  vswitch::MultiPmdSwitch vanilla(one_pmd);
  vanilla.install_default_rules();
  const auto base = vanilla.forward(packets).per_pmd[0];
  const auto& table = vanilla.pmd(0).table();
  std::printf("vanilla switch:   %6.2f Mpps datapath (%llu EMC hits, "
              "%llu classifier hits)\n",
              base.datapath_mpps(),
              static_cast<unsigned long long>(table.emc_hits()),
              static_cast<unsigned long long>(table.classifier_hits()));

  // Monitored: Priority Sampling (k = 4096) fed from the ring.
  const std::size_t k = 4'096;
  using R = QMax<WeightedKey, double>;
  PrioritySampler<R> sampler(k, R(k + 1, 0.25));
  vswitch::MultiPmdSwitch monitored(one_pmd);
  monitored.install_default_rules();
  auto sample = [&sampler](std::size_t, const vswitch::MonitorRecord& rec) {
    sampler.add(rec.packet_id, static_cast<double>(rec.length));
  };
  const auto mon = monitored.forward_monitored(packets, sample).per_pmd[0];
  std::printf("with monitoring:  %6.2f Mpps datapath "
              "(%.1f%% overhead, %llu ring stalls)\n\n",
              mon.datapath_mpps(),
              100.0 * (1.0 - mon.datapath_mpps() / base.datapath_mpps()),
              static_cast<unsigned long long>(mon.backpressure_stalls));
  std::printf("line-rate capped delivery: %.2f / %.2f Mpps\n\n",
              mon.delivered_mpps(line), base.delivered_mpps(line));

  // What the measurement bought us: byte-volume estimates by packet-size
  // class, from a 4096-packet weighted sample of 2M packets.
  double truth_small = 0, truth_large = 0;
  for (const auto& p : packets) {
    (p.length < 512 ? truth_small : truth_large) += p.length;
  }
  // The sampler keyed items by packet id; recover the size class from the
  // sampled weight itself (weight == packet length here).
  double est_small = 0, est_large = 0;
  for (const auto& s : sampler.sample()) {
    (s.weight < 512 ? est_small : est_large) += s.estimate;
  }
  std::printf("byte volume, packets < 512B: est %11.0f true %11.0f "
              "(%+.2f%%)\n",
              est_small, truth_small,
              100.0 * (est_small - truth_small) / truth_small);
  std::printf("byte volume, packets >= 512B: est %11.0f true %11.0f "
              "(%+.2f%%)\n",
              est_large, truth_large,
              100.0 * (est_large - truth_large) / truth_large);
  return 0;
}
