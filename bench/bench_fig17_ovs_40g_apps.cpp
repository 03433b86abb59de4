// Figure 17: 40G OVS throughput while running Priority Sampling (17a/17b)
// and network-wide heavy hitters (17c/17d), real-sized packets.
//
// Paper shape: q-MAX enables line-rate measurement at q = 10^6 and is the
// only implementation with acceptable throughput at q = 10^7.
#include "bench_vswitch_common.hpp"

#include "apps/nwhh.hpp"
#include "apps/priority_sampling.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;
using apps::Nmp;
using apps::PacketSample;
using apps::PrioritySampler;
using apps::WeightedKey;

std::vector<std::size_t> fig17_qs() {
  std::vector<std::size_t> qs{100'000};
  if (common::bench_large()) qs.push_back(1'000'000);
  return qs;
}

void register_all() {
  const auto& pkts = real_size_packets();
  const double line = line_rate_40g();
  using PsQMax = QMax<WeightedKey, double>;
  using PsHeap = baselines::HeapQMax<WeightedKey, double>;
  using PsSkip = baselines::SkipListQMax<WeightedKey, double>;
  using NwQMax = QMax<PacketSample, double>;
  using NwHeap = baselines::HeapQMax<PacketSample, double>;
  using NwSkip = baselines::SkipListQMax<PacketSample, double>;

  register_mpps("fig17/vanilla-ovs",
                [&pkts, line] { return run_switch_vanilla(pkts, line); });

  for (std::size_t q : fig17_qs()) {
    char name[96];
    std::snprintf(name, sizeof name, "fig17ab/ps/qmax(g=0.25)/q=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      PrioritySampler<PsQMax> ps(q, PsQMax(q + 1, 0.25));
      return run_switch_monitored(
          pkts, line,
          [&ps](std::size_t, const vswitch::MonitorRecord& r) {
            ps.add(r.packet_id, double(r.length));
          });
    });
    std::snprintf(name, sizeof name, "fig17ab/ps/heap/q=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      PrioritySampler<PsHeap> ps(q, PsHeap(q + 1));
      return run_switch_monitored(
          pkts, line,
          [&ps](std::size_t, const vswitch::MonitorRecord& r) {
            ps.add(r.packet_id, double(r.length));
          });
    });
    std::snprintf(name, sizeof name, "fig17ab/ps/skiplist/q=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      PrioritySampler<PsSkip> ps(q, PsSkip(q + 1));
      return run_switch_monitored(
          pkts, line,
          [&ps](std::size_t, const vswitch::MonitorRecord& r) {
            ps.add(r.packet_id, double(r.length));
          });
    });

    std::snprintf(name, sizeof name, "fig17cd/nwhh/qmax(g=0.25)/k=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      Nmp<NwQMax> nmp(q, NwQMax(q, 0.25));
      return run_switch_monitored(
          pkts, line,
          [&nmp](std::size_t, const vswitch::MonitorRecord& r) {
            nmp.observe(r.packet_id, r.src_ip);
          });
    });
    std::snprintf(name, sizeof name, "fig17cd/nwhh/heap/k=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      Nmp<NwHeap> nmp(q, NwHeap(q));
      return run_switch_monitored(
          pkts, line,
          [&nmp](std::size_t, const vswitch::MonitorRecord& r) {
            nmp.observe(r.packet_id, r.src_ip);
          });
    });
    std::snprintf(name, sizeof name, "fig17cd/nwhh/skiplist/k=%zu", q);
    register_mpps(name, [&pkts, line, q] {
      Nmp<NwSkip> nmp(q, NwSkip(q));
      return run_switch_monitored(
          pkts, line,
          [&nmp](std::size_t, const vswitch::MonitorRecord& r) {
            nmp.observe(r.packet_id, r.src_ip);
          });
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
