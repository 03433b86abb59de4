// Figure 14: OVS throughput (10G, real traffic) while running Priority
// Sampling (14a/14b) and network-wide heavy hitters (14c/14d) behind the
// shared-memory ring, for q-MAX / Heap / SkipList implementations.
//
// Paper shape: q-MAX implementations attain the highest OVS throughput —
// PS overhead 6.1% with q-MAX vs 60.1% best-alternative; NWHH overhead
// ≤ 5.0% vs 41.6% — with the gap largest at q = 10^7.
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

const std::vector<trace::PacketRecord>& traffic() {
  static const std::vector<trace::PacketRecord> pkts = [] {
    trace::CaidaLikeGenerator gen;
    return trace::take_packets(gen, common::scaled(2'000'000));
  }();
  return pkts;
}

std::vector<std::size_t> fig14_qs() {
  std::vector<std::size_t> qs{100'000};
  if (common::bench_large()) qs.push_back(1'000'000);
  return qs;
}

template <typename R, typename MakeR>
double run_ps_on_switch(std::size_t q, double line, MakeR make) {
  PrioritySampler<R> ps(q, make());
  return run_switch_monitored(
      traffic(), line,
      [&ps](std::size_t, const vswitch::MonitorRecord& rec) {
        ps.add(rec.packet_id, double(rec.length));
      });
}

template <typename R, typename MakeR>
double run_nwhh_on_switch(std::size_t q, double line, MakeR make) {
  Nmp<R> nmp(q, make());
  return run_switch_monitored(
      traffic(), line,
      [&nmp](std::size_t, const vswitch::MonitorRecord& rec) {
        nmp.observe(rec.packet_id, rec.src_ip);
      });
}

void register_all() {
  const double line = line_rate_10g();
  using PsQMax = QMax<WeightedKey, double>;
  using PsHeap = baselines::HeapQMax<WeightedKey, double>;
  using PsSkip = baselines::SkipListQMax<WeightedKey, double>;
  using NwQMax = QMax<PacketSample, double>;
  using NwHeap = baselines::HeapQMax<PacketSample, double>;
  using NwSkip = baselines::SkipListQMax<PacketSample, double>;

  register_mpps("fig14/vanilla-ovs",
                [line] { return run_switch_vanilla(traffic(), line); });

  for (std::size_t q : fig14_qs()) {
    char name[96];
    std::snprintf(name, sizeof name, "fig14ab/ps/qmax(g=0.25)/q=%zu", q);
    register_mpps(name, [q, line] {
      return run_ps_on_switch<PsQMax>(q, line,
                                      [&] { return PsQMax(q + 1, 0.25); });
    });
    std::snprintf(name, sizeof name, "fig14ab/ps/heap/q=%zu", q);
    register_mpps(name, [q, line] {
      return run_ps_on_switch<PsHeap>(q, line, [&] { return PsHeap(q + 1); });
    });
    std::snprintf(name, sizeof name, "fig14ab/ps/skiplist/q=%zu", q);
    register_mpps(name, [q, line] {
      return run_ps_on_switch<PsSkip>(q, line, [&] { return PsSkip(q + 1); });
    });

    std::snprintf(name, sizeof name, "fig14cd/nwhh/qmax(g=0.25)/k=%zu", q);
    register_mpps(name, [q, line] {
      return run_nwhh_on_switch<NwQMax>(q, line,
                                        [&] { return NwQMax(q, 0.25); });
    });
    std::snprintf(name, sizeof name, "fig14cd/nwhh/heap/k=%zu", q);
    register_mpps(name, [q, line] {
      return run_nwhh_on_switch<NwHeap>(q, line, [&] { return NwHeap(q); });
    });
    std::snprintf(name, sizeof name, "fig14cd/nwhh/skiplist/k=%zu", q);
    register_mpps(name, [q, line] {
      return run_nwhh_on_switch<NwSkip>(q, line, [&] { return NwSkip(q); });
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
