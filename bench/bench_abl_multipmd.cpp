// Ablation: multi-PMD deployment — does the single measurement consumer
// become the bottleneck as PMD threads scale? (The paper's OVS setup has
// one shared-memory block per PMD and one user-space reader.)
//
// Reported per configuration: aggregate switch Mpps and total
// backpressure stalls. On a single-core host the threads time-share, so
// absolute scaling is not meaningful — the interesting signal is how the
// stall count grows with PMD count for slow vs fast reservoirs.
#include "bench_vswitch_common.hpp"

#include "vswitch/multi_pmd.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;
using vswitch::MonitorRecord;
using vswitch::MultiPmdConfig;
using vswitch::MultiPmdSwitch;

template <typename R, typename Make>
void run_case(benchmark::State& state, std::size_t pmds, Make make) {
  const auto& pkts = min_size_packets();
  for (auto _ : state) {
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = pmds});
    sw.install_default_rules();
    R reservoir = make();
    const auto res = sw.forward_monitored(
        pkts, [&](std::size_t, const MonitorRecord& r) {
          reservoir.add(r.src_ip, common::to_unit_interval(
                                      common::hash64(r.packet_id)));
        });
    state.counters["MPPS"] = res.aggregate_mpps();
    state.counters["stalls"] = static_cast<double>(res.total_stalls());
    benchmark::DoNotOptimize(reservoir);
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      for (std::size_t i = 0; i < res.per_pmd.size(); ++i) {
        cm.bind("pmd" + std::to_string(i), res.per_pmd[i]);
      }
      cm.bind("monitor", sw.consumer_telemetry(0));
      cm.bind("reservoir", reservoir);
      cm.commit(current_case());
    }
  }
}

void register_all() {
  using QR = QMax<std::uint32_t, double>;
  using SR = baselines::SkipListQMax<std::uint32_t, double>;
  const std::size_t q = 100'000;
  for (std::size_t pmds : {1ul, 2ul, 4ul}) {
    char name[96];
    std::snprintf(name, sizeof name, "abl-multipmd/qmax(g=0.25)/pmds=%zu",
                  pmds);
    benchmark::RegisterBenchmark(
        name,
        [pmds, n = std::string(name)](benchmark::State& st) {
          current_case() = n;
          run_case<QR>(st, pmds, [&] { return QR(100'000, 0.25); });
          current_case().clear();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    std::snprintf(name, sizeof name, "abl-multipmd/skiplist/pmds=%zu", pmds);
    benchmark::RegisterBenchmark(
        name,
        [pmds, q, n = std::string(name)](benchmark::State& st) {
          current_case() = n;
          run_case<SR>(st, pmds, [&] { return SR(q); });
          current_case().clear();
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
