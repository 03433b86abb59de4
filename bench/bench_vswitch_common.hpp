// Shared harness for the virtual-switch (OVS-integration) benchmarks,
// Figures 12-17. A one-PMD MultiPmdSwitch forwards a pre-generated packet
// vector with a measurement algorithm attached behind the shared-memory
// ring; reported throughput is min(PMD datapath rate, line rate).
//
// Reproduction note (DESIGN.md §3): as in the paper's OVS/DPDK setup, the
// PMD loop and the monitor are two threads, and the scheduler gives each
// its own core when the host has two free. A slow reservoir throttles the
// PMD only through the full ring (backpressure), the coupling the paper
// measures; on a host with fewer free cores than threads, the two also
// compete for CPU time, which widens the gaps. Relative ordering —
// vanilla ≥ q-MAX ≥ Heap ≥ SkipList, with the gap exploding at
// q = 10^6-10^7 — is what the shape check asserts.
#pragma once

#include "bench_common.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#include "baselines/heap_qmax.hpp"
#include "baselines/skiplist_qmax.hpp"
#include "common/hash.hpp"
#include "qmax/qmax.hpp"
#include "vswitch/multi_pmd.hpp"

namespace qmax::bench {

/// The value a MonitorRecord contributes to the reservoir: a uniform hash
/// of the packet id (the admission distribution the theory assumes).
/// Shared between the monitors below and the switch's shed-below-Ψ
/// filter (SwitchConfig::record_value), which must agree exactly.
inline double monitor_record_value(const vswitch::MonitorRecord& rec) {
  return common::to_unit_interval(common::hash64(rec.packet_id));
}

/// Feed MonitorRecords into any reservoir: id = src ip, value =
/// monitor_record_value. Reservoirs exposing threshold() publish their
/// admission bound into `psi_pub` after every record, so a kGraceful
/// switch can shed records the reservoir was guaranteed to reject.
template <typename R>
struct ReservoirMonitor {
  R reservoir;
  std::atomic<double> psi_pub{std::numeric_limits<double>::lowest()};

  void operator()(std::size_t, const vswitch::MonitorRecord& rec) {
    reservoir.add(rec.src_ip, monitor_record_value(rec));
    publish_psi();
  }
  void publish_psi() {
    if constexpr (requires { reservoir.threshold(); }) {
      psi_pub.store(static_cast<double>(reservoir.threshold()),
                    std::memory_order_relaxed);
    }
  }
  [[nodiscard]] const std::atomic<double>* psi_source() const noexcept {
    return &psi_pub;
  }
};

/// Batch twin of ReservoirMonitor: receives whole ring drains (the span
/// consumer shape of MultiPmdSwitch) and hands them to the reservoir's
/// add_batch, so rejected records never pay a per-record call. Ids/values
/// are staged in fixed arrays sized to the drain burst.
template <typename R>
struct BatchReservoirMonitor {
  /// Matches the 64-record pop_batch buffer of the drain loop.
  static constexpr std::size_t kMaxDrain = 64;
  R reservoir;
  std::atomic<double> psi_pub{std::numeric_limits<double>::lowest()};

  void operator()(std::size_t, std::span<const vswitch::MonitorRecord> recs) {
    using Id = decltype(typename R::EntryT{}.id);
    Id ids[kMaxDrain];
    double vals[kMaxDrain];
    std::size_t i = 0;
    while (i < recs.size()) {
      const std::size_t m = std::min(recs.size() - i, kMaxDrain);
      for (std::size_t j = 0; j < m; ++j) {
        const auto& rec = recs[i + j];
        ids[j] = rec.src_ip;
        vals[j] = monitor_record_value(rec);
      }
      reservoir.add_batch(ids, vals, m);
      i += m;
    }
    if constexpr (requires { reservoir.threshold(); }) {
      psi_pub.store(static_cast<double>(reservoir.threshold()),
                    std::memory_order_relaxed);
    }
  }
  [[nodiscard]] const std::atomic<double>* psi_source() const noexcept {
    return &psi_pub;
  }
};

/// Overload policy for the switch benches, selectable without a rebuild:
/// QMAX_OVS_POLICY=backpressure (default) | drop | graceful.
inline vswitch::OverloadPolicy switch_policy() {
  const char* e = std::getenv("QMAX_OVS_POLICY");
  if (e != nullptr) {
    if (std::strcmp(e, "drop") == 0) return vswitch::OverloadPolicy::kDrop;
    if (std::strcmp(e, "graceful") == 0) {
      return vswitch::OverloadPolicy::kGraceful;
    }
  }
  return vswitch::OverloadPolicy::kBackpressure;
}

namespace detail {
template <typename T>
T& unwrap_consumer(T& c) {
  return c;
}
template <typename T>
T& unwrap_consumer(std::reference_wrapper<T> c) {
  return c.get();
}
}  // namespace detail

/// Run a one-PMD switch over `packets` with monitoring via `consumer`,
/// called as `consumer(ring, record)` or `consumer(ring, span)`; returns
/// the PMD's delivered Mpps against the given line rate. Under
/// QMAX_OVS_POLICY=graceful, a consumer that publishes its admission bound
/// (psi_source()) is wired into the switch's shed-below-Ψ filter. When a
/// metrics blob was requested, the PMD's datapath and ladder counters,
/// ring gauges and the monitor instruments are snapshotted under the
/// current case.
template <typename Consumer>
double run_switch_monitored(const std::vector<trace::PacketRecord>& packets,
                            double line_rate_pps, Consumer&& consumer) {
  vswitch::SwitchConfig cfg;
  cfg.policy = switch_policy();
  auto& target = detail::unwrap_consumer(consumer);
  if constexpr (requires { target.psi_source(); }) {
    cfg.psi_source = target.psi_source();
    cfg.record_value = &monitor_record_value;
  }
  vswitch::MultiPmdSwitch sw(
      vswitch::MultiPmdConfig{.pmd_threads = 1, .per_pmd = cfg});
  sw.install_default_rules();
  const vswitch::RunResult pmd =
      sw.forward_monitored(packets, consumer).per_pmd[0];
  if (metrics_enabled() && !current_case().empty()) {
    CaseMetrics cm;
    cm.bind("switch", pmd);
    cm.bind("monitor", sw.consumer_telemetry(0));
    cm.commit(current_case());
  }
  return pmd.delivered_mpps(line_rate_pps);
}

inline double run_switch_vanilla(
    const std::vector<trace::PacketRecord>& packets, double line_rate_pps) {
  vswitch::MultiPmdSwitch sw(vswitch::MultiPmdConfig{.pmd_threads = 1});
  sw.install_default_rules();
  return sw.forward(packets).per_pmd[0].delivered_mpps(line_rate_pps);
}

/// The 10G stress workload: minimal (64B) frames.
inline const std::vector<trace::PacketRecord>& min_size_packets() {
  static const std::vector<trace::PacketRecord> pkts = [] {
    trace::MinSizePacketGenerator gen(1'000'000, 1);
    return trace::take_packets(gen, common::scaled(2'000'000));
  }();
  return pkts;
}

/// The 40G workload: real-sized (UNIV1-like) packets.
inline const std::vector<trace::PacketRecord>& real_size_packets() {
  static const std::vector<trace::PacketRecord> pkts = [] {
    trace::DatacenterLikeGenerator gen;
    return trace::take_packets(gen, common::scaled(2'000'000));
  }();
  return pkts;
}

inline double line_rate_10g() { return trace::line_rate_pps(10.0, 46); }
inline double line_rate_40g() {
  return trace::line_rate_pps(
      40.0, static_cast<std::uint32_t>(
                trace::DatacenterLikeGenerator::mean_packet_bytes()));
}

/// q sweep for the switch benches (the paper's 10^4..10^7, scaled).
inline std::vector<std::size_t> switch_qs() {
  std::vector<std::size_t> qs{10'000, 100'000};
  if (common::bench_large()) {
    qs.push_back(1'000'000);
    qs.push_back(10'000'000);
  }
  return qs;
}

}  // namespace qmax::bench
