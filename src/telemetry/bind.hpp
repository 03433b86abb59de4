// Duck-typed binders: attach any instrumented structure's metrics to a
// Registry under a name prefix.
//
// Two sources of metrics are recognised, both by compile-time detection
// (so this header depends on no concrete structure and new structures
// need no registration code here):
//
//   * Always-on statistics the structures already expose as accessors
//     (processed(), admitted(), hits(), sampled_passes(),
//     psi_publishes(), ...) or as plain aggregate fields (RunResult,
//     backpressure_stalls, ...). These register in every build; a count
//     the algorithm keeps anyway is never duplicated as an instrument.
//     Since every reservoir variant is a policy composition over
//     core::ReservoirCore, the core's accessors (and its maintenance
//     policy's telem()) are bound once here and inherited by all of them.
//   * Gated instruments: a structure exposes `telem()` returning its
//     telemetry struct, and the telemetry struct exposes
//     `visit(fn)` calling `fn(name, instrument)` per instrument. These
//     register only when QMAX_TELEMETRY is on (disabled instruments hold
//     no state worth exporting).
//
// Lifetime: the returned Registrations capture pointers into `obj`; drop
// them (they are RAII) before `obj` dies.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"

namespace qmax::telemetry {

namespace detail {

/// Register one instrument by its concrete type.
template <typename Inst>
void add_instrument(Registry& reg, std::string name, const Inst& inst,
                    std::vector<Registration>& out) {
  if constexpr (std::is_same_v<Inst, Counter> ||
                std::is_same_v<Inst, PaddedCounter>) {
    out.push_back(reg.add_counter(
        std::move(name), [&inst] { return inst.value(); }));
  } else if constexpr (std::is_same_v<Inst, Gauge> ||
                       std::is_same_v<Inst, PaddedGauge> ||
                       std::is_same_v<Inst, MaxGauge>) {
    out.push_back(reg.add_gauge(std::move(name), [&inst] {
      return static_cast<double>(inst.value());
    }));
  } else if constexpr (std::is_same_v<Inst, Histogram>) {
    out.push_back(reg.add_histogram(
        std::move(name), [&inst] { return inst.snapshot(); }));
  } else {
    static_assert(sizeof(Inst) == 0, "unknown instrument type");
  }
}

}  // namespace detail

/// A telemetry struct with a `visit(fn)` member.
template <typename T>
concept InstrumentPack = requires(const T& t) {
  t.visit([](const char*, const auto&) {});
};

/// Register every instrument of a pack under `prefix.`; no-op when the
/// telemetry gate is off.
template <InstrumentPack Pack>
void bind_instruments(Registry& reg, const std::string& prefix,
                      const Pack& pack, std::vector<Registration>& out) {
  if constexpr (kEnabled) {
    pack.visit([&](const char* name, const auto& inst) {
      detail::add_instrument(reg, prefix + "." + name, inst, out);
    });
  }
}

/// Bind everything recognisable about `obj` under `prefix.` into `reg`,
/// appending the RAII handles to `out`.
template <typename T>
void bind_metrics_into(Registry& reg, const std::string& prefix, const T& obj,
                       std::vector<Registration>& out) {
  auto counter = [&](const char* name, auto read) {
    out.push_back(reg.add_counter(prefix + "." + name, std::move(read)));
  };
  auto gauge = [&](const char* name, auto read) {
    out.push_back(reg.add_gauge(prefix + "." + name, std::move(read)));
  };

  // Reservoir statistics (QMax, AmortizedQMax, SlackQMax, ...).
  if constexpr (requires { { obj.processed() } -> std::convertible_to<std::uint64_t>; }) {
    counter("processed", [&obj] { return static_cast<std::uint64_t>(obj.processed()); });
  }
  if constexpr (requires { { obj.admitted() } -> std::convertible_to<std::uint64_t>; }) {
    counter("admitted", [&obj] { return static_cast<std::uint64_t>(obj.admitted()); });
  }
  if constexpr (requires { { obj.live_count() } -> std::convertible_to<std::uint64_t>; }) {
    gauge("live", [&obj] { return static_cast<double>(obj.live_count()); });
  }
  if constexpr (requires { { obj.late_selections() } -> std::convertible_to<std::uint64_t>; }) {
    counter("late_selections", [&obj] { return obj.late_selections(); });
  }
  // Plain counters the algorithms keep anyway (SampledQMax's pivot
  // outcomes, ConcurrentQMax's Ψ publishing, ShardedQMax's merge cache).
  if constexpr (requires { { obj.sampled_passes() } -> std::convertible_to<std::uint64_t>; }) {
    counter("sampled_passes", [&obj] { return obj.sampled_passes(); });
    counter("exact_fallbacks", [&obj] { return obj.exact_fallbacks(); });
  }
  if constexpr (requires { { obj.psi_publishes() } -> std::convertible_to<std::uint64_t>; }) {
    counter("psi_publishes", [&obj] { return obj.psi_publishes(); });
    counter("psi_cas_retries", [&obj] { return obj.psi_cas_retries(); });
  }
  if constexpr (requires { { obj.merges_skipped_clean() } -> std::convertible_to<std::uint64_t>; }) {
    counter("merges_skipped_clean",
            [&obj] { return obj.merges_skipped_clean(); });
  }

  // Cache statistics (LRFU variants).
  if constexpr (requires { { obj.accesses() } -> std::convertible_to<std::uint64_t>; }) {
    counter("accesses", [&obj] { return obj.accesses(); });
  }
  if constexpr (requires { { obj.hits() } -> std::convertible_to<std::uint64_t>; }) {
    counter("hits", [&obj] { return obj.hits(); });
  }
  if constexpr (requires { { obj.hit_ratio() } -> std::convertible_to<double>; }) {
    gauge("hit_ratio", [&obj] { return obj.hit_ratio(); });
  }
  if constexpr (requires { { obj.hits() } -> std::convertible_to<std::uint64_t>;
                           { obj.size() } -> std::convertible_to<std::uint64_t>; }) {
    gauge("cached_keys", [&obj] { return static_cast<double>(obj.size()); });
  }

  // Datapath run results (vswitch RunResult-shaped aggregates).
  if constexpr (requires { { obj.packets } -> std::convertible_to<std::uint64_t>; }) {
    counter("packets", [&obj] { return static_cast<std::uint64_t>(obj.packets); });
  }
  if constexpr (requires { { obj.backpressure_stalls } -> std::convertible_to<std::uint64_t>; }) {
    counter("backpressure_stalls",
            [&obj] { return static_cast<std::uint64_t>(obj.backpressure_stalls); });
  }
  if constexpr (requires { { obj.records_dropped } -> std::convertible_to<std::uint64_t>; }) {
    counter("records_dropped",
            [&obj] { return static_cast<std::uint64_t>(obj.records_dropped); });
  }
  if constexpr (requires { { obj.shed_probabilistic } -> std::convertible_to<std::uint64_t>; }) {
    counter("shed_probabilistic",
            [&obj] { return static_cast<std::uint64_t>(obj.shed_probabilistic); });
  }
  if constexpr (requires { { obj.shed_below_psi } -> std::convertible_to<std::uint64_t>; }) {
    counter("shed_below_psi",
            [&obj] { return static_cast<std::uint64_t>(obj.shed_below_psi); });
  }
  if constexpr (requires { { obj.watchdog_trips } -> std::convertible_to<std::uint64_t>; }) {
    counter("watchdog_trips",
            [&obj] { return static_cast<std::uint64_t>(obj.watchdog_trips); });
    counter("watchdog_drops",
            [&obj] { return static_cast<std::uint64_t>(obj.watchdog_drops); });
    counter("degrade_transitions",
            [&obj] { return static_cast<std::uint64_t>(obj.degrade_transitions); });
    gauge("degrade_peak",
          [&obj] { return static_cast<double>(obj.degrade_peak); });
  }
  if constexpr (requires { { obj.records_drained } -> std::convertible_to<std::uint64_t>; }) {
    counter("records_drained",
            [&obj] { return static_cast<std::uint64_t>(obj.records_drained); });
  }
  if constexpr (requires { { obj.drain_batches } -> std::convertible_to<std::uint64_t>; }) {
    counter("drain_batches",
            [&obj] { return static_cast<std::uint64_t>(obj.drain_batches); });
  }
  if constexpr (requires { { obj.ring_occupancy_max } -> std::convertible_to<std::uint64_t>; }) {
    gauge("ring_occupancy_max",
          [&obj] { return static_cast<double>(obj.ring_occupancy_max); });
  }
  if constexpr (requires { { obj.ring_capacity } -> std::convertible_to<std::uint64_t>; }) {
    gauge("ring_capacity",
          [&obj] { return static_cast<double>(obj.ring_capacity); });
  }

  // Gated instruments: an instrument pack itself, or a host exposing one.
  if constexpr (InstrumentPack<T>) {
    bind_instruments(reg, prefix, obj, out);
  } else if constexpr (requires { { obj.telem() } -> InstrumentPack; }) {
    bind_instruments(reg, prefix, obj.telem(), out);
  }
}

/// Convenience wrapper returning the handles.
template <typename T>
[[nodiscard]] std::vector<Registration> bind_metrics(Registry& reg,
                                                     const std::string& prefix,
                                                     const T& obj) {
  std::vector<Registration> out;
  bind_metrics_into(reg, prefix, obj, out);
  return out;
}

}  // namespace qmax::telemetry
