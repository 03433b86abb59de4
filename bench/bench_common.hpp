// Shared benchmark-harness utilities.
//
// Every figure benchmark registers google-benchmark cases named
// "figN/<alg>/<params>" and reports an "items_per_second"-style MPPS rate
// counter; every table benchmark is a plain main() that prints the paper's
// table. All binaries honour (see common/env.hpp):
//   QMAX_BENCH_SCALE — stream-length multiplier (default 1.0)
//   QMAX_BENCH_LARGE — "1" enables the q = 10^7 points
//   QMAX_BENCH_REPS  — repetitions for the custom-main tables
//   QMAX_METRICS_OUT — if set, the binary writes a JSON telemetry blob
//                      (per-case metric snapshots + the global registry)
//                      to this path on exit ("-" = stdout)
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "telemetry/bind.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace_export.hpp"
#include "trace/synthetic.hpp"

namespace qmax::bench {

/// The paper's random-number workload (150M items there; laptop-scaled
/// here). Generated once per process and shared across cases.
inline const std::vector<double>& random_values(std::uint64_t base = 0,
                                                std::uint64_t seed = 1) {
  static const std::vector<double> values = [base, seed] {
    // Default sizing keeps the stream ≫ every swept q (the paper's regime:
    // its 150M-item stream is 15-15000× its reservoir sizes).
    std::uint64_t n = base != 0 ? base
                      : common::bench_large() ? 40'000'000
                                              : 4'000'000;
    n = common::scaled(n);
    std::vector<double> v(n);
    common::Xoshiro256 rng(seed);
    for (auto& x : v) x = rng.uniform();
    return v;
  }();
  return values;
}

/// CAIDA-like packet workload, shared per process.
inline const std::vector<trace::PacketRecord>& caida_packets(
    std::uint64_t base = 2'000'000) {
  static const std::vector<trace::PacketRecord> packets = [base] {
    trace::CaidaLikeGenerator gen;
    return trace::take_packets(gen, common::scaled(base));
  }();
  return packets;
}

// ---- Machine-readable metrics blob (QMAX_METRICS_OUT) ----------------
//
// Benches construct their measured structures inside each case, so the
// harness snapshots a structure's metrics (via telemetry::bind_metrics)
// right after the timed section, while the structure is still alive, and
// stitches every case's snapshot into one JSON document on exit.

[[nodiscard]] inline bool metrics_enabled() {
  return !common::metrics_out().empty();
}

/// Name of the google-benchmark case currently executing (set by
/// register_mpps); empty outside a case.
inline std::string& current_case() {
  static std::string name;
  return name;
}

/// case name -> JSON metrics object, in completion order.
inline std::vector<std::pair<std::string, std::string>>& metric_cases() {
  static std::vector<std::pair<std::string, std::string>> cases;
  return cases;
}

/// Collects the metrics of one or more live structures for one case.
class CaseMetrics {
 public:
  template <typename T>
  void bind(const std::string& prefix, const T& obj) {
    telemetry::bind_metrics_into(reg_, prefix, obj, regs_);
  }

  /// Attach a bench-computed scalar (a rate, a speedup) to the case blob.
  void add_value(const std::string& name, double v) {
    regs_.push_back(reg_.add_gauge(name, [v] { return v; }));
  }

  /// Snapshot everything bound so far into the process-wide case list.
  void commit(const std::string& case_name) {
    metric_cases().emplace_back(
        case_name, telemetry::metrics_json_object(reg_.collect()));
  }

 private:
  telemetry::Registry reg_;
  std::vector<telemetry::Registration> regs_;
};

/// Snapshot `obj`'s metrics under the currently running case, if a blob
/// was requested. Call while `obj` is still alive.
template <typename T>
void record_case_metrics(const std::string& prefix, const T& obj) {
  if (!metrics_enabled() || current_case().empty()) return;
  CaseMetrics cm;
  cm.bind(prefix, obj);
  cm.commit(current_case());
}

/// Write `json` to `path` ("-" = stdout), warning on stderr — naming the
/// variable that chose the path — when the document could not be written
/// whole.
inline void write_document(const char* var, const std::string& path,
                           const std::string& json) {
  if (!telemetry::write_text_file(path, json)) {
    std::fprintf(stderr, "%s: cannot write %s\n", var, path.c_str());
  }
}

/// Write the blob to QMAX_METRICS_OUT; no-op when unset. Safe to call
/// multiple times (later calls rewrite the file with more cases). The
/// flight recorder's stage latencies are bound into the global registry
/// for the collection, so they appear in "global" as trace.stage.<stage>
/// histograms (ns) whenever the build has QMAX_TELEMETRY on.
inline void write_metrics_blob() {
  if (!metrics_enabled()) return;
  std::string json = "{\"telemetry_enabled\": ";
  json += telemetry::kEnabled ? "true" : "false";
  json += ", \"cases\": {";
  bool first = true;
  for (const auto& [name, metrics] : metric_cases()) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += telemetry::json_escape(name);
    json += "\": ";
    json += metrics;
  }
  json += "}, \"global\": ";
  {
    std::vector<telemetry::Registration> stages;
    telemetry::bind_trace_stage_metrics(telemetry::Registry::instance(),
                                        stages);
    json += telemetry::metrics_json_object(
        telemetry::Registry::instance().collect());
  }
  json += "}\n";
  write_document("QMAX_METRICS_OUT", common::metrics_out(), json);
}

/// Write the flight-recorder Chrome trace to QMAX_TRACE_OUT; no-op when
/// unset. Valid-but-empty document unless built with -DQMAX_TELEMETRY=ON.
/// Call with worker threads joined (end of main), the trace layer's
/// export contract.
inline void write_trace_blob() {
  const std::string& path = common::trace_out();
  if (path.empty()) return;
  write_document("QMAX_TRACE_OUT", path, telemetry::trace_json());
}

/// Standard main-body for the figure benches: run google-benchmark, then
/// emit the metrics blob and trace if requested.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_metrics_blob();
  write_trace_blob();
  return 0;
}

/// Feed every (index, value) pair into a freshly reported reservoir; the
/// caller provides `make()` so construction cost stays outside the timer.
template <typename Make>
double measure_stream_mpps(Make&& make, const std::vector<double>& values) {
  auto r = make();
  common::Stopwatch sw;
  for (std::size_t i = 0; i < values.size(); ++i) {
    r.add(static_cast<std::uint64_t>(i), values[i]);
  }
  const double secs = sw.seconds();
  benchmark::DoNotOptimize(r);
  record_case_metrics("reservoir", r);
  return common::mops(values.size(), secs);
}

/// Sequential ids 0..n-1, materialized once per process and grown on
/// demand. The batched drivers read ids from here so id staging stays
/// outside the timed section — in the real drain loops the ids arrive
/// already materialized in the ring records.
inline const std::uint64_t* bench_ids(std::size_t n) {
  static std::vector<std::uint64_t> ids;
  if (ids.size() < n) {
    const std::size_t old = ids.size();
    ids.resize(n);
    for (std::size_t i = old; i < n; ++i) ids[i] = i;
  }
  return ids.data();
}

/// Batch-mode twin of measure_stream_mpps: the same stream fed through the
/// reservoir's add_batch in chunks of `batch_size` items — the shape the
/// vswitch drain loop produces.
template <typename Make>
double measure_stream_mpps_batched(Make&& make,
                                   const std::vector<double>& values,
                                   std::size_t batch_size = 64) {
  auto r = make();
  const std::uint64_t* ids = bench_ids(values.size());
  common::Stopwatch sw;
  for (std::size_t i = 0; i < values.size(); i += batch_size) {
    const std::size_t m = std::min(batch_size, values.size() - i);
    r.add_batch(ids + i, values.data() + i, m);
  }
  const double secs = sw.seconds();
  benchmark::DoNotOptimize(r);
  record_case_metrics("reservoir", r);
  return common::mops(values.size(), secs);
}

/// q values for the sweeps. The paper sweeps 10^4..10^7; the default here
/// stops at 10^5 so the (scaled) stream stays much longer than q —
/// QMAX_BENCH_LARGE=1 restores the 10^6/10^7 points with a 40M stream.
inline std::vector<std::size_t> sweep_qs() {
  std::vector<std::size_t> qs{10'000, 100'000};
  if (common::bench_large()) {
    qs.push_back(1'000'000);
    qs.push_back(10'000'000);
  }
  return qs;
}

/// The γ grid of Figure 4 / Table 1.
inline const std::vector<double>& sweep_gammas() {
  static const std::vector<double> g{0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0};
  return g;
}

/// Register a google-benchmark case that runs `fn()` (returning MPPS) once
/// per iteration and exports the result as the "MPPS" counter. The case
/// name is published through current_case() while fn runs so helpers can
/// attribute metric snapshots to it.
template <typename Fn>
void register_mpps(const std::string& name, Fn fn) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [fn, name](benchmark::State& state) {
        current_case() = name;
        double mpps = 0.0;
        for (auto _ : state) {
          mpps = fn();
        }
        state.counters["MPPS"] = mpps;
        current_case().clear();
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

/// Pretty row printer for the custom-main tables.
inline void print_table_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("(scale=%.2f, reps=%d%s)\n", common::bench_scale(),
              common::bench_reps(),
              common::bench_large() ? ", large points on" : "");
}

}  // namespace qmax::bench
