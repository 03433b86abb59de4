// Ablation: sharded parallel measurement — throughput vs shard count
// (1/2/4/8), with and without the global-Ψ broadcast, at q = 10^5
// (QMAX_BENCH_LARGE=1 adds 10^6 and 10^7).
//
// Two layers:
//  * direct/  — S writer threads feed S ShardedQMax shards straight from
//    pre-partitioned value arrays (pure measurement scaling, no switch).
//  * pipeline/ — the full MultiPmdSwitch path: forward_sharded (consumer
//    thread per PMD ring, per-shard reservoir, Ψ-broadcast) against the
//    forward_monitored single-consumer baseline.
//
// Every case reports wall-clock MPPS, which shows parallel scaling only
// while the host has a core per thread (S writers, or N PMDs plus their
// consumers). Also reported: merge-on-query cost (merge_ms) and the
// broadcast gauges (per-shard Ψ, folds, publishes, tightened rejections —
// the latter only counts with -DQMAX_TELEMETRY=ON).
#include "bench_common.hpp"
#include "bench_vswitch_common.hpp"

#include <thread>

#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "vswitch/multi_pmd.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;
using vswitch::MonitorRecord;
using vswitch::MultiPmdConfig;
using vswitch::MultiPmdSwitch;

using Sharded = ShardedQMax<QMax<std::uint64_t, double>>;

/// Deterministic dispatch of item i to a shard (stand-in for RSS).
std::size_t dispatch(std::size_t i, std::size_t shards) {
  return static_cast<std::size_t>(common::mix64(0x9e3779b9u ^ i) % shards);
}

/// One substream per shard, partitioned once per (stream, S) outside the
/// timed region — rings deliver records pre-partitioned in the pipeline.
struct Partition {
  std::vector<std::vector<std::uint64_t>> ids;
  std::vector<std::vector<double>> vals;
};

const Partition& partitioned(std::size_t shards) {
  static std::vector<Partition> cache(16);
  Partition& p = cache[shards];
  if (p.ids.empty()) {
    const auto& values = random_values();
    p.ids.resize(shards);
    p.vals.resize(shards);
    for (auto& v : p.ids) v.reserve(values.size() / shards + 1);
    for (auto& v : p.vals) v.reserve(values.size() / shards + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t s = shards == 1 ? 0 : dispatch(i, shards);
      p.ids[s].push_back(i);
      p.vals[s].push_back(values[i]);
    }
  }
  return p;
}

void snapshot_shard_gauges(CaseMetrics& cm, const Sharded& r) {
  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    const std::string p = "shard" + std::to_string(s);
    cm.add_value(p + "/psi", static_cast<double>(r.shard_threshold(s)));
    cm.add_value(p + "/folds",
                 static_cast<double>(r.shard_broadcast_folds(s)));
  }
  cm.add_value("broadcast/folds", static_cast<double>(r.broadcast_folds()));
  cm.add_value("broadcast/publishes",
               static_cast<double>(r.broadcast_publishes()));
  cm.add_value("broadcast/tightened_rejections",
               static_cast<double>(r.broadcast_tightened_rejections()));
}

void run_direct_case(benchmark::State& state, std::size_t shards,
                     std::size_t q, bool bcast) {
  const Partition& part = partitioned(shards);
  const std::size_t total = random_values().size();
  for (auto _ : state) {
    Sharded r(shards, q, {}, bcast);
    common::Stopwatch wall;
    {
      std::vector<std::thread> writers;
      writers.reserve(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        writers.emplace_back([&, s] {
          const auto& ids = part.ids[s];
          const auto& vals = part.vals[s];
          constexpr std::size_t kBatch = 64;
          for (std::size_t i = 0; i < vals.size(); i += kBatch) {
            const std::size_t m = std::min(kBatch, vals.size() - i);
            r.add_batch(s, ids.data() + i, vals.data() + i, m);
          }
        });
      }
      for (auto& t : writers) t.join();
    }
    const double wall_secs = wall.seconds();

    common::Stopwatch merge_sw;
    auto top = r.query();
    const double merge_ms = merge_sw.millis();
    benchmark::DoNotOptimize(top);

    state.counters["MPPS"] = common::mops(total, wall_secs);
    state.counters["merge_ms"] = merge_ms;
    state.counters["bcast_folds"] = static_cast<double>(r.broadcast_folds());
    state.counters["admitted"] = static_cast<double>(r.admitted());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("sharded", r);
      snapshot_shard_gauges(cm, r);
      cm.add_value("wall_mpps", common::mops(total, wall_secs));
      cm.add_value("merge_ms", merge_ms);
      cm.commit(current_case());
    }
  }
}

void run_pipeline_case(benchmark::State& state, std::size_t pmds,
                       std::size_t q, bool sharded_consumers) {
  const auto& pkts = min_size_packets();
  for (auto _ : state) {
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = pmds});
    sw.install_default_rules();
    vswitch::MultiRunResult res;
    Sharded r(pmds, q, {}, true);
    if (sharded_consumers) {
      // Consumer thread per ring; consumer i owns shard i (single-writer
      // by construction), records arrive as whole ring drains.
      res = sw.forward_sharded(
          pkts, [&](std::size_t shard, std::span<const MonitorRecord> recs) {
            std::uint64_t ids[64];
            double vals[64];
            std::size_t i = 0;
            while (i < recs.size()) {
              const std::size_t m = std::min<std::size_t>(recs.size() - i, 64);
              for (std::size_t j = 0; j < m; ++j) {
                ids[j] = recs[i + j].src_ip;
                vals[j] = monitor_record_value(recs[i + j]);
              }
              r.add_batch(shard, ids, vals, m);
              i += m;
            }
          });
    } else {
      // Baseline: ONE monitor thread drains every ring into shard 0 —
      // the paper's single user-space reader.
      res = sw.forward_monitored(
          pkts, [&](std::size_t, std::span<const MonitorRecord> recs) {
            std::uint64_t ids[64];
            double vals[64];
            std::size_t i = 0;
            while (i < recs.size()) {
              const std::size_t m = std::min<std::size_t>(recs.size() - i, 64);
              for (std::size_t j = 0; j < m; ++j) {
                ids[j] = recs[i + j].src_ip;
                vals[j] = monitor_record_value(recs[i + j]);
              }
              r.add_batch(0, ids, vals, m);
              i += m;
            }
          });
    }
    auto top = r.query();
    benchmark::DoNotOptimize(top);
    state.counters["MPPS"] = res.aggregate_mpps();
    state.counters["pmd_skew"] = res.pmd_skew();
    state.counters["stalls"] = static_cast<double>(res.total_stalls());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("sharded", r);
      snapshot_shard_gauges(cm, r);
      cm.add_value("aggregate_mpps", res.aggregate_mpps());
      cm.add_value("pmd_skew", res.pmd_skew());
      cm.add_value("min_pmd_mpps", res.min_pmd_mpps());
      cm.add_value("max_pmd_mpps", res.max_pmd_mpps());
      for (std::size_t j = 0; j < sw.consumer_count(); ++j) {
        cm.bind(sharded_consumers ? "consumer" + std::to_string(j)
                                  : std::string("monitor"),
                sw.consumer_telemetry(j));
      }
      cm.commit(current_case());
    }
  }
}

std::vector<std::size_t> sharding_qs() {
  std::vector<std::size_t> qs{100'000};
  if (common::bench_large()) {
    qs.push_back(1'000'000);
    qs.push_back(10'000'000);
  }
  return qs;
}

void register_all() {
  char name[112];
  for (const std::size_t q : sharding_qs()) {
    for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
      for (const bool bcast : {true, false}) {
        if (shards == 1 && !bcast) continue;  // broadcast is a no-op at S=1
        std::snprintf(name, sizeof name,
                      "abl-sharding/direct/q=%zu/shards=%zu/bcast=%s", q,
                      shards, bcast ? "on" : "off");
        benchmark::RegisterBenchmark(
            name,
            [shards, q, bcast, n = std::string(name)](benchmark::State& st) {
              current_case() = n;
              run_direct_case(st, shards, q, bcast);
              current_case().clear();
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
    for (const std::size_t pmds : {1ul, 2ul, 4ul}) {
      for (const bool sharded : {true, false}) {
        std::snprintf(name, sizeof name,
                      "abl-sharding/pipeline/q=%zu/pmds=%zu/%s", q, pmds,
                      sharded ? "per-ring-consumers" : "single-consumer");
        benchmark::RegisterBenchmark(
            name,
            [pmds, q, sharded, n = std::string(name)](benchmark::State& st) {
              current_case() = n;
              run_pipeline_case(st, pmds, q, sharded);
              current_case().clear();
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
