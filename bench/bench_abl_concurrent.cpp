// Ablation: lock-free multi-writer measurement — ConcurrentQMax (any
// thread adds through thread-local admission buffers into ONE reservoir)
// vs ShardedQMax (one pinned writer per shard, merge-on-query), over a
// writer-count × q × γ × key-skew grid.
//
// Two layers:
//  * direct/  — W writer threads feed the reservoir straight from value
//    arrays. The concurrent variant splits the stream round-robin across
//    writers (any thread may add anything, so slices are always
//    balanced); the sharded variant MUST dispatch by flow key — that is
//    its correctness contract — so Zipf-skewed keys pile work onto one
//    shard's writer while the concurrent writers stay level. That
//    writer/shard mismatch is the case this variant exists for.
//  * pipeline/ — the full MultiPmdSwitch path: forward_concurrent
//    (M consumer threads over N rings, one shared ConcurrentQMax)
//    against forward_sharded (consumer per ring, per-shard reservoir).
//
// Every case reports wall-clock MPPS, which shows parallel scaling only
// while the host has a core per thread. Also reported: drain cost at
// query (drain_ms) and the handoff/stall/Ψ-publish gauges.
//
// NUMA note: ConcurrentQMax first-touches each admission buffer on its
// registering writer thread, so on NUMA hosts the buffers sit on the
// writer's node; this bench does not pin threads (no libnuma dependency)
// but the allocation discipline is what makes pinning pay.
#include "bench_common.hpp"
#include "bench_vswitch_common.hpp"

#include <thread>

#include "common/zipf.hpp"
#include "qmax/concurrent.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "vswitch/multi_pmd.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;
using vswitch::MonitorRecord;
using vswitch::MultiPmdConfig;
using vswitch::MultiPmdSwitch;

using Core = QMax<std::uint64_t, double>;
using Concurrent = ConcurrentQMax<Core>;
using Sharded = ShardedQMax<Core>;

/// Flow keys for the whole stream: uniform (key = item index, spreads
/// evenly under the mixed dispatch) or Zipf(s = 1.1) over 1e6 flows (the
/// CAIDA-like skew — one hot flow owns a few percent of the stream, so
/// whichever shard owns it inherits the imbalance).
const std::vector<std::uint64_t>& flow_keys(bool zipf) {
  static std::vector<std::uint64_t> uniform_keys, zipf_keys;
  std::vector<std::uint64_t>& keys = zipf ? zipf_keys : uniform_keys;
  if (keys.empty()) {
    const std::size_t n = random_values().size();
    keys.resize(n);
    if (zipf) {
      common::Xoshiro256 rng(97);
      const common::ZipfGenerator gen(1'000'000, 1.1);
      for (std::size_t i = 0; i < n; ++i) keys[i] = gen(rng);
    } else {
      for (std::size_t i = 0; i < n; ++i) keys[i] = i;
    }
  }
  return keys;
}

std::size_t dispatch(std::uint64_t key, std::size_t shards) {
  return static_cast<std::size_t>(common::mix64(key) % shards);
}

struct Partition {
  std::vector<std::vector<std::uint64_t>> ids;
  std::vector<std::vector<double>> vals;
};

/// Key-dispatched partition for the sharded variant (skew shows up as
/// unequal slice sizes) — built once per (W, dist) outside timed code.
const Partition& sharded_partition(std::size_t shards, bool zipf) {
  static std::vector<Partition> cache(32);
  Partition& p = cache[(zipf ? 16 : 0) + shards];
  if (p.ids.empty()) {
    const auto& values = random_values();
    const auto& keys = flow_keys(zipf);
    p.ids.resize(shards);
    p.vals.resize(shards);
    for (auto& v : p.ids) v.reserve(values.size() / shards + 1);
    for (auto& v : p.vals) v.reserve(values.size() / shards + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t s = shards == 1 ? 0 : dispatch(keys[i], shards);
      p.ids[s].push_back(i);
      p.vals[s].push_back(values[i]);
    }
  }
  return p;
}

/// Round-robin partition for the concurrent variant: writers are not
/// bound to keys, so slices stay balanced no matter how skewed the flow
/// distribution is.
const Partition& balanced_partition(std::size_t writers) {
  static std::vector<Partition> cache(16);
  Partition& p = cache[writers];
  if (p.ids.empty()) {
    const auto& values = random_values();
    p.ids.resize(writers);
    p.vals.resize(writers);
    for (auto& v : p.ids) v.reserve(values.size() / writers + 1);
    for (auto& v : p.vals) v.reserve(values.size() / writers + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      p.ids[i % writers].push_back(i);
      p.vals[i % writers].push_back(values[i]);
    }
  }
  return p;
}

struct DirectOutcome {
  double wall_secs = 0.0;
  double drain_ms = 0.0;  // query-side drain/merge cost
};

template <typename Feed>
DirectOutcome run_writers(const Partition& part, Feed feed) {
  const std::size_t w = part.ids.size();
  DirectOutcome out;
  common::Stopwatch wall;
  {
    std::vector<std::thread> writers;
    writers.reserve(w);
    for (std::size_t s = 0; s < w; ++s) {
      writers.emplace_back([&, s] {
        const auto& ids = part.ids[s];
        const auto& vals = part.vals[s];
        constexpr std::size_t kBatch = 64;
        for (std::size_t i = 0; i < vals.size(); i += kBatch) {
          const std::size_t m = std::min(kBatch, vals.size() - i);
          feed(s, ids.data() + i, vals.data() + i, m);
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  out.wall_secs = wall.seconds();
  return out;
}

void report_direct(benchmark::State& state, const DirectOutcome& out,
                   std::size_t total, CaseMetrics* cm) {
  const double wall_mpps = common::mops(total, out.wall_secs);
  state.counters["MPPS"] = wall_mpps;
  state.counters["drain_ms"] = out.drain_ms;
  if (cm != nullptr) {
    cm->add_value("wall_mpps", wall_mpps);
    cm->add_value("drain_ms", out.drain_ms);
  }
}

void run_direct_concurrent(benchmark::State& state, std::size_t writers,
                           std::size_t q, double gamma, bool zipf) {
  // Writer slices ignore keys entirely; the zipf axis only exists so the
  // names line up with the sharded variant it is compared against.
  const Partition& part = balanced_partition(writers);
  const std::size_t total = random_values().size();
  (void)zipf;
  for (auto _ : state) {
    Concurrent r(q, {.gamma = gamma});
    auto out = run_writers(part, [&](std::size_t, const std::uint64_t* ids,
                                     const double* vals, std::size_t m) {
      r.add_batch(ids, vals, m);
    });
    common::Stopwatch drain_sw;
    auto top = r.query();
    out.drain_ms = drain_sw.millis();
    benchmark::DoNotOptimize(top);
    state.counters["handoffs"] = static_cast<double>(r.handoffs());
    state.counters["stalls"] = static_cast<double>(r.handoff_stalls());
    state.counters["psi_publishes"] =
        static_cast<double>(r.psi_publishes());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("concurrent", r);
      cm.add_value("handoffs", static_cast<double>(r.handoffs()));
      cm.add_value("handoff_stalls",
                   static_cast<double>(r.handoff_stalls()));
      cm.add_value("maintenance_rounds",
                   static_cast<double>(r.maintenance_rounds()));
      cm.add_value("screened_out", static_cast<double>(r.screened_out()));
      report_direct(state, out, total, &cm);
      cm.commit(current_case());
    } else {
      report_direct(state, out, total, nullptr);
    }
  }
}

void run_direct_sharded(benchmark::State& state, std::size_t shards,
                        std::size_t q, double gamma, bool zipf) {
  const Partition& part = sharded_partition(shards, zipf);
  const std::size_t total = random_values().size();
  for (auto _ : state) {
    Sharded r(shards, q, {.gamma = gamma}, true);
    auto out = run_writers(part, [&](std::size_t s, const std::uint64_t* ids,
                                     const double* vals, std::size_t m) {
      r.add_batch(s, ids, vals, m);
    });
    common::Stopwatch merge_sw;
    auto top = r.query();
    out.drain_ms = merge_sw.millis();
    benchmark::DoNotOptimize(top);
    state.counters["bcast_folds"] = static_cast<double>(r.broadcast_folds());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("sharded", r);
      cm.add_value("broadcast_folds",
                   static_cast<double>(r.broadcast_folds()));
      cm.add_value("broadcast_publishes",
                   static_cast<double>(r.broadcast_publishes()));
      report_direct(state, out, total, &cm);
      cm.commit(current_case());
    } else {
      report_direct(state, out, total, nullptr);
    }
  }
}

/// Pipeline: N PMDs, M measurement consumers. forward_concurrent feeds
/// one ConcurrentQMax from M threads; the forward_sharded baseline needs
/// M == N (consumer per ring) and a per-shard reservoir.
void run_pipeline_case(benchmark::State& state, std::size_t pmds,
                       std::size_t consumers, std::size_t q,
                       bool concurrent) {
  const auto& pkts = min_size_packets();
  for (auto _ : state) {
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = pmds});
    sw.install_default_rules();
    vswitch::MultiRunResult res;
    auto drain = [](auto& r, auto shard_or_ignored,
                    std::span<const MonitorRecord> recs, auto&& add) {
      (void)r;
      (void)shard_or_ignored;
      std::uint64_t ids[64];
      double vals[64];
      std::size_t i = 0;
      while (i < recs.size()) {
        const std::size_t m = std::min<std::size_t>(recs.size() - i, 64);
        for (std::size_t j = 0; j < m; ++j) {
          ids[j] = recs[i + j].src_ip;
          vals[j] = monitor_record_value(recs[i + j]);
        }
        add(ids, vals, m);
        i += m;
      }
    };
    if (concurrent) {
      Concurrent r(q, {});
      res = sw.forward_concurrent(
          pkts, consumers,
          [&](std::size_t ring, std::span<const MonitorRecord> recs) {
            drain(r, ring, recs,
                  [&](const std::uint64_t* ids, const double* vals,
                      std::size_t m) { r.add_batch(ids, vals, m); });
          });
      auto top = r.query();
      benchmark::DoNotOptimize(top);
      if (metrics_enabled() && !current_case().empty()) {
        CaseMetrics cm;
        cm.bind("concurrent", r);
        cm.add_value("aggregate_mpps", res.aggregate_mpps());
        cm.add_value("pmd_skew", res.pmd_skew());
        cm.add_value("handoffs", static_cast<double>(r.handoffs()));
        cm.add_value("handoff_stalls",
                     static_cast<double>(r.handoff_stalls()));
        for (std::size_t j = 0; j < sw.consumer_count(); ++j) {
          cm.bind("consumer" + std::to_string(j), sw.consumer_telemetry(j));
        }
        cm.commit(current_case());
      }
    } else {
      Sharded r(pmds, q, {}, true);
      res = sw.forward_sharded(
          pkts, [&](std::size_t shard, std::span<const MonitorRecord> recs) {
            drain(r, shard, recs,
                  [&](const std::uint64_t* ids, const double* vals,
                      std::size_t m) { r.add_batch(shard, ids, vals, m); });
          });
      auto top = r.query();
      benchmark::DoNotOptimize(top);
      if (metrics_enabled() && !current_case().empty()) {
        CaseMetrics cm;
        cm.bind("sharded", r);
        cm.add_value("aggregate_mpps", res.aggregate_mpps());
        cm.add_value("pmd_skew", res.pmd_skew());
        cm.commit(current_case());
      }
    }
    state.counters["MPPS"] = res.aggregate_mpps();
    state.counters["pmd_skew"] = res.pmd_skew();
    state.counters["stalls"] = static_cast<double>(res.total_stalls());
  }
}

std::vector<std::size_t> concurrent_qs() {
  std::vector<std::size_t> qs{100'000};
  if (common::bench_large()) {
    qs.push_back(1'000'000);
    qs.push_back(10'000'000);
  }
  return qs;
}

void register_all() {
  char name[128];
  for (const std::size_t q : concurrent_qs()) {
    for (const double gamma : {0.25, 0.05}) {
      for (const bool zipf : {false, true}) {
        for (const std::size_t w : {1ul, 2ul, 4ul, 8ul}) {
          for (const bool conc : {true, false}) {
            std::snprintf(name, sizeof name,
                          "abl-concurrent/direct/q=%zu/gamma=%.2f/dist=%s/"
                          "writers=%zu/%s",
                          q, gamma, zipf ? "zipf" : "uniform", w,
                          conc ? "concurrent" : "sharded");
            benchmark::RegisterBenchmark(
                name, [w, q, gamma, zipf, conc,
                       n = std::string(name)](benchmark::State& st) {
                  current_case() = n;
                  if (conc) {
                    run_direct_concurrent(st, w, q, gamma, zipf);
                  } else {
                    run_direct_sharded(st, w, q, gamma, zipf);
                  }
                  current_case().clear();
                })
                ->Unit(benchmark::kMillisecond)
                ->Iterations(1);
          }
        }
      }
    }
    // Pipeline: 4 PMD rings; the concurrent layout sweeps the consumer
    // count (including the mismatched 2-over-4 and 3-over-4 the sharded
    // layout cannot express), sharded is pinned at consumer-per-ring.
    for (const std::size_t consumers : {1ul, 2ul, 3ul, 4ul}) {
      std::snprintf(name, sizeof name,
                    "abl-concurrent/pipeline/q=%zu/pmds=4/consumers=%zu/"
                    "concurrent",
                    q, consumers);
      benchmark::RegisterBenchmark(
          name, [consumers, q, n = std::string(name)](benchmark::State& st) {
            current_case() = n;
            run_pipeline_case(st, 4, consumers, q, /*concurrent=*/true);
            current_case().clear();
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
    std::snprintf(name, sizeof name,
                  "abl-concurrent/pipeline/q=%zu/pmds=4/consumers=4/sharded",
                  q);
    benchmark::RegisterBenchmark(
        name, [q, n = std::string(name)](benchmark::State& st) {
          current_case() = n;
          run_pipeline_case(st, 4, 4, q, /*concurrent=*/false);
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
