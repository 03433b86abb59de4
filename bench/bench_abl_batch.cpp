// Ablation: the batched ingestion path (QMax::add_batch) vs scalar add().
//
// The q-MAX hot path is rejection-dominated — on a uniform-random stream
// with n ≫ q, all but ~q·ln(n/q) items fall below Ψ — and add_batch
// walks a batch in one loop with Ψ held in a register, so a rejected
// item costs one comparison. This bench sweeps batch size × γ × q,
// measuring the same stream through the scalar and batched paths
// back-to-back, and reports MPPS for both plus the speedup. With
// QMAX_METRICS_OUT set, each case's blob carries the reservoir telemetry
// (batch_calls, prefilter_rejected, batch_survivors — telemetry builds
// only) and the measured rates/speedup.
//
// Measured shape: the two paths run at about the same rate — speedups
// scatter around 1× within run-to-run noise (EXPERIMENTS.md has the
// ranges). The bench stays on the trajectory to catch a batch path that
// falls behind scalar.
#include "bench_common.hpp"

#include "qmax/amortized_qmax.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;

/// Dedicated uniform stream at the paper's Table-1 length (150M items),
/// kept ≫ the largest swept q so even the q = 10^6 point sits in the
/// rejection-dominated steady state the prefilter targets: expected
/// admissions ≈ q·(1 + ln(n/q)) ≈ 4% of the stream there. (The shared
/// random_values() default is sized for q ≤ 10^5.)
const std::vector<double>& batch_stream() {
  static const std::vector<double> values = [] {
    std::vector<double> v(common::scaled(150'000'000));
    common::Xoshiro256 rng(7);
    for (auto& x : v) x = rng.uniform();
    return v;
  }();
  return values;
}

void register_case(std::size_t q, double gamma, std::size_t bsz) {
  char name[96];
  std::snprintf(name, sizeof name, "abl-batch/q=%zu/g=%d/b=%zu", q,
                int(gamma * 100), bsz);
  benchmark::RegisterBenchmark(
      std::string(name).c_str(),
      [q, gamma, bsz, case_name = std::string(name)](benchmark::State& st) {
        const auto& values = batch_stream();
        const std::size_t n = values.size();
        double scalar_mpps = 0.0;
        double batch_mpps = 0.0;
        for (auto _ : st) {
          // Peak over QMAX_BENCH_REPS interleaved runs per path: both
          // drivers are deterministic, so the max filters out scheduler
          // and frequency noise the single-run mean would carry into the
          // speedup ratio.
          for (int rep = 0; rep < common::bench_reps(); ++rep) {
            {
              QMax<> r(q, gamma);
              common::Stopwatch sw;
              for (std::size_t i = 0; i < n; ++i) {
                r.add(static_cast<std::uint64_t>(i), values[i]);
              }
              scalar_mpps = std::max(scalar_mpps,
                                     common::mops(n, sw.seconds()));
              benchmark::DoNotOptimize(r);
            }
            QMax<> r(q, gamma);
            const std::uint64_t* ids = bench_ids(n);
            common::Stopwatch sw;
            for (std::size_t i = 0; i < n; i += bsz) {
              const std::size_t m = std::min(bsz, n - i);
              r.add_batch(ids + i, values.data() + i, m);
            }
            batch_mpps = std::max(batch_mpps, common::mops(n, sw.seconds()));
            benchmark::DoNotOptimize(r);
            if (metrics_enabled() && rep == common::bench_reps() - 1) {
              CaseMetrics cm;
              cm.bind("reservoir", r);
              cm.add_value("scalar_mpps", scalar_mpps);
              cm.add_value("batch_mpps", batch_mpps);
              cm.add_value("speedup", batch_mpps / scalar_mpps);
              cm.commit(case_name);
            }
          }
        }
        st.counters["MPPS_scalar"] = scalar_mpps;
        st.counters["MPPS_batch"] = batch_mpps;
        st.counters["speedup"] = batch_mpps / scalar_mpps;
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

// Sampled-pivot maintenance through the same batched path: the pinned
// snapshot suite runs this binary, so these cases put SampledMaintenance
// behind the batched path on the cross-PR trajectory next to the exact
// policy.
// The sweep over sample sizes lives in bench_abl_sampled; this is the
// single acceptance point per (q, γ) with the auto sample size.
void register_sampled_case(std::size_t q, double gamma) {
  char name[96];
  std::snprintf(name, sizeof name, "abl-batch/sampled/q=%zu/g=%d", q,
                int(gamma * 100));
  benchmark::RegisterBenchmark(
      std::string(name).c_str(),
      [q, gamma, case_name = std::string(name)](benchmark::State& st) {
        constexpr std::size_t kBatch = 256;
        const auto& values = batch_stream();
        const std::size_t n = values.size();
        const std::uint64_t* ids = bench_ids(n);
        double exact_mpps = 0.0;
        double sampled_mpps = 0.0;
        for (auto _ : st) {
          for (int rep = 0; rep < common::bench_reps(); ++rep) {
            {
              AmortizedQMax<> r(q, gamma);
              common::Stopwatch sw;
              for (std::size_t i = 0; i < n; i += kBatch) {
                const std::size_t m = std::min(kBatch, n - i);
                r.add_batch(ids + i, values.data() + i, m);
              }
              exact_mpps = std::max(exact_mpps,
                                    common::mops(n, sw.seconds()));
              benchmark::DoNotOptimize(r);
            }
            SampledQMax<> r(q, gamma);
            common::Stopwatch sw;
            for (std::size_t i = 0; i < n; i += kBatch) {
              const std::size_t m = std::min(kBatch, n - i);
              r.add_batch(ids + i, values.data() + i, m);
            }
            sampled_mpps = std::max(sampled_mpps,
                                    common::mops(n, sw.seconds()));
            benchmark::DoNotOptimize(r);
            if (metrics_enabled() && rep == common::bench_reps() - 1) {
              CaseMetrics cm;
              cm.bind("reservoir", r);
              cm.add_value("exact_batch_mpps", exact_mpps);
              cm.add_value("sampled_batch_mpps", sampled_mpps);
              cm.add_value("vs_exact", sampled_mpps / exact_mpps);
              cm.commit(case_name);
            }
          }
        }
        st.counters["MPPS_exact"] = exact_mpps;
        st.counters["MPPS_sampled"] = sampled_mpps;
        st.counters["vs_exact"] = sampled_mpps / exact_mpps;
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

void register_all() {
  // q = 10^6 is included unconditionally (not gated on QMAX_BENCH_LARGE):
  // it is the paper's rejection-dominated large-q regime.
  for (std::size_t q : {100'000ul, 1'000'000ul}) {
    for (double gamma : {0.05, 0.25, 1.0}) {
      for (std::size_t bsz : {16ul, 64ul, 256ul, 1024ul}) {
        register_case(q, gamma, bsz);
      }
    }
  }
  for (std::size_t q : {100'000ul, 1'000'000ul}) {
    for (double gamma : {0.05, 0.25}) {
      register_sampled_case(q, gamma);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
