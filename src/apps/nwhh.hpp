// Network-wide, routing-oblivious heavy hitters (Ben Basat, Einziger,
// Moraney, Raz — ANCS 2018) — Sections 2.6 and 4.3.4 of the q-MAX paper.
//
// Setting: multiple Network Measurement Points (NMPs) each observe an
// arbitrary, possibly overlapping subset of the traffic (no routing or
// topology assumptions). Every packet carries a unique id; every NMP
// hashes that id to a uniform value and keeps the k packets of *minimal*
// hash (a q-MIN reservoir — the structure this paper accelerates). The
// controller merges reports and keeps the k globally minimal packets:
// because the same packet hashes identically everywhere, duplicates
// collapse, and the survivors are a uniform k-sample of the distinct
// packet population — no double counting.
//
// From the sample: total traffic N̂ = (k−1)/h_k (KMV estimator), per-flow
// frequency f̂ = (#samples of the flow)·N̂/k, heavy hitters = flows with
// f̂ above a threshold. With k = ln(2/δ)/(2ε²), frequencies are within
// ±εN with probability 1−δ (Hoeffding).
//
// The sliding-window variant (Theorem 8) needs no new code: instantiate
// the NMP over a SlackQMax-backed reservoir and the sample covers a
// (W, τ)-slack window; an ε/2 measurement error plus a τ = ε/2 window
// slack compose into an (ε, δ) exact-window guarantee.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "qmax/concepts.hpp"
#include "qmax/entry.hpp"

namespace qmax::apps {

/// What an NMP stores per sampled packet.
struct PacketSample {
  std::uint64_t packet_id = 0;
  std::uint64_t flow = 0;

  friend constexpr bool operator==(const PacketSample&,
                                   const PacketSample&) = default;
};

using NwhhEntry = BasicEntry<PacketSample, double>;

/// Sample size needed for an (ε, δ) additive frequency guarantee.
[[nodiscard]] inline std::size_t nwhh_sample_size(double epsilon,
                                                  double delta) {
  return static_cast<std::size_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

/// Theorem 8 parameter composition for *exact-window* heavy hitters: an
/// overall (ε, δ) guarantee over a W-sized window splits into an ε/2
/// estimation error (sample size) plus an ε/2 window slack (τ), because a
/// slack window differs from the exact one by at most W·τ items.
struct Theorem8Params {
  std::size_t k = 0;  // per-NMP sample size (guarantees ε/2 estimation)
  double tau = 0.0;   // window slack (contributes the other ε/2)
};

[[nodiscard]] inline Theorem8Params nwhh_window_params(double epsilon,
                                                       double delta) {
  return Theorem8Params{nwhh_sample_size(epsilon / 2.0, delta),
                        epsilon / 2.0};
}

/// One measurement point. The reservoir parameter is the whole point of
/// the paper's Figure 8c/8d: Heap vs SkipList vs q-MAX, same code.
template <Reservoir R>
  requires std::same_as<typename R::EntryT, NwhhEntry>
class Nmp {
 public:
  Nmp(std::size_t k, R reservoir, std::uint64_t seed = 0)
      : k_(k), seed_(seed), reservoir_(std::move(reservoir)) {}

  /// Process a packet this NMP observes.
  void observe(std::uint64_t packet_id, std::uint64_t flow) {
    ++observed_;
    const double h =
        common::to_unit_interval_open0(common::hash64(packet_id, seed_));
    reservoir_.add(PacketSample{packet_id, flow}, -h);  // keep minima
  }

  /// Report the current k minimal-hash packets to the controller.
  void report_into(std::vector<NwhhEntry>& out) const {
    reservoir_.query_into(out);
  }

  void reset() { reservoir_.reset(); }

  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }
  [[nodiscard]] R& reservoir() noexcept { return reservoir_; }

 private:
  std::size_t k_;
  std::uint64_t seed_;
  R reservoir_;
  std::uint64_t observed_ = 0;
};

/// A measurement point over a *time-based* slack window (Theorem 8 /
/// Section 4.3.4): "consider a window size of 24 hours; if τ = 1/24, we
/// get a slack window that varies between 23 and 24 hours". Timestamps
/// come from the packets, so windows are comparable across NMPs with
/// different packet rates. Reports feed the same NwhhController.
template <typename TimeWindowR>
class TimeWindowNmp {
 public:
  TimeWindowNmp(std::size_t k, TimeWindowR window, std::uint64_t seed = 0)
      : k_(k), seed_(seed), window_(std::move(window)) {}

  /// Process a packet observed at `timestamp` (non-decreasing per NMP).
  void observe(std::uint64_t packet_id, std::uint64_t flow,
               std::uint64_t timestamp) {
    ++observed_;
    const double h =
        common::to_unit_interval_open0(common::hash64(packet_id, seed_));
    window_.add(PacketSample{packet_id, flow}, -h, timestamp);
  }

  void report_into(std::vector<NwhhEntry>& out) const {
    window_.query_into(out);
  }

  /// Time units the last report covered (within [W(1−τ), W]).
  [[nodiscard]] std::uint64_t last_coverage() const noexcept {
    return window_.last_coverage();
  }

  void reset() { window_.reset(); }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }

 private:
  std::size_t k_;
  std::uint64_t seed_;
  TimeWindowR window_;
  std::uint64_t observed_ = 0;
};

/// The central controller: merges NMP reports into the network-wide view.
class NwhhController {
 public:
  explicit NwhhController(std::size_t k) : k_(k) {}

  /// Ingest one NMP's report. Reports may overlap arbitrarily (shared
  /// packets dedup by packet id).
  template <typename NmpT>
  void collect(const NmpT& nmp) {
    report_.clear();
    nmp.report_into(report_);
    collect_entries(report_);
  }

  /// The single merge implementation. Entries arrive in report convention
  /// (val = −hash, as produced by Nmp::report_into); the in-process
  /// collect() above and the networked controller service
  /// (net/controller.hpp) both funnel through here, so the two deployment
  /// shapes cannot diverge. Re-shipping an entry is idempotent (dedup by
  /// packet id), which is what makes agent reconnect-and-replay safe.
  void collect_entries(std::span<const NwhhEntry> entries) {
    for (const auto& e : entries) {
      if (seen_.insert(e.id.packet_id).second) {
        pool_.push_back(NwhhEntry{e.id, -e.val});  // store the raw hash
      }
    }
    finalized_ = false;
  }

  /// Estimated number of distinct packets network-wide.
  [[nodiscard]] double total_packets() const {
    finalize();
    if (sample_.size() < k_) return static_cast<double>(sample_.size());
    return (static_cast<double>(k_) - 1.0) / sample_.back().val;
  }

  /// Estimated network-wide frequency of a flow.
  [[nodiscard]] double estimate(std::uint64_t flow) const {
    finalize();
    std::size_t count = 0;
    for (const auto& e : sample_) count += (e.id.flow == flow);
    return scaled(count);
  }

  /// Flows whose estimated frequency is at least `fraction` of the
  /// estimated total, heaviest first.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> heavy_hitters(
      double fraction) const {
    finalize();
    std::unordered_map<std::uint64_t, std::size_t> counts;
    for (const auto& e : sample_) ++counts[e.id.flow];
    std::vector<std::pair<std::uint64_t, double>> out;
    const double bar = fraction * total_packets();
    for (const auto& [flow, count] : counts) {
      const double est = scaled(count);
      if (est >= bar) out.emplace_back(flow, est);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
  }

  /// The merged k-sample itself (packet id, flow, hash), smallest first.
  [[nodiscard]] const std::vector<NwhhEntry>& sample() const {
    finalize();
    return sample_;
  }

  void reset() {
    pool_.clear();
    seen_.clear();
    sample_.clear();
    finalized_ = false;
  }

  [[nodiscard]] std::size_t k() const noexcept { return k_; }

 private:
  [[nodiscard]] double scaled(std::size_t count) const {
    if (sample_.empty()) return 0.0;
    return static_cast<double>(count) * total_packets() /
           static_cast<double>(sample_.size());
  }

  void finalize() const {
    if (finalized_) return;
    sample_ = pool_;
    std::sort(sample_.begin(), sample_.end(),
              [](const NwhhEntry& a, const NwhhEntry& b) {
                return a.val < b.val;
              });
    if (sample_.size() > k_) sample_.resize(k_);
    finalized_ = true;
  }

  std::size_t k_;
  std::vector<NwhhEntry> pool_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<NwhhEntry> report_;
  mutable std::vector<NwhhEntry> sample_;
  mutable bool finalized_ = false;
};

}  // namespace qmax::apps
