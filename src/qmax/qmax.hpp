// q-MAX — Algorithm 1 of the paper: a reservoir of the q largest stream
// items with O(q(1+γ)) space and worst-case O(1/γ) update time.
//
// Layout. The array has N = q + 2g slots, g = max(1, ⌈qγ/2⌉):
//
//     parity A:  [ losers/scratch g | middle q | scratch g ]
//                 `--- candidates [0, q+g) --'  `- inserts -'
//     parity B:  [ scratch g | middle q | losers/scratch g ]
//                 `- inserts' `--- candidates [g, N) ------'
//
// An *iteration* spans g admitted items. Admitted items (value > Ψ) are
// written into the scratch region; each admission also advances an
// incremental selection over the (stable) candidate region by a bounded
// operation budget — the paper's SelectStep/PivotStep, fused here into one
// nth_element-style pass whose first pivot comes from a sample near the
// target rank (see common/select.hpp). The selection orders the
// candidates so the q largest occupy the middle [g, g+q); its nth element
// *is* the new q-th-largest bound Ψ. When the iteration's g admissions
// complete, the g losing slots are batch-evicted and the parity flips, so
// the next candidate region (middle + freshly filled scratch) is again
// contiguous.
//
// Invariant: an item is evicted only while q candidates at least as large
// coexist in the array, so the true top-q of the processed prefix always
// survives — query() is exact, not approximate.
//
// All of the machinery lives in core::ReservoirCore (the parity engine,
// admission gate, batch screen, telemetry, fault sites, reset); this class
// is the policy composition that names the variant:
//   MaxValuePolicy × LandmarkWindow × DeamortizedMaintenance.
#pragma once

#include <cstdint>

#include "qmax/core.hpp"

namespace qmax {

namespace detail {
template <typename Id, typename Value>
using QMaxBase =
    core::ReservoirCore<core::MaxValuePolicy<Id, Value>, core::LandmarkWindow,
                        core::DeamortizedMaintenance<
                            core::MaxValuePolicy<Id, Value>>>;
}  // namespace detail

template <typename Id = std::uint64_t, typename Value = double>
class QMax : public detail::QMaxBase<Id, Value> {
  using Base = detail::QMaxBase<Id, Value>;

 public:
  using EntryT = typename Base::EntryT;
  using EvictCallback = typename Base::EvictCallback;
  using Options = typename Base::Options;
  using Telemetry = typename Base::Telemetry;

  explicit QMax(std::size_t q, double gamma)
      : QMax(q, Options{.gamma = gamma}) {}

  explicit QMax(std::size_t q, Options opts = {})
      : Base(q, opts, {}, "QMax") {}
};

}  // namespace qmax
