// Shared machinery for the batched ingestion path.
//
// The common case on the q-MAX hot path is *rejection*: once Ψ converges,
// almost every stream item falls below the admission bound and does
// nothing. Each reservoir's add_batch() walks the batch in one loop with
// Ψ held in a register, so a rejected item costs one comparison (§4.2,
// Algorithm 1) and Ψ is reloaded only after an admission. Two facts make
// that single comparison sufficient: Ψ is monotone non-decreasing, so an
// item at or below the current Ψ can never be admitted later; and a NaN
// or kEmptyValue item compares false against any Ψ, so the same test
// screens inadmissible values.
#pragma once

#include <concepts>
#include <cstddef>
#include <span>

namespace qmax::batch {

/// Run length for batch paths that stage keys in fixed scratch (window
/// transforms, QMin's negation): long batches are processed in runs of
/// this many items so the scratch stays cache-resident.
inline constexpr std::size_t kPrefilterBlock = 512;

/// Feed (ids, vals)[0, n) to any reservoir: the batched path when the type
/// provides one, a scalar loop otherwise. Lets the window containers hold
/// arbitrary Reservoir types (baselines included) behind one call.
/// Returns the number of items the reservoir reported as admitted.
template <typename R, typename Id, typename Value>
inline std::size_t add_batch_or_each(R& r, const Id* ids, const Value* vals,
                                     std::size_t n) {
  if constexpr (requires { { r.add_batch(ids, vals, n) } -> std::convertible_to<std::size_t>; }) {
    return r.add_batch(ids, vals, n);
  } else {
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      admitted += static_cast<std::size_t>(r.add(ids[i], vals[i]));
    }
    return admitted;
  }
}

/// Feed pre-paired entries to any reservoir: its add_batch(span) when it
/// has one (identity-window q-MAX variants), add() on each otherwise.
template <typename R, typename EntryT>
inline void add_entries_or_each(R& r, std::span<const EntryT> items) {
  if constexpr (requires { r.add_batch(items); }) {
    r.add_batch(items);
  } else {
    for (const EntryT& e : items) r.add(e.id, e.val);
  }
}

}  // namespace qmax::batch
