// q-MIN adapter: track the q *smallest* values using any q-MAX reservoir.
//
// Several of the paper's applications are minimum-oriented — count-distinct
// and the network-wide heavy hitters both keep the q smallest hash values
// (Sections 2.3, 2.6). Rather than duplicating every reservoir with a
// flipped comparator, this adapter negates values on the way in and out.
// Negation is an order-reversing bijection on doubles (the domain all our
// hash-based applications use), so the adapted structure inherits the exact
// top-q guarantee of the wrapped reservoir.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "qmax/batch.hpp"
#include "qmax/concepts.hpp"
#include "qmax/entry.hpp"

namespace qmax {

template <Reservoir R>
class QMin {
 public:
  using EntryT = typename R::EntryT;
  using Value = decltype(EntryT{}.val);
  using Id = decltype(EntryT{}.id);

  template <typename... Args>
  explicit QMin(Args&&... args) : inner_(std::forward<Args>(args)...) {
    neg_.resize(batch::kPrefilterBlock);
  }

  /// Report an item; it is retained if it is among the q smallest.
  bool add(Id id, Value val) { return inner_.add(id, -val); }

  /// Report `n` items at once; equivalent to n in-order add() calls.
  /// Values are negated run-by-run into a fixed scratch buffer, then each
  /// run rides the wrapped reservoir's add_batch loop (or its scalar
  /// add() if the reservoir has no add_batch). Negation is exact on
  /// doubles, so admissions match the scalar path bit for bit. Returns the
  /// number of admitted items.
  std::size_t add_batch(const Id* ids, const Value* vals, std::size_t n) {
    std::size_t admitted = 0;
    for (std::size_t base = 0; base < n; base += batch::kPrefilterBlock) {
      const std::size_t m = std::min(batch::kPrefilterBlock, n - base);
      for (std::size_t j = 0; j < m; ++j) neg_[j] = -vals[base + j];
      admitted += batch::add_batch_or_each(inner_, ids + base, neg_.data(), m);
    }
    return admitted;
  }

  /// The current admission bound: items >= this cannot enter the q
  /// smallest (+∞-like sentinel until the reservoir fills).
  [[nodiscard]] Value threshold() const { return -inner_.threshold(); }

  /// Append the q smallest items (original sign restored).
  void query_into(std::vector<EntryT>& out) const {
    const std::size_t first = out.size();
    inner_.query_into(out);
    for (std::size_t i = first; i < out.size(); ++i) out[i].val = -out[i].val;
  }

  [[nodiscard]] std::vector<EntryT> query() const {
    std::vector<EntryT> out;
    query_into(out);
    return out;
  }

  void reset() { inner_.reset(); }

  [[nodiscard]] std::size_t q() const { return inner_.q(); }
  [[nodiscard]] std::size_t live_count() const { return inner_.live_count(); }

  [[nodiscard]] R& inner() noexcept { return inner_; }
  [[nodiscard]] const R& inner() const noexcept { return inner_; }

 private:
  R inner_;
  std::vector<Value> neg_;  // per-run negated-value scratch
};

}  // namespace qmax
