// Replication mandates (Section 5.3): lightweight "make one more replica
// of item i" instructions that wait at nodes for an execution opportunity
// and are routed towards replica holders to avoid the divergence
// pathology described in the paper.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "impatience/core/catalog.hpp"

namespace impatience::core {

/// A multiset of mandates per item, stored as the list of items with a
/// non-zero count. A node carries few mandates even when the catalog is
/// large (items may grow with servers), so the bag holds only its active
/// entries: the QCR meeting hooks enumerate them 4x per meeting (execute
/// + route, both sides), and a count lookup is a short linear scan.
class MandateBag {
 public:
  explicit MandateBag(ItemId num_items);

  long count(ItemId item) const;
  long total() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  void add(ItemId item, long n);
  /// Removes up to n mandates for the item; returns how many were taken.
  long take(ItemId item, long n);
  /// Drops every mandate (node crash); returns how many were lost.
  long drain();

  /// Items with at least one mandate, in ascending item order.
  std::vector<ItemId> active_items() const;

  /// Appends the active items to `out` in unspecified order — the
  /// allocation-free form for callers that merge and sort anyway
  /// (QcrPolicy's per-meeting item unions).
  void append_active_items(std::vector<ItemId>& out) const {
    for (const auto& entry : active_) out.push_back(entry.first);
  }

  /// The (item, count > 0) entries in unspecified order, read in place —
  /// the allocation-free form for callers that copy and sort anyway
  /// (the service store's snapshot capture).
  std::span<const std::pair<ItemId, long>> entries() const noexcept {
    return active_;
  }

 private:
  /// Index of `item`'s entry in active_, or active_.size() if it has
  /// none; throws std::out_of_range naming `who` for an item outside the
  /// catalog.
  std::size_t find(ItemId item, const char* who) const;

  std::vector<std::pair<ItemId, long>> active_;  // (item, count > 0), unordered
  ItemId num_items_;
  long total_ = 0;
};

}  // namespace impatience::core
