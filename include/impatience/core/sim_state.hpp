// Structure-of-arrays home of the simulator's per-node hot state.
//
// One run's mutable counters — per-(node, item) pending-request counts,
// the Section-5.1 query-counter clocks, and the global per-item replica
// counts — live here as flat contiguous arrays; `Node` binds raw views
// into the rows it owns (node.hpp). The meeting scans read rows of one
// contiguous block instead of chasing per-Node heap vectors
// (docs/perf.md §5), and the replica-count array
// is the span handed to ReplicationPolicy::on_initialized, the
// expected-welfare functor and the MarginalOracle welfare fold.
//
// Nodes constructed without a SimulationState (tests, the service
// StateStore) fall back to a private heap backing, so the public Node
// API is unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "impatience/core/catalog.hpp"
#include "impatience/trace/contact.hpp"

namespace impatience::core {

using trace::NodeId;

class SimulationState {
 public:
  SimulationState(NodeId num_nodes, ItemId num_items);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  ItemId num_items() const noexcept { return num_items_; }

  /// Row of per-item pending-request counters owned by `node`.
  std::uint32_t* pending_counts(NodeId node) noexcept {
    return pending_counts_.data() +
           static_cast<std::size_t>(node) * num_items_;
  }

  /// The node's server-meeting clock (see PendingRequest).
  long* query_clock(NodeId node) noexcept {
    return query_clocks_.data() + node;
  }

  /// Global replicas per item, maintained by the simulator's cache
  /// change listeners.
  std::span<const int> replica_counts() const noexcept {
    return replica_counts_;
  }
  std::vector<int>& replica_counts() noexcept { return replica_counts_; }

 private:
  NodeId num_nodes_;
  ItemId num_items_;
  std::vector<std::uint32_t> pending_counts_;  // [node * num_items + item]
  std::vector<long> query_clocks_;             // [node]
  std::vector<int> replica_counts_;            // [item]
};

}  // namespace impatience::core
