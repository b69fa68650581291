// A participant in the P2P caching system. Depending on the scenario a
// node is a server (carries a cache), a client (creates requests), or
// both (the pure P2P case, Section 3.1). Every node can carry replication
// mandates regardless of role.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "impatience/core/cache.hpp"
#include "impatience/core/mandate.hpp"
#include "impatience/trace/contact.hpp"

namespace impatience::core {

using trace::NodeId;
using trace::Slot;

/// An outstanding request with its query counter (Section 5.1): the
/// counter increments on every meeting with a server while the request
/// is unfulfilled, including the meeting that fulfils it, so its
/// expectation is |S|/x_i. Stored as a snapshot of the owning node's
/// running server-meeting count at creation: the live counter value is
/// `node.server_meetings() - queries_at_creation`, which makes the
/// per-meeting update O(1) for the whole pending list instead of a walk
/// (the values produced are identical, so the slot-stepped kernel stays
/// bit-locked).
struct PendingRequest {
  ItemId item;
  Slot created;
  long queries_at_creation = 0;
};

class Node {
 public:
  /// cache_capacity is ignored unless is_server.
  Node(NodeId id, ItemId num_items, int cache_capacity, bool is_server,
       bool is_client);

  NodeId id() const noexcept { return id_; }
  bool is_server() const noexcept { return cache_.has_value(); }
  bool is_client() const noexcept { return is_client_; }

  /// Server cache; throws std::logic_error for non-servers.
  Cache& cache();
  const Cache& cache() const;

  MandateBag& mandates() noexcept { return mandates_; }
  const MandateBag& mandates() const noexcept { return mandates_; }

  std::vector<PendingRequest>& pending() noexcept { return pending_; }
  const std::vector<PendingRequest>& pending() const noexcept {
    return pending_;
  }

  /// Registers a new request. Throws std::logic_error for non-clients.
  void create_request(ItemId item, Slot now);

  /// Warm-restart support (service::StateStore): appends a persisted
  /// request as is (creation slot and clock snapshot included) and marks
  /// its item pending. Throws std::logic_error for non-clients.
  void restore_request(const PendingRequest& request);

  /// True if at least one pending request targets `item`: one bit per
  /// item, set by create_request/restore_request and kept exact by the
  /// meeting compaction (note_fulfilled/note_kept). Lets the meeting
  /// protocol skip the fulfilment scan when the provider's cache holds
  /// nothing this node is waiting for.
  bool has_pending(ItemId item) const noexcept {
    return (pending_bits_[item / 64] >> (item % 64)) & 1u;
  }

  /// Meeting compaction support (meeting.cpp): a request for `item` left
  /// the pending list (fulfilled), or stayed on it (kept). A bit holds no
  /// count, so this is exact only while, for every item, all fulfilled
  /// requests of one pass come before all kept ones; the compaction pass
  /// guarantees that ordering.
  void note_fulfilled(ItemId item) noexcept {
    pending_bits_[item / 64] &= ~(std::uint64_t{1} << (item % 64));
  }
  void note_kept(ItemId item) noexcept {
    pending_bits_[item / 64] |= std::uint64_t{1} << (item % 64);
  }

  /// Records a meeting with a server (the query-counter clock). Called by
  /// the meeting protocol before fulfilment, so the fulfilling meeting is
  /// included in every fulfilled request's counter.
  void note_server_meeting() noexcept { ++server_meetings_; }
  /// Running count of this node's meetings with servers.
  long server_meetings() const noexcept { return server_meetings_; }
  /// Warm-restart support (service::StateStore): sets the query-counter
  /// clock directly when rebuilding a node from a persisted snapshot.
  void restore_server_meetings(long meetings) noexcept {
    server_meetings_ = meetings;
  }

  /// True if this node holds a replica of the item (servers only).
  bool holds(ItemId item) const noexcept {
    return cache_ && cache_->contains(item);
  }

  /// What a crash wiped out, for the fault accounting in
  /// SimulationResult::faults.
  struct CrashLosses {
    std::uint64_t replicas = 0;
    long mandates = 0;
    std::uint64_t requests = 0;
  };

  /// Fault-injection support: the node crashes, losing its in-flight
  /// mandates and pending requests. Unless `persist_cache`, a server's
  /// cache (sticky pin included) is wiped too, notifying the cache's
  /// change listener so global replica counts stay exact.
  CrashLosses crash(bool persist_cache);

 private:
  NodeId id_;
  bool is_client_;
  std::optional<Cache> cache_;
  MandateBag mandates_;
  std::vector<PendingRequest> pending_;
  // Bit i % 64 of word i / 64: at least one pending request for item i.
  std::vector<std::uint64_t> pending_bits_;
  long server_meetings_ = 0;  // query-counter clock (PendingRequest)
};

}  // namespace impatience::core
