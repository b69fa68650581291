// Contact traces: the substrate every experiment runs on.
//
// Time is discrete (slots of fixed real duration, 1 minute in the paper's
// experiments); a ContactEvent says "nodes a and b met during this slot and
// could complete a full protocol exchange" (the paper ignores meeting
// durations, Section 6.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace impatience::trace {

using NodeId = std::uint32_t;
using Slot = std::int64_t;

/// One meeting opportunity. Canonical form has a < b (undirected).
struct ContactEvent {
  Slot slot;
  NodeId a;
  NodeId b;

  friend bool operator==(const ContactEvent&, const ContactEvent&) = default;
};

/// Aggregate contact total of one unordered node pair (canonical a < b).
struct PairContacts {
  NodeId a;
  NodeId b;
  std::size_t count;

  friend bool operator==(const PairContacts&, const PairContacts&) = default;
};

/// An immutable, slot-sorted contact trace over nodes [0, num_nodes).
class ContactTrace {
 public:
  /// Takes ownership of the events; sorts by (slot, a, b), canonicalizes
  /// a < b, drops self-contacts and exact duplicates. Throws
  /// std::invalid_argument for events outside [0, duration) or node ids
  /// outside [0, num_nodes).
  ContactTrace(NodeId num_nodes, Slot duration,
               std::vector<ContactEvent> events);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  /// Number of slots; valid slots are [0, duration).
  Slot duration() const noexcept { return duration_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  const std::vector<ContactEvent>& events() const noexcept { return events_; }

  /// Events of one slot (contiguous range; empty if none).
  std::span<const ContactEvent> slot_events(Slot slot) const;

  /// Index into events() of the first event at or after `slot`
  /// (== size() when none). O(1) through the slot index; the event-driven
  /// simulation kernel uses it to seed its meeting cursor.
  std::size_t first_event_at_or_after(Slot slot) const;

  /// Largest number of events sharing one slot (0 for an empty trace).
  /// Precomputed at construction; bounds per-slot staging buffers (the
  /// fault path's delivery vector) so they reserve once instead of
  /// growing inside the loop.
  std::size_t max_slot_events() const noexcept { return max_slot_events_; }

  /// Sub-trace covering slots [from, to) re-based to start at slot 0.
  ContactTrace slice(Slot from, Slot to) const;

  /// Per-pair contact totals, sorted by (a, b); pairs that never meet are
  /// absent. Built in a single pass at construction, so rate estimation
  /// and pair queries need not rescan the event list.
  const std::vector<PairContacts>& pair_counts() const noexcept {
    return pair_counts_;
  }

  /// Total contacts between the given (unordered) pair. O(log P) lookup
  /// in the pair_counts() index.
  std::size_t pair_count(NodeId a, NodeId b) const;

 private:
  NodeId num_nodes_;
  Slot duration_;
  std::vector<ContactEvent> events_;
  /// slot_begin_[s] = index of the first event with slot >= s.
  std::vector<std::size_t> slot_begin_;
  std::vector<PairContacts> pair_counts_;
  std::size_t max_slot_events_ = 0;
};

}  // namespace impatience::trace
