#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "impatience/trace/contact.hpp"

namespace impatience::trace {

ContactTrace::ContactTrace(NodeId num_nodes, Slot duration,
                           std::vector<ContactEvent> events)
    : num_nodes_(num_nodes), duration_(duration), events_(std::move(events)) {
  if (num_nodes == 0) {
    throw std::invalid_argument("ContactTrace: need at least one node");
  }
  if (duration <= 0) {
    throw std::invalid_argument("ContactTrace: duration must be > 0");
  }
  for (auto& e : events_) {
    if (e.a > e.b) std::swap(e.a, e.b);
    if (e.slot < 0 || e.slot >= duration_) {
      throw std::invalid_argument("ContactTrace: event slot out of range");
    }
    if (e.b >= num_nodes_) {
      throw std::invalid_argument("ContactTrace: node id out of range");
    }
  }
  // Drop self-contacts.
  std::erase_if(events_, [](const ContactEvent& e) { return e.a == e.b; });
  std::sort(events_.begin(), events_.end(),
            [](const ContactEvent& x, const ContactEvent& y) {
              return std::tie(x.slot, x.a, x.b) < std::tie(y.slot, y.a, y.b);
            });
  events_.erase(std::unique(events_.begin(), events_.end()), events_.end());

  slot_begin_.assign(static_cast<std::size_t>(duration_) + 1, 0);
  std::size_t idx = 0;
  for (Slot s = 0; s <= duration_; ++s) {
    while (idx < events_.size() && events_[idx].slot < s) ++idx;
    slot_begin_[static_cast<std::size_t>(s)] = idx;
  }
  slot_begin_.back() = events_.size();

  // Longest same-slot run (events are slot-sorted, so one linear pass).
  std::size_t run = 0;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    run = (k > 0 && events_[k].slot == events_[k - 1].slot) ? run + 1 : 1;
    max_slot_events_ = std::max(max_slot_events_, run);
  }

  // Per-pair totals: one hash-map pass over the events, then sorted by
  // (a, b) so lookups can binary-search.
  std::unordered_map<std::uint64_t, std::size_t> totals;
  totals.reserve(events_.size());
  for (const auto& e : events_) {
    ++totals[(static_cast<std::uint64_t>(e.a) << 32) | e.b];
  }
  pair_counts_.reserve(totals.size());
  for (const auto& [key, count] : totals) {
    pair_counts_.push_back({static_cast<NodeId>(key >> 32),
                            static_cast<NodeId>(key & 0xffffffffu), count});
  }
  std::sort(pair_counts_.begin(), pair_counts_.end(),
            [](const PairContacts& x, const PairContacts& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });
}

std::size_t ContactTrace::first_event_at_or_after(Slot slot) const {
  if (slot <= 0) return 0;
  if (slot >= duration_) return events_.size();
  return slot_begin_[static_cast<std::size_t>(slot)];
}

std::span<const ContactEvent> ContactTrace::slot_events(Slot slot) const {
  if (slot < 0 || slot >= duration_) return {};
  const std::size_t begin = slot_begin_[static_cast<std::size_t>(slot)];
  const std::size_t end = slot_begin_[static_cast<std::size_t>(slot) + 1];
  return {events_.data() + begin, end - begin};
}

ContactTrace ContactTrace::slice(Slot from, Slot to) const {
  if (from < 0 || to > duration_ || from >= to) {
    throw std::invalid_argument("ContactTrace::slice: bad range");
  }
  // The events are slot-sorted, so the slice is the contiguous run
  // [slot_begin_[from], slot_begin_[to]) — no full scan.
  const std::size_t begin = slot_begin_[static_cast<std::size_t>(from)];
  const std::size_t end = slot_begin_[static_cast<std::size_t>(to)];
  std::vector<ContactEvent> sub;
  sub.reserve(end - begin);
  for (std::size_t k = begin; k < end; ++k) {
    sub.push_back({events_[k].slot - from, events_[k].a, events_[k].b});
  }
  return ContactTrace(num_nodes_, to - from, std::move(sub));
}

std::size_t ContactTrace::pair_count(NodeId a, NodeId b) const {
  if (a > b) std::swap(a, b);
  const auto it = std::lower_bound(
      pair_counts_.begin(), pair_counts_.end(), std::make_pair(a, b),
      [](const PairContacts& p, const std::pair<NodeId, NodeId>& key) {
        return std::tie(p.a, p.b) < std::tie(key.first, key.second);
      });
  if (it == pair_counts_.end() || it->a != a || it->b != b) return 0;
  return it->count;
}

}  // namespace impatience::trace
