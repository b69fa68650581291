// Internal simulator state shared between simulator.cpp and meeting.cpp.
// Not part of the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "impatience/core/node.hpp"
#include "impatience/core/policy.hpp"
#include "impatience/stats/timeseries.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core::detail {

struct SimState {
  std::vector<Node> nodes;  // indexed by trace NodeId
  const utility::UtilitySet* utilities = nullptr;
  ReplicationPolicy* policy = nullptr;
  util::Rng* rng = nullptr;
  Slot now = 0;

  double total_gain = 0.0;
  stats::BinnedSeries* observed = nullptr;
  /// When set (event kernel), gains are accumulated per bin and folded
  /// into `observed` one batch at a time instead of per fulfilment; the
  /// kernel flushes it before reading the series. The slot-stepped
  /// kernel leaves it null so its per-fulfilment adds stay bit-locked.
  stats::BinnedSeries::Batcher* observed_batch = nullptr;
  const std::function<void(ItemId, NodeId, double, double)>* on_fulfillment =
      nullptr;
  std::uint64_t fulfillments = 0;
  double delay_sum = 0.0;
  double query_sum = 0.0;

  /// Remaining item copies the current meeting may transfer (truncated
  /// exchange fault); -1 = unlimited. Matched requests beyond the budget
  /// stay pending.
  long transfer_budget = -1;
};

/// Full meeting protocol of Section 6.1: metadata exchange (query-counter
/// increments), request fulfilment with gain recording, then the policy's
/// mandate execution/routing step. Honors state.transfer_budget.
void process_meeting(SimState& state, Node& a, Node& b);

/// Matched (fulfillable) requests of this meeting across both directions
/// — the "negotiated items" a truncated exchange cuts a prefix of.
long count_fulfillable(const Node& a, const Node& b);

/// Records one observed gain, through the batcher when one is installed.
inline void record_gain(SimState& state, double time, double value) noexcept {
  if (state.observed_batch) {
    state.observed_batch->add(time, value);
  } else {
    state.observed->add(time, value);
  }
}

}  // namespace impatience::core::detail
