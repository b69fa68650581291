// The meeting protocol of Section 6.1, shared by every consumer that runs
// meetings: both simulator kernels (simulator.cpp) and replicationd's
// state store (service/state_store.cpp). One meeting is
//   1. the metadata exchange: each client's pending requests query the
//      met server (one O(1) tick of its query-counter clock);
//   2. fulfilment, in both directions: every pending request the partner
//      can serve completes with delay s' - s + 1 and gain h(delay), then
//      the policy reacts (QCR creates mandates);
//   3. the policy's mandate execution/routing step.
// The protocol owns steps 1-3 and the node bookkeeping they imply; each
// caller keeps its own accounting (gain sums, series, latency windows)
// behind a fulfilment sink, called once per fulfilment before the node
// and policy updates of that fulfilment.
#pragma once

#include "impatience/core/node.hpp"
#include "impatience/core/policy.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core {

/// Receives one meeting fulfilment: the item, the requesting client, the
/// delay in slots (s' - s + 1), its gain h(delay) and the request's query
/// counter. A plain function pointer + context, like
/// Cache::ChangeListener: it runs on the meeting hot path.
using FulfillmentSink = void (*)(void* context, ItemId item, NodeId client,
                                 double delay, double gain, long queries);

struct MeetingContext {
  const utility::UtilitySet* utilities = nullptr;
  ReplicationPolicy* policy = nullptr;
  util::Rng* rng = nullptr;
  /// The slot the meeting happens in.
  Slot now = 0;
  /// Remaining item copies the current meeting may transfer (truncated
  /// exchange fault); -1 = unlimited. Matched requests beyond the budget
  /// stay pending.
  long transfer_budget = -1;
  FulfillmentSink sink = nullptr;
  void* sink_context = nullptr;
};

/// Runs one full meeting between `a` and `b` (steps 1-3 above). Honors
/// and consumes context.transfer_budget.
void process_meeting(MeetingContext& context, Node& a, Node& b);

/// Matched (fulfillable) requests of a meeting across both directions
/// — the "negotiated items" a truncated exchange cuts a prefix of.
long count_fulfillable(const Node& a, const Node& b);

}  // namespace impatience::core
