#include "impatience/core/meeting.hpp"

#include <cstddef>

namespace impatience::core {

namespace {

/// Queries the partner (query-counter increments), then fulfils every
/// pending request the partner can serve.
void fulfil_from(MeetingContext& context, Node& requester, Node& provider) {
  if (!requester.is_client()) return;
  // A non-server partner can neither be queried nor fulfil anything.
  if (!provider.is_server()) return;

  // Every pending request queries the met server; the counter includes
  // the fulfilling meeting, so E[counter] = |S| / x_i. One O(1) tick of
  // the node's server-meeting clock updates the whole pending list (each
  // request holds the clock value from its creation); ticking with an
  // empty pending list is invisible, since later requests snapshot the
  // clock at creation.
  requester.note_server_meeting();
  if (requester.pending().empty()) return;
  auto& pending = requester.pending();

  // O(rho) prefilter: scan the provider's cache against the requester's
  // per-item pending counters before walking the pending list. Most
  // meetings fulfil nothing, so this skips the compaction pass entirely.
  bool any_match = false;
  for (ItemId item : provider.cache().items()) {
    if (requester.has_pending(item)) {
      any_match = true;
      break;
    }
  }
  if (!any_match) return;

  std::size_t kept = 0;
  for (std::size_t k = 0; k < pending.size(); ++k) {
    PendingRequest& req = pending[k];
    if (provider.holds(req.item) && context.transfer_budget != 0) {
      if (context.transfer_budget > 0) --context.transfer_budget;
      const double delay =
          static_cast<double>(context.now - req.created) + 1.0;
      const double gain = (*context.utilities)[req.item].value(delay);
      const long queries =
          requester.server_meetings() - req.queries_at_creation;
      context.sink(context.sink_context, req.item, requester.id(), delay,
                   gain, queries);
      requester.note_fulfilled(req.item);
      context.policy->on_fulfillment(requester, provider, req.item, queries,
                                     *context.rng);
    } else {
      pending[kept++] = req;
    }
  }
  pending.resize(kept);
}

/// Matched requests `requester` could fulfil from `provider`'s cache.
long count_fulfillable_from(const Node& requester, const Node& provider) {
  if (!requester.is_client() || !provider.is_server()) return 0;
  long matched = 0;
  for (const PendingRequest& req : requester.pending()) {
    if (provider.holds(req.item)) ++matched;
  }
  return matched;
}

}  // namespace

long count_fulfillable(const Node& a, const Node& b) {
  return count_fulfillable_from(a, b) + count_fulfillable_from(b, a);
}

void process_meeting(MeetingContext& context, Node& a, Node& b) {
  fulfil_from(context, a, b);
  fulfil_from(context, b, a);
  context.policy->on_meeting_complete(a, b, *context.rng);
}

}  // namespace impatience::core
