// Node's pending-item index (one bit per item, docs/perf.md §5) against
// the pending list it summarizes: after every step of seeded random
// request / meeting / crash sequences, has_pending(i) must equal "some
// pending request targets i". The meeting compaction keeps the bits
// exact without counts, which relies on every fulfilled request of an
// item preceding every kept one; transfer budgets of 0, 1 and 2 run out
// mid-list and exercise the kept-after-fulfilled case. A StateStore
// snapshot/restore round trip checks that restored nodes rebuild the
// index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "impatience/core/meeting.hpp"
#include "impatience/core/node.hpp"
#include "impatience/core/policy.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/utility/families.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core {
namespace {

// Spans two bit words, so both the word and the bit index are exercised.
constexpr ItemId kItems = 70;

::testing::AssertionResult index_matches_list(const Node& node) {
  for (ItemId item = 0; item < kItems; ++item) {
    const bool listed =
        std::any_of(node.pending().begin(), node.pending().end(),
                    [item](const PendingRequest& r) { return r.item == item; });
    if (node.has_pending(item) != listed) {
      return ::testing::AssertionFailure()
             << "node " << node.id() << " item " << item << ": has_pending "
             << node.has_pending(item) << ", pending list " << listed;
    }
  }
  return ::testing::AssertionSuccess();
}

void ignore_fulfillment(void*, ItemId, NodeId, double, double, long) {}

void run_random_sequence(long budget, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Node> nodes;
  for (NodeId id = 0; id < 8; ++id) {
    // Node 6 is a pure client and node 7 a pure server.
    nodes.emplace_back(id, kItems, 6, /*is_server=*/id != 6,
                       /*is_client=*/id != 7);
    if (!nodes.back().is_server()) continue;
    // Few distinct items, so caches overlap with pending lists.
    while (!nodes.back().cache().full()) {
      const auto item = static_cast<ItemId>(rng.uniform_index(12) * 6);
      if (!nodes.back().holds(item)) {
        nodes.back().cache().insert_random_replace(item, rng);
      }
    }
  }
  const utility::UtilitySet utilities(utility::StepUtility(10.0), kItems);
  const auto policy = make_passive_policy(1.0);
  MeetingContext context;
  context.utilities = &utilities;
  context.policy = policy.get();
  context.rng = &rng;
  context.sink = &ignore_fulfillment;

  for (int step = 0; step < 3000; ++step) {
    context.now = step;
    const double op = rng.uniform();
    const auto a = static_cast<NodeId>(rng.uniform_index(8));
    if (op < 0.55) {
      if (nodes[a].is_client()) {
        nodes[a].create_request(
            static_cast<ItemId>(rng.uniform_index(12) * 6), step);
      }
    } else if (op < 0.98) {
      auto b = static_cast<NodeId>(rng.uniform_index(7));
      if (b >= a) ++b;
      context.transfer_budget = budget;
      process_meeting(context, nodes[a], nodes[b]);
    } else {
      nodes[a].crash(/*persist_cache=*/rng.uniform() < 0.5);
    }
    for (const Node& node : nodes) {
      ASSERT_TRUE(index_matches_list(node))
          << "budget " << budget << " seed " << seed << " step " << step;
    }
  }
}

TEST(PendingIndex, MatchesPendingListUnderRandomMeetings) {
  for (const long budget : {0L, 1L, 2L, -1L}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_random_sequence(budget, seed);
    }
  }
}

TEST(PendingIndex, RestoreRequestSetsTheBit) {
  Node node(0, kItems, 2, true, true);
  node.restore_request({65, 3, -2});
  ASSERT_EQ(node.pending().size(), 1u);
  EXPECT_EQ(node.pending()[0].created, 3);
  EXPECT_EQ(node.pending()[0].queries_at_creation, -2);
  EXPECT_TRUE(index_matches_list(node));
  Node relay(1, kItems, 2, true, false);
  EXPECT_THROW(relay.restore_request({1, 0, 0}), std::logic_error);
}

std::vector<service::Event> random_events(std::size_t count,
                                          std::uint64_t seed,
                                          NodeId nodes) {
  util::Rng rng(seed);
  std::vector<service::Event> events;
  Slot clock = 0;
  for (std::size_t k = 0; k < count; ++k) {
    service::Event e;
    const double op = rng.uniform();
    const auto a = static_cast<NodeId>(rng.uniform_index(nodes));
    if (op < 0.45) {
      e.kind = service::Event::Kind::request;
      e.a = a;
      e.item = static_cast<ItemId>(rng.uniform_index(kItems));
    } else if (op < 0.9) {
      e.kind = service::Event::Kind::contact;
      e.a = a;
      e.b = static_cast<NodeId>(rng.uniform_index(nodes - 1));
      if (e.b >= a) ++e.b;
    } else if (op < 0.92) {
      e.kind = service::Event::Kind::crash;
      e.a = a;
    } else {
      e.kind = service::Event::Kind::clock;
      e.slot = ++clock;
    }
    events.push_back(e);
  }
  return events;
}

TEST(PendingIndex, StateStoreRestoreRebuildsTheIndex) {
  service::StoreConfig config;
  config.num_nodes = 10;
  config.num_items = kItems;
  config.cache_capacity = 8;
  const auto events = random_events(4000, 11, config.num_nodes);
  service::StateStore live(config, 5);
  std::unique_ptr<service::StateStore> restored;
  for (std::size_t k = 0; k <= events.size(); ++k) {
    if (k == events.size() / 2) {
      restored = std::make_unique<service::StateStore>(config, 5, live.image());
    }
    for (NodeId id = 0; id < config.num_nodes; ++id) {
      ASSERT_TRUE(index_matches_list(live.node(id))) << "event " << k;
      if (restored) {
        ASSERT_TRUE(index_matches_list(restored->node(id))) << "event " << k;
      }
    }
    if (restored) {
      // A wrong bit would skip a fulfilment and split the two runs.
      std::ostringstream a;
      std::ostringstream b;
      ASSERT_EQ(service::write_image(a, live.image()),
                service::write_image(b, restored->image()))
          << "event " << k;
    }
    if (k == events.size()) break;
    live.apply(events[k]);
    if (restored) restored->apply(events[k]);
  }
  EXPECT_GT(restored->counters().fulfillments, 0u);
}

}  // namespace
}  // namespace impatience::core
