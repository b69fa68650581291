#include "impatience/core/mandate.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "impatience/core/node.hpp"

namespace impatience::core {
namespace {

TEST(MandateBag, AddTakeCount) {
  MandateBag bag(4);
  EXPECT_TRUE(bag.empty());
  bag.add(2, 5);
  EXPECT_EQ(bag.count(2), 5);
  EXPECT_EQ(bag.total(), 5);
  EXPECT_EQ(bag.take(2, 3), 3);
  EXPECT_EQ(bag.count(2), 2);
  EXPECT_EQ(bag.total(), 2);
}

TEST(MandateBag, TakeMoreThanAvailable) {
  MandateBag bag(2);
  bag.add(0, 2);
  EXPECT_EQ(bag.take(0, 10), 2);
  EXPECT_EQ(bag.count(0), 0);
  EXPECT_TRUE(bag.empty());
}

TEST(MandateBag, TakeFromEmptyItem) {
  MandateBag bag(2);
  EXPECT_EQ(bag.take(1, 5), 0);
}

TEST(MandateBag, AddZeroIsNoop) {
  MandateBag bag(2);
  bag.add(0, 0);
  EXPECT_TRUE(bag.empty());
}

TEST(MandateBag, ActiveItems) {
  MandateBag bag(5);
  bag.add(1, 1);
  bag.add(4, 2);
  const auto items = bag.active_items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 1u);
  EXPECT_EQ(items[1], 4u);
}

TEST(MandateBag, TakingAMiddleEntryKeepsTheOthers) {
  MandateBag bag(6);
  bag.add(1, 2);
  bag.add(3, 4);
  bag.add(5, 6);
  EXPECT_EQ(bag.take(3, 4), 4);  // removes the middle entry
  EXPECT_EQ(bag.count(1), 2);
  EXPECT_EQ(bag.count(3), 0);
  EXPECT_EQ(bag.count(5), 6);
  EXPECT_EQ(bag.total(), 8);
  EXPECT_EQ(bag.active_items(), (std::vector<ItemId>{1, 5}));
  bag.add(3, 1);  // re-activates after the swap-remove
  EXPECT_EQ(bag.count(3), 1);
  EXPECT_EQ(bag.count(5), 6);
  EXPECT_EQ(bag.active_items(), (std::vector<ItemId>{1, 3, 5}));
}

TEST(MandateBag, DrainReturnsTheTotalAndTheBagIsReusable) {
  MandateBag bag(4);
  bag.add(0, 3);
  bag.add(2, 4);
  EXPECT_EQ(bag.drain(), 7);
  EXPECT_TRUE(bag.empty());
  EXPECT_EQ(bag.count(0), 0);
  EXPECT_EQ(bag.count(2), 0);
  EXPECT_TRUE(bag.active_items().empty());
  bag.add(2, 1);
  EXPECT_EQ(bag.count(2), 1);
  EXPECT_EQ(bag.total(), 1);
  EXPECT_EQ(bag.active_items(), (std::vector<ItemId>{2}));
}

TEST(MandateBag, Validation) {
  EXPECT_THROW(MandateBag(0), std::invalid_argument);
  MandateBag bag(2);
  EXPECT_THROW(bag.add(2, 1), std::out_of_range);
  EXPECT_THROW(bag.take(2, 1), std::out_of_range);
  EXPECT_THROW(bag.count(2), std::out_of_range);
  EXPECT_THROW(bag.add(0, -1), std::invalid_argument);
  EXPECT_THROW(bag.take(0, -1), std::invalid_argument);
}

TEST(Node, RolesAndAccess) {
  Node server(0, 3, 5, true, false);
  EXPECT_TRUE(server.is_server());
  EXPECT_FALSE(server.is_client());
  EXPECT_NO_THROW(server.cache());
  EXPECT_THROW(server.create_request(0, 1), std::logic_error);

  Node client(1, 3, 5, false, true);
  EXPECT_FALSE(client.is_server());
  EXPECT_THROW(client.cache(), std::logic_error);
  client.create_request(2, 7);
  ASSERT_EQ(client.pending().size(), 1u);
  EXPECT_EQ(client.pending()[0].item, 2u);
  EXPECT_EQ(client.pending()[0].created, 7);
  // Fresh request: its live query counter (clock minus snapshot) is zero.
  EXPECT_EQ(client.server_meetings() - client.pending()[0].queries_at_creation,
            0);
}

TEST(Node, HoldsChecksCache) {
  Node n(0, 3, 2, true, true);
  util::Rng rng(1);
  EXPECT_FALSE(n.holds(1));
  n.cache().insert_random_replace(1, rng);
  EXPECT_TRUE(n.holds(1));
  Node client(1, 3, 2, false, true);
  EXPECT_FALSE(client.holds(1));
}

TEST(Node, StateSurvivesVectorReallocation) {
  std::vector<Node> nodes;
  nodes.emplace_back(0, 4, 2, true, true);
  nodes[0].note_server_meeting();
  nodes[0].note_server_meeting();
  nodes[0].create_request(3, 5);
  nodes[0].mandates().add(1, 2);
  const std::size_t capacity = nodes.capacity();
  while (nodes.capacity() == capacity) {
    const auto id = static_cast<NodeId>(nodes.size());
    nodes.emplace_back(id, 4, 2, true, true);
  }
  EXPECT_TRUE(nodes[0].has_pending(3));
  EXPECT_FALSE(nodes[0].has_pending(2));
  EXPECT_EQ(nodes[0].server_meetings(), 2);
  EXPECT_EQ(nodes[0].mandates().count(1), 2);
  nodes[0].note_server_meeting();  // the moved clock is still live
  EXPECT_EQ(nodes[0].server_meetings(), 3);
  EXPECT_FALSE(nodes.back().has_pending(3));
  EXPECT_EQ(nodes.back().server_meetings(), 0);
}

TEST(Node, CrashClearsPendingCounters) {
  Node node(0, 4, 2, true, true);
  node.create_request(1, 0);
  node.create_request(1, 2);
  node.create_request(3, 2);
  node.mandates().add(2, 5);
  const Node::CrashLosses losses = node.crash(/*persist_cache=*/false);
  EXPECT_EQ(losses.requests, 3u);
  EXPECT_EQ(losses.mandates, 5);
  EXPECT_TRUE(node.pending().empty());
  for (ItemId item = 0; item < 4; ++item) {
    EXPECT_FALSE(node.has_pending(item)) << item;
  }
  node.create_request(3, 4);  // the counters restart from zero
  EXPECT_TRUE(node.has_pending(3));
  EXPECT_FALSE(node.has_pending(1));
}

TEST(Node, RelayNodeCarriesMandates) {
  Node relay(0, 3, 2, false, false);
  relay.mandates().add(1, 2);
  EXPECT_EQ(relay.mandates().total(), 2);
}

}  // namespace
}  // namespace impatience::core
