#include <algorithm>
#include <stdexcept>

#include "impatience/core/node.hpp"

namespace impatience::core {

Node::Node(NodeId id, ItemId num_items, int cache_capacity, bool is_server,
           bool is_client)
    : id_(id),
      is_client_(is_client),
      mandates_(num_items),
      pending_bits_((static_cast<std::size_t>(num_items) + 63) / 64, 0) {
  if (is_server) {
    cache_.emplace(cache_capacity);
  }
  // A node that is neither server nor client still participates as a
  // mandate relay.
}

Cache& Node::cache() {
  if (!cache_) {
    throw std::logic_error("Node::cache: node is not a server");
  }
  return *cache_;
}

const Cache& Node::cache() const {
  if (!cache_) {
    throw std::logic_error("Node::cache: node is not a server");
  }
  return *cache_;
}

Node::CrashLosses Node::crash(bool persist_cache) {
  CrashLosses losses;
  if (cache_ && !persist_cache) {
    losses.replicas = static_cast<std::uint64_t>(cache_->crash_clear());
  }
  losses.mandates = mandates_.drain();
  losses.requests = pending_.size();
  pending_.clear();
  std::fill(pending_bits_.begin(), pending_bits_.end(), 0u);
  return losses;
}

void Node::create_request(ItemId item, Slot now) {
  if (!is_client_) {
    throw std::logic_error("Node::create_request: node is not a client");
  }
  pending_.push_back({item, now, server_meetings_});
  note_kept(item);
}

void Node::restore_request(const PendingRequest& request) {
  if (!is_client_) {
    throw std::logic_error("Node::restore_request: node is not a client");
  }
  pending_.push_back(request);
  note_kept(request.item);
}

}  // namespace impatience::core
