#include <algorithm>
#include <stdexcept>

#include "impatience/core/policy.hpp"

namespace impatience::core {

QcrPolicy::QcrPolicy(std::string name, ItemReaction reaction,
                     MandateRouting routing, long per_item_mandate_cap,
                     Rewriting rewriting)
    : name_(std::move(name)), reaction_(std::move(reaction)),
      routing_(routing), mandate_cap_(per_item_mandate_cap),
      rewriting_(rewriting) {
  if (!reaction_) {
    throw std::invalid_argument("QcrPolicy: null reaction function");
  }
  if (mandate_cap_ <= 0) {
    throw std::invalid_argument("QcrPolicy: mandate cap must be > 0");
  }
}

QcrPolicy::QcrPolicy(std::string name,
                     std::function<double(double)> reaction,
                     MandateRouting routing, long per_item_mandate_cap,
                     Rewriting rewriting)
    : QcrPolicy(std::move(name),
                reaction ? ItemReaction([reaction](ItemId, double y) {
                  return reaction(y);
                })
                         : ItemReaction(),
                routing, per_item_mandate_cap, rewriting) {}

QcrReaction::QcrReaction(const utility::UtilitySet& utilities, double mu,
                         double num_servers, int capacity,
                         const QcrOptions& options)
    : counter_cap_(num_servers),
      burst_cap_(options.max_replicas_per_fulfillment > 0.0
                     ? options.max_replicas_per_fulfillment
                     : static_cast<double>(capacity)),
      mandate_cap_(static_cast<long>(capacity) *
                   static_cast<long>(num_servers)) {
  const double x_uniform = std::max(
      1.0, capacity * num_servers / static_cast<double>(utilities.size()));
  reactions_.reserve(utilities.size());
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    double scale = options.reaction_scale;
    if (options.auto_normalize_scale) {
      const double psi_uniform = utility::psi(utilities[i], mu, num_servers,
                                              num_servers / x_uniform);
      if (psi_uniform > 0.0) {
        scale *= options.target_replicas_per_fulfillment / psi_uniform;
      }
    }
    reactions_.emplace_back(utilities[i], mu, num_servers, scale);
  }
}

std::unique_ptr<QcrPolicy> make_qcr_policy(std::string name,
                                           QcrReaction reaction,
                                           const QcrOptions& options) {
  const long mandate_cap = reaction.mandate_cap();
  auto shared = std::make_shared<const QcrReaction>(std::move(reaction));
  return std::make_unique<QcrPolicy>(
      std::move(name),
      QcrPolicy::ItemReaction([shared](ItemId item, double y) {
        return (*shared)(item, y);
      }),
      options.mandate_routing ? QcrPolicy::MandateRouting::kOn
                              : QcrPolicy::MandateRouting::kOff,
      mandate_cap,
      options.rewriting ? QcrPolicy::Rewriting::kAllowed
                        : QcrPolicy::Rewriting::kDisallowed);
}

void QcrPolicy::on_fulfillment(Node& requester, Node& /*provider*/,
                               ItemId item, long query_count,
                               util::Rng& rng) {
  if (query_count <= 0) return;  // immediate self-fulfilment: no meeting
  // Clamp before rounding: steep reactions can return values beyond any
  // meaningful replication volume (see the cap rationale in the header).
  const double target =
      std::min(reaction_(item, static_cast<double>(query_count)),
               static_cast<double>(mandate_cap_));
  long replicas = std::max<long>(0, rng.stochastic_round(target));
  replicas =
      std::min(replicas, mandate_cap_ - requester.mandates().count(item));
  if (replicas > 0) {
    requester.mandates().add(item, replicas);
    mandates_created_ += replicas;
  }
}

void QcrPolicy::on_meeting_complete(Node& a, Node& b, util::Rng& rng) {
  // Both bags empty means both phases iterate an empty union and draw
  // nothing — skip the scratch work entirely (the common case: mandates
  // concentrate on few nodes).
  if (a.mandates().empty() && b.mandates().empty()) return;
  execute_mandates(a, b, rng);
  if (routing_ == MandateRouting::kOn) {
    route_mandates(a, b, rng);
  }
}

void QcrPolicy::execute_mandates(Node& a, Node& b, util::Rng& rng) {
  // Union of items with mandates on either side. Sorting keeps the
  // execution order (and hence the RNG draw order) identical to the
  // former sorted active_items() walk.
  auto& items = items_scratch_;
  items.clear();
  a.mandates().append_active_items(items);
  b.mandates().append_active_items(items);
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());

  for (ItemId item : items) {
    const bool a_has = a.holds(item);
    const bool b_has = b.holds(item);
    if (!a_has && !b_has) continue;  // no replica to copy from
    if (a_has && b_has) {
      // Both sides hold the item. Without rewriting the contact is
      // simply ignored; with rewriting one mandate is consumed even
      // though no new copy can be made (Section 5.1).
      if (rewriting_ == Rewriting::kAllowed) {
        long taken = a.mandates().take(item, 1);
        if (taken == 0) taken = b.mandates().take(item, 1);
        mandates_rewritten_ += taken;
      }
      continue;
    }
    // Exactly one side holds the item; the other must be a server that
    // can take the copy. The mandate must sit at the *holder* — a node
    // replicates its own copy. This is exactly why unrouted mandates
    // stall once the origin's replica is evicted (the Section 5.3
    // pathology).
    Node& holder = a_has ? a : b;
    Node& target = a_has ? b : a;
    if (!target.is_server() || !target.cache().can_insert()) continue;
    if (holder.mandates().take(item, 1) == 0) continue;
    target.cache().insert_random_replace(item, rng);
    ++replicas_written_;
  }
}

void QcrPolicy::route_mandates(Node& a, Node& b, util::Rng& rng) {
  auto& items = items_scratch_;
  items.clear();
  a.mandates().append_active_items(items);
  b.mandates().append_active_items(items);
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());

  for (ItemId item : items) {
    const long total =
        a.mandates().count(item) + b.mandates().count(item);
    if (total == 0) continue;
    const bool a_has = a.holds(item);
    const bool b_has = b.holds(item);
    const bool a_sticky =
        a.is_server() && a.cache().sticky() == std::optional<ItemId>(item);
    const bool b_sticky =
        b.is_server() && b.cache().sticky() == std::optional<ItemId>(item);

    long to_a = 0;
    if (a_sticky || b_sticky) {
      // The item's seeder is preferred: 2/3 of the mandates when the
      // partner also holds a copy, everything otherwise (Section 6.1).
      Node& sticky = a_sticky ? a : b;
      const bool other_has = a_sticky ? b_has : a_has;
      long to_sticky;
      if (other_has) {
        const double share = 2.0 * static_cast<double>(total) / 3.0;
        to_sticky = std::clamp<long>(rng.stochastic_round(share), 0, total);
      } else {
        to_sticky = total;
      }
      to_a = (&sticky == &a) ? to_sticky : total - to_sticky;
    } else if (a_has && !b_has) {
      to_a = total;
    } else if (b_has && !a_has) {
      to_a = 0;
    } else {
      // Both or neither hold the item: split evenly, odd one at random.
      to_a = total / 2;
      if (total % 2 != 0 && rng.bernoulli(0.5)) ++to_a;
    }

    // Apply the transfer.
    const long at_a = a.mandates().count(item);
    if (to_a > at_a) {
      b.mandates().take(item, to_a - at_a);
      a.mandates().add(item, to_a - at_a);
    } else if (to_a < at_a) {
      a.mandates().take(item, at_a - to_a);
      b.mandates().add(item, at_a - to_a);
    }
  }
}

}  // namespace impatience::core
