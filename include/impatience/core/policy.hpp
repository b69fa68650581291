// Replication policies: what happens at node meetings beyond request
// fulfilment. QCR (Section 5) creates psi(query-count) mandates per
// fulfilment and executes/routes them opportunistically; the static
// policy does nothing (used for the fixed-allocation competitors, which
// have their caches preset and frozen).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "impatience/core/node.hpp"
#include "impatience/util/rng.hpp"
#include "impatience/utility/reaction.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core {

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;

  virtual std::string name() const = 0;

  /// Invoked once by the simulator after initial cache setup with the
  /// per-item global replica counts. Policies that track global state
  /// (e.g. the full-knowledge hill climber) seed themselves here.
  virtual void on_initialized(std::span<const int> /*item_counts*/) {}

  /// Invoked when `requester`'s request for `item` has just been fulfilled
  /// by `provider`, with the final query-counter value (>= 1).
  virtual void on_fulfillment(Node& requester, Node& provider, ItemId item,
                              long query_count, util::Rng& rng) = 0;

  /// Invoked once per meeting after all fulfilments of both nodes.
  virtual void on_meeting_complete(Node& a, Node& b, util::Rng& rng) = 0;
};

/// No replication: caches stay exactly as initialized.
class StaticPolicy final : public ReplicationPolicy {
 public:
  std::string name() const override { return "STATIC"; }
  void on_fulfillment(Node&, Node&, ItemId, long, util::Rng&) override {}
  void on_meeting_complete(Node&, Node&, util::Rng&) override {}
};

/// Query Counting Replication (Sections 5.1-5.3).
///
/// On fulfilment with counter y the requester gains reaction(y) mandates
/// for the item (stochastically rounded to an integer). At every meeting,
/// for each item at most one mandate executes (a replica is copied to a
/// server lacking the item — "no rewriting": nothing happens if both or
/// neither side holds it), then mandates are routed: towards the replica
/// holder, split evenly if both (or neither) hold the item, with the
/// item's sticky seeder preferred at a 2/3 share (Section 6.1).
class QcrPolicy final : public ReplicationPolicy {
 public:
  enum class MandateRouting { kOff, kOn };

  /// Section 5.1's two implementations: without rewriting, meeting a node
  /// that already holds the item is simply ignored (the paper's simulation
  /// choice); with rewriting, such a meeting consumes one mandate even
  /// though no new copy can be made (the variant the paper's Eq. (7)
  /// analysis focuses on).
  enum class Rewriting { kDisallowed, kAllowed };

  /// psi as a function of (item, query-counter value) — per-item
  /// delay-utilities get per-item reactions.
  using ItemReaction = std::function<double(ItemId, double)>;

  /// @param reaction psi; maps the query-counter value to the (real-
  ///        valued) number of replicas to create.
  /// @param per_item_mandate_cap saturation bound on a node's mandate
  ///        backlog per item. Steep reactions (e.g. power alpha << 0,
  ///        psi ~ y^{1-alpha}) can enter a runaway regime on starved
  ///        items — counters grow, each fulfilment emits a huge burst,
  ///        the burst evicts other items, which starves them further. A
  ///        backlog beyond the global cache size can never be useful, so
  ///        callers should pass about rho * |S| (QcrReaction::mandate_cap).
  QcrPolicy(std::string name, ItemReaction reaction, MandateRouting routing,
            long per_item_mandate_cap = kDefaultMandateCap,
            Rewriting rewriting = Rewriting::kDisallowed);

  /// Item-independent reaction convenience constructor.
  QcrPolicy(std::string name, std::function<double(double)> reaction,
            MandateRouting routing,
            long per_item_mandate_cap = kDefaultMandateCap,
            Rewriting rewriting = Rewriting::kDisallowed);

  static constexpr long kDefaultMandateCap = 1'000'000;

  std::string name() const override { return name_; }
  void on_fulfillment(Node& requester, Node& provider, ItemId item,
                      long query_count, util::Rng& rng) override;
  void on_meeting_complete(Node& a, Node& b, util::Rng& rng) override;

  /// Cumulative count of mandates created (diagnostics).
  long mandates_created() const noexcept { return mandates_created_; }
  /// Cumulative count of mandate executions, i.e. replicas written.
  long replicas_written() const noexcept { return replicas_written_; }
  /// Mandates consumed without a write (rewriting mode only).
  long mandates_rewritten() const noexcept { return mandates_rewritten_; }

 private:
  void execute_mandates(Node& a, Node& b, util::Rng& rng);
  void route_mandates(Node& a, Node& b, util::Rng& rng);

  std::string name_;
  ItemReaction reaction_;
  MandateRouting routing_;
  long mandate_cap_;
  Rewriting rewriting_;
  std::vector<ItemId> items_scratch_;  // per-meeting union, reused
  long mandates_created_ = 0;
  long replicas_written_ = 0;
  long mandates_rewritten_ = 0;
};

struct QcrOptions {
  bool mandate_routing = true;
  /// Section 5.1's "replication with rewriting": meeting a node that
  /// already holds the item consumes a mandate without copying. Off by
  /// default (the paper's simulation choice).
  bool rewriting = false;
  /// Multiplier on the (auto-normalized) reaction function.
  double reaction_scale = 1.0;
  /// Property 2 fixes psi only up to a positive constant; the raw Table-1
  /// forms can emit tens of replicas per fulfilment, which thrashes a
  /// small global cache (the mean-field analysis assumes gentle flows).
  /// When true (default), psi is rescaled so that a fulfilment at the
  /// *uniform* allocation creates about `target_replicas_per_fulfillment`
  /// replicas; the fixed point is scale-invariant, so this only affects
  /// convergence speed vs steady-state noise.
  bool auto_normalize_scale = true;
  double target_replicas_per_fulfillment = 0.25;
  /// Upper bound on replicas created by one fulfilment (0 = auto, the
  /// per-node cache size rho). Steep reactions (power alpha << 0 have
  /// psi ~ y^{1-alpha}) otherwise emit cache-sized bursts whenever an
  /// item's counter spikes, which destabilizes small systems; the cap
  /// binds only during such excursions, so the fixed point (Property 2)
  /// is unchanged.
  double max_replicas_per_fulfillment = 0.0;
};

/// The tuned QCR reaction: item i's Table-1 psi_i (Property 2) with the
/// stabilizers of QcrOptions, i.e.
///
///   R_i(y) = min(scale_i * psi_i(min(y, |S|)), burst cap)
///
/// where scale_i is reaction_scale, times the auto-normalization at the
/// uniform allocation x = max(1, rho |S| / I) when enabled. The query
/// counter is clamped at |S|: with sticky seed copies every item has
/// x >= 1, so counter values beyond |S| carry no extra information about
/// the allocation (the implied estimate S/y would be below the guaranteed
/// floor of one replica). This is the one definition run by the
/// simulator (run_qcr), the mean-field ODE (mean_field_qcr),
/// replicationd's StateStore and the dedicated-node harness.
class QcrReaction {
 public:
  /// @param num_servers |S| (N in pure P2P).
  /// @param capacity    rho, the per-server cache size.
  QcrReaction(const utility::UtilitySet& utilities, double mu,
              double num_servers, int capacity, const QcrOptions& options);

  /// R_item(y) for a query-counter value y > 0.
  double operator()(ItemId item, double y) const {
    return std::min(reactions_[item](std::min(y, counter_cap_)), burst_cap_);
  }

  /// rho * |S|: a node's mandate backlog for one item beyond the global
  /// cache volume can never be useful.
  long mandate_cap() const noexcept { return mandate_cap_; }

 private:
  std::vector<utility::ReactionFunction> reactions_;
  double counter_cap_;
  double burst_cap_;
  long mandate_cap_;
};

/// QcrPolicy running `reaction`, with its mandate cap and the mandate
/// routing and rewriting choices of `options`.
std::unique_ptr<QcrPolicy> make_qcr_policy(std::string name,
                                           QcrReaction reaction,
                                           const QcrOptions& options);

/// Passive replication: a fixed number of replicas per fulfilment
/// (equilibrium: allocation proportional to demand; the dynamic analogue
/// of PROP, as deployed e.g. by Podnet-style systems).
std::unique_ptr<QcrPolicy> make_passive_policy(
    double replicas_per_fulfillment = 1.0,
    QcrPolicy::MandateRouting routing = QcrPolicy::MandateRouting::kOn);

/// Classic path replication (Cohen & Shenker): psi(y) proportional to y
/// (equilibrium: square-root allocation, the dynamic analogue of SQRT).
std::unique_ptr<QcrPolicy> make_path_replication_policy(
    double scale = 1.0,
    QcrPolicy::MandateRouting routing = QcrPolicy::MandateRouting::kOn);

}  // namespace impatience::core
