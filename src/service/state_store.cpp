#include "impatience/service/state_store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "impatience/core/meeting.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/stats/percentile.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/utility/factory.hpp"

namespace impatience::service {

namespace {

/// Validates `config` and builds its delay-utility. Every service node is
/// a client and a server, so own-cache hits (zero-delay fulfilments)
/// happen and need a finite h(0+); like core::simulate, the store refuses
/// a utility without one instead of inventing a value.
std::unique_ptr<utility::DelayUtility> make_store_utility(
    const StoreConfig& config) {
  config.validate();
  auto utility = utility::make_utility(config.utility_spec);
  if (!utility->bounded_at_zero()) {
    throw std::invalid_argument(
        "StoreConfig: utility '" + config.utility_spec +
        "' has unbounded h(0+); own-cache hits cannot be valued");
  }
  return utility;
}

/// run_qcr's reaction without the auto-normalization: the store's psi is
/// the raw Table-1 form times reaction_scale.
std::unique_ptr<core::QcrPolicy> make_store_policy(
    const StoreConfig& config, const utility::UtilitySet& utilities) {
  core::QcrOptions qcr;
  qcr.mandate_routing = config.mandate_routing;
  qcr.reaction_scale = config.reaction_scale;
  qcr.auto_normalize_scale = false;
  return core::make_qcr_policy(
      "QCR-service",
      core::QcrReaction(utilities, config.mu,
                        static_cast<double>(config.num_nodes),
                        config.cache_capacity, qcr),
      qcr);
}

}  // namespace

void StoreConfig::validate() const {
  if (num_nodes == 0) {
    throw std::invalid_argument("StoreConfig: num_nodes must be > 0");
  }
  if (num_items == 0) {
    throw std::invalid_argument("StoreConfig: num_items must be > 0");
  }
  if (cache_capacity <= 0) {
    throw std::invalid_argument("StoreConfig: cache_capacity must be > 0");
  }
  if (!(mu > 0.0)) {
    throw std::invalid_argument("StoreConfig: mu must be > 0");
  }
  if (!(reaction_scale > 0.0)) {
    throw std::invalid_argument("StoreConfig: reaction_scale must be > 0");
  }
  if (utility_spec.empty() ||
      utility_spec.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument(
        "StoreConfig: utility_spec must be a non-empty token");
  }
}

StateStore::StateStore(const StoreConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      utilities_(*make_store_utility(config_), config_.num_items),
      policy_(make_store_policy(config_, utilities_)) {
  init_fresh();
  finish_init();
}

StateStore::StateStore(const StoreConfig& config, std::uint64_t seed,
                       const StateImage& image)
    : config_(config),
      seed_(seed),
      utilities_(*make_store_utility(config_), config_.num_items),
      policy_(make_store_policy(config_, utilities_)) {
  if (config_ != image.config) {
    throw std::invalid_argument(
        "StateStore: snapshot config does not match this scenario");
  }
  if (image.seed != seed_) {
    throw std::invalid_argument(
        "StateStore: snapshot seed " + std::to_string(image.seed) +
        " does not match --seed " + std::to_string(seed_) +
        " (replay determinism would break)");
  }
  init_from_image(image);
  finish_init();
}

StateStore::~StateStore() {
  // Detach listeners: the nodes die with us, but be explicit about the
  // context pointer's lifetime.
  for (core::Node& node : nodes_) {
    node.cache().set_change_listener(nullptr, nullptr);
  }
}

void StateStore::init_fresh() {
  nodes_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    // Pure P2P (paper Section 3.1): every node both serves and requests.
    nodes_.emplace_back(n, config_.num_items, config_.cache_capacity,
                        /*is_server=*/true, /*is_client=*/true);
  }
  // Sticky seeders first (slot 0 of seeder i is item i), then a seeded
  // distinct-uniform fill per node. Each node gets its own child stream,
  // so the initial placement is a pure function of (config, seed).
  if (config_.sticky_replicas) {
    const NodeId seeders = std::min<NodeId>(config_.num_nodes,
                                            static_cast<NodeId>(config_.num_items));
    for (NodeId n = 0; n < seeders; ++n) {
      nodes_[n].cache().pin_sticky(static_cast<ItemId>(n));
    }
  }
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    util::Rng rng(engine::child_seed(seed_, "service-init", n));
    core::Cache& cache = nodes_[n].cache();
    // Rejection fill is fine: the catalog is small and draws are cheap.
    while (!cache.full() && cache.size() < static_cast<int>(config_.num_items)) {
      const auto item = static_cast<ItemId>(rng.uniform_index(config_.num_items));
      if (!cache.contains(item)) cache.insert_random_replace(item, rng);
    }
  }
}

void StateStore::init_from_image(const StateImage& image) {
  if (image.nodes.size() != config_.num_nodes) {
    throw util::IoError("StateStore: snapshot node count mismatch");
  }
  // The running totals start from these, so each needs headroom for what
  // this run adds (kMaxRestoredMandateCounter). mandates_outstanding is
  // not one of them: it is recounted from the node mandates below.
  for (const long counter :
       {image.counters.mandates_created, image.counters.replicas_written,
        image.faults.mandates_lost}) {
    if (counter < 0 || counter > kMaxRestoredMandateCounter) {
      throw util::IoError(
          "StateStore: snapshot mandate counter out of range");
    }
  }
  // Rebuild every node exactly. Cache slot order is state (random
  // replacement evicts by slot index), so items are re-inserted in the
  // stored order — appends consume no RNG while the cache is not full —
  // and the sticky pin is applied afterwards, which for an already
  // present item only sets the flag without reordering.
  nodes_.reserve(config_.num_nodes);
  util::Rng dummy(0);  // never consumed: inserts below never evict
  // refresh_outstanding_locked sums every mandate count into one long.
  long outstanding = 0;
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    const StateImage::NodeImage& ni = image.nodes[n];
    core::Node& node = nodes_.emplace_back(
        n, config_.num_items, config_.cache_capacity,
        /*is_server=*/true, /*is_client=*/true);
    node.restore_server_meetings(ni.server_meetings);
    if (static_cast<int>(ni.cache.size()) > config_.cache_capacity) {
      throw util::IoError("StateStore: snapshot cache exceeds capacity");
    }
    for (ItemId item : ni.cache) {
      if (item >= config_.num_items || node.cache().contains(item)) {
        throw util::IoError("StateStore: snapshot cache is not a valid set");
      }
      node.cache().insert_random_replace(item, dummy);
    }
    if (ni.sticky >= 0) {
      if (ni.sticky >= static_cast<std::int64_t>(config_.num_items) ||
          !node.cache().contains(static_cast<ItemId>(ni.sticky))) {
        throw util::IoError("StateStore: snapshot sticky item not cached");
      }
      node.cache().pin_sticky(static_cast<ItemId>(ni.sticky));
    }
    for (const auto& [item, count] : ni.mandates) {
      if (item >= config_.num_items || count <= 0) {
        throw util::IoError("StateStore: snapshot mandate entry invalid");
      }
      if (node.mandates().count(item) != 0) {
        throw util::IoError("StateStore: snapshot mandates repeat an item");
      }
      if (count > std::numeric_limits<long>::max() - outstanding) {
        throw util::IoError("StateStore: snapshot mandate counts overflow");
      }
      outstanding += count;
      node.mandates().add(item, count);
    }
    for (const core::PendingRequest& req : ni.pending) {
      if (req.item >= config_.num_items) {
        throw util::IoError("StateStore: snapshot pending item out of range");
      }
      node.restore_request(req);
    }
  }
  if (image.recent_delays.size() > kDelayWindow) {
    throw util::IoError("StateStore: snapshot delay window too large");
  }
  version_ = image.version;
  seq_ = image.seq;
  clock_ = image.clock;
  counters_ = image.counters;
  faults_ = image.faults;
  // The policy object is freshly constructed (its counters read 0), so
  // fold the persisted totals in as base offsets: total = base + policy.
  mandates_created_base_ = image.counters.mandates_created;
  replicas_written_base_ = image.counters.replicas_written;
  recent_delays_ = image.recent_delays;
}

void StateStore::finish_init() {
  replica_counts_.assign(config_.num_items, 0);
  for (const core::Node& node : nodes_) {
    for (ItemId item : node.cache().items()) ++replica_counts_[item];
  }
  version_mirror_.store(version_, std::memory_order_release);
  dirty_.assign(config_.num_nodes, 0);
  for (core::Node& node : nodes_) {
    node.cache().set_change_listener(&StateStore::cache_listener, this);
  }
}

void StateStore::cache_listener(void* context, ItemId item, int delta) {
  // Always invoked with mu_ held: every cache mutation happens inside
  // apply() (policy execution, crashes) after construction.
  auto* store = static_cast<StateStore*>(context);
  store->replica_counts_[item] += delta;
  ++store->version_;
  store->version_mirror_.store(store->version_, std::memory_order_release);
}

void StateStore::bump_locked(std::uint64_t n) {
  version_ += n;
  version_mirror_.store(version_, std::memory_order_release);
}

std::uint64_t StateStore::apply(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  apply_line_locked({false, event});
  return version_;
}

void StateStore::apply_event_locked(const Event& event, util::Rng& rng) {
  switch (event.kind) {
    case Event::Kind::clock:
      apply_clock(event.slot);
      break;
    case Event::Kind::contact:
      if (event.a >= config_.num_nodes || event.b >= config_.num_nodes ||
          event.a == event.b) {
        ++counters_.events_malformed;
      } else {
        apply_contact(event.a, event.b, rng);
      }
      break;
    case Event::Kind::request:
      if (event.a >= config_.num_nodes || event.item >= config_.num_items) {
        ++counters_.events_malformed;
      } else {
        apply_request(event.a, event.item);
      }
      break;
    case Event::Kind::crash:
      if (event.a >= config_.num_nodes) {
        ++counters_.events_malformed;
      } else {
        apply_crash(event.a);
      }
      break;
    case Event::Kind::hello:
    case Event::Kind::quit:
      break;  // stream control; the ingest loop reacts, the state doesn't
  }
}

void StateStore::apply_line_locked(const IngestLine& line) {
  // Malformed countable lines advance seq like any other: the seq cursor
  // must be an exact position into the stream's countable lines, or a
  // reconnecting feeder could not resume from it (docs/service.md).
  ++seq_;
  if (line.malformed) {
    ++counters_.events_malformed;
  } else {
    // Every event draws from its own child stream, a pure function of
    // (seed, seq): replaying the stream tail after a warm restart
    // consumes identical randomness, making restore + replay bit-equal
    // to an uninterrupted run.
    util::Rng rng(engine::child_seed(seed_, "service-apply", seq_));
    apply_event_locked(line.event, rng);
  }
  counters_.events_applied = seq_;
  sync_policy_counters_locked();
  bump_locked();
}

std::uint64_t StateStore::apply_batch(std::span<const IngestLine> lines) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IngestLine& line : lines) apply_line_locked(line);
  return version_;
}

void StateStore::apply_clock(Slot slot) {
  // Monotonic: a stale or repeated T frame never rewinds time.
  clock_ = std::max(clock_, slot);
}

void StateStore::apply_contact(NodeId a, NodeId b, util::Rng& rng) {
  // Both sides mutate unconditionally (the meeting ticks the query
  // counter even on a dry meeting).
  mark_dirty_locked(a);
  mark_dirty_locked(b);
  ++counters_.contacts;
  core::MeetingContext meeting;
  meeting.utilities = &utilities_;
  meeting.policy = policy_.get();
  meeting.rng = &rng;
  meeting.now = clock_;
  meeting.sink = &StateStore::fulfillment_sink;
  meeting.sink_context = this;
  core::process_meeting(meeting, nodes_[a], nodes_[b]);
}

void StateStore::fulfillment_sink(void* context, ItemId /*item*/,
                                  NodeId /*client*/, double delay,
                                  double gain, long /*queries*/) {
  // Always invoked with mu_ held, from apply_contact.
  auto* store = static_cast<StateStore*>(context);
  ++store->counters_.fulfillments;
  --store->counters_.requests_pending;
  store->counters_.total_gain += gain;
  store->counters_.delay_sum += delay;
  store->record_delay_locked(delay);
}

void StateStore::apply_request(NodeId node_id, ItemId item) {
  ++counters_.requests_created;
  core::Node& node = nodes_[node_id];
  if (node.holds(item)) {
    // Own-cache hit: fulfilled at zero delay, no query counter, no
    // reaction (QCR only reacts to fulfilments that cost meetings).
    const double gain = utilities_[item].value_at_zero();
    ++counters_.immediate_fulfillments;
    counters_.total_gain += gain;
    record_delay_locked(0.0);
    return;
  }
  node.create_request(item, clock_);
  mark_dirty_locked(node_id);
  ++counters_.requests_pending;
}

void StateStore::apply_crash(NodeId node_id) {
  mark_dirty_locked(node_id);
  const core::Node::CrashLosses losses = nodes_[node_id].crash(false);
  ++faults_.crashes;
  faults_.replicas_lost += losses.replicas;
  faults_.mandates_lost += losses.mandates;
  faults_.requests_lost += losses.requests;
  counters_.requests_pending -= losses.requests;
}

void StateStore::sync_policy_counters_locked() {
  counters_.mandates_created =
      mandates_created_base_ + policy_->mandates_created();
  counters_.replicas_written =
      replicas_written_base_ + policy_->replicas_written();
  // mandates_outstanding is NOT summed here: the O(nodes) sweep per
  // event would dominate apply. Read paths call
  // refresh_outstanding_locked() instead — externally observable
  // counters are unchanged.
}

void StateStore::refresh_outstanding_locked() const {
  long outstanding = 0;
  for (const core::Node& node : nodes_) outstanding += node.mandates().total();
  counters_.mandates_outstanding = outstanding;
}

void StateStore::mark_dirty_locked(NodeId node) {
  if (!dirty_[node]) {
    dirty_[node] = 1;
    dirty_list_.push_back(node);
  }
}

void StateStore::record_delay_locked(double delay) {
  if (recent_delays_.size() >= kDelayWindow) {
    // Chronological window: drop the oldest half in one move instead of
    // shifting per insert (amortized O(1), order preserved).
    recent_delays_.erase(recent_delays_.begin(),
                         recent_delays_.begin() + kDelayWindow / 2);
  }
  recent_delays_.push_back(delay);
}

std::uint64_t StateStore::apply_malformed() {
  std::lock_guard<std::mutex> lock(mu_);
  apply_line_locked({true, Event{}});
  return version_;
}

void StateStore::fill_node_locked(NodeId n,
                                  StateImage::NodeImage& out) const {
  const core::Node& node = nodes_[n];
  out.server_meetings = node.server_meetings();
  const auto sticky = node.cache().sticky();
  out.sticky = sticky ? static_cast<std::int64_t>(*sticky) : -1;
  // assign, not a fresh vector: the buffer's capacity from the previous
  // snapshot is reused, and nothing stale survives a shorter list.
  out.cache.assign(node.cache().items().begin(), node.cache().items().end());
  const auto mandates = node.mandates().entries();
  out.mandates.assign(mandates.begin(), mandates.end());
  std::sort(out.mandates.begin(), out.mandates.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  out.pending.assign(node.pending().begin(), node.pending().end());
}

void StateStore::fill_state_locked(StoreState& state) const {
  state.config = config_;
  state.seed = seed_;
  state.version = version_;
  state.seq = seq_;
  state.clock = clock_;
  state.counters = counters_;
  state.faults = faults_;
  state.recent_delays = recent_delays_;
}

void StateStore::image_locked(StateImage& out) const {
  out.nodes.resize(nodes_.size());
  // The node pass also sums the outstanding mandates, standing in for
  // refresh_outstanding_locked's separate sweep.
  long outstanding = 0;
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    fill_node_locked(n, out.nodes[n]);
    outstanding += nodes_[n].mandates().total();
  }
  counters_.mandates_outstanding = outstanding;
  fill_state_locked(out);
}

void StateStore::image(StateImage& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  image_locked(out);
}

void StateStore::checkpoint_image(StateImage& out) {
  std::lock_guard<std::mutex> lock(mu_);
  image_locked(out);
  // Image + dirty reset under one lock: the next delta is relative to
  // exactly this image, with no apply slipping in between.
  for (NodeId n : dirty_list_) dirty_[n] = 0;
  dirty_list_.clear();
}

void StateStore::take_delta(StateDelta& out) {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  fill_state_locked(out);
  out.parent_checksum = 0;
  std::sort(dirty_list_.begin(), dirty_list_.end());
  out.nodes.resize(dirty_list_.size());
  for (std::size_t i = 0; i < dirty_list_.size(); ++i) {
    const NodeId n = dirty_list_[i];
    out.nodes[i].first = n;
    fill_node_locked(n, out.nodes[i].second);
    dirty_[n] = 0;
  }
  dirty_list_.clear();
}

std::size_t StateStore::dirty_node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_list_.size();
}

core::Node StateStore::node(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(id);
}

StoreCounters StateStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  return counters_;
}

fault::FaultCounters StateStore::faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_;
}

Slot StateStore::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

std::uint64_t StateStore::seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::vector<long> StateStore::replica_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replica_counts_;
}

double StateStore::delay_percentile(double p) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window = recent_delays_;
  }
  if (window.empty()) return 0.0;
  return stats::percentile(window, p);
}

bool StateStore::mandate_conservation_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  // Checked sums: restored totals near LONG_MAX must read as "not
  // conserved", not overflow.
  long accounted = 0;
  return !__builtin_add_overflow(counters_.replicas_written,
                                 counters_.mandates_outstanding, &accounted) &&
         !__builtin_add_overflow(accounted, faults_.mandates_lost,
                                 &accounted) &&
         counters_.mandates_created == accounted;
}

}  // namespace impatience::service
