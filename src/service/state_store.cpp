#include "impatience/service/state_store.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>
#include <utility>

#include "impatience/core/meeting.hpp"
#include "impatience/engine/artifacts.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/stats/percentile.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/utility/factory.hpp"
#include "text_in.hpp"
#include "text_out.hpp"

namespace impatience::service {

namespace {

bool config_equal(const StoreConfig& a, const StoreConfig& b) {
  return a.num_nodes == b.num_nodes && a.num_items == b.num_items &&
         a.cache_capacity == b.cache_capacity &&
         a.sticky_replicas == b.sticky_replicas &&
         a.utility_spec == b.utility_spec && a.mu == b.mu &&
         a.reaction_scale == b.reaction_scale &&
         a.mandate_routing == b.mandate_routing;
}

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
      utilities_(*make_store_utility(config_), config_.num_items) {
  // run_qcr's reaction without the auto-normalization: the store's psi is
  // the raw Table-1 form times reaction_scale.
  core::QcrOptions qcr;
  qcr.mandate_routing = config_.mandate_routing;
  qcr.reaction_scale = config_.reaction_scale;
  qcr.auto_normalize_scale = false;
  policy_ = core::make_qcr_policy(
      "QCR-service",
      core::QcrReaction(utilities_, config_.mu,
                        static_cast<double>(config_.num_nodes),
                        config_.cache_capacity, qcr),
      qcr);
  init_fresh();
}

StateStore::StateStore(const StoreConfig& config, std::uint64_t seed,
                       const StateImage& image)
    : StateStore(config, seed) {
  if (!config_equal(config_, image.config)) {
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
}

StateStore::~StateStore() {
  // Detach listeners: the nodes die with us, but be explicit about the
  // context pointer's lifetime.
  for (core::Node& node : nodes_) {
    node.cache().set_change_listener(nullptr, nullptr);
  }
}

void StateStore::init_fresh() {
  nodes_.clear();
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

  replica_counts_.assign(config_.num_items, 0);
  for (const core::Node& node : nodes_) {
    for (ItemId item : node.cache().items()) ++replica_counts_[item];
  }
  version_ = 0;
  version_mirror_.store(0, std::memory_order_release);
  seq_ = 0;
  clock_ = 0;
  counters_ = StoreCounters{};
  faults_ = fault::FaultCounters{};
  mandates_created_base_ = 0;
  replicas_written_base_ = 0;
  recent_delays_.clear();
  dirty_.assign(config_.num_nodes, 0);
  dirty_list_.clear();
  attach_listeners();
}

void StateStore::init_from_image(const StateImage& image) {
  if (image.nodes.size() != config_.num_nodes) {
    throw util::IoError("StateStore: snapshot node count mismatch");
  }
  // Rebuild every node exactly. Cache slot order is state (random
  // replacement evicts by slot index), so items are re-inserted in the
  // stored order — appends consume no RNG while the cache is not full —
  // and the sticky pin is applied afterwards, which for an already
  // present item only sets the flag without reordering.
  nodes_.clear();
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

  replica_counts_.assign(config_.num_items, 0);
  for (const core::Node& node : nodes_) {
    for (ItemId item : node.cache().items()) ++replica_counts_[item];
  }
  version_ = image.version;
  version_mirror_.store(version_, std::memory_order_release);
  seq_ = image.seq;
  clock_ = image.clock;
  counters_ = image.counters;
  faults_ = image.faults;
  // The policy object is freshly constructed (its counters read 0), so
  // fold the persisted totals in as base offsets: total = base + policy.
  mandates_created_base_ = image.counters.mandates_created;
  replicas_written_base_ = image.counters.replicas_written;
  recent_delays_ = image.recent_delays;
  if (recent_delays_.size() > kDelayWindow) {
    throw util::IoError("StateStore: snapshot delay window too large");
  }
  dirty_.assign(config_.num_nodes, 0);
  dirty_list_.clear();
  attach_listeners();
}

void StateStore::attach_listeners() {
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

StateImage::NodeImage StateStore::node_image_locked(NodeId n) const {
  const core::Node& node = nodes_[n];
  StateImage::NodeImage ni;
  ni.server_meetings = node.server_meetings();
  const auto sticky = node.cache().sticky();
  ni.sticky = sticky ? static_cast<std::int64_t>(*sticky) : -1;
  ni.cache = node.cache().items();
  for (ItemId item : node.mandates().active_items()) {
    ni.mandates.emplace_back(item, node.mandates().count(item));
  }
  ni.pending = node.pending();
  return ni;
}

StateImage StateStore::image_locked() const {
  refresh_outstanding_locked();
  StateImage image;
  image.config = config_;
  image.seed = seed_;
  image.version = version_;
  image.seq = seq_;
  image.clock = clock_;
  image.counters = counters_;
  image.faults = faults_;
  image.nodes.reserve(nodes_.size());
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    image.nodes.push_back(node_image_locked(n));
  }
  image.recent_delays = recent_delays_;
  return image;
}

StateImage StateStore::image() const {
  std::lock_guard<std::mutex> lock(mu_);
  return image_locked();
}

StateImage StateStore::checkpoint_image() {
  std::lock_guard<std::mutex> lock(mu_);
  StateImage image = image_locked();
  // Image + dirty reset under one lock: the next delta is relative to
  // exactly this image, with no apply slipping in between.
  for (NodeId n : dirty_list_) dirty_[n] = 0;
  dirty_list_.clear();
  return image;
}

StateDelta StateStore::take_delta() {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_outstanding_locked();
  StateDelta delta;
  delta.config = config_;
  delta.seed = seed_;
  delta.version = version_;
  delta.seq = seq_;
  delta.clock = clock_;
  delta.counters = counters_;
  delta.faults = faults_;
  std::sort(dirty_list_.begin(), dirty_list_.end());
  delta.nodes.reserve(dirty_list_.size());
  for (NodeId n : dirty_list_) {
    delta.nodes.emplace_back(n, node_image_locked(n));
    dirty_[n] = 0;
  }
  dirty_list_.clear();
  delta.recent_delays = recent_delays_;
  return delta;
}

std::size_t StateStore::dirty_node_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_list_.size();
}

core::Node StateStore::node(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(id);
}

void StateStore::save_snapshot(const std::string& path) const {
  // Copy-on-read, then serialize outside the lock: the ingest path only
  // stalls for the in-memory copy, never for disk I/O.
  const StateImage snapshot = image();
  save_image(path, snapshot);
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
  return counters_.mandates_created ==
         counters_.replicas_written + counters_.mandates_outstanding +
             faults_.mandates_lost;
}

std::unique_ptr<StateStore> StateStore::restore(const StoreConfig& config,
                                                std::uint64_t seed,
                                                const std::string& path) {
  return std::make_unique<StateStore>(config, seed, load_image(path));
}

// ---------------------------------------------------------------------------
// Snapshot serialization: versioned header, ASCII lines, FNV-1a checksum
// line plus `end` trailer so truncation and torn writes are detectable.

namespace {

constexpr std::string_view kMagic = "impatience.replicationd_snapshot/1";
constexpr std::string_view kDeltaMagic = "impatience.replicationd_delta/1";

using detail::Fields;
using detail::LineCursor;
using detail::TextOut;

void write_config_record(TextOut& body, const StoreConfig& c) {
  body << "config " << c.num_nodes << ' ' << c.num_items << ' '
       << c.cache_capacity << ' ' << (c.sticky_replicas ? 1 : 0) << ' '
       << c.mu << ' ' << c.reaction_scale << ' '
       << (c.mandate_routing ? 1 : 0) << ' ' << c.utility_spec << '\n';
}

void write_counters_record(TextOut& body, const StoreCounters& k) {
  body << "counters " << k.events_applied << ' ' << k.events_malformed << ' '
       << k.contacts << ' ' << k.requests_created << ' '
       << k.immediate_fulfillments << ' ' << k.fulfillments << ' '
       << k.requests_pending << ' ' << k.mandates_created << ' '
       << k.replicas_written << ' ' << k.mandates_outstanding << ' '
       << k.total_gain << ' ' << k.delay_sum << '\n';
}

void write_faults_record(TextOut& body, const fault::FaultCounters& f) {
  body << "faults " << f.crashes << ' ' << f.replicas_lost << ' '
       << f.mandates_lost << ' ' << f.requests_lost << '\n';
}

void write_node_records(TextOut& body, std::uint64_t id,
                        const StateImage::NodeImage& ni) {
  body << "node " << id << ' ' << ni.server_meetings << ' ' << ni.sticky
       << '\n';
  body << "cache " << ni.cache.size();
  for (ItemId item : ni.cache) body << ' ' << item;
  body << '\n';
  body << "mandates " << ni.mandates.size();
  for (const auto& [item, count] : ni.mandates) {
    body << ' ' << item << ' ' << count;
  }
  body << '\n';
  body << "pending " << ni.pending.size();
  for (const core::PendingRequest& req : ni.pending) {
    body << ' ' << req.item << ' ' << req.created << ' '
         << req.queries_at_creation;
  }
  body << '\n';
}

void write_delays_record(TextOut& body, const std::vector<double>& d) {
  body << "delays " << d.size();
  for (double v : d) body << ' ' << v;
  body << '\n';
}

/// Bytes to reserve for the writers' text, from typical record widths,
/// so a real snapshot is written with one allocation. A short guess only
/// costs the string a regrowth; reserved pages that stay untouched are
/// never made resident.
std::size_t reserve_bytes(const StoreConfig& config,
                          const std::vector<double>& delays) {
  return 512 + config.utility_spec.size() + 25 * delays.size();
}
std::size_t reserve_bytes(const StateImage::NodeImage& ni) {
  return 64 + 8 * ni.cache.size() + 16 * ni.mandates.size() +
         32 * ni.pending.size();
}

/// Appends "checksum <hex>\nend\n" and returns the body checksum.
std::uint64_t seal_body(TextOut& out) {
  const std::uint64_t sum = engine::fnv1a64(out.str());
  out << "checksum ";
  out.hex16(sum) << '\n' << "end\n";
  return sum;
}

/// The whole snapshot file as text; returns the body checksum.
std::uint64_t encode_image(const StateImage& image, std::string& text) {
  std::size_t bytes = reserve_bytes(image.config, image.recent_delays);
  for (const StateImage::NodeImage& ni : image.nodes) {
    bytes += reserve_bytes(ni);
  }
  TextOut body(bytes);
  body << kMagic << '\n';
  write_config_record(body, image.config);
  body << "seed " << image.seed << '\n';
  body << "state " << image.version << ' ' << image.seq << ' ' << image.clock
       << '\n';
  write_counters_record(body, image.counters);
  write_faults_record(body, image.faults);
  body << "nodes " << image.nodes.size() << '\n';
  for (std::size_t n = 0; n < image.nodes.size(); ++n) {
    write_node_records(body, n, image.nodes[n]);
  }
  write_delays_record(body, image.recent_delays);
  const std::uint64_t sum = seal_body(body);
  text = std::move(body.str());
  return sum;
}

/// The whole delta file as text; returns the body checksum.
std::uint64_t encode_delta(const StateDelta& delta, std::string& text) {
  std::size_t bytes = reserve_bytes(delta.config, delta.recent_delays);
  for (const auto& entry : delta.nodes) bytes += reserve_bytes(entry.second);
  TextOut body(bytes);
  body << kDeltaMagic << '\n';
  body << "parent " << delta.parent_checksum << '\n';
  write_config_record(body, delta.config);
  body << "seed " << delta.seed << '\n';
  body << "state " << delta.version << ' ' << delta.seq << ' ' << delta.clock
       << '\n';
  write_counters_record(body, delta.counters);
  write_faults_record(body, delta.faults);
  body << "nodes " << delta.nodes.size() << '\n';
  for (const auto& [id, ni] : delta.nodes) {
    write_node_records(body, id, ni);
  }
  write_delays_record(body, delta.recent_delays);
  const std::uint64_t sum = seal_body(body);
  text = std::move(body.str());
  return sum;
}

/// Pass 1 of every reader: verify the checksum and trailer of the whole
/// file and return a view of the body they seal, so a torn or bit-flipped
/// file is rejected before a field is parsed. The file must end in
/// exactly "checksum <16 lowercase hex digits>\nend\n".
std::string_view checked_body(std::string_view text, std::uint64_t* checksum) {
  constexpr std::string_view kChecksum = "checksum ";
  constexpr std::string_view kEnd = "\nend\n";
  constexpr std::size_t kDigits = 16;
  const std::size_t at = text.rfind("\nchecksum ");
  if (at == std::string_view::npos) {
    throw util::IoError("snapshot: missing checksum line (torn file?)");
  }
  const std::string_view body = text.substr(0, at + 1);
  const std::string_view digits = text.substr(body.size() + kChecksum.size());
  std::uint64_t stored = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), stored, 16);
  if (ec != std::errc() || end != digits.data() + kDigits ||
      digits.substr(0, kDigits).find_first_not_of("0123456789abcdef") !=
          std::string_view::npos) {
    throw util::IoError("snapshot: malformed checksum line");
  }
  if (engine::fnv1a64(body) != stored) {
    throw util::IoError("snapshot: checksum mismatch (corrupt file)");
  }
  if (digits.substr(kDigits) != kEnd) {
    throw util::IoError("snapshot: missing end trailer, or bytes after it");
  }
  if (checksum) *checksum = stored;
  return body;
}

void expect_magic(LineCursor& lines, std::string_view magic,
                  const char* what) {
  if (lines.next_line() != magic) {
    throw util::IoError(std::string("snapshot: bad magic (not a ") + what +
                        ")");
  }
}

void read_config_record(LineCursor& lines, StoreConfig& config) {
  Fields r(lines.next_line(), "config");
  config.num_nodes = r.get<NodeId>("num_nodes");
  config.num_items = r.get<ItemId>("num_items");
  config.cache_capacity = r.get<int>("cache_capacity");
  config.sticky_replicas = r.flag("sticky_replicas");
  config.mu = r.get<double>("mu");
  config.reaction_scale = r.get<double>("reaction_scale");
  config.mandate_routing = r.flag("mandate_routing");
  config.utility_spec = r.rest("utility_spec");
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    throw util::IoError(std::string("snapshot: ") + e.what());
  }
}

/// The "seed" and "state" records, which images and deltas share.
void read_seed_and_state(LineCursor& lines, std::uint64_t& seed,
                         std::uint64_t& version, std::uint64_t& seq,
                         Slot& clock) {
  {
    Fields r(lines.next_line(), "seed");
    seed = r.get<std::uint64_t>("seed");
    r.finish();
  }
  Fields r(lines.next_line(), "state");
  version = r.get<std::uint64_t>("version");
  seq = r.get<std::uint64_t>("seq");
  clock = r.get<Slot>("clock");
  r.finish();
}

void read_counters_record(LineCursor& lines, StoreCounters& k) {
  Fields r(lines.next_line(), "counters");
  k.events_applied = r.get<std::uint64_t>("events_applied");
  k.events_malformed = r.get<std::uint64_t>("events_malformed");
  k.contacts = r.get<std::uint64_t>("contacts");
  k.requests_created = r.get<std::uint64_t>("requests_created");
  k.immediate_fulfillments = r.get<std::uint64_t>("immediate_fulfillments");
  k.fulfillments = r.get<std::uint64_t>("fulfillments");
  k.requests_pending = r.get<std::uint64_t>("requests_pending");
  k.mandates_created = r.get<long>("mandates_created");
  k.replicas_written = r.get<long>("replicas_written");
  k.mandates_outstanding = r.get<long>("mandates_outstanding");
  k.total_gain = r.get<double>("total_gain");
  k.delay_sum = r.get<double>("delay_sum");
  r.finish();
}

void read_faults_record(LineCursor& lines, fault::FaultCounters& f) {
  Fields r(lines.next_line(), "faults");
  f.crashes = r.get<std::uint64_t>("crashes");
  f.replicas_lost = r.get<std::uint64_t>("replicas_lost");
  f.mandates_lost = r.get<long>("mandates_lost");
  f.requests_lost = r.get<std::uint64_t>("requests_lost");
  r.finish();
}

/// Reads one node/cache/mandates/pending block; returns the node id.
std::uint64_t read_node_records(LineCursor& lines,
                                StateImage::NodeImage& ni) {
  std::uint64_t id = 0;
  {
    Fields r(lines.next_line(), "node");
    id = r.get<std::uint64_t>("node id");
    ni.server_meetings = r.get<long>("server_meetings");
    ni.sticky = r.get<std::int64_t>("sticky");
    r.finish();
  }
  // Declared counts are untrusted: each vector reserves at most what
  // its line can hold and grows as its entries parse, so a hostile count
  // fails at the first missing field instead of allocating up front.
  {
    Fields r(lines.next_line(), "cache");
    const auto count = r.get<std::size_t>("cache size");
    ni.cache.reserve(r.capacity_for(count, 1));
    for (std::size_t k = 0; k < count; ++k) {
      ni.cache.push_back(r.get<ItemId>("cache item"));
    }
    r.finish();
  }
  {
    Fields r(lines.next_line(), "mandates");
    const auto count = r.get<std::size_t>("mandate entries");
    ni.mandates.reserve(r.capacity_for(count, 2));
    for (std::size_t k = 0; k < count; ++k) {
      const auto item = r.get<ItemId>("mandate item");
      ni.mandates.emplace_back(item, r.get<long>("mandate count"));
    }
    r.finish();
  }
  {
    Fields r(lines.next_line(), "pending");
    const auto count = r.get<std::size_t>("pending entries");
    ni.pending.reserve(r.capacity_for(count, 3));
    for (std::size_t k = 0; k < count; ++k) {
      core::PendingRequest req;
      req.item = r.get<ItemId>("pending item");
      req.created = r.get<Slot>("pending created");
      req.queries_at_creation = r.get<long>("pending queries");
      ni.pending.push_back(req);
    }
    r.finish();
  }
  return id;
}

/// The "delays" record, which closes the body: nothing may follow it.
void read_delays_record(LineCursor& lines, std::vector<double>& delays) {
  Fields r(lines.next_line(), "delays");
  const auto count = r.get<std::size_t>("delay count");
  delays.reserve(r.capacity_for(count, 1));
  for (std::size_t k = 0; k < count; ++k) {
    delays.push_back(r.get<double>("delay"));
  }
  r.finish();
  if (!lines.done()) {
    throw util::IoError("snapshot: unexpected record after 'delays'");
  }
}

/// The "nodes" record's count, which the config record bounds: an image
/// holds exactly config.num_nodes nodes, a delta at most that many.
std::size_t read_nodes_count(LineCursor& lines, const StoreConfig& config,
                             bool exact) {
  Fields r(lines.next_line(), "nodes");
  const auto count = r.get<std::size_t>("nodes");
  r.finish();
  if (exact ? count != config.num_nodes : count > config.num_nodes) {
    throw util::IoError("snapshot: node count " + std::to_string(count) +
                        (exact ? " != " : " > ") + "config num_nodes " +
                        std::to_string(config.num_nodes));
  }
  return count;
}

StateImage parse_image(std::string_view text, std::uint64_t* checksum) {
  LineCursor lines(checked_body(text, checksum));
  expect_magic(lines, kMagic, "replicationd snapshot");
  StateImage image;
  read_config_record(lines, image.config);
  read_seed_and_state(lines, image.seed, image.version, image.seq,
                      image.clock);
  read_counters_record(lines, image.counters);
  read_faults_record(lines, image.faults);
  const std::size_t num_nodes =
      read_nodes_count(lines, image.config, /*exact=*/true);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (read_node_records(lines, image.nodes.emplace_back()) != n) {
      throw util::IoError("snapshot: node records out of order");
    }
  }
  read_delays_record(lines, image.recent_delays);
  return image;
}

StateDelta parse_delta(std::string_view text, std::uint64_t* checksum) {
  LineCursor lines(checked_body(text, checksum));
  expect_magic(lines, kDeltaMagic, "replicationd delta");
  StateDelta delta;
  {
    Fields r(lines.next_line(), "parent");
    delta.parent_checksum = r.get<std::uint64_t>("parent checksum");
    r.finish();
  }
  read_config_record(lines, delta.config);
  read_seed_and_state(lines, delta.seed, delta.version, delta.seq,
                      delta.clock);
  read_counters_record(lines, delta.counters);
  read_faults_record(lines, delta.faults);
  const std::size_t num_nodes =
      read_nodes_count(lines, delta.config, /*exact=*/false);
  std::uint64_t prev_id = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& [id, ni] = delta.nodes.emplace_back();
    const std::uint64_t got = read_node_records(lines, ni);
    if (got >= delta.config.num_nodes) {
      throw util::IoError("snapshot: delta node id out of range");
    }
    if (n > 0 && got <= prev_id) {
      throw util::IoError("snapshot: delta node records not ascending");
    }
    id = static_cast<NodeId>(got);
    prev_id = got;
  }
  read_delays_record(lines, delta.recent_delays);
  return delta;
}

}  // namespace

std::uint64_t write_image(std::ostream& out, const StateImage& image) {
  std::string text;
  const std::uint64_t checksum = encode_image(image, text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return checksum;
}

StateImage read_image(std::istream& in, std::uint64_t* checksum) {
  return parse_image(detail::read_text_stream(in), checksum);
}

std::uint64_t save_image(const std::string& path, const StateImage& image) {
  std::string text;
  const std::uint64_t checksum = encode_image(image, text);
  detail::write_text_file(path, text);
  return checksum;
}

StateImage load_image(const std::string& path, std::uint64_t* checksum) {
  return parse_image(detail::read_text_file(path), checksum);
}

std::uint64_t write_delta(std::ostream& out, const StateDelta& delta) {
  std::string text;
  const std::uint64_t checksum = encode_delta(delta, text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return checksum;
}

StateDelta read_delta(std::istream& in, std::uint64_t* checksum) {
  return parse_delta(detail::read_text_stream(in), checksum);
}

std::uint64_t save_delta(const std::string& path, const StateDelta& delta) {
  std::string text;
  const std::uint64_t checksum = encode_delta(delta, text);
  detail::write_text_file(path, text);
  return checksum;
}

StateDelta load_delta(const std::string& path, std::uint64_t* checksum) {
  return parse_delta(detail::read_text_file(path), checksum);
}

void apply_delta(StateImage& image, const StateDelta& delta) {
  if (!config_equal(image.config, delta.config)) {
    throw util::IoError("snapshot: delta config does not match base");
  }
  if (image.seed != delta.seed) {
    throw util::IoError("snapshot: delta seed does not match base");
  }
  if (delta.seq < image.seq) {
    throw util::IoError("snapshot: delta seq regresses past base");
  }
  for (const auto& [id, ni] : delta.nodes) {
    if (id >= image.nodes.size()) {
      throw util::IoError("snapshot: delta node id out of range");
    }
  }
  image.version = delta.version;
  image.seq = delta.seq;
  image.clock = delta.clock;
  image.counters = delta.counters;
  image.faults = delta.faults;
  for (const auto& [id, ni] : delta.nodes) {
    image.nodes[id] = ni;
  }
  image.recent_delays = delta.recent_delays;
}

}  // namespace impatience::service
