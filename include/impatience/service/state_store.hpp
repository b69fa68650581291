// replicationd's versioned state store: the live global-cache state of a
// long-running QCR deployment, behind one mutex, with a monotonic version
// per mutation and copy-on-read snapshots.
//
// Design (docs/service.md):
//  * The store owns the core machinery — per-node `core::Cache` +
//    `core::MandateBag` + pending-request lists, driven online by a
//    `core::QcrPolicy` — and applies protocol events (contacts, requests,
//    crashes, clock advances) one at a time under the store mutex.
//  * A contact runs `core::process_meeting`, the same Section 6.1 meeting
//    protocol both simulator kernels run; the store only adds its own
//    accounting through the fulfilment sink. The differential test
//    (tests/service/meeting_differential_test.cpp) checks the two
//    consumers against each other. Every node is a client and a server,
//    so own-cache hits happen: the store refuses utilities with
//    unbounded h(0+), which cannot value a zero-delay fulfilment.
//  * `version()` increments on every state mutation (event application,
//    plus one tick per cache replica written or evicted, via the cache
//    change listeners). Monitors read it lock-free via the atomic
//    mirror, so "versions/sec" is a cheap liveness gauge.
//  * `image()` is the copy-on-read snapshot: a plain-data copy of the
//    entire logical state taken under the lock; serialization and disk
//    I/O then run outside it, so a snapshot never stalls ingest for
//    longer than the copy.
//  * Determinism contract: every event draws from an RNG seeded as
//    child_seed(seed, "service-apply", seq) — a pure function of the
//    store seed and the event's sequence number. Hence a run interrupted
//    at any point and resumed from a snapshot (which records seq) applies
//    the identical stream identically: warm restart is state-identical
//    to an uninterrupted run, byte for byte in the serialized image.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "impatience/core/node.hpp"
#include "impatience/core/policy.hpp"
#include "impatience/fault/fault.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::service {

/// One classified countable line of the ingest stream. Malformed lines
/// occupy a sequence slot (the seq-cursor contract) but carry no event.
struct IngestLine {
  bool malformed = false;
  Event event;
};

/// Scenario parameters of a store; persisted into snapshots and verified
/// on restore (a snapshot from a different scenario is refused).
struct StoreConfig {
  NodeId num_nodes = 50;
  ItemId num_items = 50;
  int cache_capacity = 5;
  /// Pin item i sticky on server i for i < min(nodes, items) — the
  /// paper's anti-absorption measure (Section 6.1).
  bool sticky_replicas = true;
  /// Delay-utility spec (utility::make_utility grammar), the basis of
  /// both the QCR reaction psi and the recorded gains.
  std::string utility_spec = "step:tau=10";
  /// Assumed per-pair meeting rate for psi (the paper's mu).
  double mu = 0.05;
  /// Reaction scale (Property 2 fixes psi up to a constant).
  double reaction_scale = 1.0;
  /// Route mandates toward replica holders (Section 5.3).
  bool mandate_routing = true;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Monotonic service counters (the logical part of /metrics). All derive
/// from applied events only, so they survive warm restart exactly.
struct StoreCounters {
  std::uint64_t events_applied = 0;      ///< seq
  std::uint64_t events_malformed = 0;    ///< skipped frames (ingest-side)
  std::uint64_t contacts = 0;
  std::uint64_t requests_created = 0;
  std::uint64_t immediate_fulfillments = 0;  ///< own-cache hits
  std::uint64_t fulfillments = 0;            ///< served at meetings
  std::uint64_t requests_pending = 0;        ///< open requests right now
  long mandates_created = 0;
  long replicas_written = 0;
  long mandates_outstanding = 0;
  double total_gain = 0.0;
  double delay_sum = 0.0;  ///< slots, over meeting fulfilments

  /// Requests served, the /metrics headline.
  std::uint64_t requests_served() const noexcept {
    return immediate_fulfillments + fulfillments;
  }
};

/// Copy-on-read snapshot of the full logical state. Plain data: taking
/// one never blocks on I/O, serializing one never needs the store lock.
struct StateImage {
  static constexpr std::uint32_t kFormatVersion = 1;

  StoreConfig config;
  std::uint64_t seed = 0;
  std::uint64_t version = 0;
  std::uint64_t seq = 0;
  Slot clock = 0;
  StoreCounters counters;
  fault::FaultCounters faults;

  struct NodeImage {
    long server_meetings = 0;
    /// Sticky item or -1.
    std::int64_t sticky = -1;
    /// Cache contents in slot order (order matters: random replacement
    /// picks victims by slot index).
    std::vector<ItemId> cache;
    /// (item, count) pairs with count > 0.
    std::vector<std::pair<ItemId, long>> mandates;
    std::vector<core::PendingRequest> pending;
  };
  std::vector<NodeImage> nodes;

  /// Recent fulfilment delays (slots), oldest first — the p50/p99 service
  /// latency window.
  std::vector<double> recent_delays;
};

/// Incremental snapshot (docs/service.md "Delta snapshots"): the store
/// scalars — version/seq/clock, counters, faults, the delay window —
/// plus full NodeImages of exactly the nodes dirtied since the previous
/// checkpoint. `parent_checksum` is the body checksum of the chain
/// element this delta extends (base snapshot or previous delta); the
/// restore path verifies the link before applying.
struct StateDelta {
  static constexpr std::uint32_t kFormatVersion = 1;

  StoreConfig config;
  std::uint64_t seed = 0;
  std::uint64_t parent_checksum = 0;  ///< filled in by the chain writer
  std::uint64_t version = 0;
  std::uint64_t seq = 0;
  Slot clock = 0;
  StoreCounters counters;
  fault::FaultCounters faults;
  /// (node id, full image) for each dirty node, ascending by id.
  std::vector<std::pair<NodeId, StateImage::NodeImage>> nodes;
  std::vector<double> recent_delays;
};

/// Serializes an image as the versioned snapshot format
/// ("impatience.replicationd_snapshot/1", docs/service.md): ASCII lines,
/// deterministic float round-trip, FNV-1a checksum line, `end` trailer.
/// Returns the body checksum (the chain manifest records it).
std::uint64_t write_image(std::ostream& out, const StateImage& image);

/// Parses a snapshot; throws util::IoError on syntax, checksum or
/// truncation damage (a torn file never half-loads). When `checksum` is
/// non-null it receives the verified body checksum.
StateImage read_image(std::istream& in, std::uint64_t* checksum = nullptr);

/// Crash-safe snapshot write via engine::atomic_write_file: temp + fsync
/// + rename, so a crash mid-snapshot leaves the previous file intact.
/// Returns the body checksum.
std::uint64_t save_image(const std::string& path, const StateImage& image);

/// Loads a snapshot file; throws util::IoError when missing or damaged.
StateImage load_image(const std::string& path,
                      std::uint64_t* checksum = nullptr);

/// Delta-file serialization ("impatience.replicationd_delta/1"): same
/// ASCII + checksum + trailer discipline as full snapshots. Returns the
/// body checksum (the next delta's parent link).
std::uint64_t write_delta(std::ostream& out, const StateDelta& delta);
StateDelta read_delta(std::istream& in, std::uint64_t* checksum = nullptr);
std::uint64_t save_delta(const std::string& path, const StateDelta& delta);
StateDelta load_delta(const std::string& path,
                      std::uint64_t* checksum = nullptr);

/// Replays `delta` on top of `image` in place: scalars are overwritten,
/// dirty nodes replaced. Throws util::IoError when the delta does not
/// extend this image (config/seed mismatch, seq regression, node id out
/// of range) — a spliced chain never half-applies.
void apply_delta(StateImage& image, const StateDelta& delta);

class StateStore {
 public:
  /// Fresh store: seeded sticky pins + random cache fill, version 0.
  StateStore(const StoreConfig& config, std::uint64_t seed);
  /// Warm restart: rebuilds the exact state of `image` (config must
  /// match `config`; throws std::invalid_argument otherwise).
  StateStore(const StoreConfig& config, std::uint64_t seed,
             const StateImage& image);
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  const StoreConfig& config() const noexcept { return config_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Lock-free monotonic version (mutation counter) — monitor-friendly.
  std::uint64_t version() const noexcept {
    return version_mirror_.load(std::memory_order_acquire);
  }

  /// Applies one protocol event. Kind::hello and Kind::quit are no-ops
  /// here (stream control is the ingest loop's business). Returns the
  /// store version after the event.
  std::uint64_t apply(const Event& event);

  /// Consumes one unparseable countable line: advances the seq cursor
  /// (a stream position must mean the same thing on every replay, so
  /// malformed lines occupy a sequence number too) and counts it in
  /// events_malformed. Returns the store version after the line.
  std::uint64_t apply_malformed();

  /// Applies a run of countable lines in order under one lock acquisition
  /// — byte-identical to calling apply / apply_malformed per line, for
  /// any split of the stream into batches. Returns the store version
  /// after the last line.
  std::uint64_t apply_batch(std::span<const IngestLine> lines);

  /// Copy-on-read snapshot of the whole logical state.
  StateImage image() const;
  /// image() + crash-safe write (engine::atomic_write_file).
  void save_snapshot(const std::string& path) const;

  /// Full image that also resets per-node dirty tracking, atomically —
  /// the snapshot chain's base checkpoints go through this so the next
  /// delta is relative to exactly this image.
  StateImage checkpoint_image();
  /// Dirty-node incremental image since the last checkpoint_image /
  /// take_delta (or construction); resets the dirty set. The caller
  /// must persist the delta or the change information is lost.
  StateDelta take_delta();
  /// Nodes currently dirty (monitoring/test hook).
  std::size_t dirty_node_count() const;

  StoreCounters counters() const;
  fault::FaultCounters faults() const;
  Slot clock() const;
  std::uint64_t seq() const;

  /// Per-item global replica counts (copy).
  std::vector<long> replica_counts() const;

  /// p-th percentile of the recent-fulfilment-delay window (slots);
  /// 0 when no fulfilment happened yet.
  double delay_percentile(double p) const;

  /// The conservation invariant, graceful under churn:
  ///   mandates_created == replicas_written + outstanding + lost
  bool mandate_conservation_ok() const;

  /// Builds a store from a snapshot file (load_image + restore).
  static std::unique_ptr<StateStore> restore(const StoreConfig& config,
                                             std::uint64_t seed,
                                             const std::string& path);

 private:
  void init_fresh();
  void init_from_image(const StateImage& image);
  void attach_listeners();
  void bump_locked(std::uint64_t n = 1);
  void apply_line_locked(const IngestLine& line);
  void apply_event_locked(const Event& event, util::Rng& rng);
  void apply_clock(Slot slot);
  void apply_contact(NodeId a, NodeId b, util::Rng& rng);
  void apply_request(NodeId node, ItemId item);
  void apply_crash(NodeId node);
  void sync_policy_counters_locked();
  void refresh_outstanding_locked() const;
  void record_delay_locked(double delay);
  void mark_dirty_locked(NodeId node);
  StateImage::NodeImage node_image_locked(NodeId node) const;
  StateImage image_locked() const;

  static void cache_listener(void* context, ItemId item, int delta);
  static void fulfillment_sink(void* context, ItemId item, NodeId client,
                               double delay, double gain, long queries);

  const StoreConfig config_;
  const std::uint64_t seed_;
  /// The config's utility for every item, the form process_meeting takes.
  const utility::UtilitySet utilities_;
  std::unique_ptr<core::QcrPolicy> policy_;

  mutable std::mutex mu_;
  std::vector<core::Node> nodes_;
  std::vector<long> replica_counts_;
  std::uint64_t version_ = 0;
  std::atomic<std::uint64_t> version_mirror_{0};
  std::uint64_t seq_ = 0;
  Slot clock_ = 0;
  /// counters_.mandates_outstanding is refreshed lazily (an O(nodes)
  /// sweep) on the read paths instead of per event — mutable so const
  /// getters can refresh under the lock they already hold.
  mutable StoreCounters counters_;
  fault::FaultCounters faults_;
  /// Offsets folding the (process-local, monotone) QcrPolicy counters
  /// into restart-surviving totals: total = base + policy.counter().
  long mandates_created_base_ = 0;
  long replicas_written_base_ = 0;

  /// Ring of recent fulfilment delays (slots) for p50/p99.
  static constexpr std::size_t kDelayWindow = 4096;
  std::vector<double> recent_delays_;  // chronological, <= kDelayWindow

  /// Dirty-since-last-checkpoint tracking for delta snapshots.
  std::vector<std::uint8_t> dirty_;
  std::vector<NodeId> dirty_list_;
};

}  // namespace impatience::service
