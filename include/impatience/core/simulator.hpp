// The discrete-time, discrete-event simulator of Section 6.1: given any
// contact trace, it drives demand arrival, request fulfilment at node
// meetings, and the replication policy, recording observed gains.
#pragma once

#include <functional>
#include <optional>
#include <span>

#include "impatience/alloc/allocation.hpp"
#include "impatience/alloc/oracle.hpp"
#include "impatience/alloc/welfare.hpp"
#include "impatience/core/demand.hpp"
#include "impatience/core/metrics.hpp"
#include "impatience/core/policy.hpp"
#include "impatience/fault/fault.hpp"
#include "impatience/trace/contact.hpp"
#include "impatience/trace/event_source.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/utility/delay_utility.hpp"
#include "impatience/utility/utility_set.hpp"

namespace impatience::core {

/// Node roles. Defaults to pure P2P: every trace node is both server and
/// client. For the dedicated case pass disjoint server/client lists.
struct Population {
  std::vector<NodeId> servers;
  std::vector<NodeId> clients;

  static Population pure_p2p(NodeId num_nodes);
  static Population dedicated(NodeId num_servers, NodeId num_clients);
};

/// Which time-advance loop drives the run.
enum class SimKernel {
  /// Step every slot of the trace (the reference loop of Section 6.1).
  /// Bit-locked: identical seeds give identical results release to
  /// release; the fault model's per-slot formulation is defined on it.
  slot_stepped,
  /// Classical next-event time advance: jump between "interesting" slots
  /// (meetings, metrics sample ticks, demand_schedule switches, scheduled
  /// node crashes) and batch the demand of each empty gap as one
  /// Poisson(gap * rate) draw with alias-sampled (item, node) pairs and
  /// uniform creation slots. Fault-active runs ride the same jump loop:
  /// per-slot crash hazards become per-node geometric-skip draws
  /// (fault::FaultPlan::next_node_crash) and per-meeting fault decisions
  /// are only drawn at slots that actually have meetings, which is all
  /// the slot-stepped loop does anyway. Distribution-identical to
  /// slot_stepped (empty-slot requests only age until the next meeting;
  /// the geometric gap is exactly the waiting time of the per-slot
  /// Bernoulli hazard) but a different use of the RNG streams, so
  /// results match statistically, not bit for bit.
  event_driven,
};

/// Display name ("slot" / "event"), e.g. for manifests and --kernel.
const char* kernel_name(SimKernel kernel) noexcept;

/// How sticky seeding and the random cache fill draw items when no
/// initial placement is given.
enum class InitSampling {
  /// Draw a uniform item, retry on duplicates (and a uniform eviction
  /// victim for sticky seeding). The bit-locked reference: the golden
  /// locks pin this stream use.
  rejection,
  /// Draw from util::AliasTable tables over the eligible items — the
  /// remaining absent items for the fill (no retries, so the per-slot
  /// cost no longer decays with cache occupancy), the cached items for
  /// the sticky eviction victim. Same uniform law as `rejection`, but a
  /// different use of the RNG stream, so runs are not bit-comparable
  /// across the two modes.
  alias,
};

struct SimOptions {
  int cache_capacity = 5;  ///< rho
  /// Time-advance kernel; see SimKernel. The slot-stepped loop stays the
  /// default and the bit-locked reference (the repo's *_naive tradition).
  SimKernel kernel = SimKernel::slot_stepped;
  /// Pin one immortal replica of item i on server (i mod |S|) — the
  /// paper's anti-absorption measure, used by replication policies.
  bool sticky_replicas = true;
  /// Initial cache contents (server index -> items). Items beyond the
  /// placement (e.g. the sticky pins) are inserted on top. When absent,
  /// caches are filled with distinct uniformly random items.
  std::optional<alloc::Placement> initial_placement;
  /// Item-draw scheme for sticky seeding and the random fill; the
  /// rejection default is the bit-locked reference.
  InitSampling init_sampling = InitSampling::rejection;
  MetricsConfig metrics{};
  /// Evaluated on sampled per-item replica counts to produce the
  /// expected-welfare series (Fig. 3a); leave empty to skip.
  std::function<double(std::span<const int>)> expected_welfare;
  /// Incremental expected-welfare probe (Section 5.1 / Fig. 3a under
  /// heterogeneous rates): when set, the simulator clears the oracle's
  /// tracked placement, feeds it every cache change through the change
  /// listeners, and samples oracle->welfare_cached() into
  /// expected_series at each metrics tick — O(changed rows) per tick
  /// instead of the O(items x clients) from-scratch recompute an
  /// `expected_welfare` functor pays. The oracle must be built over this
  /// run's servers and clients (same order, e.g. via
  /// core::WelfareProbe) and the scenario's item count; it must outlive
  /// the call and is left tracking the final cache state. Mutually
  /// exclusive with expected_welfare.
  alloc::MarginalOracle* welfare_probe = nullptr;
  /// Requests still pending when the trace ends contribute h(final age)
  /// to total_gain ("censoring"); without this, allocations that starve
  /// an item (e.g. DOM under a cost utility) would look spuriously good.
  bool censor_pending_at_end = true;
  /// Mid-run popularity changes (the dynamic-demand setting of the
  /// paper's Section 7): at each listed slot the demand process switches
  /// to the given catalog. Catalogs must have the same item count as the
  /// main one; entries must be sorted by slot. Reactive policies adapt on
  /// the fly; fixed allocations do not.
  std::vector<std::pair<Slot, Catalog>> demand_schedule;
  /// Per-item node-popularity profile pi_{i,n} (Section 3.3): pi[i][n]
  /// weighs client index n's share of item i's demand (rows normalized
  /// internally). Absent = uniform, pi_{i,n} = 1/|C|. Applies across
  /// demand_schedule changes.
  std::optional<alloc::PopularityProfile> popularity;
  /// Invoked on every fulfilment with (item, client, delay in slots,
  /// recorded gain); immediate own-cache hits report delay 0. This is
  /// the hook the Section-7 feedback loop hangs off (see
  /// utility::fit_delay_utility and examples/learn_impatience).
  std::function<void(ItemId, NodeId, double, double)> on_fulfillment;
  /// Deterministic fault injection (docs/robustness.md). Inert by
  /// default. All fault decisions draw from the plan's own stream
  /// (faults.seed), never from the simulation RNG, so an all-zero config
  /// is bit-identical to a run with no fault plan at all, and a seeded
  /// faulty run is bit-identical across engine thread counts.
  fault::FaultConfig faults{};
  /// Cooperative cancellation: checked once per slot in the event loop.
  /// When cancelled, simulate() throws util::CancelledError — the
  /// engine's deadline watchdog maps it to ErrorKind::timeout.
  const util::CancellationToken* cancel = nullptr;
};

/// Runs one simulation trial with per-item delay-utilities h_i. The delay
/// fed to the utility is (fulfilment slot - creation slot + 1): the
/// discrete-time contact model charges at least one slot per
/// meeting-based fulfilment (Lemma 1). Immediate own-cache hits at
/// request creation gain h_i(0+).
SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng);

/// Single shared delay-utility for all items.
SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng);

/// Pure-P2P convenience overloads covering all trace nodes.
SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng);
SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng);

/// Streaming overloads: drive the run from a trace::EventSource instead
/// of a materialized ContactTrace. Both kernels consume the feed one
/// slot batch at a time, so peak memory is O(largest slot batch) rather
/// than O(total events). The source is single-pass and is left drained.
/// Bit-identity: a GeneratedSource seeded like the generator run (or a
/// MaterializedSource over the generated trace, or a PagedTraceReader
/// over its file) produces results bit-identical to the materialized
/// overloads for the same simulation rng, kernel and fault config.
SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng);

SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng);

/// Pure-P2P convenience overloads covering all source nodes.
SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng);
SimulationResult simulate(trace::EventSource& source, const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng);

}  // namespace impatience::core
