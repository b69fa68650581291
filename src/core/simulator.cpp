#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>

#include "impatience/core/meeting.hpp"
#include "impatience/core/simulator.hpp"
#include "impatience/stats/timeseries.hpp"

namespace impatience::core {

const char* kernel_name(SimKernel kernel) noexcept {
  return kernel == SimKernel::event_driven ? "event" : "slot";
}

Population Population::pure_p2p(NodeId num_nodes) {
  Population p;
  p.servers.resize(num_nodes);
  std::iota(p.servers.begin(), p.servers.end(), 0);
  p.clients = p.servers;
  return p;
}

Population Population::dedicated(NodeId num_servers, NodeId num_clients) {
  Population p;
  p.servers.resize(num_servers);
  std::iota(p.servers.begin(), p.servers.end(), 0);
  p.clients.resize(num_clients);
  std::iota(p.clients.begin(), p.clients.end(), num_servers);
  return p;
}

namespace {

/// Pins `item` as the cache's sticky replica, evicting a random
/// non-sticky item if the cache is full and lacks it.
void force_pin_sticky(Cache& cache, ItemId item, util::Rng& rng) {
  if (!cache.contains(item) && cache.full()) {
    // Evict a uniformly random victim to make room (none is sticky yet).
    const auto& items = cache.items();
    cache.erase(items[rng.uniform_index(items.size())]);
  }
  cache.pin_sticky(item);
}

void fill_random(Cache& cache, ItemId num_items, util::Rng& rng) {
  // Distinct uniformly random items into the remaining slots.
  while (!cache.full() && cache.size() < static_cast<int>(num_items)) {
    const auto item = static_cast<ItemId>(rng.uniform_index(num_items));
    if (!cache.contains(item)) {
      cache.insert_random_replace(item, rng);
    }
  }
}

/// Change-listener context of one server cache: updates the global
/// replica counts and, when the incremental welfare probe is on, mirrors
/// the delta into the oracle's tracked placement.
struct CacheSubscriber {
  std::vector<int>* counts = nullptr;
  alloc::MarginalOracle* probe = nullptr;  // may be null
  NodeId server_index = 0;                 // oracle server row
};

/// Throws std::invalid_argument for any input simulate() cannot run.
void validate(const trace::ContactTrace& trace, const Catalog& catalog,
              const utility::UtilitySet& utilities,
              const Population& population, const SimOptions& options) {
  const NodeId num_nodes = trace.num_nodes();
  const auto num_items = catalog.num_items();
  if (utilities.size() != num_items) {
    throw std::invalid_argument("simulate: utility set size != item count");
  }
  if (options.cache_capacity <= 0) {
    throw std::invalid_argument("simulate: cache capacity must be > 0");
  }
  if (options.metrics.sample_every <= 0) {
    throw std::invalid_argument("simulate: metrics.sample_every must be > 0");
  }
  const auto num_servers = static_cast<NodeId>(population.servers.size());
  if (num_servers == 0 || population.clients.empty()) {
    throw std::invalid_argument("simulate: empty population");
  }
  for (NodeId n : population.servers) {
    if (n >= num_nodes) {
      throw std::invalid_argument("simulate: server id outside trace");
    }
  }
  for (NodeId n : population.clients) {
    if (n >= num_nodes) {
      throw std::invalid_argument("simulate: client id outside trace");
    }
  }
  if (options.welfare_probe && options.expected_welfare) {
    throw std::invalid_argument(
        "simulate: welfare_probe and expected_welfare are mutually exclusive");
  }
  if (const alloc::MarginalOracle* probe = options.welfare_probe) {
    if (probe->num_items() != num_items ||
        probe->num_servers() != num_servers) {
      throw std::invalid_argument(
          "simulate: welfare_probe dimensions do not match the scenario");
    }
  }
  if (options.initial_placement) {
    const alloc::Placement& p = *options.initial_placement;
    if (p.num_servers() != num_servers || p.num_items() != num_items ||
        p.capacity_per_server() > options.cache_capacity) {
      throw std::invalid_argument(
          "simulate: initial placement incompatible with scenario");
    }
  }
  for (std::size_t k = 0; k < options.demand_schedule.size(); ++k) {
    const auto& [at, cat] = options.demand_schedule[k];
    if (cat.num_items() != num_items) {
      throw std::invalid_argument(
          "simulate: demand_schedule catalog item count mismatch");
    }
    if (at < 0 || (k > 0 && at < options.demand_schedule[k - 1].first)) {
      throw std::invalid_argument(
          "simulate: demand_schedule must be sorted by slot");
    }
  }
}

DemandProcess make_demand(const Catalog& catalog,
                          const Population& population,
                          const SimOptions& options) {
  if (options.popularity) {
    return DemandProcess(catalog, population.clients, options.popularity->pi);
  }
  return DemandProcess(catalog, population.clients);
}

/// One validated run: the population, the meeting context both kernels
/// pass to core::process_meeting, demand, faults and the accounting.
/// The constructor is the setup step (nodes, listeners, initial cache
/// contents); run_slot_kernel or run_event_kernel then advances the run
/// and finish() reads its result. The meeting sink, the nodes and the
/// cache listeners point into the object, so it never moves.
struct SimRun {
  SimRun(const trace::ContactTrace& trace, const Catalog& catalog,
         const utility::UtilitySet& utilities, ReplicationPolicy& policy,
         const Population& population, const SimOptions& options,
         util::Rng& rng);
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  const trace::ContactTrace& trace;
  const utility::UtilitySet& utilities;
  const Population& population;
  const SimOptions& options;
  util::Rng& rng;
  const NodeId num_nodes;
  const Slot duration;

  /// Global replicas per item, kept exact by the cache listeners; the
  /// span handed to ReplicationPolicy::on_initialized and final_counts.
  std::vector<int> replica_counts;
  std::vector<Node> nodes;  // indexed by trace NodeId
  std::vector<CacheSubscriber> subscribers;
  /// Whether a metrics tick records anything (expected welfare, the
  /// probe or tracked replica counts).
  bool sampling_active;
  MeetingContext meeting;

  DemandProcess demand;
  std::size_t next_demand_change = 0;

  stats::BinnedSeries observed;
  /// When set (event kernel), gains are accumulated per bin and folded
  /// into `observed` one batch at a time instead of per fulfilment; the
  /// kernel flushes it before finish() reads the series. The slot kernel
  /// leaves it null so its per-fulfilment adds stay bit-locked.
  stats::BinnedSeries::Batcher* observed_batch = nullptr;
  double total_gain = 0.0;
  std::uint64_t fulfillments = 0;
  double delay_sum = 0.0;
  double query_sum = 0.0;
  SimulationResult result;
  QcrPolicy* qcr;
  long mandates_before = 0;
  long written_before = 0;

  // Fault injection (docs/robustness.md). The plan draws every decision
  // from its own stream, so the fault-free path is untouched bit for bit
  // whenever the plan is inert.
  fault::FaultPlan fault_plan;
  std::vector<Slot> down_until;  // > slot <=> node is crashed in `slot`
  std::vector<trace::ContactEvent> delivery;  // faulty delivery staging
};

/// Gain sum, observed series and the on_fulfillment hook of one
/// fulfilment recorded at `slot`.
void record_fulfillment(SimRun& run, ItemId item, NodeId client, Slot slot,
                        double delay, double gain) {
  run.total_gain += gain;
  const auto time = static_cast<double>(slot);
  if (run.observed_batch) {
    run.observed_batch->add(time, gain);
  } else {
    run.observed.add(time, gain);
  }
  if (run.options.on_fulfillment) {
    run.options.on_fulfillment(item, client, delay, gain);
  }
}

/// The simulator's meeting fulfilment sink: record_fulfillment, then the
/// per-run delay and query means.
void account_fulfillment(void* context, ItemId item, NodeId client,
                         double delay, double gain, long queries) {
  auto& run = *static_cast<SimRun*>(context);
  record_fulfillment(run, item, client, run.meeting.now, delay, gain);
  ++run.fulfillments;
  run.delay_sum += delay;
  run.query_sum += static_cast<double>(queries);
}

SimRun::SimRun(const trace::ContactTrace& trace_in, const Catalog& catalog,
               const utility::UtilitySet& utilities_in,
               ReplicationPolicy& policy, const Population& population_in,
               const SimOptions& options_in, util::Rng& rng_in)
    : trace(trace_in),
      utilities(utilities_in),
      population(population_in),
      options(options_in),
      rng(rng_in),
      num_nodes(trace_in.num_nodes()),
      duration(trace_in.duration()),
      replica_counts(catalog.num_items(), 0),
      sampling_active(options_in.expected_welfare ||
                      options_in.welfare_probe ||
                      !options_in.metrics.tracked_items.empty()),
      demand(make_demand(catalog, population_in, options_in)),
      observed(options_in.metrics.bin_width, static_cast<double>(duration)),
      qcr(dynamic_cast<QcrPolicy*>(&policy)),
      fault_plan(options_in.faults) {
  const auto num_items = catalog.num_items();
  const auto num_servers = static_cast<NodeId>(population.servers.size());
  alloc::MarginalOracle* probe = options.welfare_probe;
  std::vector<char> is_server(num_nodes, 0);
  std::vector<char> is_client(num_nodes, 0);
  for (NodeId n : population.servers) is_server[n] = 1;
  for (NodeId n : population.clients) is_client[n] = 1;
  nodes.reserve(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    nodes.emplace_back(n, num_items, options.cache_capacity,
                       is_server[n] != 0, is_client[n] != 0);
  }

  // Incremental expected-welfare probe: cleared before the listeners
  // attach, so every cache change of the run — initial fill included —
  // flows into the oracle exactly once.
  if (probe) {
    probe->reset(
        alloc::Placement(num_items, num_servers, options.cache_capacity));
  }

  // Global replica counts, maintained incrementally by cache change
  // listeners. Attached before any content is placed so the initial
  // placement / sticky seeding / random fill are counted too; from then
  // on every insert, eviction and erase (including the ones policies
  // perform during meetings) updates the counts in O(1) instead of the
  // per-sample full rescan of all server caches. The listener is a plain
  // function pointer + context (no std::function dispatch on the cache
  // mutation hot path); each server gets its own context so the welfare
  // probe learns which oracle row a delta belongs to.
  subscribers.resize(num_servers);
  for (NodeId s = 0; s < num_servers; ++s) {
    subscribers[s] = {&replica_counts, probe, s};
    nodes[population.servers[s]].cache().set_change_listener(
        [](void* context, ItemId item, int delta) {
          auto* sub = static_cast<CacheSubscriber*>(context);
          (*sub->counts)[item] += delta;
          if (sub->probe) {
            if (delta > 0) {
              sub->probe->add(item, sub->server_index);
            } else {
              sub->probe->remove(item, sub->server_index);
            }
          }
        },
        &subscribers[s]);
  }

  // Initial cache contents.
  if (options.initial_placement) {
    const alloc::Placement& p = *options.initial_placement;
    for (NodeId s = 0; s < num_servers; ++s) {
      Cache& cache = nodes[population.servers[s]].cache();
      for (ItemId i = 0; i < num_items; ++i) {
        if (p.has(i, s)) cache.insert_random_replace(i, rng);
      }
    }
  }
  if (options.sticky_replicas) {
    // Item i is seeded at server index (i mod |S|); at most one sticky
    // per node, so with more items than servers the surplus items go
    // unseeded (the paper's scenario has |I| = |S|).
    for (ItemId i = 0; i < num_items; ++i) {
      Cache& cache = nodes[population.servers[i % num_servers]].cache();
      if (!cache.sticky()) force_pin_sticky(cache, i, rng);
    }
  }
  if (!options.initial_placement) {
    for (NodeId s : population.servers) {
      fill_random(nodes[s].cache(), num_items, rng);
    }
  }

  meeting.utilities = &utilities;
  meeting.policy = &policy;
  meeting.rng = &rng;
  meeting.sink = &account_fulfillment;
  meeting.sink_context = this;

  result.policy = policy.name();
  result.duration = duration;
  result.replica_series.resize(options.metrics.tracked_items.size());
  if (qcr) {
    mandates_before = qcr->mandates_created();
    written_before = qcr->replicas_written();
  }

  if (fault_plan.active()) {
    down_until.assign(num_nodes, 0);
    // A slot's delivered sequence is at most every surviving meeting plus
    // one duplicate each; reserving here keeps the staging buffer from
    // reallocating inside the kernel loop.
    delivery.reserve(2 * trace.max_slot_events());
  }

  // Policies that track global state seed themselves from the initial
  // allocation (e.g. HillClimbPolicy).
  policy.on_initialized(replica_counts);
}

// ---- per-slot steps, shared by both kernels --------------------------

/// Cooperative cancellation (the engine's deadline watchdog).
void check_cancelled(const SimRun& run, Slot slot) {
  if (run.options.cancel && run.options.cancel->cancelled()) {
    throw util::cancelled_error(
        *run.options.cancel,
        "simulate: cancelled at slot " + std::to_string(slot));
  }
}

/// Scheduled popularity changes due at `slot`; each switch rebuilds the
/// demand process and with it the alias tables.
void apply_demand_switches(SimRun& run, Slot slot) {
  const auto& schedule = run.options.demand_schedule;
  while (run.next_demand_change < schedule.size() &&
         schedule[run.next_demand_change].first <= slot) {
    run.demand = make_demand(schedule[run.next_demand_change].second,
                             run.population, run.options);
    ++run.next_demand_change;
  }
}

/// Node `n` crashes in `slot` and stays down for `downtime` slots after
/// it; the losses go to the fault counters.
void crash_node(SimRun& run, NodeId n, bool persist, Slot slot,
                Slot downtime) {
  auto& counters = run.fault_plan.counters();
  const Node::CrashLosses losses = run.nodes[n].crash(persist);
  if (persist) ++counters.cold_restarts;
  counters.replicas_lost += losses.replicas;
  counters.mandates_lost += losses.mandates;
  counters.requests_lost += losses.requests;
  run.down_until[n] = slot + 1 + downtime;
}

/// One demand arrival at `slot`: suppressed at a crashed node, resolved
/// at once on an own-cache hit, otherwise enqueued.
void admit_request(SimRun& run, ItemId item, NodeId node_id, Slot slot) {
  if (run.fault_plan.active() && run.down_until[node_id] > slot) {
    // A crashed node generates no demand while down.
    ++run.fault_plan.counters().requests_suppressed;
    return;
  }
  ++run.result.requests_created;
  Node& node = run.nodes[node_id];
  if (!node.holds(item)) {
    node.create_request(item, slot);
    return;
  }
  if (!run.utilities[item].bounded_at_zero()) {
    throw std::logic_error(
        "simulate: immediate fulfilment with unbounded h(0+); use "
        "the dedicated-node population for this utility");
  }
  record_fulfillment(run, item, node_id, slot, 0.0,
                     run.utilities[item].value_at_zero());
  ++run.result.immediate_fulfillments;
}

/// The meetings of `slot`. Fault-free runs process them in trace order.
/// Faulty runs stage the surviving meetings so reordering and
/// duplication act on the delivered sequence, not the trace.
void deliver_meetings(SimRun& run, Slot slot,
                      std::span<const trace::ContactEvent> events) {
  run.meeting.now = slot;
  if (!run.fault_plan.active()) {
    for (const trace::ContactEvent& e : events) {
      process_meeting(run.meeting, run.nodes[e.a], run.nodes[e.b]);
    }
    return;
  }
  fault::FaultPlan& plan = run.fault_plan;
  auto& counters = plan.counters();
  run.delivery.clear();
  for (const trace::ContactEvent& e : events) {
    if (run.down_until[e.a] > slot || run.down_until[e.b] > slot) {
      ++counters.meetings_skipped_down;
      continue;
    }
    if (plan.drop_meeting()) continue;
    run.delivery.push_back(e);
    if (plan.duplicate_meeting()) run.delivery.push_back(e);
  }
  if (run.delivery.size() >= 2 && plan.reorder_slot()) {
    plan.shuffle_delivery(run.delivery);
  }
  for (const trace::ContactEvent& e : run.delivery) {
    if (plan.should_truncate()) {
      // Cut the exchange after a seeded prefix of the negotiated
      // (fulfillable) items; the rest stay pending. The policy's
      // mandate-execution step still runs — truncation models a cut data
      // transfer, not a lost control channel.
      const long negotiated =
          count_fulfillable(run.nodes[e.a], run.nodes[e.b]);
      if (negotiated > 0) {
        run.meeting.transfer_budget = plan.truncation_prefix(negotiated);
        counters.fulfilments_deferred += static_cast<std::uint64_t>(
            negotiated - run.meeting.transfer_budget);
      }
    }
    process_meeting(run.meeting, run.nodes[e.a], run.nodes[e.b]);
    run.meeting.transfer_budget = -1;
  }
}

/// Metrics tick at `slot`, after the slot's meetings.
void sample_metrics(SimRun& run, Slot slot) {
  if (!run.sampling_active) return;
  const auto time = static_cast<double>(slot);
  const std::vector<int>& counts = run.replica_counts;
  if (run.options.expected_welfare) {
    run.result.expected_series.push_back(
        {time, run.options.expected_welfare(std::span<const int>(counts))});
  }
  if (const alloc::MarginalOracle* probe = run.options.welfare_probe) {
    run.result.expected_series.push_back({time, probe->welfare_cached()});
  }
  const auto& tracked = run.options.metrics.tracked_items;
  for (std::size_t k = 0; k < tracked.size(); ++k) {
    run.result.replica_series[k].push_back(
        {time, static_cast<double>(counts[tracked[k]])});
  }
}

// ---- the two kernels ------------------------------------------------

/// The slot-stepped kernel, the bit-locked Section-6.1 reference: per
/// slot, crashes, demand switches, demand, meetings, then the metrics
/// tick.
void run_slot_kernel(SimRun& run) {
  fault::FaultPlan& plan = run.fault_plan;
  std::vector<NewRequest> new_requests;
  for (Slot slot = 0; slot < run.duration; ++slot) {
    check_cancelled(run, slot);

    // Node churn: crash checks before demand, so a node that dies in
    // this slot neither requests nor meets anyone until it rejoins.
    if (plan.active()) {
      for (NodeId n = 0; n < run.num_nodes; ++n) {
        if (run.down_until[n] > slot) continue;  // still down
        if (!plan.crash_now()) continue;
        const bool persist = plan.crash_persists_cache();
        crash_node(run, n, persist, slot, plan.downtime());
      }
    }

    apply_demand_switches(run, slot);
    run.demand.sample_slot(run.rng, new_requests);
    for (const NewRequest& req : new_requests) {
      admit_request(run, req.item, req.node, slot);
    }

    deliver_meetings(run, slot, run.trace.slot_events(slot));

    if (slot % run.options.metrics.sample_every == 0) {
      sample_metrics(run, slot);
    }
  }
}

/// The event-driven kernel (next-event time advance).
///
/// Nothing observable happens in a slot without a meeting, a metrics
/// sample tick, a demand switch, or a scheduled node crash: caches,
/// pending lists and replica counts only change at meetings and crashes,
/// and a request created in an empty slot just ages until the next one.
/// So the loop jumps straight between those slots and draws each empty
/// gap's demand as a single batch — Poisson(gap * rate) arrivals with
/// uniform slots in the gap (distribution-identical to per-slot draws by
/// Poisson splitting), alias-sampled (item, node) pairs, own-cache hits
/// resolved at the batched creation slot in order. Fault-active runs
/// ride the same loop: each node's crash slots come from its own
/// geometric-skip stream (FaultPlan::next_node_crash) through a min-heap
/// of scheduled crashes, and per-meeting fault decisions are drawn only
/// at slots that have meetings — exactly the draws the slot kernel
/// makes, minus the per-(slot, node) crash coins.
void run_event_kernel(SimRun& run) {
  constexpr Slot kNever = std::numeric_limits<Slot>::max();
  const Slot duration = run.duration;
  // Cursor into the slot-sorted events: the first meeting not yet
  // delivered.
  const std::vector<trace::ContactEvent>& events = run.trace.events();
  std::size_t next_event = 0;
  const Slot sample_every = run.options.metrics.sample_every;
  const auto& schedule = run.options.demand_schedule;
  fault::FaultPlan& plan = run.fault_plan;
  std::vector<BatchedRequest> batch;

  // Observed gains are folded into the series one bin-batch at a time;
  // flushed after the loop, before finish() reads the series.
  stats::BinnedSeries::Batcher observed_batch(run.observed);
  run.observed_batch = &observed_batch;

  // Scheduled crashes, ordered by (slot, node). Each node draws its next
  // crash from its private stream when the previous one fires, so the
  // heap holds at most one entry per node.
  struct ScheduledCrash {
    Slot slot;
    NodeId node;
    bool persist;
    Slot down;
  };
  auto crash_later = [](const ScheduledCrash& x, const ScheduledCrash& y) {
    return x.slot != y.slot ? x.slot > y.slot : x.node > y.node;
  };
  std::priority_queue<ScheduledCrash, std::vector<ScheduledCrash>,
                      decltype(crash_later)>
      crashes(crash_later);
  if (plan.active() && run.options.faults.p_crash > 0.0) {
    plan.prepare_node_streams(run.num_nodes);
    for (NodeId n = 0; n < run.num_nodes; ++n) {
      const auto c = plan.next_node_crash(n, 0);
      if (c.slot < duration) {
        crashes.push({c.slot, n, c.persist_cache, c.downtime});
      }
    }
  }

  Slot cur = 0;
  while (cur < duration) {
    check_cancelled(run, cur);
    apply_demand_switches(run, cur);
    const Slot next_switch = run.next_demand_change < schedule.size()
                                 ? schedule[run.next_demand_change].first
                                 : kNever;
    const Slot next_meeting =
        next_event < events.size() ? events[next_event].slot : kNever;
    const Slot next_sample =
        run.sampling_active
            ? ((cur + sample_every - 1) / sample_every) * sample_every
            : kNever;
    const Slot next_crash = crashes.empty() ? kNever : crashes.top().slot;

    // The next slot where work happens *at* the slot itself, and the
    // last slot this demand batch may cover: a switch applies before its
    // own slot's demand, so the batch stops strictly before it.
    const Slot event_slot = std::min({next_meeting, next_sample, next_crash});
    Slot batch_end = std::min(event_slot, duration - 1);
    if (next_switch != kNever) {
      batch_end = std::min(batch_end, next_switch - 1);
    }

    // Batched demand over [cur, batch_end] (>= 1 slot by construction:
    // switches due now were applied above, so next_switch > cur). The
    // batch is admitted in two halves around the event slot's crashes so
    // the slot kernel's intra-slot order (crashes, then demand, then
    // meetings, then the sample tick) is preserved: requests created
    // before the crash slot must exist — the crash wipes them — while the
    // crash slot's own demand is suppressed at a just-downed node.
    run.demand.sample_gap(run.rng, cur, batch_end - cur + 1, batch);
    std::size_t bi = 0;
    auto admit_before = [&](Slot limit) {  // batch slots < limit
      for (; bi < batch.size() && batch[bi].slot < limit; ++bi) {
        admit_request(run, batch[bi].item, batch[bi].node, batch[bi].slot);
      }
    };

    if (event_slot > batch_end) {
      admit_before(batch_end + 1);
      cur = batch_end + 1;
      continue;
    }
    admit_before(event_slot);
    while (!crashes.empty() && crashes.top().slot == event_slot) {
      const ScheduledCrash c = crashes.top();
      crashes.pop();
      plan.record_crash();
      crash_node(run, c.node, c.persist, event_slot, c.down);
      // The hazard resumes at the rejoin slot, matching the slot
      // kernel's "no crash checks while down".
      const auto next = plan.next_node_crash(c.node, run.down_until[c.node]);
      if (next.slot < duration) {
        crashes.push({next.slot, c.node, next.persist_cache, next.downtime});
      }
    }
    admit_before(event_slot + 1);

    std::span<const trace::ContactEvent> meetings;
    if (next_meeting == event_slot) {
      meetings = run.trace.slot_events(event_slot);
      next_event += meetings.size();
    }
    deliver_meetings(run, event_slot, meetings);
    if (next_sample == event_slot) sample_metrics(run, event_slot);
    cur = event_slot + 1;
  }
  observed_batch.flush();
  run.observed_batch = nullptr;
}

/// Censors the requests still pending at the horizon and reads the
/// run's result.
SimulationResult finish(SimRun& run) {
  SimulationResult& result = run.result;
  if (run.options.censor_pending_at_end) {
    for (const Node& node : run.nodes) {
      for (const PendingRequest& req : node.pending()) {
        const double age =
            static_cast<double>(run.duration - req.created) + 1.0;
        run.total_gain += run.utilities[req.item].value(age);
        ++result.censored_requests;
      }
    }
  } else {
    for (const Node& node : run.nodes) {
      result.censored_requests += node.pending().size();
    }
  }

  result.final_counts = run.replica_counts;
  result.total_gain = run.total_gain;
  result.observed_series = run.observed.rate_series();
  result.fulfillments = run.fulfillments;
  const auto fulfilled = static_cast<double>(run.fulfillments);
  result.mean_delay = run.fulfillments ? run.delay_sum / fulfilled : 0.0;
  result.mean_query_count =
      run.fulfillments ? run.query_sum / fulfilled : 0.0;
  for (const Node& node : run.nodes) {
    result.outstanding_mandates += node.mandates().total();
  }
  if (run.qcr) {
    result.mandates_created = run.qcr->mandates_created() - run.mandates_before;
    result.replicas_written = run.qcr->replicas_written() - run.written_before;
  }
  result.faults = run.fault_plan.counters();
  return std::move(result);
}

}  // namespace

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  validate(trace, catalog, utilities, population, options);
  SimRun run(trace, catalog, utilities, policy, population, options, rng);
  if (options.kernel == SimKernel::event_driven) {
    run_event_kernel(run);
  } else {
    run_slot_kernel(run);
  }
  return finish(run);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const Population& population,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(trace, catalog,
                  utility::UtilitySet(utility, catalog.num_items()), policy,
                  population, options, rng);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::UtilitySet& utilities,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(trace, catalog, utilities, policy,
                  Population::pure_p2p(trace.num_nodes()), options, rng);
}

SimulationResult simulate(const trace::ContactTrace& trace,
                          const Catalog& catalog,
                          const utility::DelayUtility& utility,
                          ReplicationPolicy& policy,
                          const SimOptions& options, util::Rng& rng) {
  return simulate(trace, catalog, utility, policy,
                  Population::pure_p2p(trace.num_nodes()), options, rng);
}

}  // namespace impatience::core
