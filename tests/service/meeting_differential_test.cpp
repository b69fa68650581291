// Differential test of the two consumers of the Section 6.1 meeting
// protocol: replicationd's StateStore and core::simulate() both run
// core::process_meeting. One generated contact trace and its demand are
// rendered as a T/R/C frame stream and fed to a store; its counters are
// compared with a simulation of the same trace.
//  * Exact: frozen caches (the store's QCR reaction scaled to ~0 against
//    the simulator's STATIC policy over the store's initial placement)
//    make both sides deterministic functions of the same trace and
//    demand, so counters and floating-point sums must match with ==.
//  * QCR: both sides run the reactive policy from independent random
//    fills and demand draws; per-request ratios must agree within 95%
//    confidence intervals over 32 seeds, the kernel_equivalence_test
//    protocol. Raw counts are not compared: they carry the demand noise.
// Runs under both `ctest -L service` and `ctest -L sim`.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "impatience/core/demand.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/stats/summary.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/factory.hpp"

namespace impatience::service {
namespace {

struct DiffConfig {
  NodeId nodes;
  ItemId items;
  int capacity;
  Slot slots;
  double mu;  ///< per-pair contact probability of the Poisson trace
};

StoreConfig store_config(const DiffConfig& dc, double mu) {
  StoreConfig config;
  config.num_nodes = dc.nodes;
  config.num_items = dc.items;
  config.cache_capacity = dc.capacity;
  config.mu = mu;
  return config;
}

/// Per slot: `T s`, then the slot's requests in draw order, then its
/// contacts in trace order — the intra-slot order of the slot-stepped
/// kernel. Requests come from a DemandProcess over nodes 0..N-1 drawn
/// slot by slot, exactly as that kernel draws them.
std::vector<Event> render_stream(const trace::ContactTrace& trace,
                                 const core::Catalog& catalog,
                                 util::Rng& demand_rng) {
  std::vector<NodeId> clients(trace.num_nodes());
  std::iota(clients.begin(), clients.end(), NodeId{0});
  const core::DemandProcess demand(catalog, clients);
  std::vector<core::NewRequest> requests;
  std::vector<Event> events;
  for (Slot s = 0; s < trace.duration(); ++s) {
    events.push_back({.kind = Event::Kind::clock, .slot = s});
    demand.sample_slot(demand_rng, requests);
    for (const core::NewRequest& r : requests) {
      events.push_back(
          {.kind = Event::Kind::request, .a = r.node, .item = r.item});
    }
    for (const trace::ContactEvent& c : trace.slot_events(s)) {
      events.push_back({.kind = Event::Kind::contact, .a = c.a, .b = c.b});
    }
  }
  return events;
}

alloc::Placement placement_of(const StateImage& image) {
  const StoreConfig& config = image.config;
  alloc::Placement placement(config.num_items, config.num_nodes,
                             config.cache_capacity);
  for (NodeId n = 0; n < config.num_nodes; ++n) {
    for (ItemId item : image.nodes[n].cache) placement.add(item, n);
  }
  return placement;
}

void expect_exact_match(const DiffConfig& dc, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  util::Rng gen(seed + 100);
  const trace::ContactTrace trace =
      trace::generate_poisson({dc.nodes, dc.slots, dc.mu}, gen);
  const core::Catalog catalog = core::Catalog::pareto(dc.items, 1.0, 1.0);

  // A vanishing reaction: QCR never creates a mandate, so caches freeze.
  StoreConfig config = store_config(dc, dc.mu);
  config.reaction_scale = 1e-12;
  StateStore store(config, seed);
  const StateImage initial = store.image();
  util::Rng demand_rng(seed);
  for (const Event& event : render_stream(trace, catalog, demand_rng)) {
    store.apply(event);
  }
  const StoreCounters c = store.counters();
  ASSERT_EQ(c.mandates_created, 0);
  const StateImage final_image = store.image();
  for (NodeId n = 0; n < dc.nodes; ++n) {
    ASSERT_EQ(final_image.nodes[n].cache, initial.nodes[n].cache);
  }

  // With a placement given and a static policy, the simulator draws from
  // its rng only for demand, so Rng(seed) replays the rendered requests.
  core::SimOptions options;
  options.cache_capacity = dc.capacity;
  options.sticky_replicas = true;
  options.censor_pending_at_end = false;
  options.initial_placement = placement_of(initial);
  core::StaticPolicy policy;
  const auto utility = utility::make_utility(config.utility_spec);
  util::Rng rng(seed);
  const core::SimulationResult r =
      core::simulate(trace, catalog, *utility, policy, options, rng);

  EXPECT_GT(r.fulfillments, 0u);
  EXPECT_GT(r.immediate_fulfillments, 0u);
  EXPECT_EQ(c.requests_created, r.requests_created);
  EXPECT_EQ(c.immediate_fulfillments, r.immediate_fulfillments);
  EXPECT_EQ(c.fulfillments, r.fulfillments);
  EXPECT_EQ(c.total_gain, r.total_gain);
  EXPECT_EQ(c.delay_sum / static_cast<double>(c.fulfillments), r.mean_delay);
  EXPECT_EQ(c.requests_pending, r.censored_requests);
}

TEST(MeetingDifferential, FrozenCachesMatchExactly) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_exact_match({20, 20, 4, 1000, 0.05}, seed);
  }
}

TEST(MeetingDifferential, FrozenCachesMatchExactlyWithMoreNodesThanItems) {
  // Nodes 40..59 hold no sticky pin; items have several replicas.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_exact_match({60, 40, 5, 800, 0.02}, seed);
  }
}

struct RatioSamples {
  stats::Summary gain_per_request;
  stats::Summary fulfillments_per_request;
  stats::Summary mean_delay;
  stats::Summary mandates_per_request;

  void add(double requests, double gain, double fulfillments, double delay,
           double mandates) {
    gain_per_request.add(gain / requests);
    fulfillments_per_request.add(fulfillments / requests);
    mean_delay.add(delay);
    mandates_per_request.add(mandates / requests);
  }
};

void expect_overlap(const stats::Summary& service, const stats::Summary& sim,
                    const char* metric) {
  const double hs = 1.96 * service.stderr_mean();
  const double hm = 1.96 * sim.stderr_mean();
  EXPECT_TRUE(service.mean() - hs <= sim.mean() + hm &&
              sim.mean() - hm <= service.mean() + hs)
      << metric << ": service CI [" << service.mean() - hs << ", "
      << service.mean() + hs << "] vs simulator CI [" << sim.mean() - hm
      << ", " << sim.mean() + hm << "]";
}

TEST(MeetingDifferential, QcrAgreesStatistically) {
  constexpr int kSeeds = 32;
  const DiffConfig dc{20, 20, 4, 1000, 0.05};
  util::Rng gen(11);
  const core::Scenario scenario = core::make_scenario(
      trace::generate_poisson({dc.nodes, dc.slots, dc.mu}, gen),
      core::Catalog::pareto(dc.items, 1.0, 1.0), dc.capacity);
  // The store's reaction is the raw Table-1 psi times reaction_scale.
  const StoreConfig config = store_config(dc, scenario.mu);
  const auto utility = utility::make_utility(config.utility_spec);
  core::QcrOptions qcr;
  qcr.auto_normalize_scale = false;
  qcr.reaction_scale = config.reaction_scale;
  core::SimOptions options;
  options.censor_pending_at_end = false;

  RatioSamples service, sim;
  for (std::uint64_t seed = 1000; seed < 1000 + kSeeds; ++seed) {
    util::Rng rng(seed);
    const core::SimulationResult r =
        core::run_qcr(scenario, *utility, qcr, options, rng);
    sim.add(static_cast<double>(r.requests_created), r.total_gain,
            static_cast<double>(r.fulfillments), r.mean_delay,
            static_cast<double>(r.mandates_created));

    StateStore store(config, seed);
    util::Rng demand_rng(seed + kSeeds);
    for (const Event& event :
         render_stream(scenario.trace, scenario.catalog, demand_rng)) {
      store.apply(event);
    }
    ASSERT_TRUE(store.mandate_conservation_ok());
    const StoreCounters c = store.counters();
    const double fulfillments = static_cast<double>(c.fulfillments);
    service.add(static_cast<double>(c.requests_created), c.total_gain,
                fulfillments, c.delay_sum / fulfillments,
                static_cast<double>(c.mandates_created));
  }
  EXPECT_GT(sim.mandates_per_request.mean(), 0.0);
  expect_overlap(service.gain_per_request, sim.gain_per_request,
                 "gain/request");
  expect_overlap(service.fulfillments_per_request,
                 sim.fulfillments_per_request, "fulfillments/request");
  expect_overlap(service.mean_delay, sim.mean_delay, "mean delay");
  expect_overlap(service.mandates_per_request, sim.mandates_per_request,
                 "mandates/request");
}

}  // namespace
}  // namespace impatience::service
