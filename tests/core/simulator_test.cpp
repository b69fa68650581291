#include "impatience/core/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "impatience/alloc/welfare.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"
#include "impatience/utility/reaction.hpp"

namespace impatience::core {
namespace {

using utility::PowerUtility;
using utility::StepUtility;

trace::ContactTrace small_trace(std::uint64_t seed, trace::NodeId n = 12,
                                Slot duration = 800, double mu = 0.08) {
  util::Rng rng(seed);
  return trace::generate_poisson({n, duration, mu}, rng);
}

SimOptions basic_options(int capacity = 3) {
  SimOptions o;
  o.cache_capacity = capacity;
  return o;
}

QcrPolicy make_qcr(const utility::DelayUtility& u, double mu, double servers,
                   QcrPolicy::MandateRouting routing =
                       QcrPolicy::MandateRouting::kOn) {
  utility::ReactionFunction reaction(u, mu, servers);
  return QcrPolicy("QCR", [reaction](double y) { return reaction(y); },
                   routing);
}

TEST(Simulator, DeterministicForFixedSeed) {
  const auto trace = small_trace(1);
  const auto catalog = Catalog::pareto(10, 1.0, 0.5);
  StepUtility u(5.0);
  auto run = [&]() {
    auto policy = make_qcr(u, 0.08, 12);
    util::Rng rng(77);
    return simulate(trace, catalog, u, policy, basic_options(), rng);
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_DOUBLE_EQ(r1.total_gain, r2.total_gain);
  EXPECT_EQ(r1.fulfillments, r2.fulfillments);
  EXPECT_EQ(r1.final_counts, r2.final_counts);
}

TEST(Simulator, ReplicaTotalIsConservedAtCapacity) {
  // Caches start full (random fill) and random replacement keeps them
  // full: total replicas == rho * |S| throughout.
  const auto trace = small_trace(2);
  const auto catalog = Catalog::pareto(10, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  util::Rng rng(5);
  const auto result =
      simulate(trace, catalog, u, policy, basic_options(3), rng);
  const int total =
      std::accumulate(result.final_counts.begin(), result.final_counts.end(),
                      0);
  EXPECT_EQ(total, 3 * 12);
}

TEST(Simulator, StickyReplicasSurvive) {
  const auto trace = small_trace(3);
  const auto catalog = Catalog::pareto(10, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  util::Rng rng(6);
  const auto result =
      simulate(trace, catalog, u, policy, basic_options(), rng);
  // Every item has a sticky seed (10 items <= 12 servers): count >= 1.
  for (ItemId i = 0; i < 10; ++i) {
    EXPECT_GE(result.final_counts[i], 1) << "item " << i;
  }
}

TEST(Simulator, StaticPolicyKeepsCachesFrozen) {
  const auto trace = small_trace(4);
  const auto catalog = Catalog::pareto(6, 1.0, 0.5);
  StepUtility u(5.0);
  alloc::Placement placement(6, 12, 3);
  // Every item on two fixed servers.
  for (ItemId i = 0; i < 6; ++i) {
    placement.add(i, static_cast<NodeId>(i));
    placement.add(i, static_cast<NodeId>(i + 6));
  }
  SimOptions options = basic_options();
  options.sticky_replicas = false;
  options.initial_placement = placement;
  StaticPolicy policy;
  util::Rng rng(7);
  const auto result = simulate(trace, catalog, u, policy, options, rng);
  for (ItemId i = 0; i < 6; ++i) {
    EXPECT_EQ(result.final_counts[i], 2);
  }
}

TEST(Simulator, GainsMatchStepUtilitySemantics) {
  // With a step utility, every fulfilment within tau records gain 1, so
  // total_gain <= fulfilments + immediate hits; censored pending requests
  // past tau add zero.
  const auto trace = small_trace(5);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(1000.0);  // effectively every fulfilment gains 1
  auto policy = make_qcr(u, 0.08, 12);
  util::Rng rng(8);
  const auto result =
      simulate(trace, catalog, u, policy, basic_options(), rng);
  EXPECT_GT(result.fulfillments, 0u);
  EXPECT_NEAR(result.total_gain,
              static_cast<double>(result.fulfillments +
                                  result.immediate_fulfillments +
                                  result.censored_requests),
              1e-9);
}

TEST(Simulator, RequestAccountingBalances) {
  const auto trace = small_trace(6);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  util::Rng rng(9);
  const auto result =
      simulate(trace, catalog, u, policy, basic_options(), rng);
  EXPECT_EQ(result.requests_created,
            result.fulfillments + result.immediate_fulfillments +
                result.censored_requests);
}

TEST(Simulator, MeanDelayPositiveAndBounded) {
  const auto trace = small_trace(7);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  util::Rng rng(10);
  const auto result =
      simulate(trace, catalog, u, policy, basic_options(), rng);
  EXPECT_GE(result.mean_delay, 1.0);  // at least one slot by construction
  EXPECT_LE(result.mean_delay, static_cast<double>(trace.duration()));
  EXPECT_GE(result.mean_query_count, 1.0);
}

TEST(Simulator, ExpectedWelfareProbeSampled) {
  const auto trace = small_trace(8);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  SimOptions options = basic_options();
  options.metrics.sample_every = 100;
  options.expected_welfare = [](std::span<const int> counts) {
    int total = 0;
    for (int c : counts) total += c;
    return static_cast<double>(total);
  };
  util::Rng rng(11);
  const auto result = simulate(trace, catalog, u, policy, options, rng);
  ASSERT_EQ(result.expected_series.size(), 8u);  // 800 slots / 100
  for (const auto& pt : result.expected_series) {
    EXPECT_DOUBLE_EQ(pt.value, 36.0);  // replica conservation, 3 * 12
  }
}

TEST(Simulator, IncrementalWelfareProbeTracksCachesEndToEnd) {
  // SimOptions::welfare_probe: the oracle is fed by the cache change
  // listeners and sampled via welfare_cached() at each metrics tick. It
  // is left tracking the final cache state, so welfare() — the
  // from-scratch evaluator on that same state — must agree with the
  // incremental value bitwise after thousands of listener deltas, on
  // both kernels.
  const auto make = [] {
    util::Rng gen(31);
    auto tr = trace::generate_poisson({12, 800, 0.08}, gen);
    return make_scenario(std::move(tr), Catalog::pareto(10, 1.0, 0.5), 3);
  };
  const Scenario scenario = make();
  const utility::UtilitySet utilities(StepUtility(5.0),
                                      scenario.catalog.num_items());
  for (SimKernel kernel : {SimKernel::slot_stepped, SimKernel::event_driven}) {
    WelfareProbe probe(scenario, utilities);
    SimOptions options;
    options.kernel = kernel;
    options.metrics.sample_every = 100;
    options.welfare_probe = probe.oracle();
    util::Rng rng(32);
    const auto result =
        run_qcr(scenario, utilities, QcrOptions{}, options, rng);
    ASSERT_EQ(result.expected_series.size(), 8u);
    for (const auto& pt : result.expected_series) {
      EXPECT_TRUE(std::isfinite(pt.value));
      EXPECT_GT(pt.value, 0.0);
    }
    EXPECT_DOUBLE_EQ(probe.oracle()->welfare_cached(),
                     probe.oracle()->welfare());
  }
}

TEST(Simulator, WelfareProbeMutuallyExclusiveWithExpectedWelfare) {
  const auto trace = small_trace(8);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(5.0);
  StaticPolicy policy;
  const utility::UtilitySet utilities(u, catalog.num_items());
  util::Rng gen(33);
  auto tr = small_trace(8);
  const Scenario scenario =
      make_scenario(std::move(tr), Catalog::pareto(8, 1.0, 0.5), 3);
  WelfareProbe probe(scenario, utilities);
  SimOptions options = basic_options();
  options.metrics.sample_every = 100;
  options.welfare_probe = probe.oracle();
  options.expected_welfare = [](std::span<const int>) { return 0.0; };
  util::Rng rng(34);
  EXPECT_THROW(simulate(trace, catalog, u, policy, options, rng),
               std::invalid_argument);
}

TEST(Simulator, TrackedReplicaSeries) {
  const auto trace = small_trace(9);
  const auto catalog = Catalog::pareto(8, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 12);
  SimOptions options = basic_options();
  options.metrics.sample_every = 200;
  options.metrics.tracked_items = {0, 3};
  util::Rng rng(12);
  const auto result = simulate(trace, catalog, u, policy, options, rng);
  ASSERT_EQ(result.replica_series.size(), 2u);
  EXPECT_EQ(result.replica_series[0].size(), 4u);
  for (const auto& pt : result.replica_series[0]) {
    EXPECT_GE(pt.value, 1.0);  // sticky floor
    EXPECT_LE(pt.value, 12.0);
  }
}

TEST(Simulator, CensoringTogglesAccounting) {
  // A trace with zero contacts: every request is censored; with a cost
  // utility the censored total must be negative when enabled, zero when
  // disabled.
  trace::ContactTrace no_contacts(6, 300, {});
  const auto catalog = Catalog::pareto(6, 1.0, 0.5);
  PowerUtility u(0.0);  // h(t) = -t
  SimOptions with = basic_options();
  with.sticky_replicas = true;
  SimOptions without = with;
  without.censor_pending_at_end = false;

  StaticPolicy policy;
  util::Rng rng1(13), rng2(13);
  const auto censored =
      simulate(no_contacts, catalog, u, policy, with, rng1);
  const auto uncensored =
      simulate(no_contacts, catalog, u, policy, without, rng2);
  EXPECT_LT(censored.total_gain, 0.0);
  // Own-cache immediate hits gain h(0)=0; meeting fulfilments are
  // impossible; so the uncensored total is exactly 0.
  EXPECT_DOUBLE_EQ(uncensored.total_gain, 0.0);
  EXPECT_GT(uncensored.censored_requests, 0u);
}

// ---------------------------------------------------------------------
// Random cache init: sticky seeding plus a rejection-sampled fill of
// distinct uniform items. The no-contact trace freezes the run at its
// initial fill (StaticPolicy, nothing can move), so final_counts IS the
// fill.

SimulationResult run_fill_only(std::uint64_t seed) {
  trace::ContactTrace no_contacts(6, 2, {});
  const auto catalog = Catalog::pareto(6, 1.0, 0.5);
  StepUtility u(5.0);
  StaticPolicy policy;
  SimOptions options = basic_options();
  options.sticky_replicas = true;
  util::Rng rng(seed);
  return simulate(no_contacts, catalog, u, policy, options, rng);
}

TEST(Simulator, InitFillsFullDistinctCaches) {
  const auto r = run_fill_only(3);
  // 6 servers x capacity 3, all items distinct within a cache.
  EXPECT_EQ(std::accumulate(r.final_counts.begin(), r.final_counts.end(), 0),
            18);
  // Item i is sticky-seeded at server i: every item has >= 1 replica.
  for (int c : r.final_counts) EXPECT_GE(c, 1);
}

TEST(Simulator, InitFillIsUniformInLaw) {
  // The fill puts distinct uniform items into the 2 non-sticky slots of
  // each cache; by symmetry every item's expected non-sticky count per
  // run is 2. Chi-square the aggregate against that flat law (df = 5;
  // 3.72-sigma Wilson-Hilferty critical ~ 27).
  constexpr int kRuns = 300;
  std::vector<double> totals(6, 0.0);
  for (int run = 0; run < kRuns; ++run) {
    const auto r = run_fill_only(1000 + run);
    for (std::size_t i = 0; i < totals.size(); ++i) {
      // Subtract the deterministic sticky seed (item i at server i).
      totals[i] += static_cast<double>(r.final_counts[i]) - 1.0;
    }
  }
  const double expected = 2.0 * kRuns;
  double stat = 0.0;
  for (double t : totals) {
    stat += (t - expected) * (t - expected) / expected;
  }
  EXPECT_LT(stat, 27.0);
}

TEST(Simulator, DedicatedPopulationSeparatesRoles) {
  const auto trace = small_trace(10, 12);
  const auto catalog = Catalog::pareto(6, 1.0, 0.5);
  StepUtility u(5.0);
  auto policy = make_qcr(u, 0.08, 6);
  SimOptions options = basic_options();
  util::Rng rng(14);
  const auto population = Population::dedicated(6, 6);
  const auto result =
      simulate(trace, catalog, u, policy, population, options, rng);
  // Clients have no caches: no immediate fulfilments possible.
  EXPECT_EQ(result.immediate_fulfillments, 0u);
  EXPECT_GT(result.fulfillments, 0u);
}

TEST(Simulator, UnboundedUtilityRejectedOnSelfHit) {
  // Pure P2P + inverse-power utility: the first own-cache hit must throw.
  const auto trace = small_trace(11);
  const auto catalog = Catalog::pareto(4, 1.0, 2.0);
  PowerUtility u(1.5);
  auto policy = make_qcr(u, 0.08, 12);
  SimOptions options = basic_options();
  util::Rng rng(15);
  EXPECT_THROW(simulate(trace, catalog, u, policy, options, rng),
               std::logic_error);
}

TEST(Simulator, Validation) {
  const auto trace = small_trace(12);
  const auto catalog = Catalog::pareto(4, 1.0, 0.5);
  StepUtility u(1.0);
  StaticPolicy policy;
  util::Rng rng(16);
  SimOptions bad = basic_options();
  bad.cache_capacity = 0;
  EXPECT_THROW(simulate(trace, catalog, u, policy, bad, rng),
               std::invalid_argument);

  // Both kernels divide by the sampling period: 0 and negative periods
  // are rejected up front.
  for (SimKernel kernel : {SimKernel::slot_stepped, SimKernel::event_driven}) {
    for (Slot every : {Slot{0}, Slot{-5}}) {
      bad = basic_options();
      bad.kernel = kernel;
      bad.metrics.sample_every = every;
      EXPECT_THROW(simulate(trace, catalog, u, policy, bad, rng),
                   std::invalid_argument)
          << kernel_name(kernel) << " sample_every " << every;
    }
  }

  Population empty;
  EXPECT_THROW(
      simulate(trace, catalog, u, policy, empty, basic_options(), rng),
      std::invalid_argument);

  Population out_of_range = Population::pure_p2p(12);
  out_of_range.servers.push_back(99);
  EXPECT_THROW(simulate(trace, catalog, u, policy, out_of_range,
                        basic_options(), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace impatience::core
