// Statistical equivalence of the event-driven kernel with the
// slot-stepped reference — fault-free and fault-active (geometric-skip
// crash scheduling) — plus the bit-identity locks that pin the
// slot-stepped path to the pre-PR outputs and the event-driven path to
// its own captured outputs. Runs under `ctest -L sim`.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "impatience/core/experiment.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"

namespace impatience::core {
namespace {

constexpr int kSeeds = 32;  // per config and kernel

/// 95% confidence interval of a sample mean.
struct Interval {
  double lo;
  double hi;
};

Interval confidence_interval(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= n;
  double var = 0.0;
  for (double s : samples) var += (s - mean) * (s - mean);
  var /= (n - 1.0);
  const double half = 1.96 * std::sqrt(var / n);
  return {mean - half, mean + half};
}

void expect_overlap(const std::vector<double>& slot,
                    const std::vector<double>& event, const char* metric) {
  const Interval a = confidence_interval(slot);
  const Interval b = confidence_interval(event);
  EXPECT_TRUE(a.lo <= b.hi && b.lo <= a.hi)
      << metric << ": slot CI [" << a.lo << ", " << a.hi << "] vs event CI ["
      << b.lo << ", " << b.hi << "]";
}

void check_conservation(const SimulationResult& r) {
  // Every created request is fulfilled, censored at the horizon, or wiped
  // by a crash (requests_lost degrades the identity gracefully, see
  // docs/robustness.md).
  ASSERT_EQ(r.requests_created, r.fulfillments + r.immediate_fulfillments +
                                    r.censored_requests +
                                    r.faults.requests_lost);
  // Mandate conservation (trivially 0 == 0 for fixed placements).
  ASSERT_EQ(r.mandates_created, r.replicas_written + r.outstanding_mandates +
                                    static_cast<long>(
                                        r.faults.mandates_lost));
}

/// FaultCounters internal consistency, independent of the kernel.
void check_fault_invariants(const SimulationResult& r,
                            const fault::FaultConfig& config) {
  const auto& f = r.faults;
  EXPECT_GE(f.crashes, f.cold_restarts);
  if (f.crashes == 0) {
    EXPECT_EQ(f.replicas_lost, 0u);
    EXPECT_EQ(f.mandates_lost, 0);
    EXPECT_EQ(f.requests_lost, 0u);
  }
  if (config.p_crash == 0.0) {
    EXPECT_EQ(f.crashes, 0u);
    EXPECT_EQ(f.meetings_skipped_down, 0u);
    EXPECT_EQ(f.requests_suppressed, 0u);
  }
  if (config.p_drop == 0.0) {
    EXPECT_EQ(f.meetings_dropped, 0u);
  }
  if (config.p_duplicate == 0.0) {
    EXPECT_EQ(f.meetings_duplicated, 0u);
  }
  if (config.p_reorder == 0.0) {
    EXPECT_EQ(f.slots_reordered, 0u);
  }
  if (config.p_truncate == 0.0) {
    EXPECT_EQ(f.exchanges_truncated, 0u);
    EXPECT_EQ(f.fulfilments_deferred, 0u);
  }
  EXPECT_EQ(f.injected_events(),
            f.meetings_dropped + f.meetings_duplicated + f.slots_reordered +
                f.exchanges_truncated + f.crashes);
}

struct KernelSamples {
  std::vector<double> gain, fulfillments, delay;
};

/// Runs `trial` for kSeeds seeds under each kernel and asserts the 95%
/// CIs of total_gain / fulfillments / mean_delay overlap, with exact
/// conservation on every run.
template <typename Trial>
void expect_kernels_equivalent(Trial&& trial) {
  KernelSamples per_kernel[2];
  const SimKernel kernels[2] = {SimKernel::slot_stepped,
                                SimKernel::event_driven};
  for (int k = 0; k < 2; ++k) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      const SimulationResult r = trial(kernels[k], 1000 + seed);
      check_conservation(r);
      per_kernel[k].gain.push_back(r.total_gain);
      per_kernel[k].fulfillments.push_back(
          static_cast<double>(r.fulfillments));
      per_kernel[k].delay.push_back(r.mean_delay);
    }
  }
  expect_overlap(per_kernel[0].gain, per_kernel[1].gain, "total_gain");
  expect_overlap(per_kernel[0].fulfillments, per_kernel[1].fulfillments,
                 "fulfillments");
  expect_overlap(per_kernel[0].delay, per_kernel[1].delay, "mean_delay");
}

TEST(KernelEquivalence, Fig4HomogeneousQcr) {
  util::Rng gen(11);
  auto tr = trace::generate_poisson({20, 1000, 0.05}, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(20, 1.0, 1.0), 4);
  utility::StepUtility u(10.0);
  expect_kernels_equivalent([&](SimKernel kernel, std::uint64_t seed) {
    SimOptions options;
    options.kernel = kernel;
    util::Rng rng(seed);
    return run_qcr(scenario, u, QcrOptions{}, options, rng);
  });
}

TEST(KernelEquivalence, Fig5InfocomFixedPlacement) {
  util::Rng gen(22);
  trace::InfocomLikeParams params;
  params.num_nodes = 20;
  params.days = 1;
  auto tr = trace::generate_infocom_like(params, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(20, 1.0, 1.0), 4);
  utility::StepUtility u(30.0);
  util::Rng prng(23);
  const auto competitors =
      build_competitors(scenario, u, OptMode::kHomogeneous, prng);
  const auto& uni = competitors[1];
  expect_kernels_equivalent([&](SimKernel kernel, std::uint64_t seed) {
    SimOptions options;
    options.kernel = kernel;
    util::Rng rng(seed);
    return run_fixed(scenario, u, uni.name, uni.placement, options, rng);
  });
}

TEST(KernelEquivalence, Fig6SparseCabspottingFixedPlacement) {
  util::Rng gen(33);
  trace::CabspottingLikeParams params;
  params.mobility.num_nodes = 20;
  params.duration = 1500;
  auto tr = trace::generate_cabspotting_like(params, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(25, 1.0, 1.0), 4);
  utility::ExponentialUtility u(0.05);
  util::Rng prng(34);
  const auto competitors =
      build_competitors(scenario, u, OptMode::kHomogeneous, prng);
  const auto& uni = competitors[1];
  expect_kernels_equivalent([&](SimKernel kernel, std::uint64_t seed) {
    SimOptions options;
    options.kernel = kernel;
    util::Rng rng(seed);
    return run_fixed(scenario, u, uni.name, uni.placement, options, rng);
  });
}

// ---------------------------------------------------------------------
// Bit-identity locks. The expected values were captured from the tree
// immediately before the event-kernel change landed (slot-stepped is the
// bit-locked reference; see SimKernel docs). Any drift here is a
// reproducibility regression, not a tolerance issue: compare exactly.

SimulationResult run_config_a(SimKernel kernel) {
  util::Rng gen(101);
  auto tr = trace::generate_poisson({30, 1500, 0.05}, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(30, 1.0, 1.0), 4);
  utility::StepUtility u(10.0);
  SimOptions options;
  options.kernel = kernel;
  util::Rng rng(777);
  return run_qcr(scenario, u, QcrOptions{}, options, rng);
}

SimulationResult run_config_b(SimKernel kernel) {
  util::Rng gen(202);
  trace::CabspottingLikeParams params;
  params.mobility.num_nodes = 25;
  params.duration = 2000;
  auto tr = trace::generate_cabspotting_like(params, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(25, 1.0, 1.0), 4);
  utility::ExponentialUtility u(0.05);
  util::Rng prng(303);
  const auto competitors =
      build_competitors(scenario, u, OptMode::kHomogeneous, prng);
  SimOptions options;
  options.kernel = kernel;
  util::Rng rng(404);
  return run_fixed(scenario, u, competitors[1].name,
                   competitors[1].placement, options, rng);
}

SimulationResult run_config_c(SimKernel kernel) {
  util::Rng gen(505);
  auto tr = trace::generate_poisson({20, 1200, 0.04}, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(20, 1.0, 1.0), 4);
  utility::StepUtility u(20.0);
  SimOptions options;
  options.kernel = kernel;
  options.faults.p_drop = 0.05;
  options.faults.p_truncate = 0.05;
  options.faults.p_duplicate = 0.02;
  options.faults.p_reorder = 0.1;
  options.faults.p_crash = 0.0005;
  options.faults.seed = 909;
  util::Rng rng(606);
  return run_qcr(scenario, u, QcrOptions{}, options, rng);
}

TEST(KernelGolden, SlotSteppedQcrMatchesPrePrCapture) {
  const auto r = run_config_a(SimKernel::slot_stepped);
  EXPECT_DOUBLE_EQ(r.total_gain, 1344.0);
  EXPECT_EQ(r.fulfillments, 1189u);
  EXPECT_EQ(r.immediate_fulfillments, 294u);
  EXPECT_EQ(r.censored_requests, 5u);
  EXPECT_EQ(r.requests_created, 1488u);
  EXPECT_DOUBLE_EQ(r.mean_delay, 5.0647603027754418);
  EXPECT_DOUBLE_EQ(r.mean_query_count, 6.6627417998317915);
}

TEST(KernelGolden, SlotSteppedFixedMatchesPrePrCapture) {
  const auto r = run_config_b(SimKernel::slot_stepped);
  EXPECT_DOUBLE_EQ(r.total_gain, 607.35286051271407);
  EXPECT_EQ(r.fulfillments, 1644u);
  EXPECT_EQ(r.immediate_fulfillments, 310u);
  EXPECT_EQ(r.censored_requests, 89u);
  EXPECT_EQ(r.requests_created, 2043u);
  EXPECT_DOUBLE_EQ(r.mean_delay, 92.50121654501217);
  EXPECT_DOUBLE_EQ(r.mean_query_count, 5.5504866180048662);
}

TEST(KernelGolden, FaultySlotSteppedMatchesPr3Capture) {
  const auto r = run_config_c(SimKernel::slot_stepped);
  EXPECT_DOUBLE_EQ(r.total_gain, 1138.0);
  EXPECT_EQ(r.fulfillments, 885u);
  EXPECT_EQ(r.immediate_fulfillments, 313u);
  EXPECT_EQ(r.censored_requests, 3u);
  EXPECT_EQ(r.requests_created, 1202u);
  EXPECT_DOUBLE_EQ(r.mean_delay, 7.5683615819209038);
  EXPECT_DOUBLE_EQ(r.mean_query_count, 5.1276836158192092);
  EXPECT_EQ(r.faults.meetings_dropped, 446u);
  EXPECT_EQ(r.faults.crashes, 7u);
}

// Event-kernel locks: the same three configs under SimKernel::event_driven,
// captured before the simulator was split into its two kernel loops. The
// event kernel's RNG use differs from the slot kernel's, so these pin its
// own stream, not agreement with the slot goldens above.

TEST(KernelGolden, EventDrivenQcrMatchesCapture) {
  const auto r = run_config_a(SimKernel::event_driven);
  EXPECT_EQ(r.total_gain, 1348.0);
  EXPECT_EQ(r.fulfillments, 1225u);
  EXPECT_EQ(r.immediate_fulfillments, 276u);
  EXPECT_EQ(r.censored_requests, 5u);
  EXPECT_EQ(r.requests_created, 1506u);
  EXPECT_EQ(r.mean_delay, 5.3951020408163268);
  EXPECT_EQ(r.mean_query_count, 7.0465306122448981);
  EXPECT_EQ(r.final_counts,
            (std::vector<int>{9, 7, 9, 6, 6, 6, 5, 5, 4, 3, 3, 3, 4, 4, 4,
                              2, 3, 3, 3, 3, 3, 4, 2, 4, 3, 1, 2, 3, 3, 3}));
}

TEST(KernelGolden, EventDrivenFixedMatchesCapture) {
  const auto r = run_config_b(SimKernel::event_driven);
  EXPECT_EQ(r.total_gain, 609.43428311208504);
  EXPECT_EQ(r.fulfillments, 1569u);
  EXPECT_EQ(r.immediate_fulfillments, 328u);
  EXPECT_EQ(r.censored_requests, 88u);
  EXPECT_EQ(r.requests_created, 1985u);
  EXPECT_EQ(r.mean_delay, 93.521988527724659);
  EXPECT_EQ(r.mean_query_count, 5.6335245379222432);
  EXPECT_EQ(r.final_counts, std::vector<int>(25, 4));
}

TEST(KernelGolden, EventDrivenFaultyMatchesCapture) {
  const auto r = run_config_c(SimKernel::event_driven);
  EXPECT_EQ(r.total_gain, 1117.0);
  EXPECT_EQ(r.fulfillments, 907u);
  EXPECT_EQ(r.immediate_fulfillments, 292u);
  EXPECT_EQ(r.censored_requests, 2u);
  EXPECT_EQ(r.requests_created, 1202u);
  EXPECT_EQ(r.mean_delay, 8.0937155457552379);
  EXPECT_EQ(r.mean_query_count, 5.471885336273429);
  EXPECT_EQ(r.final_counts,
            (std::vector<int>{11, 7, 3, 3, 2, 5, 5, 3, 3, 3, 3, 4, 3, 5, 2,
                              5, 2, 2, 3, 2}));
  const fault::FaultCounters& f = r.faults;
  EXPECT_EQ(f.crashes, 10u);
  EXPECT_EQ(f.cold_restarts, 0u);
  EXPECT_EQ(f.replicas_lost, 29u);
  EXPECT_EQ(f.mandates_lost, 0);
  EXPECT_EQ(f.requests_lost, 1u);
  EXPECT_EQ(f.meetings_skipped_down, 54u);
  EXPECT_EQ(f.requests_suppressed, 5u);
  EXPECT_EQ(f.meetings_dropped, 440u);
  EXPECT_EQ(f.meetings_duplicated, 181u);
  EXPECT_EQ(f.slots_reordered, 109u);
  EXPECT_EQ(f.exchanges_truncated, 56u);
  EXPECT_EQ(f.fulfilments_deferred, 59u);
}

// ---------------------------------------------------------------------
// Fault-active event kernel. Since this PR the event kernel no longer
// falls back to slot-stepping under faults: per-slot crash hazards
// become per-node geometric-skip draws (FaultPlan::next_node_crash), a
// different use of the fault streams, so the two kernels agree in
// distribution — overlapping 95% CIs — not bit for bit. The slot-stepped
// goldens above still pin the per-slot formulation exactly.

/// Churn-heavy QCR: crashes with short downtime plus truncated meetings,
/// exercising mandate loss, request loss and demand suppression under
/// both kernels.
TEST(KernelEquivalence, FaultyChurnQcr) {
  util::Rng gen(44);
  auto tr = trace::generate_poisson({20, 1200, 0.04}, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(20, 1.0, 1.0), 4);
  utility::StepUtility u(20.0);
  fault::FaultConfig faults;
  faults.p_crash = 0.002;
  faults.mean_downtime = 15.0;
  faults.p_persist_cache = 0.3;
  faults.p_truncate = 0.15;
  expect_kernels_equivalent([&](SimKernel kernel, std::uint64_t seed) {
    SimOptions options;
    options.kernel = kernel;
    options.faults = faults;
    options.faults.seed = engine::child_seed(seed, "fault");
    util::Rng rng(seed);
    const auto r = run_qcr(scenario, u, QcrOptions{}, options, rng);
    EXPECT_GT(r.faults.injected_events(), 0u);
    check_fault_invariants(r, options.faults);
    return r;
  });
}

/// Degraded-channel fixed placement: drops, duplicates, reordering and
/// truncation with rare crashes on a sparse trace — the Fig. 3 divergence
/// pathology's channel on the event kernel's favourite terrain.
TEST(KernelEquivalence, FaultyDegradedChannelFixedPlacement) {
  util::Rng gen(55);
  trace::CabspottingLikeParams params;
  params.mobility.num_nodes = 20;
  params.duration = 1500;
  auto tr = trace::generate_cabspotting_like(params, gen);
  auto scenario =
      make_scenario(std::move(tr), Catalog::pareto(25, 1.0, 1.0), 4);
  utility::ExponentialUtility u(0.05);
  util::Rng prng(56);
  const auto competitors =
      build_competitors(scenario, u, OptMode::kHomogeneous, prng);
  const auto& uni = competitors[1];
  fault::FaultConfig faults;
  faults.p_drop = 0.1;
  faults.p_duplicate = 0.05;
  faults.p_reorder = 0.2;
  faults.p_truncate = 0.2;
  faults.p_crash = 0.001;
  faults.mean_downtime = 25.0;
  expect_kernels_equivalent([&](SimKernel kernel, std::uint64_t seed) {
    SimOptions options;
    options.kernel = kernel;
    options.faults = faults;
    options.faults.seed = engine::child_seed(seed, "fault");
    util::Rng rng(seed);
    const auto r =
        run_fixed(scenario, u, uni.name, uni.placement, options, rng);
    check_fault_invariants(r, options.faults);
    return r;
  });
}

/// The PR 3/PR 4 faulty golden config now rides the jump loop when the
/// event kernel is requested: faults must actually fire there, with exact
/// conservation — and the run must be reproducible draw for draw.
TEST(KernelGolden, FaultActiveEventKernelRidesTheJumpLoop) {
  const auto event = run_config_c(SimKernel::event_driven);
  EXPECT_GT(event.faults.meetings_dropped, 0u);
  EXPECT_GT(event.faults.crashes, 0u);
  check_conservation(event);
  const auto again = run_config_c(SimKernel::event_driven);
  EXPECT_DOUBLE_EQ(again.total_gain, event.total_gain);
  EXPECT_EQ(again.fulfillments, event.fulfillments);
  EXPECT_EQ(again.final_counts, event.final_counts);
  EXPECT_EQ(again.faults.crashes, event.faults.crashes);
}

/// A zero-probability plan on the event kernel must be bit-identical to
/// the fault-free event kernel: the fault machinery is engaged but every
/// decision draws from the plan's private streams, so the simulation RNG
/// sees the exact same sequence.
TEST(KernelGolden, ZeroProbabilityFaultEventBitIdenticalToNoFaultEvent) {
  auto run = [&](bool engage_zero_faults) {
    util::Rng gen(505);
    auto tr = trace::generate_poisson({20, 1200, 0.04}, gen);
    auto scenario =
        make_scenario(std::move(tr), Catalog::pareto(20, 1.0, 1.0), 4);
    utility::StepUtility u(20.0);
    SimOptions options;
    options.kernel = SimKernel::event_driven;
    if (engage_zero_faults) {
      options.faults.engage_when_zero = true;
      options.faults.seed = 909;
    }
    util::Rng rng(606);
    return run_qcr(scenario, u, QcrOptions{}, options, rng);
  };
  const auto plain = run(false);
  const auto zero = run(true);
  EXPECT_DOUBLE_EQ(zero.total_gain, plain.total_gain);
  EXPECT_EQ(zero.fulfillments, plain.fulfillments);
  EXPECT_EQ(zero.immediate_fulfillments, plain.immediate_fulfillments);
  EXPECT_EQ(zero.censored_requests, plain.censored_requests);
  EXPECT_EQ(zero.requests_created, plain.requests_created);
  EXPECT_DOUBLE_EQ(zero.mean_delay, plain.mean_delay);
  EXPECT_DOUBLE_EQ(zero.mean_query_count, plain.mean_query_count);
  EXPECT_EQ(zero.final_counts, plain.final_counts);
  EXPECT_FALSE(zero.faults.any());
  ASSERT_EQ(zero.observed_series.size(), plain.observed_series.size());
  for (std::size_t i = 0; i < zero.observed_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(zero.observed_series[i].value,
                     plain.observed_series[i].value);
  }
}

}  // namespace
}  // namespace impatience::core
