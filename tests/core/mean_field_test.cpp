// Mean-field evaluator validation (docs/perf.md §6): the discrete
// fidelity must agree with the event/slot kernels' observed utility —
// the mean-field value sits inside the simulated confidence interval —
// across scenario families (homogeneous step/exponential/power-cost,
// community class rates, N = 500 event-kernel), plus deterministic
// algebra checks on the gain table and the QCR fluid ODE. Runs under
// `ctest -L sim`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "impatience/alloc/discrete_gain.hpp"
#include "impatience/alloc/rounding.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/core/mean_field.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/families.hpp"

namespace impatience::core {
namespace {

/// Wide (z = 2.8, ~99.5%) confidence interval of a sample mean: the
/// mean-field value is the *exact* expectation for frozen placements, so
/// a 95% interval would flag it ~1 time in 20 by construction; the wider
/// band keeps the fixed-seed checks comfortably deterministic while
/// still catching real model errors (which show up as many-sigma gaps).
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
  const double half = 2.8 * std::sqrt(var / n);
  return {mean - half, mean + half};
}

void expect_in_ci(const std::vector<double>& samples, double exact,
                  const char* what) {
  const Interval ci = confidence_interval(samples);
  EXPECT_TRUE(ci.lo <= exact && exact <= ci.hi)
      << what << ": mean-field " << exact << " outside sim CI [" << ci.lo
      << ", " << ci.hi << "]";
}

/// One frozen-placement trial on a fresh trace: trace and simulation RNGs
/// both derive from `seed` (fresh traces, unlike the kernel-equivalence
/// suite, because the mean-field value is an expectation over traces).
double frozen_sample(const trace::PoissonTraceParams& params,
                     const Catalog& catalog,
                     const utility::DelayUtility& u,
                     const alloc::Placement& placement, int capacity,
                     SimKernel kernel, std::uint64_t seed) {
  util::Rng gen(9000 + seed);
  const auto tr = trace::generate_poisson(params, gen);
  SimOptions options;
  options.cache_capacity = capacity;
  options.kernel = kernel;
  options.sticky_replicas = false;
  options.initial_placement = placement;
  StaticPolicy policy;
  util::Rng rng(100 + seed);
  return simulate(tr, catalog, u, policy, options, rng).observed_utility();
}

MeanFieldModel model_for(const trace::PoissonTraceParams& params) {
  MeanFieldModel m;
  m.mu = params.mu;
  m.num_nodes = params.num_nodes;
  m.horizon = params.duration;
  return m;
}

/// Validates every mean-field competitor value against frozen-placement
/// simulations of the same integer counts.
void expect_competitors_match(const trace::PoissonTraceParams& params,
                              const Catalog& catalog,
                              const utility::DelayUtility& u, int capacity,
                              SimKernel kernel, int seeds) {
  const MeanFieldModel m = model_for(params);
  const auto competitors =
      mean_field_competitors(catalog.demands(), u, m, capacity);
  for (const auto& [name, counts] : competitors) {
    if (name == "DOM") continue;  // starves items; covered in Fig4 bench
    const double mf = mean_field_welfare(counts, catalog.demands(), u, m);
    util::Rng prng(4242);
    const auto placement =
        alloc::place_counts(counts, params.num_nodes, capacity, prng);
    std::vector<double> samples;
    for (int s = 0; s < seeds; ++s) {
      samples.push_back(frozen_sample(params, catalog, u, placement,
                                      capacity, kernel,
                                      static_cast<std::uint64_t>(s)));
    }
    expect_in_ci(samples, mf, name.c_str());
  }
}

// --------------------------------------------------------------------
// Family A: homogeneous contacts, step utility, slot kernel, N = 100.

TEST(MeanFieldValidation, StepUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  expect_competitors_match(params, catalog, u, 4, SimKernel::slot_stepped,
                           16);
}

// Family B: exponential decay and power-cost utilities, N = 100.

TEST(MeanFieldValidation, ExponentialUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::ExponentialUtility u(0.05);
  expect_competitors_match(params, catalog, u, 4, SimKernel::slot_stepped,
                           16);
}

TEST(MeanFieldValidation, PowerCostUtilityHomogeneousN100) {
  trace::PoissonTraceParams params{100, 600, 0.03};
  const auto catalog = Catalog::pareto(15, 1.0, 1.0);
  utility::PowerUtility u(0.5);  // h(t) = -2 sqrt(t): a waiting cost
  expect_competitors_match(params, catalog, u, 3, SimKernel::slot_stepped,
                           16);
}

// Family C: class-based (community) contact rates.

TEST(MeanFieldValidation, CommunityClassRatesN100) {
  trace::CommunityTraceParams params;
  params.num_nodes = 100;
  params.duration = 800;
  params.num_communities = 4;
  params.intra_rate = 0.05;
  params.inter_rate = 0.002;
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  const int capacity = 4;

  // A mean-rate-tuned UNI placement, split into per-class counts.
  const MeanFieldClassModel cm = community_class_model(params);
  util::Rng prng(77);
  const auto counts = alloc::round_counts(
      alloc::uniform_allocation(catalog.num_items(),
                                capacity * static_cast<double>(
                                               params.num_nodes),
                                params.num_nodes),
      static_cast<int>(params.num_nodes));
  const auto placement =
      alloc::place_counts(counts, params.num_nodes, capacity, prng);
  const auto by_class =
      counts_by_community(placement, params.num_communities);
  const double mf =
      mean_field_welfare_classes(by_class, catalog.demands(), u, cm);

  std::vector<double> samples;
  for (int s = 0; s < 16; ++s) {
    util::Rng gen(9000 + static_cast<std::uint64_t>(s));
    const auto tr = trace::generate_community_trace(params, gen);
    SimOptions options;
    options.cache_capacity = capacity;
    options.sticky_replicas = false;
    options.initial_placement = placement;
    StaticPolicy policy;
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    samples.push_back(
        simulate(tr, catalog, u, policy, options, rng).observed_utility());
  }
  expect_in_ci(samples, mf, "community UNI");
}

TEST(MeanFieldClassModelTest, DegeneratesToHomogeneousOnEqualRates) {
  // Equal intra/inter rates and counts split proportional to class size
  // must reproduce the homogeneous evaluator exactly.
  const double mu = 0.02;
  MeanFieldClassModel cm;
  cm.class_sizes = {25.0, 25.0, 25.0, 25.0};
  cm.rates.assign(4, std::vector<double>(4, mu));
  cm.horizon = 500;
  utility::ExponentialUtility u(0.1);

  MeanFieldModel hm;
  hm.mu = mu;
  hm.num_nodes = 100;
  hm.horizon = 500;

  const std::vector<double> demand = {1.0, 0.5, 0.25};
  alloc::ItemCounts total;
  total.x = {8.0, 4.0, 12.0};  // all divisible by 4 classes
  std::vector<alloc::ItemCounts> split(4);
  for (auto& c : split) {
    c.x = {2.0, 1.0, 3.0};
  }
  const double classes = mean_field_welfare_classes(split, demand, u, cm);
  const double homogeneous = mean_field_welfare(total, demand, u, hm);
  EXPECT_NEAR(classes, homogeneous, 1e-12 + 1e-9 * std::abs(homogeneous));
}

// Family D: larger sparse system on the event kernel, N = 500.

TEST(MeanFieldValidation, EventKernelN500) {
  trace::PoissonTraceParams params{500, 200, 0.01};
  const auto catalog = Catalog::pareto(30, 1.0, 1.0);
  utility::StepUtility u(15.0);
  const MeanFieldModel m = model_for(params);
  const auto counts = alloc::round_counts(
      alloc::sqrt_allocation(catalog.demands(),
                             3.0 * static_cast<double>(params.num_nodes),
                             params.num_nodes),
      static_cast<int>(params.num_nodes));
  const double mf = mean_field_welfare(counts, catalog.demands(), u, m);
  util::Rng prng(4242);
  const auto placement =
      alloc::place_counts(counts, params.num_nodes, 3, prng);
  std::vector<double> samples;
  for (int s = 0; s < 8; ++s) {
    samples.push_back(frozen_sample(params, catalog, u, placement, 3,
                                    SimKernel::event_driven,
                                    static_cast<std::uint64_t>(s)));
  }
  expect_in_ci(samples, mf, "SQRT @ N=500");
}

// --------------------------------------------------------------------
// Deterministic algebra checks.

TEST(CensoredDiscreteGain, StepUtilityZeroHazardClosedForm) {
  // q = 0: every request is censored; with h = 1{t <= tau} the average
  // censored mass is the tau - 1 creation slots whose final age stays
  // within the deadline (ages run 2..T+1 for k = 1..T).
  utility::StepUtility u(10.0);
  const double g = alloc::censored_geometric_gain(u, 0.0, 800);
  EXPECT_NEAR(g, 9.0 / 800.0, 1e-12);
}

TEST(CensoredDiscreteGain, DeterministicHazardClosedForm) {
  // q = 1: fulfilment at the first opportunity, gain h(1) regardless of
  // the creation slot.
  utility::ExponentialUtility u(0.3);
  const double g = alloc::censored_geometric_gain(u, 1.0, 500);
  EXPECT_NEAR(g, u.value(1.0), 1e-12);
}

TEST(CensoredDiscreteGain, TableMatchesDirectEvaluation) {
  utility::ExponentialUtility u(0.07);
  alloc::DiscreteGainModel m;
  m.mu = 0.03;
  m.num_nodes = 60;
  m.horizon = 400;
  const alloc::DiscreteGainTable table(u, m, 60);
  for (long x : {0L, 1L, 2L, 7L, 30L, 60L}) {
    EXPECT_NEAR(table.gain(static_cast<double>(x)),
                alloc::item_gain_discrete(u, m, static_cast<double>(x)),
                1e-12)
        << "x=" << x;
  }
  // Interpolation: halfway between the integer anchors.
  const double mid = table.gain(7.5);
  EXPECT_NEAR(mid, 0.5 * (table.gain(7.0) + table.gain(8.0)), 1e-12);
  // Marginals are first differences of the same table.
  EXPECT_NEAR(table.marginal(7), table.gain(8.0) - table.gain(7.0), 1e-15);
}

TEST(CensoredDiscreteGain, ConvergesToContinuousClosedFormForSmallMu) {
  // As mu -> 0 with a horizon far beyond the utility's support, the
  // discrete censored-geometric model approaches the continuous-time
  // exponential-race closed form used by alloc::item_gain.
  utility::ExponentialUtility u(0.05);
  MeanFieldModel discrete;
  discrete.mu = 0.002;
  discrete.num_nodes = 200;
  discrete.horizon = 40000;
  MeanFieldModel continuous = discrete;
  continuous.horizon = 0;  // the continuous closed forms
  const MeanFieldEvaluator d(u, discrete);
  const MeanFieldEvaluator c(u, continuous);
  for (double x : {1.0, 5.0, 20.0, 80.0}) {
    EXPECT_NEAR(d.item_gain(x), c.item_gain(x),
                0.02 * std::abs(c.item_gain(x)) + 1e-4)
        << "x=" << x;
  }
}

TEST(CensoredDiscreteGain, UnboundedAtZeroThrows) {
  utility::PowerUtility u(1.5);  // 1 < alpha < 2: h(0+) = +inf
  alloc::DiscreteGainModel m;
  EXPECT_THROW(alloc::item_gain_discrete(u, m, 3.0), std::domain_error);
  MeanFieldModel mf;
  EXPECT_THROW(MeanFieldEvaluator(u, mf), std::domain_error);
}

TEST(MeanFieldGreedy, MatchesHomogeneousGreedyInContinuousMode) {
  const auto catalog = Catalog::pareto(12, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.05;
  m.num_nodes = 50;
  m.horizon = 0;  // automatic -> continuous
  const auto counts = mean_field_greedy(catalog.demands(), u, m, 150);
  alloc::HomogeneousModel hm;
  hm.mu = 0.05;
  hm.num_servers = 50;
  hm.num_clients = 50;
  const auto reference =
      alloc::homogeneous_greedy(catalog.demands(), u, hm, 150);
  ASSERT_EQ(counts.x.size(), reference.x.size());
  for (std::size_t i = 0; i < counts.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(counts.x[i], reference.x[i]) << "item " << i;
  }
}

TEST(MeanFieldGreedy, DiscreteGreedyIsCapacityTightAndUndominated) {
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.02;
  m.num_nodes = 100;
  m.horizon = 800;
  const long capacity = 400;
  const auto opt = mean_field_greedy(catalog.demands(), u, m, capacity);
  EXPECT_NEAR(opt.total(), static_cast<double>(capacity), 1e-9);
  const double w_opt = mean_field_welfare(opt, catalog.demands(), u, m);
  // Greedy must not lose to the heuristics it competes against.
  for (const auto& [name, counts] :
       mean_field_competitors(catalog.demands(), u, m, 4)) {
    const double w = mean_field_welfare(counts, catalog.demands(), u, m);
    EXPECT_GE(w_opt, w - 1e-9) << name;
  }
}

// --------------------------------------------------------------------
// QCR fluid ODE: conservation, the sticky floor, and agreement with the
// simulated QCR within a loose band (the ODE replaces the stochastic
// query counter with its mean, so this is an approximation, not the
// exact expectation the frozen-placement checks enjoy).

TEST(MeanFieldQcr, ConservesMassAndRespectsStickyFloor) {
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m;
  m.mu = 0.02;
  m.num_nodes = 100;
  m.horizon = 800;
  const auto r = mean_field_qcr(catalog.demands(), u, m, 4);
  EXPECT_GT(r.steps, 0);
  double total = 0.0;
  for (double x : r.final_counts.x) {
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 100.0 + 1e-9);
    total += x;
  }
  EXPECT_NEAR(total, 400.0, 1e-6);
  EXPECT_TRUE(std::isfinite(r.mean_welfare_rate));
  EXPECT_TRUE(std::isfinite(r.final_welfare_rate));
}

TEST(MeanFieldQcr, TracksSimulatedQcrWithinLooseBand) {
  trace::PoissonTraceParams params{100, 800, 0.02};
  const auto catalog = Catalog::pareto(20, 1.0, 1.0);
  utility::StepUtility u(10.0);
  MeanFieldModel m = model_for(params);
  const auto mf = mean_field_qcr(catalog.demands(), u, m, 4);

  std::vector<double> samples;
  for (int s = 0; s < 8; ++s) {
    util::Rng gen(9000 + static_cast<std::uint64_t>(s));
    Scenario scenario{trace::generate_poisson(params, gen), catalog, 4,
                      params.mu};
    SimOptions options;
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    samples.push_back(run_qcr(scenario, u, QcrOptions{}, options, rng)
                          .observed_utility());
  }
  double sim_mean = 0.0;
  for (double s : samples) sim_mean += s;
  sim_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mf.mean_welfare_rate, sim_mean, 0.35 * std::abs(sim_mean))
      << "fluid QCR diverged from simulated QCR";
}

// --------------------------------------------------------------------
// Exact captures: the count-space competitor set, each competitor's
// welfare and the QCR ODE, pinned bit for bit on a small power and a
// small step case (N = 60, 10 items, rho = 3). The power case caps the
// burst below the reaction at low counts, so the cap is on the path.

struct GoldenCompetitor {
  const char* name;
  std::vector<double> counts;
  double welfare;
};

MeanFieldModel golden_model() {
  MeanFieldModel m;
  m.mu = 0.02;
  m.num_nodes = 60;
  m.horizon = 600;
  return m;
}

void expect_competitors_golden(const utility::DelayUtility& u,
                               const std::vector<double>& demand,
                               const MeanFieldModel& m, int rho,
                               const std::vector<GoldenCompetitor>& golden) {
  const auto competitors = mean_field_competitors(demand, u, m, rho);
  ASSERT_EQ(competitors.size(), golden.size());
  for (std::size_t k = 0; k < golden.size(); ++k) {
    EXPECT_EQ(competitors[k].name, golden[k].name);
    EXPECT_EQ(competitors[k].counts.x, golden[k].counts) << golden[k].name;
    EXPECT_EQ(mean_field_welfare(competitors[k].counts, demand, u, m),
              golden[k].welfare)
        << golden[k].name;
  }
}

void expect_competitors_golden(const utility::DelayUtility& u,
                               const std::vector<GoldenCompetitor>& golden) {
  expect_competitors_golden(u, Catalog::pareto(10, 1.0, 1.0).demands(),
                            golden_model(), 3, golden);
}

const std::vector<double> kGoldenSqrt{36, 25, 21, 18, 16, 15, 13, 13, 12, 11};
const std::vector<double> kGoldenProp{60, 31, 21, 16, 12, 10, 9, 8, 7, 6};
const std::vector<double> kGoldenUni(10, 18.0);
const std::vector<double> kGoldenDom{60, 60, 60, 0, 0, 0, 0, 0, 0, 0};

TEST(MeanFieldGolden, PowerCompetitorsMatchCapture) {
  expect_competitors_golden(
      utility::PowerUtility(-1.0),
      {{"OPT", {29, 23, 20, 18, 17, 16, 15, 15, 14, 13}, -5.1033018159080594},
       {"UNI", kGoldenUni, -6.3406660085125628},
       {"SQRT", kGoldenSqrt, -5.4113346413395069},
       {"PROP", kGoldenProp, -10.603470542771344},
       {"DOM", kGoldenDom, -22612.849354197715}});
}

TEST(MeanFieldGolden, StepCompetitorsMatchCapture) {
  expect_competitors_golden(
      utility::StepUtility(10.0),
      {{"OPT", {25, 22, 20, 18, 18, 17, 16, 15, 15, 14}, 0.98630237460760894},
       {"UNI", kGoldenUni, 0.98183531399008872},
       {"SQRT", kGoldenSqrt, 0.98197700414536571},
       {"PROP", kGoldenProp, 0.95451077260113582},
       {"DOM", kGoldenDom, 0.63154247391952312}});
}

TEST(MeanFieldGolden, PowerQcrMatchesCapture) {
  utility::PowerUtility u(-1.0);
  QcrOptions qcr;
  qcr.max_replicas_per_fulfillment = 0.3;
  const auto r = mean_field_qcr(Catalog::pareto(10, 1.0, 1.0).demands(), u,
                                golden_model(), 3, qcr);
  EXPECT_EQ(r.mean_welfare_rate, -5.4455426372832445);
  EXPECT_EQ(r.final_welfare_rate, -5.1797714526028793);
  EXPECT_EQ(r.steps, 22);
  EXPECT_EQ(r.rejected_steps, 6);
  EXPECT_EQ(r.final_counts.x,
            (std::vector<double>{25.803988831728518, 21.592644666858661,
                                 19.505192369817483, 18.195783847873166,
                                 17.277825269646009, 16.590378499578438,
                                 15.979931946561377, 15.43397382508512,
                                 14.99127362018649, 14.629007122664733}));
}

TEST(MeanFieldGolden, StepQcrMatchesCapture) {
  utility::StepUtility u(10.0);
  const auto r = mean_field_qcr(Catalog::pareto(10, 1.0, 1.0).demands(), u,
                                golden_model(), 3);
  EXPECT_EQ(r.mean_welfare_rate, 0.98545750437814128);
  EXPECT_EQ(r.final_welfare_rate, 0.98621471066632393);
  EXPECT_EQ(r.steps, 19);
  EXPECT_EQ(r.rejected_steps, 0);
  EXPECT_EQ(r.final_counts.x,
            (std::vector<double>{24.13751126415605, 21.113218298369219,
                                 19.419704416897616, 18.279566306849212,
                                 17.442554101624324, 16.795363085620064,
                                 16.27702966610153, 15.851074153600438,
                                 15.494024134231713, 15.18995457254983}));
}

// --------------------------------------------------------------------
// Exact captures where the gain table saturates: N = 20000, mu = 0.05,
// T = 500, 50 Pareto items, rho = 5. The per-slot hazard
// q = 1 - (1 - mu)^x reaches exactly 1.0 at x = 730, so every row above
// it is the q == 1 tail that the small goldens above never reach. The
// whole table is pinned through an FNV-1a hash of its rows and of its
// marginals (the bit patterns, least significant byte first).

MeanFieldModel saturating_model() {
  MeanFieldModel m;
  m.mu = 0.05;
  m.num_nodes = 20000;
  m.horizon = 500;
  return m;
}

std::vector<double> saturating_demand() {
  return Catalog::pareto(50, 1.0, 1.0).demands();
}

std::uint64_t fnv1a_bits(std::uint64_t hash, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

void expect_saturating_table(const utility::DelayUtility& u,
                             std::uint64_t gain_hash,
                             std::uint64_t marginal_hash) {
  const MeanFieldModel m = saturating_model();
  const auto n = static_cast<long>(m.num_nodes);
  const alloc::DiscreteGainTable table(u, m, n);
  ASSERT_EQ(table.max_replicas(), n);
  std::uint64_t gains = 14695981039346656037ull;
  std::uint64_t marginals = gains;
  for (long x = 0; x <= n; ++x) {
    gains = fnv1a_bits(gains, table.gain(static_cast<double>(x)));
  }
  for (long x = 0; x < n; ++x) {
    marginals = fnv1a_bits(marginals, table.marginal(x));
  }
  EXPECT_EQ(gains, gain_hash);
  EXPECT_EQ(marginals, marginal_hash);
}

std::vector<double> saturating_uni() {
  return std::vector<double>(50, 2000.0);
}

std::vector<double> saturating_sqrt() {
  return {7842, 5545, 4527, 3921, 3507, 3201, 2964, 2772, 2614, 2480,
          2364, 2264, 2175, 2096, 2025, 1960, 1902, 1848, 1799, 1753,
          1711, 1672, 1635, 1601, 1568, 1538, 1509, 1482, 1456, 1432,
          1408, 1386, 1365, 1345, 1326, 1307, 1289, 1272, 1256, 1240,
          1225, 1210, 1196, 1182, 1169, 1156, 1144, 1132, 1120, 1109};
}

std::vector<double> saturating_prop() {
  return {20000, 11431, 7621, 5716, 4572, 3810, 3266, 2858, 2540, 2286,
          2078,  1905,  1759, 1633, 1524, 1429, 1345, 1270, 1203, 1143,
          1089,  1039,  994,  953,  915,  879,  847,  817,  788,  762,
          738,   714,   693,  672,  653,  635,  618,  602,  586,  572,
          558,   544,   532,  520,  508,  497,  486,  476,  467,  457};
}

std::vector<double> saturating_dom() {
  std::vector<double> counts(50, 0.0);
  for (std::size_t i = 0; i < 5; ++i) counts[i] = 20000;
  return counts;
}

TEST(MeanFieldGolden, SaturatingPowerTableMatchesCapture) {
  expect_saturating_table(utility::PowerUtility(-1.0), 0x00af0be1f4dfc34aull,
                          0x37f3a8a26f9c052aull);
}

TEST(MeanFieldGolden, SaturatingStepTableMatchesCapture) {
  expect_saturating_table(utility::StepUtility(10.0), 0xc66dbd91c785541aull,
                          0xbb57a913154ff3c5ull);
}

TEST(MeanFieldGolden, SaturatingPowerCompetitorsMatchCapture) {
  expect_competitors_golden(
      utility::PowerUtility(-1.0), saturating_demand(), saturating_model(), 5,
      {{"OPT",
        {20000, 20000, 20000, 20000, 14059, 188, 174, 166, 161, 156,
         153,   150,   147,   145,   143,   141, 139, 138, 136, 135,
         134,   133,   132,   131,   130,   129, 128, 127, 126, 125,
         124,   124,   123,   122,   122,   121, 120, 120, 119, 119,
         118,   118,   117,   117,   116,   116, 115, 115, 114, 114},
        -0.25181668067004459},
       {"UNI", saturating_uni(), -0.45000000000000029},
       {"SQRT", saturating_sqrt(), -0.39843371142607825},
       {"PROP", saturating_prop(), -0.30945579153921399},
       {"DOM", saturating_dom(), -20706.179365585635}});
}

TEST(MeanFieldGolden, SaturatingStepCompetitorsMatchCapture) {
  // Past q == 1 every request is served within tau, so the marginals are
  // exactly zero and the greedy stops at 73 replicas per item.
  expect_competitors_golden(
      utility::StepUtility(10.0), saturating_demand(), saturating_model(), 5,
      {{"OPT", std::vector<double>(50, 73.0), 1.0000000000000004},
       {"UNI", saturating_uni(), 1.0000000000000004},
       {"SQRT", saturating_sqrt(), 1.0000000000000004},
       {"PROP", saturating_prop(), 1.0000000000000004},
       {"DOM", saturating_dom(), 0.51636208057262944}});
}

TEST(MeanFieldGolden, SaturatingPowerQcrMatchesCapture) {
  const auto r = mean_field_qcr(saturating_demand(),
                                utility::PowerUtility(-1.0),
                                saturating_model(), 5);
  EXPECT_EQ(r.mean_welfare_rate, -0.44991583133509117);
  EXPECT_EQ(r.final_welfare_rate, -0.44983225375175995);
  EXPECT_EQ(r.steps, 19);
  EXPECT_EQ(r.rejected_steps, 0);
  EXPECT_EQ(r.final_counts.x,
            (std::vector<double>{
                2022.4554292494422, 2010.1873936677002, 2006.0627044395801,
                2003.9936271783445, 2002.750012576427,  2001.9200295184085,
                2001.3267393809729, 2000.8815279746009, 2000.5351077880748,
                2000.2578804266268, 2000.0309976902327, 1999.8418872280231,
                1999.6818411901979, 1999.5446373452901, 1999.425711267286,
                1999.3216386974962, 1999.2298004608708, 1999.1481589952432,
                1999.0751054013917, 1999.0093523478943, 1998.9498575553914,
                1998.8957681363024, 1998.8463794462859, 1998.8011042171961,
                1998.759449094224,  1998.7209965847949, 1998.6853910168693,
                1998.6523275047605, 1998.6215431968501, 1998.5928102729865,
                1998.5659302966576, 1998.5407296256824, 1998.5170556570083,
                1998.494773733906,  1998.4737645831876, 1998.4539221793846,
                1998.4351519551494, 1998.417369294137,  1998.4004982556621,
                1998.384470490603,  1998.3692243158987, 1998.3547039212176,
                1998.3408586862943, 1998.3276425913236, 1998.315013705949,
                1998.3029337448888, 1998.2913676802641, 1998.2802834023844,
                1998.2696514220518, 1998.2594446085834}));
}

TEST(MeanFieldGolden, SaturatingStepQcrMatchesCapture) {
  const auto r = mean_field_qcr(saturating_demand(), utility::StepUtility(10.0),
                                saturating_model(), 5);
  EXPECT_EQ(r.mean_welfare_rate, 1.0000000000000002);
  EXPECT_EQ(r.final_welfare_rate, 1.0000000000000004);
  EXPECT_EQ(r.steps, 19);
  EXPECT_EQ(r.rejected_steps, 0);
  EXPECT_EQ(r.final_counts.x, std::vector<double>(50, 2000.0));
}

}  // namespace
}  // namespace impatience::core
