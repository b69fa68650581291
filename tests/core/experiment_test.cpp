#include "impatience/core/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "impatience/utility/families.hpp"

namespace impatience::core {
namespace {

using utility::StepUtility;

Scenario small_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trace = trace::generate_poisson({12, 600, 0.08}, rng);
  return make_scenario(std::move(trace), Catalog::pareto(8, 1.0, 0.5), 3);
}

TEST(MakeScenario, MeasuresMuFromTrace) {
  const auto s = small_scenario(1);
  EXPECT_NEAR(s.mu, 0.08, 0.02);
  EXPECT_EQ(s.capacity, 3);
}

TEST(MakeScenario, RejectsEmptyTrace) {
  trace::ContactTrace empty(4, 10, {});
  EXPECT_THROW(make_scenario(std::move(empty), Catalog::pareto(4, 1.0, 1.0), 2),
               std::invalid_argument);
}

TEST(BuildCompetitors, ProducesTheFivePaperAllocations) {
  const auto s = small_scenario(2);
  StepUtility u(5.0);
  util::Rng rng(3);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set[0].name, "OPT");
  EXPECT_EQ(set[1].name, "UNI");
  EXPECT_EQ(set[2].name, "SQRT");
  EXPECT_EQ(set[3].name, "PROP");
  EXPECT_EQ(set[4].name, "DOM");
}

TEST(BuildCompetitors, AllPlacementsFeasible) {
  const auto s = small_scenario(4);
  StepUtility u(5.0);
  util::Rng rng(5);
  for (auto mode : {OptMode::kHomogeneous, OptMode::kEstimated}) {
    const auto set = build_competitors(s, u, mode, rng);
    for (const auto& [name, placement] : set) {
      for (NodeId server = 0; server < placement.num_servers(); ++server) {
        EXPECT_LE(placement.server_load(server), s.capacity) << name;
      }
    }
  }
}

TEST(BuildCompetitors, DomPutsTopItemsEverywhere) {
  const auto s = small_scenario(6);
  StepUtility u(5.0);
  util::Rng rng(7);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto& dom = set[4].placement;
  for (ItemId i = 0; i < 3; ++i) {  // rho = 3 most popular (Pareto order)
    EXPECT_EQ(dom.count(i), 12);
  }
  for (ItemId i = 3; i < 8; ++i) {
    EXPECT_EQ(dom.count(i), 0);
  }
}

TEST(BuildCompetitors, UniIsFlat) {
  const auto s = small_scenario(8);
  StepUtility u(5.0);
  util::Rng rng(9);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto counts = set[1].placement.counts();
  // 36 slots over 8 items: every item gets 4 or 5 copies.
  for (double c : counts.x) {
    EXPECT_GE(c, 4.0);
    EXPECT_LE(c, 5.0);
  }
}

void expect_same_set(const std::vector<NamedPlacement>& a,
                     const std::vector<NamedPlacement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].name, b[k].name);
    const auto& pa = a[k].placement;
    const auto& pb = b[k].placement;
    ASSERT_EQ(pa.num_items(), pb.num_items());
    ASSERT_EQ(pa.num_servers(), pb.num_servers());
    for (ItemId i = 0; i < pa.num_items(); ++i) {
      EXPECT_EQ(pa.holders(i), pb.holders(i)) << a[k].name << " item " << i;
    }
  }
}

/// Heterogeneous per-item deadlines, so the UtilitySet overload differs
/// from the single-utility one.
utility::UtilitySet mixed_utilities(ItemId items) {
  std::vector<std::unique_ptr<utility::DelayUtility>> set;
  for (ItemId i = 0; i < items; ++i) {
    set.push_back(std::make_unique<StepUtility>(i % 2 == 0 ? 2.0 : 20.0));
  }
  return utility::UtilitySet(std::move(set));
}

/// One plan drawn from several trial streams must equal a fresh
/// build_competitors per stream: same placements and the same rng
/// consumption (the next draw agrees).
template <typename U>
void check_plan_matches_build(const U& u, OptMode mode) {
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const auto s = small_scenario(seed);
    const CompetitorPlan plan(s, u, mode);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      util::Rng a(seed * 1000 + trial);
      util::Rng b(seed * 1000 + trial);
      expect_same_set(plan.draw(a), build_competitors(s, u, mode, b));
      EXPECT_EQ(a(), b()) << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(CompetitorPlan, DrawEqualsBuildCompetitorsForOneUtility) {
  StepUtility u(5.0);
  for (auto mode : {OptMode::kHomogeneous, OptMode::kEstimated}) {
    check_plan_matches_build(u, mode);
  }
}

TEST(CompetitorPlan, DrawEqualsBuildCompetitorsForUtilitySet) {
  const auto set = mixed_utilities(8);
  for (auto mode : {OptMode::kHomogeneous, OptMode::kEstimated}) {
    check_plan_matches_build(set, mode);
  }
}

TEST(RunFixed, NamesResultAndFreezesCaches) {
  const auto s = small_scenario(10);
  StepUtility u(5.0);
  util::Rng rng(11);
  const auto set = build_competitors(s, u, OptMode::kHomogeneous, rng);
  const auto result =
      run_fixed(s, u, set[0].name, set[0].placement, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "OPT");
  const auto counts = set[0].placement.counts();
  for (ItemId i = 0; i < 8; ++i) {
    EXPECT_EQ(result.final_counts[i], static_cast<int>(counts.x[i]));
  }
}

TEST(RunQcr, ProducesReplicationActivity) {
  const auto s = small_scenario(12);
  StepUtility u(5.0);
  util::Rng rng(13);
  const auto result = run_qcr(s, u, QcrOptions{}, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "QCR");
  EXPECT_GT(result.mandates_created, 0);
  EXPECT_GT(result.replicas_written, 0);
  const int total = std::accumulate(result.final_counts.begin(),
                                    result.final_counts.end(), 0);
  EXPECT_EQ(total, s.capacity * 12);
}

TEST(RunQcr, NoRoutingVariantNamed) {
  const auto s = small_scenario(14);
  StepUtility u(5.0);
  util::Rng rng(15);
  QcrOptions opts;
  opts.mandate_routing = false;
  const auto result = run_qcr(s, u, opts, SimOptions{}, rng);
  EXPECT_EQ(result.policy, "QCR-noMR");
}

TEST(NormalizedLoss, Signs) {
  EXPECT_DOUBLE_EQ(normalized_loss_percent(-11.0, -10.0), -10.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(-10.0, -10.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(11.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(normalized_loss_percent(9.0, 10.0), -10.0);
  EXPECT_THROW(normalized_loss_percent(1.0, 0.0), std::invalid_argument);
}

TEST(HomogeneousWelfareProbe, MatchesDirectEvaluation) {
  const auto catalog = Catalog::pareto(4, 1.0, 1.0);
  StepUtility u(2.0);
  alloc::HomogeneousModel model{0.05, 10, 10, alloc::SystemMode::kPureP2P};
  const auto probe = homogeneous_welfare_probe(catalog, u, model);
  const std::vector<int> counts{4, 3, 2, 1};
  alloc::ItemCounts x{{4.0, 3.0, 2.0, 1.0}};
  EXPECT_NEAR(probe(std::span<const int>(counts)),
              alloc::welfare_homogeneous(x, catalog.demands(), u, model),
              1e-12);
}

}  // namespace
}  // namespace impatience::core
