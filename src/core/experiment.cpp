#include <cmath>
#include <memory>
#include <stdexcept>

#include "impatience/core/experiment.hpp"

namespace impatience::core {

namespace {

SimulationResult run_qcr_impl(const Scenario& scenario,
                              const utility::UtilitySet& utilities,
                              const QcrOptions& qcr_options,
                              const SimOptions& base_options,
                              util::Rng& rng) {
  SimOptions options = base_options;
  options.cache_capacity = scenario.capacity;
  options.sticky_replicas = true;
  options.initial_placement.reset();

  const auto policy = make_qcr_policy(
      qcr_options.mandate_routing ? "QCR" : "QCR-noMR",
      QcrReaction(utilities, scenario.mu,
                  static_cast<double>(scenario.num_nodes()),
                  scenario.capacity, qcr_options),
      qcr_options);
  return simulate(scenario.trace, scenario.catalog, utilities, *policy,
                  options, rng);
}

}  // namespace

std::vector<NamedCounts> baseline_competitors(
    const std::vector<double>& demand, int capacity, double num_servers) {
  const double capacity_total = capacity * num_servers;
  const auto cap_per_item = static_cast<int>(std::llround(num_servers));
  auto rounded = [&](const char* name, const alloc::ItemCounts& real) {
    return NamedCounts{name, alloc::round_counts(real, cap_per_item)};
  };
  std::vector<NamedCounts> out;
  out.reserve(4);
  out.push_back(rounded("UNI", alloc::uniform_allocation(demand.size(),
                                                        capacity_total,
                                                        num_servers)));
  out.push_back(rounded(
      "SQRT", alloc::sqrt_allocation(demand, capacity_total, num_servers)));
  out.push_back(rounded(
      "PROP", alloc::prop_allocation(demand, capacity_total, num_servers)));
  out.push_back(
      {"DOM", alloc::dom_allocation(demand, capacity, num_servers)});
  return out;
}

Scenario make_scenario(trace::ContactTrace trace, Catalog catalog,
                       int capacity) {
  const double mu = trace::estimate_rates(trace).mean_rate();
  if (!(mu > 0.0)) {
    throw std::invalid_argument("make_scenario: trace has no contacts");
  }
  return Scenario{std::move(trace), std::move(catalog), capacity, mu};
}

/// U is either DelayUtility or UtilitySet; the alloc layer has matching
/// overloads for both.
template <typename U>
void CompetitorPlan::plan(const Scenario& scenario, const U& utility,
                          OptMode opt_mode) {
  const auto& demand = scenario.catalog.demands();
  const auto num_items = scenario.catalog.num_items();
  num_servers_ = scenario.num_nodes();
  capacity_ = scenario.capacity;

  // OPT.
  if (opt_mode == OptMode::kHomogeneous) {
    alloc::HomogeneousModel model{scenario.mu, num_servers_, num_servers_,
                                  alloc::SystemMode::kPureP2P};
    counts_.push_back(
        {"OPT", alloc::homogeneous_greedy(
                    demand, utility, model,
                    capacity_ * static_cast<int>(num_servers_))});
  } else {
    const auto rates = trace::estimate_rates(scenario.trace);
    std::vector<NodeId> nodes(num_servers_);
    for (NodeId n = 0; n < num_servers_; ++n) nodes[n] = n;
    fixed_opt_ = alloc::lazy_greedy_placement(rates, demand, utility, nodes,
                                              nodes, num_items, capacity_);
  }

  for (auto& baseline : baseline_competitors(
           demand, capacity_, static_cast<double>(num_servers_))) {
    counts_.push_back(std::move(baseline));
  }
}

CompetitorPlan::CompetitorPlan(const Scenario& scenario,
                               const utility::DelayUtility& utility,
                               OptMode opt_mode) {
  plan(scenario, utility, opt_mode);
}

CompetitorPlan::CompetitorPlan(const Scenario& scenario,
                               const utility::UtilitySet& utilities,
                               OptMode opt_mode) {
  if (utilities.size() != scenario.catalog.num_items()) {
    throw std::invalid_argument(
        "CompetitorPlan: utility set size != item count");
  }
  plan(scenario, utilities, opt_mode);
}

std::vector<NamedPlacement> CompetitorPlan::draw(util::Rng& rng) const {
  std::vector<NamedPlacement> out;
  out.reserve(counts_.size() + (fixed_opt_ ? 1 : 0));
  if (fixed_opt_) out.push_back({"OPT", *fixed_opt_});
  for (const auto& [name, counts] : counts_) {
    out.push_back(
        {name, alloc::place_counts(counts, num_servers_, capacity_, rng)});
  }
  return out;
}

std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::DelayUtility& utility,
    OptMode opt_mode, util::Rng& rng) {
  return CompetitorPlan(scenario, utility, opt_mode).draw(rng);
}

std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::UtilitySet& utilities,
    OptMode opt_mode, util::Rng& rng) {
  return CompetitorPlan(scenario, utilities, opt_mode).draw(rng);
}

SimulationResult run_fixed(const Scenario& scenario,
                           const utility::DelayUtility& utility,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility,
                                      scenario.catalog.num_items());
  return run_fixed(scenario, utilities, name, placement, base_options, rng);
}

SimulationResult run_fixed(const Scenario& scenario,
                           const utility::UtilitySet& utilities,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng) {
  SimOptions options = base_options;
  options.cache_capacity = scenario.capacity;
  options.sticky_replicas = false;  // frozen caches cannot lose items
  options.initial_placement = placement;
  StaticPolicy policy;
  auto result = simulate(scenario.trace, scenario.catalog, utilities, policy,
                         options, rng);
  result.policy = name;
  return result;
}

SimulationResult run_qcr(const Scenario& scenario,
                         const utility::DelayUtility& utility,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng) {
  const utility::UtilitySet utilities(utility,
                                      scenario.catalog.num_items());
  return run_qcr_impl(scenario, utilities, qcr_options, base_options, rng);
}

SimulationResult run_qcr(const Scenario& scenario,
                         const utility::UtilitySet& utilities,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng) {
  if (utilities.size() != scenario.catalog.num_items()) {
    throw std::invalid_argument("run_qcr: utility set size != item count");
  }
  return run_qcr_impl(scenario, utilities, qcr_options, base_options, rng);
}

double normalized_loss_percent(double utility_value, double opt_value) {
  const double denom = std::abs(opt_value);
  if (denom == 0.0) {
    throw std::invalid_argument("normalized_loss_percent: |U_opt| == 0");
  }
  return 100.0 * (utility_value - opt_value) / denom;
}

std::function<double(std::span<const int>)> homogeneous_welfare_probe(
    Catalog catalog, const utility::DelayUtility& utility,
    alloc::HomogeneousModel model) {
  // The probe outlives the caller's utility reference; keep a clone.
  std::shared_ptr<const utility::DelayUtility> u = utility.clone();
  auto cat = std::make_shared<Catalog>(std::move(catalog));
  return [u, cat, model](std::span<const int> counts) {
    alloc::ItemCounts x;
    x.x.assign(counts.begin(), counts.end());
    return alloc::welfare_homogeneous(x, cat->demands(), *u, model);
  };
}

WelfareProbe::WelfareProbe(const Scenario& scenario,
                           const utility::UtilitySet& utilities)
    : rates_(trace::estimate_rates(scenario.trace)) {
  const Population pop = Population::pure_p2p(scenario.num_nodes());
  oracle_ = std::make_unique<alloc::MarginalOracle>(
      rates_, scenario.catalog.demands(), utilities, pop.servers, pop.clients);
}

}  // namespace impatience::core
