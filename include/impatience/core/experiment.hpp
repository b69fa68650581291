// High-level experiment drivers shared by the benchmark harness and the
// examples: build the Section-6.1 competitor set (OPT / UNI / SQRT / PROP
// / DOM), run QCR, and compare in the paper's normalized-loss units.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "impatience/alloc/heuristics.hpp"
#include "impatience/alloc/rounding.hpp"
#include "impatience/alloc/solvers.hpp"
#include "impatience/core/simulator.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/trace/stats.hpp"
#include "impatience/utility/reaction.hpp"

namespace impatience::core {

/// A fully-specified evaluation setting: contact trace + catalog + cache
/// capacity. `mu` is the homogeneous-equivalent mean pair rate used to
/// tune QCR's reaction function and the homogeneous OPT.
struct Scenario {
  trace::ContactTrace trace;
  Catalog catalog;
  int capacity = 5;  ///< rho
  double mu = 0.05;  ///< mean per-pair contact rate (per slot)

  NodeId num_nodes() const { return trace.num_nodes(); }
};

/// Builds a pure-P2P scenario from a trace, measuring mu from it.
Scenario make_scenario(trace::ContactTrace trace, Catalog catalog,
                       int capacity);

/// How the OPT competitor is computed.
enum class OptMode {
  kHomogeneous,  ///< Theorem-2 greedy with the scenario's mu (exact there)
  kEstimated,    ///< Lemma-1 lazy greedy on trace-estimated pair rates
};

/// A named fixed allocation (competitor).
struct NamedPlacement {
  std::string name;
  alloc::Placement placement;
};

/// A named allocation in count space, integer-valued (ready for
/// alloc::place_counts).
struct NamedCounts {
  std::string name;
  alloc::ItemCounts counts;
};

/// The competitor set's fixed baselines, in order UNI, SQRT, PROP, DOM:
/// capacity * num_servers replicas spread by the alloc heuristics with
/// at most num_servers per item, UNI/SQRT/PROP rounded by round_counts.
/// The one definition behind CompetitorPlan, mean_field_competitors and
/// the dedicated-node harness; OPT is each caller's own.
std::vector<NamedCounts> baseline_competitors(
    const std::vector<double>& demand, int capacity, double num_servers);

/// The paper's competitor set split at the RNG. The constructor does the
/// work that is the same for every trial: the OPT solve (Lemma-1 lazy
/// greedy on estimated rates, or Theorem-2 counts) and the rounded
/// UNI/SQRT/PROP and DOM counts. draw() only materializes the counts
/// with place_counts, so one plan serves every trial of a sweep point.
/// The plan copies what it needs; the scenario and utility may go away.
class CompetitorPlan {
 public:
  CompetitorPlan(const Scenario& scenario,
                 const utility::DelayUtility& utility, OptMode opt_mode);

  /// Per-item delay-utilities h_i (only OPT depends on the utility).
  CompetitorPlan(const Scenario& scenario,
                 const utility::UtilitySet& utilities, OptMode opt_mode);

  /// OPT, UNI, SQRT, PROP, DOM, with the same rng draws in the same
  /// order as build_competitors: the result and the rng's final state
  /// equal a fresh build_competitors(scenario, utility, opt_mode, rng).
  std::vector<NamedPlacement> draw(util::Rng& rng) const;

 private:
  template <typename U>
  void plan(const Scenario& scenario, const U& utility, OptMode opt_mode);

  NodeId num_servers_ = 0;
  int capacity_ = 0;
  /// OPT under kEstimated: a placement, so it needs no draw.
  std::optional<alloc::Placement> fixed_opt_;
  /// Drawn in this order (OPT first under kHomogeneous).
  std::vector<NamedCounts> counts_;
};

/// The paper's competitor set, in order: OPT, UNI, SQRT, PROP, DOM.
/// All receive the perfect control channel: exact cache presets.
/// Equivalent to CompetitorPlan(scenario, utility, opt_mode).draw(rng);
/// build the plan once instead when several trials share the inputs.
std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::DelayUtility& utility,
    OptMode opt_mode, util::Rng& rng);

/// Per-item delay-utilities h_i (only OPT depends on the utility).
std::vector<NamedPlacement> build_competitors(
    const Scenario& scenario, const utility::UtilitySet& utilities,
    OptMode opt_mode, util::Rng& rng);

/// Runs a frozen-cache (STATIC) trial of the given placement.
SimulationResult run_fixed(const Scenario& scenario,
                           const utility::DelayUtility& utility,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng);

SimulationResult run_fixed(const Scenario& scenario,
                           const utility::UtilitySet& utilities,
                           const std::string& name,
                           const alloc::Placement& placement,
                           const SimOptions& base_options, util::Rng& rng);

/// Runs a QCR trial (random initial fill + sticky seeds, reaction tuned
/// to the scenario's utility/mu per Table 1).
SimulationResult run_qcr(const Scenario& scenario,
                         const utility::DelayUtility& utility,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng);

/// Per-item delay-utilities: each item gets its own Table-1 reaction.
SimulationResult run_qcr(const Scenario& scenario,
                         const utility::UtilitySet& utilities,
                         const QcrOptions& qcr_options,
                         const SimOptions& base_options, util::Rng& rng);

/// The paper's comparison metric: 100 * (U - U_opt) / |U_opt|, in percent
/// (<= 0 when OPT wins; can be positive on real traces, Section 6.3).
double normalized_loss_percent(double utility_value, double opt_value);

/// Expected-welfare probe for SimOptions::expected_welfare under
/// homogeneous contacts (Fig. 3a): evaluates Eq. (4)/(5) on live counts.
std::function<double(std::span<const int>)> homogeneous_welfare_probe(
    Catalog catalog, const utility::DelayUtility& utility,
    alloc::HomogeneousModel model);

/// Owns the inputs of the *incremental* expected-welfare probe
/// (SimOptions::welfare_probe): a trace-estimated rate matrix plus a
/// MarginalOracle over the scenario's pure-P2P population, fed by the
/// simulator's cache change listeners and sampled via welfare_cached().
/// The scenario and utilities must outlive this object (the oracle
/// references the catalog's demand vector and the utilities).
class WelfareProbe {
 public:
  WelfareProbe(const Scenario& scenario, const utility::UtilitySet& utilities);

  /// Pass this as SimOptions::welfare_probe.
  alloc::MarginalOracle* oracle() noexcept { return oracle_.get(); }

 private:
  trace::RateMatrix rates_;
  std::unique_ptr<alloc::MarginalOracle> oracle_;
};

}  // namespace impatience::core
