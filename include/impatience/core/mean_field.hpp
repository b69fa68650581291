// Mean-field (fluid-limit) evaluator: closed-form welfare and replica
// dynamics in replica-count space, replacing O(N^2 T) event simulation
// with O(I) algebra per evaluation — the million-node fast path of
// docs/perf.md §6.
//
// Two fidelities share one interface, chosen by the sign of `horizon`:
//  - horizon > 0 evaluates the exact finite-horizon slot model
//    (alloc/discrete_gain.hpp): for FROZEN placements the prediction is
//    the exact expectation of SimulationResult::observed_utility() over
//    traces, not an asymptotic limit.
//  - horizon <= 0 evaluates item_gain()'s infinite-horizon continuous
//    closed forms (the paper's analytical model, exact as mu -> 0).
//
// On top of the evaluator:
//  - mean_field_competitors builds OPT/UNI/SQRT/PROP/DOM in count space,
//    its baselines from the same baseline_competitors as the simulator
//    benches, so the fig4 normalized-loss sweep can run at N = 10^6
//    without a trace.
//  - mean_field_qcr integrates the replica-fraction ODE of the QCR
//    reaction dynamics (dx_i/dt = inflow from fulfilment reactions -
//    proportional cache eviction) with an adaptive step-doubling RK4,
//    driven by run_qcr()'s own QcrReaction. This one is an
//    approximation (the stochastic counter y = N/x is replaced by its
//    mean), validated against the event kernel in
//    tests/core/mean_field_test.cpp.
//  - MeanFieldClassModel evaluates class-based (community) contact
//    rates: hazard q_c = 1 - prod_c' (1 - mu_{c,c'})^{x_{c'}}.
#pragma once

#include <optional>
#include <vector>

#include "impatience/alloc/allocation.hpp"
#include "impatience/alloc/discrete_gain.hpp"
#include "impatience/core/experiment.hpp"
#include "impatience/trace/generators.hpp"
#include "impatience/utility/delay_utility.hpp"

namespace impatience::core {

/// N, mu, T and the tail threshold of the pure-P2P slot model; a horizon
/// T <= 0 selects the continuous closed forms.
using MeanFieldModel = alloc::DiscreteGainModel;

/// Precomputes the per-request gain curve g(x) once (a table over
/// integer x when horizon > 0), then answers welfare queries in
/// O(I) and marginals in O(1).
class MeanFieldEvaluator {
 public:
  MeanFieldEvaluator(const utility::DelayUtility& u, const MeanFieldModel& m);

  /// Expected gain of one request for an item with x replicas.
  double item_gain(double x) const;

  /// sum_i d_i g(x_i): welfare per slot, the mean-field prediction of
  /// SimulationResult::observed_utility().
  double welfare_rate(const alloc::ItemCounts& counts,
                      const std::vector<double>& demand) const;

  /// g(x + 1) - g(x) on the integer grid (greedy's exchange currency).
  double marginal(long x) const;

  const MeanFieldModel& model() const noexcept { return model_; }

 private:
  MeanFieldModel model_;
  std::optional<alloc::DiscreteGainTable> table_;  // horizon > 0
  const utility::DelayUtility* utility_;           // horizon <= 0
};

/// Welfare rate of an allocation without keeping the evaluator.
double mean_field_welfare(const alloc::ItemCounts& counts,
                          const std::vector<double>& demand,
                          const utility::DelayUtility& u,
                          const MeanFieldModel& m);

/// Greedy marginal-gain allocation of `capacity` total replicas in count
/// space (integer x_i in [0, N]); the mean-field OPT. With horizon > 0 it
/// runs a max-heap greedy over table marginals; otherwise it delegates to
/// alloc::homogeneous_greedy.
alloc::ItemCounts mean_field_greedy(const std::vector<double>& demand,
                                    const utility::DelayUtility& u,
                                    const MeanFieldModel& m, long capacity);

/// OPT/UNI/SQRT/PROP/DOM in count space with capacity = cache_capacity
/// * N total replicas: mean_field_greedy's OPT, then
/// baseline_competitors(demand, cache_capacity, N).
std::vector<NamedCounts> mean_field_competitors(
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldModel& m, int cache_capacity);

struct MeanFieldQcrResult {
  alloc::ItemCounts final_counts;  ///< x_i(T)
  double mean_welfare_rate = 0.0;  ///< time-average of sum_i d_i g(x_i(t))
  double final_welfare_rate = 0.0;
  long steps = 0;          ///< accepted RK steps
  long rejected_steps = 0; ///< halved-and-retried steps
};

/// Integrates the QCR replica-fraction ODE from the uniform initial fill
/// x_i(0) = rho N / I to t = horizon:
///
///   dx_i/dt = d_i (1 - x_i/N) R_i(N/x_i)  -  W (x_i - 1) / sum_j (x_j - 1)
///
/// where R_i is QcrReaction(u for every item, mu, N, rho, qcr), the
/// reaction run_qcr() simulates, and W is total inflow, so total
/// replicas are conserved at rho N (caches stay full; eviction hits a
/// uniformly random non-sticky replica). The sticky floor x_i >= 1 is an
/// invariant of the field: outflow of item i vanishes as x_i -> 1.
MeanFieldQcrResult mean_field_qcr(const std::vector<double>& demand,
                                  const utility::DelayUtility& u,
                                  const MeanFieldModel& m, int cache_capacity,
                                  const QcrOptions& qcr = {});

/// Class-based (community) contact structure: node classes c with sizes
/// N_c and symmetric per-pair meeting probabilities rates[c][c'] per
/// slot (diagonal = intra-class).
struct MeanFieldClassModel {
  std::vector<double> class_sizes;
  std::vector<std::vector<double>> rates;
  trace::Slot horizon = 5000;
  double tail_epsilon = 1e-16;

  double num_nodes() const;
};

/// Welfare rate for per-class replica counts x[c].x[i]: a class-c
/// request sees hazard q_{i,c} = 1 - prod_c' (1 - mu_{c,c'})^{x_{c'}}
/// and immediate-hit probability x_c / N_c; classes are weighted by
/// N_c / N (uniform demand over all nodes). Exact in expectation for
/// frozen placements, like the homogeneous model with horizon > 0.
double mean_field_welfare_classes(
    const std::vector<alloc::ItemCounts>& counts_by_class,
    const std::vector<double>& demand, const utility::DelayUtility& u,
    const MeanFieldClassModel& m);

/// The class model matching trace::generate_community_trace(params):
/// equal-size classes via community_of, intra rate within, inter across.
MeanFieldClassModel community_class_model(
    const trace::CommunityTraceParams& params);

/// Splits a placement into per-class replica counts using
/// trace::community_of on the server index (pure P2P: server index ==
/// node id), for feeding mean_field_welfare_classes.
std::vector<alloc::ItemCounts> counts_by_community(
    const alloc::Placement& placement, int num_communities);

}  // namespace impatience::core
