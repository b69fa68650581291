// Discrete-time, finite-horizon expected request gain — the exact
// counterpart of item_gain()'s continuous-time closed forms for the
// slot-based contact model the simulator actually runs.
//
// A request for an item with x integer replicas, born at slot t of a
// T-slot pure-P2P run with per-pair per-slot meeting probability mu,
// fulfils at its k-th opportunity (age k, gain h(k)) with probability
// (1-q)^(k-1) q where q = 1 - (1-mu)^x, and is censored at the horizon
// with gain h(T - t + 1) otherwise — exactly the simulator's accounting
// (delay = fulfilment slot - creation slot + 1; censor_pending_at_end).
// Averaging over a uniform creation slot (stationary Poisson demand) and
// the x/N chance the requester itself holds the item gives the expected
// per-request gain
//
//   g(x) = (x/N) h(0+) + (1 - x/N) S(q) / T
//   S(q) = sum_{k=1}^{T} (1-q)^(k-1) [ q (T-k+1) h(k) + (1-q) h(k+1) ]
//
// which is EXACT (not asymptotic) for frozen placements: requests never
// interact, so expected welfare is linear in the per-request gains even
// though they share one trace. The geometric tail is truncated once
// (1-q)^(k-1) drops below tail_epsilon, so the sum costs O(1/q) terms,
// and a full gain table over x = 0..N costs O(N + T) — the O(1)-in-N
// evaluation path behind core/mean_field.hpp.
//
// Relation to utility/discrete.hpp: discrete_expected_gain() is the
// infinite-horizon limit of S(q)/T as T -> inf (plain geometric
// E[h(K)], no censoring, no creation-slot averaging, no immediate
// hits); this module adds the three finite-horizon effects that make
// the simulator agreement exact.
#pragma once

#include <vector>

#include "impatience/alloc/allocation.hpp"
#include "impatience/utility/delay_utility.hpp"

namespace impatience::alloc {

/// Parameters of the discrete pure-P2P gain model.
struct DiscreteGainModel {
  double mu = 0.05;            ///< per-pair meeting probability per slot
  double num_nodes = 50;       ///< N: every node is server and client
  /// T, in slots; the gain table needs T > 0 (core::MeanFieldModel, an
  /// alias of this struct, reads T <= 0 as the continuous closed forms).
  trace::Slot horizon = 5000;
  /// Geometric-tail truncation: summation stops once (1-q)^(k-1) falls
  /// below this (the dropped tail is O(eps * T * |h|)).
  double tail_epsilon = 1e-16;
};

/// S(q)/T above: expected gain of one request that is NOT an immediate
/// own-cache hit, given per-slot fulfilment hazard q in [0, 1], averaged
/// over a uniformly random creation slot. The building block shared by
/// the homogeneous table below and the class-based evaluator in
/// core/mean_field.hpp (which feeds it class-dependent hazards).
double censored_geometric_gain(const utility::DelayUtility& u, double q,
                               trace::Slot horizon,
                               double tail_epsilon = 1e-16);

/// g(x) above for a single (real-valued, interpolated between integers)
/// replica count. Throws std::domain_error when h(0+) is unbounded (pure
/// P2P immediate hits are possible for any x > 0, as in the simulator).
double item_gain_discrete(const utility::DelayUtility& u,
                          const DiscreteGainModel& m, double x);

/// Precomputed g(x) for integer x in [0, max_replicas]: one pass at
/// construction, O(1) per query. Shares the h(k) evaluations across all
/// x, so building the full table at N = 10^6 costs about
/// O(N + T + (1/mu) log N) utility evaluations and flops.
class DiscreteGainTable {
 public:
  DiscreteGainTable(const utility::DelayUtility& u,
                    const DiscreteGainModel& m, long max_replicas);

  /// Per-request expected gain; linear interpolation between integers,
  /// clamped to [0, max_replicas].
  double gain(double x) const;

  /// gain(x + 1) - gain(x) for integer x in [0, max_replicas).
  double marginal(long x) const;

  long max_replicas() const noexcept {
    return static_cast<long>(gain_.size()) - 1;
  }

  /// Welfare rate sum_i d_i g(x_i) — gain per slot, the mean-field
  /// prediction of SimulationResult::observed_utility().
  double welfare_rate(const ItemCounts& counts,
                      const std::vector<double>& demand) const;

 private:
  std::vector<double> gain_;  // gain_[k] = g(k)
};

}  // namespace impatience::alloc
