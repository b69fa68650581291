#include "impatience/alloc/discrete_gain.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace impatience::alloc {
namespace {

void validate(const DiscreteGainModel& m) {
  if (!(m.mu >= 0.0) || !(m.mu <= 1.0)) {
    throw std::invalid_argument("DiscreteGainModel: mu must be in [0, 1]");
  }
  if (!(m.num_nodes >= 1.0)) {
    throw std::invalid_argument("DiscreteGainModel: num_nodes must be >= 1");
  }
  if (m.horizon <= 0) {
    throw std::invalid_argument("DiscreteGainModel: horizon must be > 0");
  }
  if (!(m.tail_epsilon >= 0.0)) {
    throw std::invalid_argument(
        "DiscreteGainModel: tail_epsilon must be >= 0");
  }
}

double bounded_value_at_zero(const utility::DelayUtility& u) {
  if (!u.bounded_at_zero()) {
    throw std::domain_error(
        "discrete_gain: pure P2P requires h(0+) bounded (utility '" +
        u.name() + "' diverges at zero)");
  }
  return u.value_at_zero();
}

// S(q) over precomputed h[k] (h[k] = u.value(k), valid for k in
// [1, k_stop + 1]). The censoring coefficient always uses the true
// horizon T; k_stop only bounds the loop (terms past it carry survival
// weight below the caller's eps, or exactly zero when q = 1). Also
// breaks early once (1-q)^(k-1) drops below eps.
double censored_sum(const std::vector<double>& h, double q,
                    trace::Slot horizon, trace::Slot k_stop, double eps) {
  const double T = static_cast<double>(horizon);
  const double p = 1.0 - q;
  double survive = 1.0;  // (1-q)^(k-1)
  double sum = 0.0;
  for (trace::Slot k = 1; k <= k_stop; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    sum += survive *
           (q * (T - static_cast<double>(k) + 1.0) * h[ki] + p * h[ki + 1]);
    survive *= p;
    if (survive < eps && k > 8) break;
  }
  return sum;
}

}  // namespace

double censored_geometric_gain(const utility::DelayUtility& u, double q,
                               trace::Slot horizon, double tail_epsilon) {
  if (horizon <= 0) {
    throw std::invalid_argument(
        "censored_geometric_gain: horizon must be > 0");
  }
  if (!(q >= 0.0) || !(q <= 1.0)) {
    throw std::invalid_argument(
        "censored_geometric_gain: hazard must be in [0, 1]");
  }
  // Bound how far the sum reaches before the eps cut so h is only
  // evaluated where needed: (1-q)^(k-1) >= eps  <=>
  // k <= 1 + ln(eps)/ln(1-q).
  trace::Slot k_max = horizon;
  if (q >= 1.0) {
    k_max = 1;  // deterministic fulfilment at the first opportunity
  } else if (q > 0.0 && tail_epsilon > 0.0) {
    const double lp = std::log1p(-q);
    const double reach = 1.0 + std::log(tail_epsilon) / lp;
    if (reach < static_cast<double>(horizon)) {
      k_max = std::max<trace::Slot>(static_cast<trace::Slot>(reach) + 2, 16);
      k_max = std::min(k_max, horizon);
    }
  }
  std::vector<double> h(static_cast<std::size_t>(k_max) + 2, 0.0);
  for (trace::Slot k = 1; k <= k_max + 1; ++k) {
    h[static_cast<std::size_t>(k)] = u.value(static_cast<double>(k));
  }
  return censored_sum(h, q, horizon, k_max, tail_epsilon) /
         static_cast<double>(horizon);
}

double item_gain_discrete(const utility::DelayUtility& u,
                          const DiscreteGainModel& m, double x) {
  validate(m);
  if (!(x >= 0.0)) {
    throw std::invalid_argument("item_gain_discrete: x must be >= 0");
  }
  const double h0 = bounded_value_at_zero(u);
  const double xc = std::min(x, m.num_nodes);
  const double q = 1.0 - std::pow(1.0 - m.mu, xc);
  const double immediate = xc / m.num_nodes;
  return immediate * h0 +
         (1.0 - immediate) *
             censored_geometric_gain(u, q, m.horizon, m.tail_epsilon);
}

DiscreteGainTable::DiscreteGainTable(const utility::DelayUtility& u,
                                     const DiscreteGainModel& m,
                                     long max_replicas) {
  validate(m);
  if (max_replicas < 0) {
    throw std::invalid_argument(
        "DiscreteGainTable: max_replicas must be >= 0");
  }
  const double h0 = bounded_value_at_zero(u);
  // h(k) shared across every x; the x = 0 row alone reaches k = T.
  std::vector<double> h(static_cast<std::size_t>(m.horizon) + 2, 0.0);
  for (trace::Slot k = 1; k <= m.horizon + 1; ++k) {
    h[static_cast<std::size_t>(k)] = u.value(static_cast<double>(k));
  }
  gain_.resize(static_cast<std::size_t>(max_replicas) + 1);
  double miss = 1.0;  // (1 - mu)^x, updated incrementally
  for (long x = 0; x <= max_replicas; ++x) {
    const double q = 1.0 - miss;
    const double immediate =
        std::min(static_cast<double>(x), m.num_nodes) / m.num_nodes;
    gain_[static_cast<std::size_t>(x)] =
        immediate * h0 +
        (1.0 - immediate) *
            censored_sum(h, q, m.horizon, m.horizon, m.tail_epsilon) /
            static_cast<double>(m.horizon);
    miss *= 1.0 - m.mu;
  }
}

double DiscreteGainTable::gain(double x) const {
  if (x <= 0.0) return gain_.front();
  const auto max_x = static_cast<double>(max_replicas());
  if (x >= max_x) return gain_.back();
  const double lo = std::floor(x);
  const auto k = static_cast<std::size_t>(lo);
  const double frac = x - lo;
  return gain_[k] + frac * (gain_[k + 1] - gain_[k]);
}

double DiscreteGainTable::marginal(long x) const {
  if (x < 0 || x >= max_replicas()) {
    throw std::out_of_range("DiscreteGainTable::marginal: x out of range");
  }
  const auto k = static_cast<std::size_t>(x);
  return gain_[k + 1] - gain_[k];
}

double DiscreteGainTable::welfare_rate(
    const ItemCounts& counts, const std::vector<double>& demand) const {
  if (counts.x.size() != demand.size()) {
    throw std::invalid_argument(
        "DiscreteGainTable::welfare_rate: counts/demand size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    total += demand[i] * gain(counts.x[i]);
  }
  return total;
}

}  // namespace impatience::alloc
