// Measurement configuration and results of a simulation run.
#pragma once

#include <string>
#include <vector>

#include "impatience/core/catalog.hpp"
#include "impatience/fault/fault.hpp"
#include "impatience/stats/timeseries.hpp"
#include "impatience/trace/contact.hpp"

namespace impatience::core {

using trace::Slot;

struct MetricsConfig {
  /// Slots per bin of the observed-utility series (Fig. 3b / Fig. 5a).
  double bin_width = 60.0;
  /// Sampling period (slots, > 0) for expected welfare and replica counts.
  Slot sample_every = 50;
  /// Items whose replica-count series is recorded (Fig. 3c/3d).
  std::vector<ItemId> tracked_items;
};

struct SimulationResult {
  std::string policy;
  Slot duration = 0;

  /// Sum of delay-utility gains over all fulfilments (plus the censored
  /// gains of requests still pending at the end, evaluated at the final
  /// age — see SimOptions::censor_pending_at_end).
  double total_gain = 0.0;
  /// total_gain per slot: the empirical counterpart of U(x).
  double observed_utility() const {
    return duration > 0 ? total_gain / static_cast<double>(duration) : 0.0;
  }

  /// Observed gain rate per time bin.
  std::vector<stats::SeriesPoint> observed_series;
  /// Expected welfare of the live allocation, sampled periodically
  /// (empty unless an evaluator was supplied).
  std::vector<stats::SeriesPoint> expected_series;
  /// Replica-count series per tracked item (same order as
  /// MetricsConfig::tracked_items).
  std::vector<std::vector<stats::SeriesPoint>> replica_series;

  std::uint64_t requests_created = 0;
  std::uint64_t fulfillments = 0;            ///< meeting fulfilments
  std::uint64_t immediate_fulfillments = 0;  ///< own-cache hits at creation
  std::uint64_t censored_requests = 0;       ///< still pending at the end
  double mean_delay = 0.0;                   ///< slots, meeting fulfilments
  double mean_query_count = 0.0;             ///< final counter values

  /// Replicas per item at the end of the run.
  std::vector<int> final_counts;
  long outstanding_mandates = 0;
  long mandates_created = 0;
  long replicas_written = 0;

  /// Injected faults and their cost (all zero without a fault plan).
  /// Mandate conservation degrades gracefully under churn:
  ///   mandates_created == replicas_written + outstanding_mandates
  ///                       + faults.mandates_lost
  fault::FaultCounters faults;
};

}  // namespace impatience::core
