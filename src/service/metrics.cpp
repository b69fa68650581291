#include "impatience/service/metrics.hpp"

#include <sstream>

#include "impatience/service/daemon.hpp"
#include "impatience/stats/percentile.hpp"

namespace impatience::service {

void ServiceMetrics::record_apply_latency(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (latencies_us_.size() >= kWindow) {
    latencies_us_.erase(latencies_us_.begin(),
                        latencies_us_.begin() + kWindow / 2);
  }
  latencies_us_.push_back(us);
}

void ServiceMetrics::record_snapshot(std::uint64_t version,
                                     double write_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_;
  snapshot_last_version_ = version;
  snapshot_write_seconds_last_ = write_seconds;
}

void ServiceMetrics::record_snapshot_capture(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_capture_seconds_last_ = seconds;
}

void ServiceMetrics::record_snapshot_wait() {
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshot_waits_;
}

std::uint64_t ServiceMetrics::snapshots_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

std::uint64_t ServiceMetrics::snapshot_last_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_last_version_;
}

std::uint64_t ServiceMetrics::snapshot_waits_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_waits_;
}

double ServiceMetrics::snapshot_write_seconds_last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_write_seconds_last_;
}

double ServiceMetrics::snapshot_capture_seconds_last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_capture_seconds_last_;
}

double ServiceMetrics::apply_latency_percentile(double p) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window = latencies_us_;
  }
  if (window.empty()) return 0.0;
  return stats::percentile(window, p);
}

std::string render_metrics(const StateStore& store,
                           const ServiceMetrics& metrics,
                           double uptime_seconds,
                           double versions_per_second,
                           const IngestCounters* ingest) {
  // One consistent read of the logical counters; the gauges derived from
  // the delay window use their own locked reads.
  const StoreCounters k = store.counters();
  const fault::FaultCounters f = store.faults();

  std::ostringstream out;
  out.precision(10);
  out << "replicationd_version " << store.version() << '\n';
  out << "replicationd_seq " << store.seq() << '\n';
  out << "replicationd_clock_slot " << store.clock() << '\n';
  out << "replicationd_uptime_seconds " << uptime_seconds << '\n';
  out << "replicationd_versions_per_second " << versions_per_second << '\n';
  out << "replicationd_events_total " << k.events_applied << '\n';
  out << "replicationd_events_malformed_total " << k.events_malformed << '\n';
  out << "replicationd_contacts_total " << k.contacts << '\n';
  out << "replicationd_requests_total " << k.requests_created << '\n';
  out << "replicationd_requests_served_total " << k.requests_served() << '\n';
  out << "replicationd_requests_immediate_total " << k.immediate_fulfillments
      << '\n';
  out << "replicationd_fulfillments_total " << k.fulfillments << '\n';
  out << "replicationd_requests_pending " << k.requests_pending << '\n';
  out << "replicationd_replicas_written_total " << k.replicas_written << '\n';
  out << "replicationd_mandates_created_total " << k.mandates_created << '\n';
  out << "replicationd_mandates_outstanding " << k.mandates_outstanding
      << '\n';
  out << "replicationd_mandates_lost_total " << f.mandates_lost << '\n';
  out << "replicationd_mandate_conservation_ok "
      << (store.mandate_conservation_ok() ? 1 : 0) << '\n';
  out << "replicationd_crashes_total " << f.crashes << '\n';
  out << "replicationd_replicas_lost_total " << f.replicas_lost << '\n';
  out << "replicationd_requests_lost_total " << f.requests_lost << '\n';
  out << "replicationd_total_gain " << k.total_gain << '\n';
  out << "replicationd_delay_slots_p50 " << store.delay_percentile(0.50)
      << '\n';
  out << "replicationd_delay_slots_p99 " << store.delay_percentile(0.99)
      << '\n';
  out << "replicationd_apply_latency_us_p50 "
      << metrics.apply_latency_percentile(0.50) << '\n';
  out << "replicationd_apply_latency_us_p99 "
      << metrics.apply_latency_percentile(0.99) << '\n';
  out << "replicationd_snapshots_total " << metrics.snapshots_total() << '\n';
  out << "replicationd_snapshot_last_version "
      << metrics.snapshot_last_version() << '\n';
  out << "replicationd_snapshot_waits_total "
      << metrics.snapshot_waits_total() << '\n';
  out << "replicationd_snapshot_write_seconds_last "
      << metrics.snapshot_write_seconds_last() << '\n';
  out << "replicationd_snapshot_capture_seconds_last "
      << metrics.snapshot_capture_seconds_last() << '\n';
  if (ingest != nullptr) {
    const auto load = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    out << "replicationd_ingest_connections_total "
        << load(ingest->connections) << '\n';
    out << "replicationd_ingest_hellos_total " << load(ingest->hellos)
        << '\n';
    out << "replicationd_ingest_frames_partial_total "
        << load(ingest->frames_partial) << '\n';
    out << "replicationd_ingest_frames_partial_discarded_total "
        << load(ingest->frames_partial_discarded) << '\n';
    out << "replicationd_ingest_events_deferred_total "
        << load(ingest->events_deferred) << '\n';
    out << "replicationd_ingest_buffer_high_water_bytes "
        << load(ingest->buffer_high_water) << '\n';
  }
  return out.str();
}

}  // namespace impatience::service
