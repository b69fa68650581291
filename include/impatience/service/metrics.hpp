// replicationd's observability surface: wall-clock apply-latency tracking
// plus the plain-text rendering served at GET /metrics (docs/service.md
// for the schema). Key naming follows the Prometheus text-format
// conventions (snake_case, `_total` suffix on monotonic counters) without
// depending on any client library.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "impatience/service/state_store.hpp"

namespace impatience::service {

struct IngestCounters;  // daemon.hpp (metrics.hpp must not include it back)

/// Wall-clock monitor state owned by the daemon: apply-latency window and
/// snapshot bookkeeping. Thread-safe (own mutex; the ingest thread
/// records, the HTTP thread renders).
class ServiceMetrics {
 public:
  /// Records one event-apply wall latency (microseconds).
  void record_apply_latency(double us);
  /// Records a snapshot persisted at the given store version, whose
  /// serialize + write took `write_seconds`.
  void record_snapshot(std::uint64_t version, double write_seconds);
  /// Records how long a non-empty snapshot capture held the store lock.
  void record_snapshot_capture(double seconds);
  /// Records a snapshot capture that waited for an in-flight persist.
  void record_snapshot_wait();

  std::uint64_t snapshots_total() const;
  std::uint64_t snapshot_last_version() const;
  std::uint64_t snapshot_waits_total() const;
  double snapshot_write_seconds_last() const;
  double snapshot_capture_seconds_last() const;

  /// p-th percentile of the recent apply-latency window (us); 0 when
  /// empty.
  double apply_latency_percentile(double p) const;

 private:
  static constexpr std::size_t kWindow = 4096;

  mutable std::mutex mu_;
  std::vector<double> latencies_us_;  // chronological, <= kWindow
  std::uint64_t snapshots_ = 0;
  std::uint64_t snapshot_last_version_ = 0;
  std::uint64_t snapshot_waits_ = 0;
  double snapshot_write_seconds_last_ = 0.0;
  double snapshot_capture_seconds_last_ = 0.0;
};

/// Renders the full /metrics document from a store + monitor state.
/// `uptime_seconds` and `versions_per_second` are computed by the caller
/// (the daemon owns the wall clock and the rate window). `ingest`, when
/// non-null, contributes the transport-side handshake/backpressure block.
std::string render_metrics(const StateStore& store,
                           const ServiceMetrics& metrics,
                           double uptime_seconds,
                           double versions_per_second,
                           const IngestCounters* ingest = nullptr);

}  // namespace impatience::service
