// replicationd: the long-running replication service (docs/service.md).
//
// One daemon owns one StateStore and three concerns:
//  * ingest  — the calling thread (run()) tails a file, reads stdin, or
//              accepts feeders on a Unix-domain socket, applying protocol
//              frames to the store;
//  * monitor — an HttpServer thread serving GET /metrics, /healthz and
//              /snapshot on 127.0.0.1;
//  * persist — a background thread writing crash-safe snapshots every
//              --snapshot-interval, plus deterministic by-sequence
//              snapshots every --snapshot-every events (the replayable
//              kind the warm-restart tests pin down), plus one final
//              snapshot on graceful shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "impatience/service/metrics.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/util/errors.hpp"

namespace impatience::service {

/// Ingest-side transport counters (docs/service.md "Handshake and
/// backpressure"). Atomics: the ingest thread writes, the monitor thread
/// renders. All are transport state, deliberately *not* persisted into
/// snapshots — a warm restart starts them at zero.
struct IngestCounters {
  /// Feeder connections accepted on the socket source.
  std::atomic<std::uint64_t> connections{0};
  /// H frames answered with an S reply.
  std::atomic<std::uint64_t> hellos{0};
  /// Disconnects that left an unterminated trailing line buffered.
  std::atomic<std::uint64_t> frames_partial{0};
  /// Held fragments discarded because the next connection opened with a
  /// hello (a resuming feeder re-sends the whole cut frame itself).
  std::atomic<std::uint64_t> frames_partial_discarded{0};
  /// Complete lines served while the ingest buffer sat at or above its
  /// cap — each one is an event the transport deferred reading more for.
  std::atomic<std::uint64_t> events_deferred{0};
  /// High-water mark of buffered ingest bytes.
  std::atomic<std::uint64_t> buffer_high_water{0};
};

/// A blocking source of protocol lines that honours a stop flag.
class LineSource {
 public:
  virtual ~LineSource() = default;
  /// Next line, without its trailing newline. std::nullopt = end of
  /// stream or stop requested; callers distinguish via `stop`.
  virtual std::optional<std::string> next_line(
      const std::atomic<bool>& stop) = 0;
  /// Best-effort reply on the channel the last line arrived from (the
  /// hello handshake's S frame). Default: no channel, dropped. Must
  /// never block the ingest loop.
  virtual void reply(const std::string& /*line*/) {}
  /// True when another complete line can very likely be served without
  /// blocking — the ingest loop's batching hint (a batch flushes when
  /// the source runs dry, so idle streams never sit on latency). Must
  /// not block. Default: pessimistic.
  virtual bool has_buffered_line() { return false; }
};

/// Reads a file (or stdin for path "-"). With `follow`, EOF waits
/// `poll_seconds` for growth instead of ending the stream (tail -f
/// semantics); the wait polls `stop` so shutdown stays prompt.
std::unique_ptr<LineSource> make_file_source(const std::string& path,
                                             bool follow,
                                             double poll_seconds = 0.05);

/// Accepts feeders sequentially on a Unix-domain socket; each connection
/// streams frames until it closes, then the next feeder can connect.
/// Binds (and unlinks any stale socket file) at construction.
///
/// Framing across disconnects: an unterminated trailing line is *held*
/// (counted in `counters->frames_partial`) and completed by the next
/// connection's bytes — unless that connection opens with a hello frame,
/// which marks a new/resuming feeder that will re-send the cut frame
/// itself; then the fragment is discarded (`frames_partial_discarded`).
/// Ingest buffering is bounded at `buffer_bytes`: at or above the cap the
/// source serves buffered lines without reading more (the kernel socket
/// buffer then backpressures the feeder), counting `events_deferred`.
std::unique_ptr<LineSource> make_socket_source(const std::string& path,
                                               IngestCounters* counters,
                                               std::size_t buffer_bytes);

/// TCP twin of make_socket_source: listens on 127.0.0.1:`port` (0 =
/// ephemeral; the bound port is written to `*bound_port`) with identical
/// framing, handshake, fragment, and backpressure semantics — the
/// transport differs only in the listening socket's address family.
std::unique_ptr<LineSource> make_tcp_source(int port,
                                            IngestCounters* counters,
                                            std::size_t buffer_bytes,
                                            std::uint16_t* bound_port);

struct DaemonConfig {
  StoreConfig store;
  std::uint64_t seed = 1;

  /// Event source precedence: a Unix-domain socket path first, then a
  /// TCP listen port (`tcp_port` >= 0; 0 = ephemeral, read back via
  /// tcp_port()); otherwise `input_path` ("-" = stdin) is read, tailed
  /// when `follow`.
  std::string socket_path;
  int tcp_port = -1;
  std::string input_path = "-";
  bool follow = false;
  /// --follow EOF poll period in seconds (duration-suffixed flag
  /// --follow-poll); clamped to >= 1 ms.
  double follow_poll_s = 0.05;
  /// Ingest buffer cap in bytes for the socket source: at or above it
  /// the daemon stops reading and lets the kernel socket buffer
  /// backpressure the feeder (events_deferred counts lines served while
  /// capped). Clamped to >= 4096.
  std::size_t ingest_buffer_bytes = 256 * 1024;

  /// Metrics endpoint port (0 = ephemeral; read back via http_port()).
  /// -1 disables the endpoint.
  int http_port = 0;

  /// Snapshot file; empty disables persistence.
  std::string snapshot_path;
  /// Wall-clock snapshot period in seconds; 0 disables the timer.
  double snapshot_interval_s = 0.0;
  /// Deterministic snapshot cadence: persist after every N applied
  /// events; 0 disables. This is the cadence warm-restart equivalence
  /// tests rely on (by-sequence, so independent of wall time).
  std::uint64_t snapshot_every = 0;
  /// Warm restart: load snapshot_path before ingesting. A missing file
  /// degrades to a fresh start; a corrupt one throws util::IoError (a
  /// torn write never half-loads thanks to the checksummed format, and
  /// the previous consistent file survives thanks to atomic rename).
  bool restore = false;

  /// Persist incremental snapshot chains (base + delta files + manifest,
  /// docs/service.md "Delta snapshots") instead of rewriting the full
  /// image at `snapshot_path` on every checkpoint.
  bool snapshot_deltas = false;
  /// Deltas between full bases when snapshot_deltas is on.
  std::size_t snapshot_delta_limit = 16;

  /// When set, a small "key value" file announcing the bound HTTP port
  /// and socket path is written (crash-safely) once serving — how test
  /// harnesses discover an ephemeral port.
  std::string announce_path;
};

class ReplicationDaemon {
 public:
  /// Builds (or restores) the store and starts monitor + persist
  /// threads. Throws util::IoError / std::invalid_argument on bad
  /// config, unusable socket, or corrupt snapshot.
  explicit ReplicationDaemon(const DaemonConfig& config);
  ~ReplicationDaemon();

  ReplicationDaemon(const ReplicationDaemon&) = delete;
  ReplicationDaemon& operator=(const ReplicationDaemon&) = delete;

  /// Ingests until end of stream, a Q frame, stop(), or `token` fires.
  /// Runs on the calling thread. On graceful exit writes a final
  /// snapshot. Throws util::CancelledError when the token fired (reason
  /// preserved, so the engine classifies deadline vs shutdown).
  void run(const util::CancellationToken* token);

  /// Requests run() to unwind; safe from any thread / signal context
  /// consumers (only touches atomics and condition variables).
  void stop();

  /// True after a restore-mode construction actually loaded a snapshot.
  bool restored() const noexcept { return restored_; }

  /// Bound metrics port; 0 when the endpoint is disabled.
  std::uint16_t http_port() const noexcept;

  /// Bound ingest TCP port; 0 when the TCP transport is not in use.
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  const StateStore& store() const noexcept { return *store_; }
  StateStore& store() noexcept { return *store_; }
  const ServiceMetrics& metrics() const noexcept { return metrics_; }
  const IngestCounters& ingest() const noexcept { return ingest_; }

 private:
  void snapshot_now();
  void snapshot_loop();
  std::string render() const;
  void write_announce_file() const;

  DaemonConfig config_;
  std::unique_ptr<StateStore> store_;
  bool restored_ = false;
  ServiceMetrics metrics_;
  IngestCounters ingest_;
  std::unique_ptr<LineSource> source_;
  std::unique_ptr<class HttpServer> http_;
  std::unique_ptr<class SnapshotChain> chain_;  // snapshot_deltas mode
  std::uint16_t tcp_port_ = 0;

  std::atomic<bool> stop_{false};
  std::mutex snapshot_mu_;  // serializes snapshot writers (timer vs HTTP)
  std::condition_variable snapshot_cv_;
  std::thread snapshot_thread_;

  std::chrono::steady_clock::time_point start_time_;
  /// Rate window for versions/sec (guarded by rate_mu_).
  mutable std::mutex rate_mu_;
  mutable std::chrono::steady_clock::time_point rate_time_;
  mutable std::uint64_t rate_version_ = 0;
};

}  // namespace impatience::service
