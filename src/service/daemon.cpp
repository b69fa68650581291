#include "impatience/service/daemon.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "impatience/engine/artifacts.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/snapshot_chain.hpp"

namespace impatience::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

class FileSource final : public LineSource {
 public:
  FileSource(const std::string& path, bool follow, double poll_seconds)
      : follow_(follow), poll_seconds_(std::max(poll_seconds, 0.001)) {
    if (path == "-") {
      stream_ = &std::cin;
    } else {
      file_.open(path);
      if (!file_) {
        throw util::IoError("replicationd: cannot open input " + path);
      }
      stream_ = &file_;
    }
  }

  std::optional<std::string> next_line(
      const std::atomic<bool>& stop) override {
    std::string line;
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return std::nullopt;
      if (std::getline(*stream_, line)) return line;
      if (!follow_ || stream_ == &std::cin) return std::nullopt;
      // tail -f: clear the EOF condition and wait for the file to grow.
      // The wait is sliced so a stop request (SIGTERM under --follow)
      // unblocks within ~10 ms instead of a full poll period.
      stream_->clear();
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(poll_seconds_);
      while (Clock::now() < deadline) {
        if (stop.load(std::memory_order_relaxed)) return std::nullopt;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  bool has_buffered_line() override {
    // in_avail() never blocks: it reports bytes already sitting in the
    // stream buffer. An approximation (the buffered bytes may lack a
    // newline), but getline on a regular file refills cheaply and a
    // half-line on stdin only delays the flush, never correctness.
    return stream_->good() && stream_->rdbuf()->in_avail() > 0;
  }

 private:
  bool follow_;
  double poll_seconds_;
  std::ifstream file_;
  std::istream* stream_ = nullptr;
};

/// Stream-socket line source over an already-listening fd. Everything
/// past accept() is address-family agnostic: the Unix-domain and TCP
/// factories below differ only in how they produce the listening socket.
class SocketSource final : public LineSource {
 public:
  /// Takes ownership of `listen_fd` (already bound + listening).
  /// `unlink_path`, when non-empty, is removed at destruction (the
  /// Unix-domain socket file).
  SocketSource(int listen_fd, std::string unlink_path,
               IngestCounters* counters, std::size_t buffer_bytes)
      : unlink_path_(std::move(unlink_path)),
        listen_fd_(listen_fd),
        counters_(counters),
        cap_(std::max<std::size_t>(buffer_bytes, 4096)) {}

  ~SocketSource() override {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }

  std::optional<std::string> next_line(
      const std::atomic<bool>& stop) override {
    for (;;) {
      // A fresh connection while a fragment is held: the first complete
      // line decides whether the fragment glues or drops (see resolve),
      // so nothing is served until that line exists.
      if (deciding_ && buffer_.find('\n') != std::string::npos) {
        resolve_fragment();
        continue;
      }
      if (!deciding_) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
          // Backpressure accounting: lines served while the buffer sits
          // at/above its cap are events the transport deferred reads for.
          if (counters_ && buffer_.size() >= cap_) {
            counters_->events_deferred.fetch_add(1,
                                                 std::memory_order_relaxed);
          }
          std::string line = buffer_.substr(0, nl);
          buffer_.erase(0, nl + 1);
          return line;
        }
      }
      if (stop.load(std::memory_order_relaxed)) return std::nullopt;
      if (conn_fd_ < 0) {
        // Feeders connect sequentially: accept the next one.
        struct pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno != EINTR) return std::nullopt;
        if (ready <= 0) continue;
        conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
        if (conn_fd_ < 0) continue;
        if (counters_) {
          counters_->connections.fetch_add(1, std::memory_order_relaxed);
        }
        deciding_ = !fragment_.empty();
        continue;
      }
      struct pollfd pfd{conn_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) return std::nullopt;
      if (ready <= 0) continue;
      // Drain greedily up to the cap so the buffer is what holds queued
      // frames and the cap is meaningful. The cap bounds multi-line
      // queueing only: a single unterminated line keeps reading past it
      // (else ingest would deadlock — the same unboundedness the file
      // source's getline has).
      bool have_line = buffer_.find('\n') != std::string::npos;
      while (!have_line || buffer_.size() < cap_) {
        char buf[4096];
        const ssize_t n = ::recv(conn_fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            break;
          }
          close_conn();
          break;
        }
        if (n == 0) {
          close_conn();
          break;
        }
        if (std::memchr(buf, '\n', static_cast<std::size_t>(n)) != nullptr) {
          have_line = true;
        }
        buffer_.append(buf, static_cast<std::size_t>(n));
      }
      if (counters_) {
        std::uint64_t hw =
            counters_->buffer_high_water.load(std::memory_order_relaxed);
        while (hw < buffer_.size() &&
               !counters_->buffer_high_water.compare_exchange_weak(
                   hw, buffer_.size(), std::memory_order_relaxed)) {
        }
      }
    }
  }

  void reply(const std::string& line) override {
    if (conn_fd_ < 0) return;
    // Non-blocking, SIGPIPE-free: a feeder that never reads its S
    // replies must not be able to stall ingest.
    (void)::send(conn_fd_, line.data(), line.size(),
                 MSG_NOSIGNAL | MSG_DONTWAIT);
  }

  bool has_buffered_line() override {
    // Exact for sockets: a complete line is already drained into the
    // buffer (a fragment under decision is not servable yet).
    return !deciding_ && buffer_.find('\n') != std::string::npos;
  }

 private:
  void close_conn() {
    ::close(conn_fd_);
    conn_fd_ = -1;
    // A dying connection that did deliver its first complete line still
    // gets its fragment decision (the greedy drain can learn of the
    // close with complete lines already buffered).
    if (deciding_ && buffer_.find('\n') != std::string::npos) {
      resolve_fragment();
    }
    if (deciding_) {
      // Died before its first complete line: its bytes chain onto the
      // held fragment (arrival order) and the decision passes to the
      // next connection (accept re-derives deciding_ from fragment_).
      if (!buffer_.empty()) {
        fragment_ += buffer_;
        buffer_.clear();
        if (counters_) {
          counters_->frames_partial.fetch_add(1, std::memory_order_relaxed);
        }
      }
      deciding_ = false;
      return;
    }
    // Hold (never flush) the unterminated trailing line: the next
    // connection decides its fate. Complete lines stay buffered and
    // keep being served.
    const std::size_t last = buffer_.rfind('\n');
    const std::size_t tail = last == std::string::npos ? 0 : last + 1;
    if (tail < buffer_.size()) {
      fragment_ += buffer_.substr(tail);
      buffer_.erase(tail);
      if (counters_) {
        counters_->frames_partial.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void resolve_fragment() {
    const std::size_t nl = buffer_.find('\n');
    const std::string_view first(buffer_.data(), nl);
    if (classify_line(first) == LineClass::hello) {
      // A new/resuming feeder opens with a hello and will re-send the
      // cut frame itself after seeking to the acked cursor — gluing its
      // bytes onto the fragment would corrupt the stream. Drop it.
      fragment_.clear();
      if (counters_) {
        counters_->frames_partial_discarded.fetch_add(
            1, std::memory_order_relaxed);
      }
    } else {
      // A continuation feeder (no handshake): its bytes complete the
      // cut frame exactly where it left off.
      buffer_.insert(0, fragment_);
      fragment_.clear();
    }
    deciding_ = false;
  }

  std::string unlink_path_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::string buffer_;    ///< bytes from the current connection
  std::string fragment_;  ///< unterminated tail of previous connection(s)
  bool deciding_ = false;
  IngestCounters* counters_ = nullptr;
  std::size_t cap_;
};

}  // namespace

std::unique_ptr<LineSource> make_file_source(const std::string& path,
                                             bool follow,
                                             double poll_seconds) {
  return std::make_unique<FileSource>(path, follow, poll_seconds);
}

std::unique_ptr<LineSource> make_socket_source(const std::string& path,
                                               IngestCounters* counters,
                                               std::size_t buffer_bytes) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::IoError("replicationd: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw util::IoError("replicationd: socket() failed: " +
                        std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw util::IoError("replicationd: cannot listen on " + path + ": " +
                        what);
  }
  return std::make_unique<SocketSource>(fd, path, counters, buffer_bytes);
}

std::unique_ptr<LineSource> make_tcp_source(int port,
                                            IngestCounters* counters,
                                            std::size_t buffer_bytes,
                                            std::uint16_t* bound_port) {
  if (port < 0 || port > 65535) {
    throw util::IoError("replicationd: invalid TCP port " +
                        std::to_string(port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw util::IoError("replicationd: socket() failed: " +
                        std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: replicationd has no authentication; exposing the
  // ingest stream beyond the host is an operator decision (a tunnel),
  // not a default.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw util::IoError("replicationd: cannot listen on 127.0.0.1:" +
                        std::to_string(port) + ": " + what);
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const std::string what = std::strerror(errno);
      ::close(fd);
      throw util::IoError("replicationd: getsockname failed: " + what);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return std::make_unique<SocketSource>(fd, std::string(), counters,
                                        buffer_bytes);
}

ReplicationDaemon::ReplicationDaemon(const DaemonConfig& config)
    : config_(config) {
  if (config_.restore && !config_.snapshot_path.empty() &&
      SnapshotChain::restorable(config_.snapshot_path)) {
    // A SIGKILL mid-snapshot leaves a stale `<path>.tmp`; the atomic
    // rename discipline means `<path>` itself — or the chain manifest —
    // is always the last consistent snapshot, so the temp file is simply
    // ignored. restore_image prefers the chain, falls back to the plain
    // file.
    store_ = std::make_unique<StateStore>(
        config_.store, config_.seed,
        SnapshotChain::restore_image(config_.snapshot_path));
    restored_ = true;
  } else {
    store_ = std::make_unique<StateStore>(config_.store, config_.seed);
  }
  if (config_.snapshot_deltas && !config_.snapshot_path.empty()) {
    chain_ = std::make_unique<SnapshotChain>(SnapshotChain::Options{
        config_.snapshot_path, config_.snapshot_delta_limit});
  }

  if (!config_.socket_path.empty()) {
    source_ = make_socket_source(config_.socket_path, &ingest_,
                                 config_.ingest_buffer_bytes);
  } else if (config_.tcp_port >= 0) {
    source_ = make_tcp_source(config_.tcp_port, &ingest_,
                              config_.ingest_buffer_bytes, &tcp_port_);
  } else {
    source_ = make_file_source(config_.input_path, config_.follow,
                               config_.follow_poll_s);
  }

  start_time_ = Clock::now();
  rate_time_ = start_time_;
  rate_version_ = store_->version();

  if (config_.http_port >= 0) {
    http_ = std::make_unique<HttpServer>(
        [this](const std::string& path) -> HttpResponse {
          if (path == "/metrics") {
            return {200, "text/plain; charset=utf-8", render()};
          }
          if (path == "/healthz") {
            return {200, "text/plain; charset=utf-8", "ok\n"};
          }
          if (path == "/snapshot") {
            if (config_.snapshot_path.empty()) {
              return {400, "text/plain; charset=utf-8",
                      "no --snapshot path configured\n"};
            }
            const std::uint64_t version = snapshot_now();
            return {200, "text/plain; charset=utf-8",
                    "ok version " + std::to_string(version) + "\n"};
          }
          return {404, "text/plain; charset=utf-8", "not found\n"};
        },
        static_cast<std::uint16_t>(config_.http_port));
  }

  if (!config_.announce_path.empty()) write_announce_file();

  // The writer thread exists only for periodic snapshots: without them
  // the only snapshots are synchronous (GET /snapshot, the final one).
  if (!config_.snapshot_path.empty() &&
      (config_.snapshot_every > 0 || config_.snapshot_interval_s > 0.0)) {
    writer_running_ = true;
    snapshot_thread_ = std::thread([this] { snapshot_loop(); });
  }
}

ReplicationDaemon::~ReplicationDaemon() {
  stop();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  if (http_) http_->stop();
}

std::uint16_t ReplicationDaemon::http_port() const noexcept {
  return http_ ? http_->port() : 0;
}

void ReplicationDaemon::stop() {
  {
    // Set under the writer's mutex: the writer checks stop_ in its wait
    // predicate under the same mutex, so this cannot land between its
    // check and its wait and be lost.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  snapshot_cv_.notify_all();
}

void ReplicationDaemon::run(const util::CancellationToken* token) {
  // Bridge the token into the stop flag so a cancel unblocks the source
  // polls promptly even when no frames are arriving.
  std::atomic<bool> run_done{false};
  std::thread token_watch;
  if (token) {
    token_watch = std::thread([this, token, &run_done] {
      while (!run_done.load(std::memory_order_relaxed)) {
        if (token->cancelled()) {
          stop();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  // Joined on every way out of run(), a failed snapshot write included:
  // destroying a joinable std::thread would end the process instead of
  // letting the error reach the caller.
  struct JoinOnExit {
    std::atomic<bool>& done;
    std::thread& thread;
    ~JoinOnExit() {
      done.store(true, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
  } join_watch{run_done, token_watch};

  // Countable lines are batched so the store lock is taken once per run
  // of buffered lines rather than once per line: the batch grows while
  // the source has more buffered (never waiting for input), flushes
  // through apply_batch — which is byte-identical to per-line apply for
  // any batch split — and is forced down at every point the per-line
  // loop would observe the store: hello replies (the seq cursor),
  // by-sequence snapshot boundaries, and end of stream.
  constexpr std::size_t kBatchCap = 256;
  std::vector<IngestLine> batch;
  const auto flush = [&] {
    if (batch.empty()) return;
    const auto t0 = Clock::now();
    store_->apply_batch(batch);
    // One sample per flushed batch, not per line: the batch's wall time
    // divided by its line count (a batch mean, which hides per-line
    // tail latency).
    metrics_.record_apply_latency(1e6 * seconds_since(t0, Clock::now()) /
                                  static_cast<double>(batch.size()));
    batch.clear();
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    const auto line = source_->next_line(stop_);
    if (!line) break;  // end of stream or stop
    Event event;
    const LineClass cls = classify_line(*line, &event);
    if (cls == LineClass::noise) continue;
    if (cls == LineClass::hello) {
      // Handshake: answer with the seq cursor (the count of countable
      // lines applied so far) so a resuming feeder can seek to seq + 1.
      // Pending lines flush first — they precede the hello in the stream
      // and must be inside the acked cursor.
      flush();
      ingest_.hellos.fetch_add(1, std::memory_order_relaxed);
      source_->reply(format_seq_reply(store_->seq()) + "\n");
      continue;
    }
    if (cls == LineClass::quit) break;
    IngestLine ingest_line;
    ingest_line.malformed = cls == LineClass::malformed;
    if (!ingest_line.malformed) ingest_line.event = event;
    batch.push_back(ingest_line);
    // Cadence keys on seq, which malformed lines advance too — the
    // by-sequence snapshot schedule must replay identically, so the
    // batch is cut exactly at the boundary.
    const bool boundary =
        config_.snapshot_every > 0 &&
        (store_->seq() + batch.size()) % config_.snapshot_every == 0;
    if (boundary || batch.size() >= kBatchCap ||
        !source_->has_buffered_line()) {
      flush();
      if (boundary) snapshot_async();
    }
  }
  flush();

  stop();
  run_done.store(true, std::memory_order_relaxed);
  if (token_watch.joinable()) token_watch.join();

  // Graceful exit always persists a final snapshot — including the
  // deadline path, where the state is still consistent (events are
  // applied atomically) and worth keeping. It waits for any by-sequence
  // snapshot still in flight, so it is the last file written. In delta
  // mode the chain is collapsed into a single fresh base.
  if (!config_.snapshot_path.empty()) snapshot_now(/*final=*/true);

  if (token && token->cancelled() &&
      token->reason() == util::CancelReason::deadline) {
    throw util::cancelled_error(*token, "replicationd: deadline exceeded");
  }
}

void ReplicationDaemon::await_idle_locked(std::unique_lock<std::mutex>& lock) {
  if (in_flight_) {
    metrics_.record_snapshot_wait();
    snapshot_cv_.wait(lock, [this] { return !in_flight_; });
  }
  if (writer_error_) std::rethrow_exception(std::exchange(writer_error_, {}));
}

void ReplicationDaemon::capture(bool final) {
  const auto t0 = Clock::now();
  if (!chain_) {
    store_->image(capture_.image);
    capture_.kind = SnapshotCapture::Kind::image;
  } else if (final) {
    // The final checkpoint collapses the chain into a base.
    SnapshotChain::capture_base(*store_, capture_);
  } else {
    // Incremental checkpoint: delta of the dirty nodes (or a fresh base
    // at the delta limit).
    chain_->capture(*store_, capture_);
  }
  if (!capture_.empty()) {
    metrics_.record_snapshot_capture(seconds_since(t0, Clock::now()));
  }
}

void ReplicationDaemon::persist(SnapshotCapture& capture) {
  std::exception_ptr error;
  try {
    const auto t0 = Clock::now();
    // Record the version the capture carries, not the store's (by now
    // possibly newer) live version.
    const std::uint64_t version = capture.version();
    if (chain_) {
      chain_->persist(capture);  // the manifest commits
    } else {
      save_image(config_.snapshot_path, capture.image);
    }
    metrics_.record_snapshot(version, seconds_since(t0, Clock::now()));
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    in_flight_ = false;
  }
  snapshot_cv_.notify_all();
  if (error) std::rethrow_exception(error);
}

void ReplicationDaemon::snapshot_async() {
  if (config_.snapshot_path.empty()) return;
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  await_idle_locked(lock);
  capture(/*final=*/false);
  if (capture_.empty()) return;
  in_flight_ = true;
  if (writer_running_) {
    queued_ = true;
    lock.unlock();
    snapshot_cv_.notify_all();
    return;
  }
  // stop() already retired the writer: persist here, as before it existed.
  lock.unlock();
  persist(capture_);
}

std::uint64_t ReplicationDaemon::snapshot_now(bool final) {
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  await_idle_locked(lock);
  capture(final);
  if (capture_.empty()) return metrics_.snapshot_last_version();
  const std::uint64_t version = capture_.version();
  in_flight_ = true;
  lock.unlock();
  persist(capture_);
  return version;
}

void ReplicationDaemon::snapshot_loop() {
  const bool timed = config_.snapshot_interval_s > 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.snapshot_interval_s));
  auto next_tick = Clock::now() + interval;
  const auto woken = [this] {
    return queued_ || stop_.load(std::memory_order_relaxed);
  };
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  for (;;) {
    if (timed) {
      snapshot_cv_.wait_until(lock, next_tick, woken);
    } else {
      snapshot_cv_.wait(lock, woken);
    }
    if (!std::exchange(queued_, false)) {
      if (stop_.load(std::memory_order_relaxed)) break;
      // Interval tick. A synchronous snapshot persisting right now
      // already covers it.
      next_tick = Clock::now() + interval;
      if (in_flight_) continue;
      try {
        capture(/*final=*/false);
      } catch (...) {
        writer_error_ = std::current_exception();
        continue;
      }
      if (capture_.empty()) continue;
      in_flight_ = true;
    }
    lock.unlock();
    std::exception_ptr error;
    try {
      persist(capture_);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) writer_error_ = error;  // the next capture rethrows it
  }
  writer_running_ = false;
}

std::string ReplicationDaemon::render() const {
  const auto now = Clock::now();
  double rate = 0.0;
  {
    std::lock_guard<std::mutex> lock(rate_mu_);
    const std::uint64_t version = store_->version();
    const double dt = seconds_since(rate_time_, now);
    if (dt > 0.0) rate = static_cast<double>(version - rate_version_) / dt;
    rate_time_ = now;
    rate_version_ = version;
  }
  return render_metrics(*store_, metrics_, seconds_since(start_time_, now),
                        rate, &ingest_);
}

void ReplicationDaemon::write_announce_file() const {
  const std::uint16_t port = http_port();
  engine::atomic_write_file(
      config_.announce_path, [this, port](std::ostream& out) {
        out << "http_port " << port << '\n'
            << "socket " << config_.socket_path << '\n'
            << "tcp_port " << tcp_port_ << '\n'
            << "pid " << ::getpid() << '\n';
      });
}

}  // namespace impatience::service
