// Daemon integration tests. The suite name (Replicationd) is load-bearing:
// scripts/check_engine_tsan.sh sweeps `-R "^(Simulator|Replicationd)\."`
// so the ingest/monitor/snapshot threads run under ThreadSanitizer.
#include "impatience/service/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/snapshot_chain.hpp"
#include "impatience/util/errors.hpp"

namespace impatience::service {
namespace {

StoreConfig small_config() {
  StoreConfig config;
  config.num_nodes = 16;
  config.num_items = 12;
  config.cache_capacity = 3;
  return config;
}

std::string stream_text(std::uint64_t events, std::uint64_t seed,
                        bool quit) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.quit = quit;
  std::ostringstream out;
  write_stream(out, generate_stream(config, seed));
  return out.str();
}

class TempPath {
 public:
  explicit TempPath(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Feeds raw bytes into a Unix-domain socket, like a live event source.
void feed_socket(const std::string& socket_path, const std::string& data) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // The daemon binds the socket in its constructor, so connect() succeeds
  // immediately; retry briefly anyway to absorb scheduler noise.
  int connected = -1;
  for (int i = 0; i < 100 && connected < 0; ++i) {
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (connected < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(connected, 0) << "cannot connect to " << socket_path;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

/// Opens a raw connection to the daemon's socket (retrying connect).
int connect_socket(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  int connected = -1;
  for (int i = 0; i < 100 && connected < 0; ++i) {
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (connected < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(connected, 0) << "cannot connect to " << socket_path;
  return fd;
}

void send_raw(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads one newline-terminated line (without the newline), with timeout.
std::string recv_line(int fd, double timeout_s = 5.0) {
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) return buffer.substr(0, nl);
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return buffer;
}

void wait_for_seq(const ReplicationDaemon& daemon, std::uint64_t seq) {
  for (int i = 0; i < 1000 && daemon.store().seq() < seq; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(daemon.store().seq(), seq);
}

// Ingest counters lag the store seq: a fragment is registered when the
// ingest thread processes the connection EOF, which can land after the
// last complete line was applied. Poll instead of asserting instantly.
void wait_for_counter(const std::atomic<std::uint64_t>& counter,
                      std::uint64_t expected) {
  for (int i = 0; i < 1000 && counter.load() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(counter.load(), expected);
}

TEST(Replicationd, HelloHandshakeAnswersSeqCursor) {
  TempPath socket("repl_hello");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 31;
  config.socket_path = socket.path();
  config.http_port = 0;
  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });

  const int fd = connect_socket(socket.path());
  send_raw(fd, "H\n");
  EXPECT_EQ(recv_line(fd), "S 0");  // fresh store: cursor at zero
  send_raw(fd, "C 1 2\nnonsense\nR 3 5\nH\n");
  // Malformed lines occupy a seq slot too — the cursor is a count of
  // countable lines, exactly what a resuming feeder must skip.
  EXPECT_EQ(recv_line(fd), "S 3");
  ::close(fd);

  wait_for_seq(daemon, 3);
  EXPECT_EQ(daemon.ingest().hellos.load(), 2u);
  EXPECT_EQ(daemon.ingest().connections.load(), 1u);
  const std::string metrics = http_get(daemon.http_port(), "/metrics");
  EXPECT_NE(metrics.find("replicationd_ingest_hellos_total 2\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_ingest_connections_total 1\n"),
            std::string::npos);
  daemon.stop();
  runner.join();
}

TEST(Replicationd, PartialLineIsHeldAndCompletedByNextConnection) {
  TempPath socket("repl_partial_hold");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 32;
  config.socket_path = socket.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });

  // Connection 1 dies mid-frame: "R 3" is an unterminated fragment. The
  // old behavior flushed it as a line (a spurious malformed event); now
  // it must be held.
  feed_socket(socket.path(), "C 1 2\nR 3");
  wait_for_seq(daemon, 1);
  EXPECT_EQ(daemon.store().seq(), 1u);
  wait_for_counter(daemon.ingest().frames_partial, 1u);

  // Connection 2 (a dumb continuation feeder, no handshake) completes
  // the cut frame exactly where it left off.
  feed_socket(socket.path(), " 5\nQ\n");
  runner.join();
  const StoreCounters k = daemon.store().counters();
  EXPECT_EQ(daemon.store().seq(), 2u);
  EXPECT_EQ(k.events_malformed, 0u);
  EXPECT_EQ(k.requests_created, 1u);  // "R 3 5" was reassembled
  EXPECT_EQ(daemon.ingest().frames_partial_discarded.load(), 0u);
}

TEST(Replicationd, HeldFragmentIsDiscardedWhenNextConnectionHandshakes) {
  TempPath socket("repl_partial_drop");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 33;
  config.socket_path = socket.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });

  feed_socket(socket.path(), "C 1 2\nR 3");
  wait_for_seq(daemon, 1);

  // A resuming feeder opens with H: it will re-send the cut frame
  // itself, so gluing its bytes onto the fragment would corrupt the
  // stream — the fragment must be dropped instead.
  const int fd = connect_socket(socket.path());
  send_raw(fd, "H\n");
  EXPECT_EQ(recv_line(fd), "S 1");
  send_raw(fd, "R 3 5\nQ\n");
  ::close(fd);
  runner.join();

  const StoreCounters k = daemon.store().counters();
  EXPECT_EQ(daemon.store().seq(), 2u);
  EXPECT_EQ(k.events_malformed, 0u);
  EXPECT_EQ(k.requests_created, 1u);
  EXPECT_EQ(daemon.ingest().frames_partial.load(), 1u);
  EXPECT_EQ(daemon.ingest().frames_partial_discarded.load(), 1u);
}

TEST(Replicationd, BoundedIngestBufferCountsBackpressure) {
  TempPath socket("repl_backpressure");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 34;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.ingest_buffer_bytes = 1;  // clamped up to the 4096 floor
  ReplicationDaemon daemon(config);

  // Queue well over the buffer cap in the kernel socket buffer *before*
  // the ingest loop starts reading: the first greedy drain must stop at
  // the cap and the lines served while capped count as deferred.
  feed_socket(socket.path(), stream_text(2000, 35, /*quit=*/true));
  daemon.run(nullptr);

  EXPECT_GE(daemon.ingest().buffer_high_water.load(), 4096u);
  EXPECT_GT(daemon.ingest().events_deferred.load(), 0u);
  EXPECT_GT(daemon.store().seq(), 1000u);  // the stream still all applied
}

TEST(Replicationd, IngestsSocketStreamAndServesMetrics) {
  TempPath socket("repl_sock");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 21;
  config.socket_path = socket.path();
  config.http_port = 0;  // ephemeral

  ReplicationDaemon daemon(config);
  ASSERT_NE(daemon.http_port(), 0);

  std::thread feeder([&] {
    feed_socket(socket.path(), stream_text(1000, 31, /*quit=*/true));
  });
  daemon.run(nullptr);  // Q frame ends the stream
  feeder.join();

  const StoreCounters k = daemon.store().counters();
  EXPECT_GT(k.events_applied, 1000u);  // T frames ride along
  EXPECT_GT(k.requests_served(), 0u);
  EXPECT_TRUE(daemon.store().mandate_conservation_ok());

  // Scrape while the monitor thread is still up.
  const std::string metrics = http_get(daemon.http_port(), "/metrics");
  EXPECT_NE(metrics.find("replicationd_events_total " +
                         std::to_string(k.events_applied)),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_mandate_conservation_ok 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_apply_latency_us_p99"),
            std::string::npos);
  EXPECT_EQ(http_get(daemon.http_port(), "/healthz"), "ok\n");
  EXPECT_THROW(http_get(daemon.http_port(), "/nope"), util::IoError);
}

TEST(Replicationd, ConcurrentScrapesDuringIngestAreClean) {
  TempPath socket("repl_scrape");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 22;
  config.socket_path = socket.path();
  config.http_port = 0;

  ReplicationDaemon daemon(config);
  std::thread feeder([&] {
    feed_socket(socket.path(), stream_text(3000, 32, /*quit=*/true));
  });
  // Hammer /metrics from two clients while the ingest thread applies
  // events — the TSan sweep turns any store/metrics race into a failure.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string body = http_get(daemon.http_port(), "/metrics");
      EXPECT_NE(body.find("replicationd_version"), std::string::npos);
    }
  });
  daemon.run(nullptr);
  done.store(true);
  scraper.join();
  feeder.join();
  EXPECT_TRUE(daemon.store().mandate_conservation_ok());
}

TEST(Replicationd, ShutdownTokenStopsGracefullyWithFinalSnapshot) {
  TempPath socket("repl_shutdown");
  TempPath snap("repl_shutdown_snap");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 23;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.snapshot_path = snap.path();

  ReplicationDaemon daemon(config);
  util::CancellationToken token;
  std::thread runner([&] {
    // SIGTERM path: shutdown reason, run() returns normally.
    EXPECT_NO_THROW(daemon.run(&token));
  });
  feed_socket(socket.path(), stream_text(500, 33, /*quit=*/false));
  while (daemon.store().counters().events_applied == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  token.cancel(util::CancelReason::shutdown);
  runner.join();

  // The graceful stop persisted a final snapshot matching the store.
  const StateImage image = load_image(snap.path());
  EXPECT_EQ(image.seq, daemon.store().seq());
  EXPECT_EQ(image.version, daemon.store().version());
}

TEST(Replicationd, DeadlineTokenSurfacesAsCancelledError) {
  TempPath socket("repl_deadline");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 24;
  config.socket_path = socket.path();
  config.http_port = -1;

  ReplicationDaemon daemon(config);
  util::CancellationToken token;
  token.cancel(util::CancelReason::deadline);
  try {
    daemon.run(&token);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::deadline);
  }
}

TEST(Replicationd, SnapshotEveryNEventsIsDeterministicallyReplayable) {
  const std::string text = stream_text(600, 34, /*quit=*/false);

  // Uninterrupted reference over a file source.
  TempPath input("repl_input");
  {
    std::ofstream out(input.path());
    out << text;
  }
  TempPath ref_snap("repl_ref_snap");
  DaemonConfig ref;
  ref.store = small_config();
  ref.seed = 25;
  ref.socket_path.clear();
  ref.input_path = input.path();
  ref.http_port = -1;
  ref.snapshot_path = ref_snap.path();
  ReplicationDaemon ref_daemon(ref);
  ref_daemon.run(nullptr);
  const std::uint64_t total_events = ref_daemon.store().seq();

  // Same stream with --snapshot-every; the last by-seq snapshot plus the
  // final graceful one must both exist; the final must match the
  // reference byte-for-byte.
  TempPath every_snap("repl_every_snap");
  DaemonConfig every = ref;
  every.snapshot_path = every_snap.path();
  every.snapshot_every = 250;
  ReplicationDaemon every_daemon(every);
  every_daemon.run(nullptr);
  EXPECT_EQ(every_daemon.store().seq(), total_events);
  EXPECT_GE(every_daemon.metrics().snapshots_total(), 3u);  // 2 by-seq + final

  std::ostringstream a, b;
  write_image(a, load_image(ref_snap.path()));
  write_image(b, load_image(every_snap.path()));
  EXPECT_EQ(a.str(), b.str());
}

TEST(Replicationd, MalformedLinesAreCountedNotFatal) {
  TempPath input("repl_bad_input");
  {
    std::ofstream out(input.path());
    out << "# comment\n\nC 1 2\nnonsense here\nC 1 1\nR 3 5\nQ\n";
  }
  DaemonConfig config;
  config.store = small_config();
  config.seed = 26;
  config.input_path = input.path();
  config.http_port = -1;
  ReplicationDaemon daemon(config);
  daemon.run(nullptr);
  const StoreCounters k = daemon.store().counters();
  // "nonsense here" and the self-contact "C 1 1" are malformed (counted,
  // state untouched) but still occupy a seq slot each — the seq cursor
  // counts every countable line so the H/S resume protocol is exact.
  // Comments/blanks are noise; Q ends the stream unapplied.
  EXPECT_EQ(k.events_malformed, 2u);
  EXPECT_EQ(k.events_applied, 4u);  // C 1 2, nonsense, C 1 1, R 3 5
  EXPECT_EQ(daemon.store().seq(), 4u);
}

TEST(Replicationd, HttpSnapshotEndpointTriggersPersistence) {
  TempPath socket("repl_httpsnap");
  TempPath snap("repl_httpsnap_file");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 27;
  config.socket_path = socket.path();
  config.http_port = 0;
  config.snapshot_path = snap.path();

  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });
  feed_socket(socket.path(), stream_text(200, 35, /*quit=*/false));
  while (daemon.store().counters().events_applied == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string body = http_get(daemon.http_port(), "/snapshot");
  EXPECT_EQ(body.rfind("ok version ", 0), 0u) << body;
  EXPECT_GE(daemon.metrics().snapshots_total(), 1u);
  const StateImage image = load_image(snap.path());
  EXPECT_GT(image.seq, 0u);
  daemon.stop();
  runner.join();
}

// --- Asynchronous snapshot persistence -----------------------------------

/// Countable lines of a stream: the seq it ends at.
std::uint64_t countable_lines(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::uint64_t count = 0;
  while (std::getline(in, line)) {
    const LineClass cls = classify_line(line);
    if (cls == LineClass::event || cls == LineClass::malformed) ++count;
  }
  return count;
}

struct ManifestEntry {
  std::string kind;
  std::string file;
  std::uint64_t seq = 0;
};

std::vector<ManifestEntry> read_manifest(const std::string& path) {
  std::ifstream in(path + ".manifest");
  std::vector<ManifestEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    ManifestEntry e;
    std::uint64_t checksum = 0;
    if (fields >> e.kind >> e.file >> checksum >> e.seq) {
      entries.push_back(e);
    }
  }
  return entries;
}

std::string dir_of(const std::string& path) {
  return path.substr(0, path.find_last_of('/') + 1);
}

std::string serialized(const StateImage& image) {
  std::ostringstream out;
  write_image(out, image);
  return out.str();
}

// stop() must wake the interval writer however it interleaves with the
// writer's wait: a lost wake-up would leave the destructor's join
// blocked for a full --snapshot-interval (an hour here).
TEST(Replicationd, StopWakesTheIntervalWriterPromptly) {
  TempPath input("repl_stopwake_input");
  { std::ofstream out(input.path()); }
  TempPath snap("repl_stopwake_snap");
  DaemonConfig config;
  config.store = small_config();
  config.input_path = input.path();
  config.http_port = -1;
  config.snapshot_path = snap.path();
  config.snapshot_interval_s = 3600.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < 50; ++cycle) {
    ReplicationDaemon daemon(config);
    daemon.stop();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(seconds, 5.0);
}

// Chain mode with --snapshot-every N: every boundary is persisted, in
// order, and each delta links to its parent.
TEST(Replicationd, ChainCheckpointsCommitInSeqOrder) {
  TempPath socket("repl_chainorder");
  TempPath snap("repl_chainorder_snap");
  const std::string text = stream_text(1500, 41, /*quit=*/false);
  const std::uint64_t total = countable_lines(text);
  constexpr std::uint64_t kEvery = 50;
  DaemonConfig config;
  config.store = small_config();
  config.store.num_nodes = 3000;  // a base worth persisting off-thread
  config.seed = 41;
  config.socket_path = socket.path();
  config.http_port = -1;
  config.snapshot_path = snap.path();
  config.snapshot_every = kEvery;
  config.snapshot_deltas = true;
  config.snapshot_delta_limit = 1000;  // keep every element in the chain

  std::vector<std::string> files;
  const auto check_manifest = [&](std::uint64_t* last_seq) {
    const std::vector<ManifestEntry> entries = read_manifest(snap.path());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ManifestEntry& e = entries[i];
      EXPECT_EQ(e.kind, i == 0 ? "base" : "delta");
      EXPECT_EQ(e.seq, (i + 1) * kEvery) << "element " << i;
      EXPECT_GT(e.seq, prev);
      prev = e.seq;
      files.push_back(dir_of(snap.path()) + e.file);
    }
    *last_seq = prev;
  };

  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });
  std::thread feeder([&] { feed_socket(socket.path(), text); });
  const std::uint64_t last_boundary = total / kEvery * kEvery;
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 5000 && last_seq < last_boundary; ++i) {
    check_manifest(&last_seq);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  feeder.join();
  ASSERT_EQ(last_seq, last_boundary);
  wait_for_seq(daemon, total);

  // Parent links and element checksums verify; replaying the chain gives
  // the store exactly as it stood at the last boundary.
  const StateImage restored = SnapshotChain::restore_image(snap.path());
  EXPECT_EQ(restored.seq, last_boundary);
  daemon.stop();
  runner.join();
  if (total == last_boundary) {
    EXPECT_EQ(serialized(restored), serialized(daemon.store().image()));
  }
  for (const ManifestEntry& e : read_manifest(snap.path())) {
    files.push_back(dir_of(snap.path()) + e.file);
  }
  for (const std::string& file : files) std::remove(file.c_str());
  std::remove((snap.path() + ".manifest").c_str());
}

// GET /snapshot answers only once the file carrying the version it
// reports is on disk, while ingest keeps moving the store.
TEST(Replicationd, HttpSnapshotReplyFollowsThePersist) {
  TempPath socket("repl_httpsync");
  TempPath snap("repl_httpsync_snap");
  DaemonConfig config;
  config.store = small_config();
  config.store.num_nodes = 3000;
  config.seed = 42;
  config.socket_path = socket.path();
  config.http_port = 0;
  config.snapshot_path = snap.path();

  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });
  std::thread feeder(
      [&] { feed_socket(socket.path(), stream_text(20000, 42, false)); });
  for (int i = 0; i < 10; ++i) {
    const std::string body = http_get(daemon.http_port(), "/snapshot");
    ASSERT_EQ(body.rfind("ok version ", 0), 0u) << body;
    const std::uint64_t version = std::stoull(body.substr(11));
    EXPECT_EQ(load_image(snap.path()).version, version);
  }
  feeder.join();
  daemon.stop();
  runner.join();
}

// The final snapshot after Q waits for the by-sequence one still in
// flight, so it is the last file written, at the full seq — in both
// snapshot modes.
TEST(Replicationd, FinalSnapshotLandsLastAtTheFullSeq) {
  const std::string text = stream_text(1201, 43, /*quit=*/true);
  TempPath input("repl_final_input");
  {
    std::ofstream out(input.path());
    out << text;
  }
  const std::uint64_t total = countable_lines(text);
  constexpr std::uint64_t kEvery = 200;
  ASSERT_NE(total % kEvery, 0u);
  for (const bool deltas : {false, true}) {
    TempPath snap(deltas ? "repl_final_chain" : "repl_final_plain");
    DaemonConfig config;
    config.store = small_config();
    config.store.num_nodes = 5000;
    config.seed = 43;
    config.input_path = input.path();
    config.http_port = -1;
    config.snapshot_path = snap.path();
    config.snapshot_every = kEvery;
    config.snapshot_deltas = deltas;
    ReplicationDaemon daemon(config);
    daemon.run(nullptr);
    ASSERT_EQ(daemon.store().seq(), total);

    const StateImage on_disk = SnapshotChain::restore_image(snap.path());
    EXPECT_EQ(on_disk.seq, total) << "deltas " << deltas;
    EXPECT_EQ(serialized(on_disk), serialized(daemon.store().image()));
    EXPECT_EQ(daemon.metrics().snapshots_total(), total / kEvery + 1);
    EXPECT_EQ(daemon.metrics().snapshot_last_version(),
              daemon.store().version());
    if (deltas) {
      // The collapse left exactly one base, and removed the chain files
      // the by-sequence checkpoints wrote.
      const std::vector<ManifestEntry> entries = read_manifest(snap.path());
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].kind, "base");
      EXPECT_EQ(entries[0].seq, total);
      for (std::uint64_t seq = kEvery; seq < total; seq += kEvery) {
        for (const char* kind : {".base.", ".delta."}) {
          std::ifstream stale(snap.path() + kind + std::to_string(seq));
          EXPECT_FALSE(stale.good()) << kind << seq;
        }
      }
      std::remove((dir_of(snap.path()) + entries[0].file).c_str());
      std::remove((snap.path() + ".manifest").c_str());
    }
  }
}

// A by-sequence persist that fails on the writer thread reaches run()'s
// caller as the IoError it is, through the next capture, instead of
// ending the process.
TEST(Replicationd, FailedSnapshotWriteSurfacesFromRun) {
  TempPath input("repl_badsnap_input");
  {
    std::ofstream out(input.path());
    out << stream_text(300, 45, /*quit=*/true);
  }
  DaemonConfig config;
  config.store = small_config();
  config.seed = 45;
  config.input_path = input.path();
  config.http_port = -1;
  config.snapshot_path = ::testing::TempDir() + "no_such_dir_" +
                         std::to_string(::getpid()) + "/snap";
  config.snapshot_every = 50;
  ReplicationDaemon daemon(config);
  util::CancellationToken token;  // runs the token watcher too
  EXPECT_THROW(daemon.run(&token), util::IoError);
  EXPECT_EQ(daemon.metrics().snapshots_total(), 0u);
}

// The writer's backpressure metrics are exported, and count at persist.
TEST(Replicationd, SnapshotWriterMetricsAreExported) {
  TempPath socket("repl_snapmetrics");
  TempPath snap("repl_snapmetrics_snap");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 44;
  config.socket_path = socket.path();
  config.http_port = 0;
  config.snapshot_path = snap.path();
  config.snapshot_every = 100;
  ReplicationDaemon daemon(config);
  std::thread runner([&] { daemon.run(nullptr); });
  const std::string text = stream_text(1000, 44, /*quit=*/false);
  feed_socket(socket.path(), text);
  const std::uint64_t total = countable_lines(text);
  wait_for_seq(daemon, total);
  // Every boundary reaches the metrics once its persist returns.
  for (int i = 0; i < 1000 && daemon.metrics().snapshots_total() <
                                  total / config.snapshot_every;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(daemon.metrics().snapshots_total(), total / config.snapshot_every);
  EXPECT_EQ(load_image(snap.path()).version,
            daemon.metrics().snapshot_last_version());
  EXPECT_GT(daemon.metrics().snapshot_write_seconds_last(), 0.0);
  EXPECT_LE(daemon.metrics().snapshot_waits_total(),
            daemon.metrics().snapshots_total());
  const std::string metrics = http_get(daemon.http_port(), "/metrics");
  EXPECT_NE(metrics.find("replicationd_snapshot_waits_total "),
            std::string::npos);
  EXPECT_NE(metrics.find("replicationd_snapshot_write_seconds_last "),
            std::string::npos);
  daemon.stop();
  runner.join();
}

// The capture half of a snapshot is timed on its own: the gauge reads 0
// before any capture and afterwards carries the last capture's time under
// the store lock, in the accessor and on /metrics alike.
TEST(Replicationd, SnapshotCaptureSecondsAreExported) {
  TempPath input("repl_capture_input");
  {
    std::ofstream out(input.path());
    out << stream_text(600, 46, /*quit=*/true);
  }
  TempPath snap("repl_capture_snap");
  DaemonConfig config;
  config.store = small_config();
  config.seed = 46;
  config.input_path = input.path();
  config.http_port = -1;
  config.snapshot_path = snap.path();
  config.snapshot_every = 100;
  ReplicationDaemon daemon(config);
  EXPECT_EQ(daemon.metrics().snapshot_capture_seconds_last(), 0.0);
  daemon.run(nullptr);
  EXPECT_GE(daemon.metrics().snapshots_total(), 6u);
  const double seconds = daemon.metrics().snapshot_capture_seconds_last();
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(seconds, 60.0);

  const std::string metrics =
      render_metrics(daemon.store(), daemon.metrics(), 1.0, 0.0);
  const std::string key = "replicationd_snapshot_capture_seconds_last ";
  const std::size_t at = metrics.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::stod(metrics.substr(at + key.size())), 0.0);
}

}  // namespace
}  // namespace impatience::service
