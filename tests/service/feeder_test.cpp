// StreamFeeder tests (suite Replfeed; scripts/check_engine_tsan.sh sweeps
// it under ThreadSanitizer). The heart of the suite is the chaos identity
// lock: a feeder streaming through deterministic network faults, against
// a daemon that keeps getting stopped and warm-restarted, must leave the
// store byte-identical to one unbroken clean run.
#include "impatience/service/feeder.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "impatience/service/daemon.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/util/backoff.hpp"
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

/// Writes a deterministic event file (no Q: the feeder owns completion).
std::uint64_t write_stream_file(const std::string& path,
                                std::uint64_t events, std::uint64_t seed,
                                double crash_fraction = 0.0) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.crash_fraction = crash_fraction;
  config.quit = false;
  const auto stream = generate_stream(config, seed);
  std::ofstream out(path);
  write_stream(out, stream);
  return stream.size();
}

/// Serialized image of a store fed the whole file in-process — the clean
/// unbroken reference every resilience test compares against.
std::string reference_image(const StoreConfig& config, std::uint64_t seed,
                            const std::string& stream_path) {
  StateStore store(config, seed);
  std::ifstream in(stream_path);
  std::string line;
  while (std::getline(in, line)) {
    Event event;
    const LineClass cls = classify_line(line, &event);
    if (cls == LineClass::event) {
      store.apply(event);
    } else if (cls == LineClass::malformed) {
      store.apply_malformed();
    }
  }
  std::ostringstream out;
  write_image(out, store.image());
  return out.str();
}

std::string image_text(const StateStore& store) {
  std::ostringstream out;
  write_image(out, store.image());
  return out.str();
}

TEST(Replfeed, StreamsCleanlyAndStoreMatchesUnbrokenRun) {
  TempPath stream("replfeed_clean_stream");
  TempPath socket("replfeed_clean_sock");
  const std::uint64_t total = write_stream_file(stream.path(), 400, 91);

  DaemonConfig dconfig;
  dconfig.store = small_config();
  dconfig.seed = 91;
  dconfig.socket_path = socket.path();
  dconfig.http_port = -1;
  ReplicationDaemon daemon(dconfig);
  std::thread runner([&] { daemon.run(nullptr); });

  FeederConfig fconfig;
  fconfig.socket_path = socket.path();
  fconfig.input_path = stream.path();
  fconfig.seed = 5;
  StreamFeeder feeder(fconfig);
  EXPECT_EQ(feeder.frames_total(), total);

  const FeederReport report = feeder.run();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.frames_sent, total);
  EXPECT_EQ(report.last_acked_seq, total);
  EXPECT_GE(report.handshakes, 2u);  // opening + completion confirm
  EXPECT_EQ(report.reconnect_backoffs, 0u);

  daemon.stop();
  runner.join();
  EXPECT_EQ(daemon.store().seq(), total);
  EXPECT_EQ(image_text(daemon.store()),
            reference_image(dconfig.store, dconfig.seed, stream.path()));
}

TEST(Replfeed, BackoffScheduleReplaysFromSeedAlone) {
  TempPath stream("replfeed_backoff_stream");
  write_stream_file(stream.path(), 5, 3);

  FeederConfig config;
  // Nothing listens here: every attempt fails, so the report records a
  // pure backoff schedule.
  config.socket_path = ::testing::TempDir() + "replfeed_no_such_socket";
  config.input_path = stream.path();
  config.seed = 77;
  config.backoff = {0.001, 0.004};
  config.max_attempts = 6;

  const FeederReport first = StreamFeeder(config).run();
  EXPECT_FALSE(first.complete);
  ASSERT_EQ(first.backoff_delays.size(), 5u);  // attempts 1..5 back off
  // The schedule is a pure function of (policy, seed, attempt) — no
  // wall-clock randomness — so it replays bit-for-bit...
  for (std::size_t k = 0; k < first.backoff_delays.size(); ++k) {
    EXPECT_EQ(first.backoff_delays[k],
              util::backoff_delay(config.backoff, config.seed,
                                  static_cast<int>(k) + 1));
  }
  const FeederReport second = StreamFeeder(config).run();
  EXPECT_EQ(first.backoff_delays, second.backoff_delays);

  // ...and it actually depends on the seed (jitter is live).
  config.seed = 78;
  const FeederReport other = StreamFeeder(config).run();
  ASSERT_EQ(other.backoff_delays.size(), first.backoff_delays.size());
  EXPECT_NE(first.backoff_delays, other.backoff_delays);
}

TEST(Replfeed, EngagedZeroChaosShimIsBitIdenticalToNoShim) {
  TempPath stream("replfeed_zero_stream");
  const std::uint64_t total = write_stream_file(stream.path(), 300, 17);

  std::string images[2];
  FeederReport reports[2];
  for (int variant = 0; variant < 2; ++variant) {
    TempPath socket("replfeed_zero_sock");
    DaemonConfig dconfig;
    dconfig.store = small_config();
    dconfig.seed = 17;
    dconfig.socket_path = socket.path();
    dconfig.http_port = -1;
    ReplicationDaemon daemon(dconfig);
    std::thread runner([&] { daemon.run(nullptr); });

    FeederConfig fconfig;
    fconfig.socket_path = socket.path();
    fconfig.input_path = stream.path();
    fconfig.seed = 9;
    fconfig.chaos.engage_when_zero = variant == 1;
    ASSERT_FALSE(fconfig.chaos.any());
    StreamFeeder feeder(fconfig);
    reports[variant] = feeder.run();
    daemon.stop();
    runner.join();
    images[variant] = image_text(daemon.store());
  }
  EXPECT_TRUE(reports[0].complete);
  EXPECT_TRUE(reports[1].complete);
  EXPECT_EQ(reports[0].frames_sent, total);
  EXPECT_EQ(reports[1].frames_sent, total);
  EXPECT_EQ(reports[1].chaos.resets, 0u);
  EXPECT_EQ(reports[1].chaos.partial_writes, 0u);
  EXPECT_EQ(reports[1].chaos.garbage_bursts, 0u);
  EXPECT_EQ(reports[1].chaos.stalls, 0u);
  EXPECT_EQ(images[0], images[1]);
}

TEST(Replfeed, ChaosTcpMatchesCleanUnixRun) {
  // Transport lock: the same stream through (a) a daemon on a Unix socket
  // with no chaos and (b) a daemon on TCP behind the chaos shim must
  // serialize identically.
  TempPath stream("replfeed_tcp_chaos_stream");
  write_stream_file(stream.path(), 600, 77, 0.01);

  std::string images[2];
  for (int variant = 0; variant < 2; ++variant) {
    TempPath socket("replfeed_tcp_chaos_sock");
    DaemonConfig dconfig;
    dconfig.store = small_config();
    dconfig.seed = 77;
    dconfig.http_port = -1;
    if (variant == 0) {
      dconfig.socket_path = socket.path();
    } else {
      dconfig.tcp_port = 0;  // ephemeral
    }
    ReplicationDaemon daemon(dconfig);
    std::thread runner([&] { daemon.run(nullptr); });

    FeederConfig fconfig;
    if (variant == 0) {
      fconfig.socket_path = socket.path();
    } else {
      fconfig.tcp_port = static_cast<int>(daemon.tcp_port());
      fconfig.chaos.p_reset = 0.02;
      fconfig.chaos.p_partial = 0.02;
      fconfig.chaos.p_garbage = 0.01;
      fconfig.chaos.seed = 5;
    }
    fconfig.input_path = stream.path();
    fconfig.seed = 9;
    const FeederReport report = StreamFeeder(fconfig).run();
    EXPECT_TRUE(report.complete);
    daemon.stop();
    runner.join();
    images[variant] = image_text(daemon.store());
  }
  EXPECT_EQ(images[0], images[1]);
}

TEST(Replfeed, ChaosScheduleAndCountersAreSeedDeterministic) {
  TempPath stream("replfeed_chaos_det_stream");
  const std::uint64_t total = write_stream_file(stream.path(), 250, 23);

  const auto run_once = [&](std::uint64_t chaos_seed) {
    TempPath socket("replfeed_chaos_det_sock");
    DaemonConfig dconfig;
    dconfig.store = small_config();
    dconfig.seed = 23;
    dconfig.socket_path = socket.path();
    dconfig.http_port = -1;
    ReplicationDaemon daemon(dconfig);
    std::thread runner([&] { daemon.run(nullptr); });

    FeederConfig fconfig;
    fconfig.socket_path = socket.path();
    fconfig.input_path = stream.path();
    fconfig.seed = 4;
    fconfig.reply_timeout_s = 2.0;
    fconfig.backoff = {0.001, 0.002};  // fast retries, still jittered
    fconfig.chaos.p_reset = 0.03;
    fconfig.chaos.p_partial = 0.03;
    fconfig.chaos.p_garbage = 0.02;
    fconfig.chaos.seed = chaos_seed;
    StreamFeeder feeder(fconfig);
    const FeederReport report = feeder.run();
    daemon.stop();
    runner.join();
    return std::make_pair(report, image_text(daemon.store()));
  };

  const auto [a, image_a] = run_once(111);
  const auto [b, image_b] = run_once(111);
  EXPECT_TRUE(a.complete);
  EXPECT_TRUE(b.complete);
  // Same chaos seed => identical injection schedule, so identical
  // counters and identical wire traffic.
  EXPECT_EQ(a.chaos.resets, b.chaos.resets);
  EXPECT_EQ(a.chaos.partial_writes, b.chaos.partial_writes);
  EXPECT_EQ(a.chaos.garbage_bursts, b.chaos.garbage_bursts);
  EXPECT_EQ(a.chaos.bytes_garbage, b.chaos.bytes_garbage);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_GT(a.chaos.resets + a.chaos.partial_writes + a.chaos.garbage_bursts,
            0u);
  // Chaos cuts a frame *before* it completes, so the daemon never loses
  // an acked frame on a live daemon: every frame is counted exactly once
  // even though partial/garbage bytes hit the wire.
  EXPECT_EQ(a.frames_sent, total);
  EXPECT_GT(a.connections, 1u);  // the faults forced reconnects

  // And the store cannot tell any of it happened.
  const std::string reference =
      reference_image(small_config(), 23, stream.path());
  EXPECT_EQ(image_a, reference);
  EXPECT_EQ(image_b, reference);
}

// The tentpole lock: >= 2000 events with K frames in the stream, chaos
// faults on the wire, AND the daemon being stopped and warm-restarted
// underneath the feeder (including once from a deliberately stale
// snapshot, moving the acked cursor backwards) — the final store must be
// byte-identical to one unbroken clean run.
TEST(Replfeed, ChaosPlusDaemonRestartsPreserveByteIdentity) {
  TempPath stream("replfeed_lock_stream");
  TempPath socket("replfeed_lock_sock");
  TempPath snapshot("replfeed_lock_snap");
  const std::uint64_t total =
      write_stream_file(stream.path(), 2100, 42, /*crash_fraction=*/0.01);
  ASSERT_GE(total, 2000u);

  DaemonConfig dconfig;
  dconfig.store = small_config();
  dconfig.seed = 42;
  dconfig.socket_path = socket.path();
  dconfig.http_port = -1;
  dconfig.snapshot_path = snapshot.path();
  dconfig.snapshot_every = 157;

  FeederConfig fconfig;
  fconfig.socket_path = socket.path();
  fconfig.input_path = stream.path();
  fconfig.seed = 6;
  fconfig.reply_timeout_s = 1.0;
  fconfig.backoff = {0.001, 0.01};
  fconfig.chaos.p_reset = 0.01;
  fconfig.chaos.p_partial = 0.01;
  fconfig.chaos.p_garbage = 0.005;
  fconfig.chaos.seed = 1234;
  StreamFeeder feeder(fconfig);

  std::atomic<bool> done{false};
  FeederReport report;
  std::thread feed([&] {
    report = feeder.run();
    done.store(true);
  });

  auto daemon = std::make_unique<ReplicationDaemon>(dconfig);
  std::thread runner([&] { daemon->run(nullptr); });
  std::string stale;  // bytes of an earlier snapshot, for the stale cycle

  for (int cycle = 0; cycle < 3 && !done.load(); ++cycle) {
    // Let the feeder make some progress against this incarnation.
    for (int i = 0; i < 40 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (cycle == 0) {
      // Keep a copy of whatever the cadence has persisted so far.
      std::ifstream in(snapshot.path(), std::ios::binary);
      if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        stale = buf.str();
      }
    }
    daemon->stop();
    runner.join();
    daemon.reset();  // graceful exit wrote a final snapshot
    if (cycle == 1 && !stale.empty()) {
      // Simulate a crash that lost recent state: restore from the old
      // snapshot. The feeder's next handshake acks a smaller seq and it
      // re-sends the difference; the store applies each seq exactly
      // once, so identity still holds.
      std::ofstream out(snapshot.path(), std::ios::binary);
      out << stale;
    }
    dconfig.restore = true;
    daemon = std::make_unique<ReplicationDaemon>(dconfig);
    EXPECT_TRUE(daemon->restored());
    runner = std::thread([&] { daemon->run(nullptr); });
  }

  feed.join();
  daemon->stop();
  runner.join();

  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.connections, 4u);  // at least one per daemon incarnation
  EXPECT_EQ(daemon->store().seq(), total);
  const StoreCounters k = daemon->store().counters();
  EXPECT_EQ(k.events_malformed, 0u);  // chaos garbage never became a frame
  EXPECT_EQ(image_text(daemon->store()),
            reference_image(dconfig.store, dconfig.seed, stream.path()));
}

TEST(Replfeed, ChaosConfigValidates) {
  ChaosNetConfig chaos;
  chaos.validate();  // all-zero is fine
  chaos.p_reset = 1.5;
  EXPECT_THROW(chaos.validate(), std::invalid_argument);
  chaos.p_reset = 0.0;
  chaos.p_stall = 0.5;
  chaos.stall_max_seconds = 0.0;
  EXPECT_THROW(chaos.validate(), std::invalid_argument);
  chaos.stall_max_seconds = 0.001;
  chaos.validate();
  chaos.p_garbage = 0.1;
  chaos.garbage_max_bytes = 0;
  EXPECT_THROW(chaos.validate(), std::invalid_argument);
}

TEST(Replfeed, RendersFeederMetrics) {
  FeederReport report;
  report.frames_total = 10;
  report.frames_sent = 12;
  report.complete = true;
  report.chaos.resets = 2;
  const std::string text = render_feeder_metrics(report);
  EXPECT_NE(text.find("replfeed_frames_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("replfeed_frames_sent_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("replfeed_complete 1\n"), std::string::npos);
  EXPECT_NE(text.find("replfeed_chaos_resets_total 2\n"), std::string::npos);
}

}  // namespace
}  // namespace impatience::service
