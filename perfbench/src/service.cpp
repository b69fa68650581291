// Service workloads: replicationd in its own process, fed by
// service::StreamFeeder (closed loop) and a paced probe sender (open
// loop), scraped on /metrics, restarted from its final snapshot, and
// checked byte for byte against an in-process replay of the same lines.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "impatience/engine/artifacts.hpp"
#include "impatience/engine/seeding.hpp"
#include "impatience/service/daemon.hpp"
#include "impatience/service/feeder.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/state_store.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_DAEMON
#error "PERFBENCH_DAEMON must name the replicationd binary"
#endif

namespace perfbench {

namespace {

using namespace impatience;

struct ServiceSpec {
  const char* name;
  service::NodeId nodes;
  service::ItemId items;
  /// By-sequence snapshot cadence; 0 = only the final snapshot.
  std::uint64_t snapshot_every;
  /// Countable lines the closed-loop feeder sends.
  std::size_t closed_lines;
  /// Open-loop offered load (lines/s, in bursts every kBurstPeriodS) and
  /// its duration.
  double open_rate;
  double open_seconds;
  /// One H probe ahead of every `probe_every`-th open-loop line.
  std::size_t probe_every;
  /// Set-up-only spawns per run, on top of one spawn per iteration.
  int setup_probes;
  /// --restore spawns per iteration.
  int restores;
  /// Quantile of the per-window ingest rates reported as throughput
  /// (and of the window durations, from the fast end, as wall time).
  double window_q;
  /// Percentile reported as the tail latency.
  double tail_q;
  /// Report the latency p50 and tail at the fast end of the run's probe
  /// blocks (the window_q quantile, as for the windows), rather than over
  /// all probes of the run.
  bool latency_blocks;
};

// Closed-loop ingest is timed per window of kWindowLines frames (one
// by-sequence snapshot per window on stream_100kn_snap). The open-loop
// rates, the window quantile and the tail percentile are chosen per
// workload (README.md "Workloads" and "End-to-end metrics" say why).
constexpr std::size_t kWindowLines = 50'000;
constexpr ServiceSpec kSpecs[] = {
    {"stream_200n", 200, 200, 0, 400'000, 400'000.0, 0.75, 300, 8, 3, 0.9, 0.9,
     true},
    {"stream_100kn_snap", 100'000, 1000, 50'000, 300'000, 75'000.0, 2.0, 100,
     2, 1, 0.5, 0.99, false},
};
constexpr int kCapacity = 5;  // cache slots per node (rho)
// The open loop offers a burst every 20 ms. Its probes then wait for the
// burst ahead of them to drain (milliseconds), which the host's
// sub-millisecond scheduling noise does not swamp.
constexpr double kBurstPeriodS = 0.02;
// Probe blocks of a run: the probes of kBlockBursts consecutive bursts
// (100 ms, ~130 probes on stream_200n).
constexpr std::size_t kBlockBursts = 5;
constexpr double kScrapePeriodS = 0.1;
// Untraced/traced replay pairs of a traced run (tracing.overhead_frac).
constexpr int kReplayPairs = 3;
constexpr const char* kSocket = "d.sock";
constexpr const char* kAnnounce = "d.announce";
constexpr const char* kSnapshot = "d.snap";
constexpr const char* kDaemonLog = "daemon.log";
constexpr const char* kClosedFile = "closed.txt";
constexpr const char* kAllFile = "all.txt";  ///< whole stream, for replays

const ServiceSpec& spec_for(const std::string& name) {
  for (const ServiceSpec& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown service workload " + name);
}

service::StoreConfig store_config(const ServiceSpec& spec) {
  service::StoreConfig config;  // defaults == replicationd flag defaults
  config.num_nodes = spec.nodes;
  config.num_items = spec.items;
  config.cache_capacity = kCapacity;
  return config;
}

struct Stream {
  std::vector<std::string> closed;  ///< feeder lines (also in kClosedFile)
  std::vector<std::string> open;    ///< open-loop lines
  std::size_t total() const { return closed.size() + open.size(); }
};

/// The workload's input, a pure function of (spec, seed).
Stream make_stream(const ServiceSpec& spec, std::uint64_t seed) {
  const auto open_lines =
      static_cast<std::size_t>(spec.open_rate * spec.open_seconds);
  const std::size_t total = spec.closed_lines + open_lines;
  service::StreamConfig config;
  config.num_nodes = spec.nodes;
  config.num_items = spec.items;
  config.zipf = 1.0;
  config.request_fraction = 0.5;
  config.crash_fraction = 0.001;
  config.quit = false;
  // ~1.5 lines per event (a T frame every second event), so this
  // always yields at least `total` lines.
  config.events = total * 10 / 14 + 1000;
  const auto events = service::generate_stream(
      config, engine::child_seed(seed, "perfbench-stream"));
  if (events.size() < total) throw std::runtime_error("stream too short");
  Stream stream;
  stream.closed.reserve(spec.closed_lines);
  stream.open.reserve(open_lines);
  for (std::size_t i = 0; i < total; ++i) {
    (i < spec.closed_lines ? stream.closed : stream.open)
        .push_back(service::format_event(events[i]));
  }
  std::ofstream out(kClosedFile);
  for (const std::string& line : stream.closed) out << line << '\n';
  if (!out) throw std::runtime_error("cannot write the feeder input");
  return stream;
}

std::vector<std::string> daemon_argv(const ServiceSpec& spec,
                                     std::uint64_t seed, bool restore) {
  std::vector<std::string> argv{PERFBENCH_DAEMON,
                                "--nodes",
                                std::to_string(spec.nodes),
                                "--items",
                                std::to_string(spec.items),
                                "--capacity",
                                std::to_string(kCapacity),
                                "--seed",
                                std::to_string(seed),
                                "--socket",
                                kSocket,
                                "--port",
                                "0",
                                "--announce",
                                kAnnounce,
                                "--snapshot",
                                kSnapshot};
  if (spec.snapshot_every > 0) {
    argv.insert(argv.end(),
                {"--snapshot-every", std::to_string(spec.snapshot_every)});
  }
  if (restore) argv.insert(argv.end(), {"--restore", "true"});
  return argv;
}

/// A spawned daemon that is serving.
struct Daemon {
  Child child;
  std::int64_t serving_ns = 0;
  std::uint16_t http_port = 0;
  double setup_s() const { return to_s(serving_ns - child.spawned_ns); }
};

/// Spawns the daemon and waits until its announce file exists.
Daemon start_daemon(const ServiceSpec& spec, std::uint64_t seed,
                    bool restore) {
  ::unlink(kAnnounce);
  Daemon daemon;
  daemon.child = spawn(daemon_argv(spec, seed, restore), false, kDaemonLog);
  const std::int64_t deadline = daemon.child.spawned_ns + 60'000'000'000LL;
  while (!file_exists(kAnnounce)) {
    if (!child_alive(daemon.child) || now_ns() > deadline) {
      kill_child(daemon.child);
      throw std::runtime_error("replicationd did not start (see " +
                               std::string(kDaemonLog) + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  daemon.serving_ns = now_ns();
  std::istringstream announce(read_file(kAnnounce));
  std::string key;
  std::string value;
  while (announce >> key >> value) {
    if (key == "http_port") {
      daemon.http_port = static_cast<std::uint16_t>(std::stoi(value));
    }
  }
  return daemon;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw std::runtime_error("cannot connect to " + path);
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one newline-terminated reply, or nullopt after `timeout_s`.
std::optional<std::string> read_line(int fd, double timeout_s) {
  std::string buffer;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    struct pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    buffer.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) return buffer.substr(0, nl);
  }
  return std::nullopt;
}

/// Fixed-period GET /metrics client, the one scraper the service sees.
class Scraper {
 public:
  explicit Scraper(std::uint16_t port)
      : port_(port), thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  /// Stops and joins; returns the scrape latencies (ms).
  std::vector<double> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return ms_;
  }
  std::uint64_t failures() const { return failures_; }

 private:
  void loop() {
    std::int64_t next = now_ns();
    while (!stop_.load()) {
      const std::int64_t t0 = now_ns();
      try {
        (void)service::http_get(port_, "/metrics");
        ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      } catch (const std::exception&) {
        ++failures_;
      }
      next += static_cast<std::int64_t>(kScrapePeriodS * 1e9);
      while (!stop_.load() && now_ns() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<double> ms_;
  std::uint64_t failures_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< one per answered probe
  /// The same latencies by block of kBlockBursts bursts (whole blocks).
  std::vector<std::vector<double>> blocks_ms;
  double late_ms_max = 0.0;        ///< worst generator lateness
  std::uint64_t probes = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong_seq = 0;
};

/// Offers `lines` on `fd` at `rate` lines/s, as a burst every
/// kBurstPeriodS, with an H probe ahead of every `probe_every`-th line.
/// Every line of a burst is due at the burst's start. A probe is timed
/// from when it was due to the arrival of its S reply; the daemon answers
/// only after applying every earlier line, so the reply also acks the
/// backlog. The reply must carry `seq_base` plus the lines sent before
/// the probe.
OpenLoopResult open_loop(int fd, const std::vector<std::string>& lines,
                         double rate, std::size_t probe_every,
                         std::uint64_t seq_base) {
  OpenLoopResult result;
  const std::size_t n = lines.size();
  const std::size_t probes = (n + probe_every - 1) / probe_every;
  result.probes = probes;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto burst = static_cast<std::size_t>(rate * kBurstPeriodS);
  const auto period_ns = static_cast<std::int64_t>(kBurstPeriodS * 1e9);
  const auto due = [&](std::size_t j) {
    return t0 + static_cast<std::int64_t>(j / burst) * period_ns;
  };

  std::vector<std::int64_t> ack_ns(probes, 0);
  std::vector<std::uint64_t> ack_seq(probes, 0);
  std::atomic<bool> sender_failed{false};
  std::thread receiver([&] {
    std::string buffer;
    std::size_t got = 0;
    const std::int64_t deadline = due(n) + 60'000'000'000LL;
    while (got < probes && now_ns() < deadline) {
      struct pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        if (sender_failed.load()) break;
        continue;
      }
      char buf[4096];
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      const std::int64_t now = now_ns();
      buffer.append(buf, static_cast<std::size_t>(r));
      std::size_t nl;
      while (got < probes && (nl = buffer.find('\n')) != std::string::npos) {
        const auto seq =
            service::parse_seq_reply(std::string_view(buffer.data(), nl));
        ack_ns[got] = now;
        ack_seq[got] = seq ? *seq : ~0ULL;
        ++got;
        buffer.erase(0, nl + 1);
      }
    }
  });

  std::string chunk;
  std::size_t next = 0;
  std::int64_t late_max = 0;
  while (next < n) {
    const std::int64_t now = now_ns();
    const std::int64_t wait = due(next) - now;
    if (wait > 0) {
      // Oversleeping is lateness; probes are timed from when they were due.
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      continue;
    }
    late_max = std::max(late_max, -wait);
    chunk.clear();
    for (int k = 0; k < 512 && next < n && due(next) <= now; ++k, ++next) {
      if (next % probe_every == 0) chunk += "H\n";
      chunk += lines[next];
      chunk += '\n';
    }
    if (!send_all(fd, chunk.data(), chunk.size())) {
      sender_failed.store(true);
      break;
    }
  }
  receiver.join();

  result.late_ms_max = static_cast<double>(late_max) * 1e-6;
  for (std::size_t i = 0; i < probes; ++i) {
    if (ack_ns[i] == 0) {
      ++result.unanswered;
      continue;
    }
    if (ack_seq[i] != seq_base + i * probe_every) ++result.wrong_seq;
    const double ms =
        static_cast<double>(ack_ns[i] - due(i * probe_every)) * 1e-6;
    result.latency_ms.push_back(ms);
    const std::size_t block = i * probe_every / burst / kBlockBursts;
    if (block < n / burst / kBlockBursts) {
      result.blocks_ms.resize(std::max(result.blocks_ms.size(), block + 1));
      result.blocks_ms[block].push_back(ms);
    }
  }
  return result;
}

/// Samples the daemon's VmHWM every 20 ms until stopped. (getrusage of a child is no
/// use here: it also counts the address space inherited at fork.)
class RssWatch {
 public:
  explicit RssWatch(int pid) : pid_(pid), thread_([this] { loop(); }) {}
  ~RssWatch() { stop(); }
  RssWatch(const RssWatch&) = delete;
  RssWatch& operator=(const RssWatch&) = delete;

  double stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_mb_ = std::max(peak_mb_, vm_hwm_mb(pid_));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  int pid_;
  std::atomic<bool> stop_{false};
  double peak_mb_ = 0.0;
  std::thread thread_;  // last: starts after the members it uses
};

/// Runs the feeder, timing each window of kWindowLines frames sent.
double run_feeder(service::StreamFeeder& feeder,
                  service::FeederReport& report,
                  std::vector<double>& window_rates) {
  std::atomic<bool> done{false};
  const std::int64_t f0 = now_ns();
  std::thread watch([&] {
    std::int64_t last = f0;
    std::uint64_t next = kWindowLines;
    while (!done.load()) {
      const std::uint64_t sent = feeder.snapshot_report().frames_sent;
      const std::int64_t now = now_ns();
      for (; sent >= next; next += kWindowLines) {
        window_rates.push_back(static_cast<double>(kWindowLines) /
                               to_s(now - last));
        last = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  try {
    report = feeder.run();
  } catch (...) {
    done.store(true);
    watch.join();
    throw;
  }
  const double feed_s = to_s(now_ns() - f0);
  done.store(true);
  watch.join();
  return feed_s;
}

/// One pass of a service workload against a fresh daemon.
struct Iteration {
  double setup_s = 0;
  double feed_s = 0;      ///< StreamFeeder::run until every frame acked
  std::vector<double> window_rates;  ///< frames/s per kWindowLines window
  double quit_s = 0;      ///< Q sent until the daemon exited (final snapshot)
  std::vector<double> restore_s;  ///< --restore spawn until serving
  double rss_mb = 0;
  double steal = 0;  ///< share of CPU time stolen by the hypervisor
  service::FeederReport feeder;
  OpenLoopResult open;
  std::vector<double> scrape_ms;
  std::uint64_t scrape_failures = 0;
  std::string final_snapshot;
  /// S reply of each restored daemon to an H (nullopt: no reply).
  std::vector<std::optional<std::uint64_t>> restored_seq;
  int exit_status = 0;
};

service::FeederConfig feeder_config(const std::string& socket,
                                    std::uint64_t seed) {
  service::FeederConfig config;
  config.socket_path = socket;
  config.input_path = kClosedFile;
  config.seed = seed;
  config.max_attempts = 3;
  config.reply_timeout_s = 60.0;
  return config;
}

Iteration run_iteration(const ServiceSpec& spec, std::uint64_t seed,
                        const Stream& stream) {
  Iteration it;
  ::unlink(kSnapshot);
  service::StreamFeeder feeder(feeder_config(kSocket, seed));
  const CpuTicks ticks0 = cpu_ticks();

  Daemon daemon = start_daemon(spec, seed, false);
  it.setup_s = daemon.setup_s();
  try {
    RssWatch rss(daemon.child.pid);
    Scraper scraper(daemon.http_port);
    it.feed_s = run_feeder(feeder, it.feeder, it.window_rates);

    const int fd = connect_unix(kSocket);
    it.open = open_loop(fd, stream.open, spec.open_rate, spec.probe_every,
                        stream.closed.size());
    it.scrape_ms = scraper.stop();
    it.scrape_failures = scraper.failures();
    const std::int64_t q0 = now_ns();
    (void)send_all(fd, "Q\n", 2);
    ::close(fd);
    it.exit_status = wait_child(daemon.child);
    it.quit_s = to_s(now_ns() - q0);
    it.rss_mb = rss.stop();
  } catch (...) {
    kill_child(daemon.child);
    throw;
  }
  it.steal = steal_share(ticks0, cpu_ticks());
  it.final_snapshot = read_file(kSnapshot);

  for (int i = 0; i < spec.restores; ++i) {
    Daemon restored = start_daemon(spec, seed, true);
    it.restore_s.push_back(restored.setup_s());
    std::optional<std::uint64_t> seq;
    try {
      const int fd = connect_unix(kSocket);
      if (send_all(fd, "H\n", 2)) {
        if (const auto line = read_line(fd, 30.0)) {
          seq = service::parse_seq_reply(*line);
        }
      }
      ::close(fd);
    } catch (...) {
      kill_child(restored.child);
      throw;
    }
    kill_child(restored.child);
    it.restored_seq.push_back(seq);
  }
  return it;
}

/// Records the checks and failure counts of one iteration.
void check_iteration(const Iteration& it, const Stream& stream,
                     const std::string& expected_image, Result& result) {
  const std::uint64_t frames = stream.closed.size();
  result.attempt(frames + it.open.probes);
  if (!it.feeder.complete || it.feeder.last_acked_seq != frames) {
    result.fail("feeder: frames not acked",
                frames - std::min<std::uint64_t>(frames,
                                                 it.feeder.last_acked_seq));
  }
  if (it.open.unanswered + it.open.wrong_seq > 0) {
    result.fail("open loop: probes without a correct S reply",
                it.open.unanswered + it.open.wrong_seq);
  }
  result.attempt(it.scrape_ms.size() + it.scrape_failures);
  if (it.scrape_failures > 0) {
    result.fail("GET /metrics failed", it.scrape_failures);
  }
  result.check(it.exit_status == 0, "daemon exit status after Q");
  result.check(it.final_snapshot == expected_image,
               "final snapshot byte-identical to the in-process replay");
  for (const auto& seq : it.restored_seq) {
    result.check(seq && *seq == stream.total(),
                 "restored daemon answers H with the full seq");
  }
}

/// Untimed reference: the same lines applied to an in-process store.
std::string replay_image(const ServiceSpec& spec, std::uint64_t seed,
                         const Stream& stream) {
  service::StateStore store(store_config(spec), seed);
  for (const auto* part : {&stream.closed, &stream.open}) {
    for (const std::string& line : *part) {
      service::Event event;
      const service::LineClass cls = service::classify_line(line, &event);
      if (cls == service::LineClass::event) {
        store.apply(event);
      } else if (cls == service::LineClass::malformed) {
        store.apply_malformed();
      }
    }
  }
  std::ostringstream out;
  service::write_image(out, store.image());
  return out.str();
}

void print_iteration(const Iteration& it) {
  const auto& lat = it.open.latency_ms;
  std::printf(
      "# iteration: steal %.4f, setup %.4f s, feed %.4f s (%llu frames, window median "
      "%.0f/s), quit %.4f s, restore %.4f s, rss %.1f MB, probes %llu "
      "(p50 %.3f p90 %.3f p98 %.3f p99 %.3f p99.9 %.3f ms), late max "
      "%.3f ms, scrapes %zu\n",
      it.steal, it.setup_s, it.feed_s,
      static_cast<unsigned long long>(it.feeder.frames_sent),
      median(it.window_rates), it.quit_s, median(it.restore_s), it.rss_mb,
      static_cast<unsigned long long>(it.open.probes), quantile(lat, 0.5),
      quantile(lat, 0.9), quantile(lat, 0.98), quantile(lat, 0.99),
      quantile(lat, 0.999), it.open.late_ms_max,
      it.scrape_ms.size());
  std::printf("# windows (k lines/s):");
  for (double r : it.window_rates) std::printf(" %.0f", r * 1e-3);
  std::printf("\n# restores (s):");
  for (double r : it.restore_s) std::printf(" %.4f", r);
  std::printf("\n");
}

// --------------------------------------------------- in-process replay

/// Per-layer accumulators of the in-process ingest loop.
struct LoopAccums {
  Accum read, classify, reply;
  Accum contact, request, clock, crash, malformed;
  Accum image, serialize, persist;
  std::uint64_t read_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
};

/// image -> write_image -> engine::atomic_write_file; with kTimed, one
/// span each.
template <bool kTimed>
void replay_snapshot(const service::StateStore& store,
                     const std::string& path, LoopAccums& acc) {
  std::int64_t t0 = 0, t1 = 0, t2 = 0;
  if constexpr (kTimed) t0 = now_ns();
  const service::StateImage image = store.image();
  if constexpr (kTimed) t1 = now_ns();
  std::ostringstream out;
  service::write_image(out, image);
  const std::string bytes = out.str();
  if constexpr (kTimed) t2 = now_ns();
  engine::atomic_write_file(path, [&bytes](std::ostream& file) {
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  if constexpr (kTimed) {
    const std::int64_t t3 = now_ns();
    acc.image.add(t0, t1);
    acc.serialize.add(t1, t2);
    acc.persist.add(t2, t3);
  }
  acc.snapshot_bytes += bytes.size();
}

/// replicationd's ingest loop (sequential apply, by-sequence snapshots,
/// final snapshot on Q). With kTimed the clock is read at every layer
/// boundary; without, the loop is the same minus the clock reads.
template <bool kTimed>
void ingest_loop(service::LineSource& source, service::StateStore& store,
                 std::uint64_t snapshot_every, const std::string& snapshot,
                 const std::atomic<bool>& stop, LoopAccums& acc) {
  std::int64_t t0 = 0, t1 = 0, t2 = 0;
  if constexpr (kTimed) t0 = now_ns();
  for (;;) {
    const auto line = source.next_line(stop);
    if constexpr (kTimed) {
      t1 = now_ns();
      acc.read.add(t0, t1);
    }
    if (!line) break;
    acc.read_bytes += line->size() + 1;
    service::Event event;
    const service::LineClass cls = service::classify_line(*line, &event);
    if constexpr (kTimed) {
      t2 = now_ns();
      acc.classify.add(t1, t2);
      t0 = t2;
    }
    if (cls == service::LineClass::noise) continue;
    if (cls == service::LineClass::quit) break;
    if (cls == service::LineClass::hello) {
      source.reply(service::format_seq_reply(store.seq()) + "\n");
      if constexpr (kTimed) {
        t0 = now_ns();
        acc.reply.add(t2, t0);
      }
      continue;
    }
    if (cls == service::LineClass::malformed) {
      store.apply_malformed();
      if constexpr (kTimed) {
        t0 = now_ns();
        acc.malformed.add(t2, t0);
      }
    } else {
      store.apply(event);
      if constexpr (kTimed) {
        t0 = now_ns();
        switch (event.kind) {
          case service::Event::Kind::contact: acc.contact.add(t2, t0); break;
          case service::Event::Kind::request: acc.request.add(t2, t0); break;
          case service::Event::Kind::crash: acc.crash.add(t2, t0); break;
          default: acc.clock.add(t2, t0); break;
        }
      }
    }
    if (snapshot_every > 0 && store.seq() % snapshot_every == 0) {
      replay_snapshot<kTimed>(store, snapshot, acc);
      if constexpr (kTimed) t0 = now_ns();
    }
  }
  replay_snapshot<kTimed>(store, snapshot, acc);
}

/// What one in-process replay did.
struct Replay {
  double wall_s = 0;  ///< store construction until the restored store exists
  int root = -1;      ///< root span of a timed replay
  LoopAccums acc;
  Accum feeder_run;
  service::FeederReport report;
  service::StoreCounters counts;
  std::uint64_t seq = 0;           ///< store seq after the loop
  std::uint64_t restored_seq = 0;  ///< seq of the store restored from disk
  std::string snapshot;            ///< the final snapshot's bytes
  std::string client_error;
};

/// The daemon's ingest path in this process: StreamFeeder sends every
/// line of the stream (kAllFile) over a fresh Unix socket and then Q; the
/// loop applies them and writes the final snapshot, which is then loaded
/// and restored. Timed and untimed replays run the same steps; the timed
/// one records a span per layer call under a root span it opens in
/// `tracer` (out.root) over the same interval as out.wall_s.
template <bool kTimed>
Replay replay(const ServiceSpec& spec, std::uint64_t seed, Tracer* tracer) {
  const std::string socket = "r.sock";
  const std::string snapshot = "r.snap";
  service::FeederConfig feeder_options = feeder_config(socket, seed);
  feeder_options.input_path = kAllFile;
  service::StreamFeeder feeder(feeder_options);  // loads the input
  Replay out;
  const std::int64_t start = now_ns();
  const int root =
      tracer ? tracer->open(std::string("run ") + spec.name, -1) : -1;
  out.root = root;

  std::unique_ptr<service::StateStore> store;
  {
    Scope scope(tracer, "service.state_store.construct", root);
    store = std::make_unique<service::StateStore>(store_config(spec), seed);
  }
  service::IngestCounters counters;
  auto source = service::make_socket_source(socket, &counters, 256 * 1024);

  std::atomic<bool> stop{false};
  std::thread client([&] {
    try {
      const std::int64_t f0 = now_ns();
      out.report = feeder.run();
      out.feeder_run.add(f0, now_ns());
      const int fd = connect_unix(socket);
      if (!send_all(fd, "Q\n", 2)) out.client_error = "cannot send Q";
      ::close(fd);
    } catch (const std::exception& e) {
      out.client_error = e.what();
    }
    if (!out.client_error.empty()) stop.store(true);
  });
  try {
    ingest_loop<kTimed>(*source, *store, spec.snapshot_every, snapshot, stop,
                        out.acc);
  } catch (...) {
    // Closing the socket fails the client's sends, so it returns.
    stop.store(true);
    source.reset();
    client.join();
    throw;
  }
  client.join();
  out.counts = store->counters();
  out.seq = store->seq();
  source.reset();
  {
    Scope scope(tracer, "service.state_store.destroy", root);
    store.reset();
  }

  service::StateImage image;
  {
    Scope scope(tracer, "service.snapshot.load", root);
    image = service::load_image(snapshot);
  }
  {
    Scope scope(tracer, "service.state_store.restore", root);
    store = std::make_unique<service::StateStore>(store_config(spec), seed,
                                                  image);
  }
  if (tracer) tracer->close(root);
  out.wall_s = to_s(now_ns() - start);
  out.restored_seq = store->seq();
  out.snapshot = read_file(snapshot);
  return out;
}

}  // namespace

bool is_service_workload(const std::string& name) {
  for (const ServiceSpec& spec : kSpecs) {
    if (name == spec.name) return true;
  }
  return false;
}

void run_service(const RunOptions& options, Result& result) {
  const ServiceSpec& spec = spec_for(options.workload);
  const Stream stream = make_stream(spec, options.seed);

  const std::int64_t start = now_ns();
  std::vector<double> setup;
  for (int i = 0; i < spec.setup_probes; ++i) {
    Daemon probe = start_daemon(spec, options.seed, false);
    setup.push_back(probe.setup_s());
    kill_child(probe.child);
  }
  std::vector<Iteration> iterations;
  for (;;) {
    const std::int64_t t0 = now_ns();
    iterations.push_back(run_iteration(spec, options.seed, stream));
    print_iteration(iterations.back());

    const double elapsed = to_s(now_ns() - start);
    if (elapsed + to_s(now_ns() - t0) > options.seconds) break;
  }

  const std::string expected = replay_image(spec, options.seed, stream);
  std::vector<double> windows, restore, rss, latency, scrape;
  std::vector<double> block_p50, block_tail;
  std::uint64_t probes = 0;
  double late_max = 0.0;
  for (const Iteration& it : iterations) {
    check_iteration(it, stream, expected, result);
    setup.push_back(it.setup_s);
    windows.insert(windows.end(), it.window_rates.begin(),
                   it.window_rates.end());
    restore.insert(restore.end(), it.restore_s.begin(), it.restore_s.end());
    rss.push_back(it.rss_mb);
    latency.insert(latency.end(), it.open.latency_ms.begin(),
                   it.open.latency_ms.end());
    for (const std::vector<double>& block : it.open.blocks_ms) {
      block_p50.push_back(quantile(block, 0.5));
      block_tail.push_back(quantile(block, spec.tail_q));
    }
    probes += it.open.probes;
    scrape.insert(scrape.end(), it.scrape_ms.begin(), it.scrape_ms.end());
    late_max = std::max(late_max, it.open.late_ms_max);
  }
  std::printf(
      "# %s: %zu iterations, %zu throughput windows, %llu probes, "
      "generator late max %.3f ms, scrape p50 %.3f ms over %zu scrapes\n",
      spec.name, iterations.size(), windows.size(),
      static_cast<unsigned long long>(probes), late_max, median(scrape),
      scrape.size());

  result.metric("setup_s", "s", median(setup));
  // Window and probe-block quantiles, medians over restores, probe
  // percentiles over every probe of the run (README.md "End-to-end
  // metrics" says which workload uses which, and why).
  std::vector<double> window_s;
  for (double rate : windows) {
    window_s.push_back(static_cast<double>(kWindowLines) / rate);
  }
  result.metric("wall_s", "s", quantile(window_s, 1.0 - spec.window_q));
  result.metric("throughput_per_s", "1/s", quantile(windows, spec.window_q));
  const double fast_end = 1.0 - spec.window_q;
  result.metric("latency_p50_ms", "ms",
                spec.latency_blocks ? quantile(block_p50, fast_end)
                                    : quantile(latency, 0.5));
  result.metric("latency_tail_ms", "ms",
                spec.latency_blocks ? quantile(block_tail, fast_end)
                                    : quantile(latency, spec.tail_q));
  result.metric("restore_s", "s", median(restore));
  result.metric("peak_rss_mb", "MB", median(rss));
}

TracedSection trace_service(const RunOptions& options, Tracer& tracer,
                            Result& result) {
  const ServiceSpec& spec = spec_for(options.workload);
  const Stream stream = make_stream(spec, options.seed);
  {
    std::ofstream all(kAllFile);
    for (const auto* part : {&stream.closed, &stream.open}) {
      for (const std::string& line : *part) all << line << '\n';
    }
    if (!all) throw std::runtime_error("cannot write the replay input");
  }

  // The daemon itself, for what only the real process has: /metrics
  // scrapes and the open-loop load shape.
  const Iteration base = run_iteration(spec, options.seed, stream);
  print_iteration(base);
  result.attempt(stream.closed.size() + base.open.probes);
  result.check(base.feeder.complete, "daemon feeder complete");
  result.check(base.open.unanswered + base.open.wrong_seq == 0,
               "daemon probes answered");
  result.metric("service.http.scrape_ms_p50", "ms", median(base.scrape_ms));
  result.metric("service.http.scrapes", "count",
                static_cast<double>(base.scrape_ms.size()));
  result.metric("load.gen_late_ms_max", "ms", base.open.late_ms_max);
  result.metric("load.probes", "count", static_cast<double>(base.open.probes));

  // The ingest path in-process: kReplayPairs pairs of an untraced replay
  // (no clock reads) and a traced one, the order alternating per pair.
  // The first traced replay's spans give the layer figures; the overhead
  // compares the median walls of the two kinds.
  const auto check_replay = [&](const Replay& r, bool timed) {
    const std::string what = timed ? "traced replay: " : "untraced replay: ";
    result.attempt(stream.total());
    if (!r.client_error.empty()) result.fail(what + r.client_error);
    result.check(r.report.complete && r.report.last_acked_seq == stream.total(),
                 what + "feeder complete");
    result.check(r.seq == stream.total() && r.restored_seq == stream.total(),
                 what + "every line applied and restored");
    result.check(r.snapshot == base.final_snapshot,
                 what + "final snapshot byte-identical to the daemon's");
  };
  std::optional<Replay> traced;
  std::vector<double> plain_s, traced_s;
  for (int pair = 0; pair < kReplayPairs; ++pair) {
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == (pair % 2 == 0)) {
        const Replay r = replay<false>(spec, options.seed, nullptr);
        check_replay(r, false);
        plain_s.push_back(r.wall_s);
      } else if (!traced) {
        traced = replay<true>(spec, options.seed, &tracer);
        check_replay(*traced, true);
        traced_s.push_back(traced->wall_s);
      } else {
        Tracer discarded;  // only the first traced replay's spans are kept
        const Replay r = replay<true>(spec, options.seed, &discarded);
        check_replay(r, true);
        traced_s.push_back(r.wall_s);
      }
    }
  }
  std::printf("# replay walls (s), untraced:");
  for (double w : plain_s) std::printf(" %.4f", w);
  std::printf(", traced:");
  for (double w : traced_s) std::printf(" %.4f", w);
  std::printf("\n");
  TracedSection section;
  section.root = traced->root;
  section.traced_wall_s = median(traced_s);
  section.untraced_wall_s = median(plain_s);
  const int root = section.root;

  const LoopAccums& acc = traced->acc;
  tracer.fold("service.feeder.run", root, traced->feeder_run, true);
  tracer.fold("service.daemon.read_wait", root, acc.read);
  tracer.fold("service.protocol.classify", root, acc.classify);
  tracer.fold("service.daemon.reply", root, acc.reply);
  tracer.fold("service.state_store.apply_contact", root, acc.contact);
  tracer.fold("service.state_store.apply_request", root, acc.request);
  tracer.fold("service.state_store.apply_clock", root, acc.clock);
  tracer.fold("service.state_store.apply_crash", root, acc.crash);
  tracer.fold("service.state_store.apply_malformed", root, acc.malformed);
  tracer.fold("service.snapshot.image", root, acc.image);
  tracer.fold("service.snapshot.serialize", root, acc.serialize);
  tracer.fold("service.snapshot.persist", root, acc.persist);

  const std::uint64_t lines = acc.contact.count + acc.request.count +
                              acc.clock.count + acc.crash.count +
                              acc.malformed.count;
  const double apply_s = to_s(acc.contact.busy_ns + acc.request.busy_ns +
                              acc.clock.busy_ns + acc.crash.busy_ns +
                              acc.malformed.busy_ns);
  const double feed_s = to_s(traced->feeder_run.busy_ns);
  const service::FeederReport& report = traced->report;
  const service::StoreCounters& counts = traced->counts;
  result.metric("service.feeder.run_s", "s", feed_s);
  result.metric("service.feeder.frames_sent", "count",
                static_cast<double>(report.frames_sent));
  result.metric("service.feeder.frames_per_s", "1/s",
                feed_s > 0 ? static_cast<double>(report.frames_sent) / feed_s
                           : 0.0);
  result.metric("service.daemon.read_wait_s", "s", to_s(acc.read.busy_ns));
  result.metric("service.daemon.read_bytes", "bytes",
                static_cast<double>(acc.read_bytes));
  result.metric("service.protocol.classify_s", "s",
                to_s(acc.classify.busy_ns));
  result.metric("service.protocol.lines", "count",
                static_cast<double>(acc.classify.count));
  result.metric("service.protocol.malformed", "count",
                static_cast<double>(acc.malformed.count));
  result.metric("service.state_store.apply_s", "s", apply_s);
  result.metric("service.state_store.apply_ns_per_line", "ns",
                lines ? apply_s * 1e9 / static_cast<double>(lines) : 0.0);
  result.metric("service.state_store.apply_contact_s", "s",
                to_s(acc.contact.busy_ns));
  result.metric("service.state_store.contacts", "count",
                static_cast<double>(acc.contact.count));
  result.metric("service.state_store.apply_request_s", "s",
                to_s(acc.request.busy_ns));
  result.metric("service.state_store.requests", "count",
                static_cast<double>(acc.request.count));
  result.metric("service.state_store.apply_clock_s", "s",
                to_s(acc.clock.busy_ns));
  result.metric("service.state_store.clocks", "count",
                static_cast<double>(acc.clock.count));
  result.metric("service.state_store.apply_crash_s", "s",
                to_s(acc.crash.busy_ns));
  result.metric("service.state_store.crashes", "count",
                static_cast<double>(acc.crash.count));
  result.metric("service.state_store.served_ratio", "ratio",
                counts.requests_created
                    ? static_cast<double>(counts.requests_served()) /
                          static_cast<double>(counts.requests_created)
                    : 0.0);
  result.metric("service.state_store.construct_s", "s",
                tracer.busy_s("service.state_store.construct"));
  result.metric("service.state_store.restore_s", "s",
                tracer.busy_s("service.state_store.restore"));
  result.metric("service.snapshot.image_s", "s", to_s(acc.image.busy_ns));
  result.metric("service.snapshot.serialize_s", "s",
                to_s(acc.serialize.busy_ns));
  result.metric("service.snapshot.persist_s", "s", to_s(acc.persist.busy_ns));
  result.metric("service.snapshot.bytes", "bytes",
                static_cast<double>(acc.snapshot_bytes));
  result.metric("service.snapshot.count", "count",
                static_cast<double>(acc.image.count));
  result.metric("service.snapshot.load_s", "s",
                tracer.busy_s("service.snapshot.load"));
  tracer.print_self_times(root, spec.name);
  return section;
}

}  // namespace perfbench
