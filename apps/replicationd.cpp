// replicationd — long-running replication service for opportunistic
// networks (docs/service.md).
//
// Serve mode (default): own the live QCR cache state, ingest protocol
// frames from a Unix socket / file / stdin, expose /metrics, persist
// crash-safe snapshots, support warm restart (one command, wrapped):
//
//   replicationd --nodes 50 --items 50 --capacity 5
//       --socket /tmp/repl.sock --port 0 --announce /tmp/repl.announce
//       --snapshot /tmp/repl.snap --snapshot-interval 30s --seed 7
//   replicationd ... --restore          # warm restart from the snapshot
//
// Generator mode: emit a deterministic synthetic stream for tests and
// load drivers, then exit:
//
//   replicationd --gen-stream 1000 --nodes 50 --items 50 --seed 7 --out -
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "impatience/engine/watchdog.hpp"
#include "impatience/service/daemon.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/util/errors.hpp"
#include "impatience/util/flags.hpp"

namespace {

using namespace impatience;

// Signal handling: handlers may only touch lock-free atomics, so SIGTERM
// and SIGINT cancel the daemon's token with `shutdown`; the ingest loop's
// token watcher notices within a poll tick and unwinds gracefully.
util::CancellationToken* g_token = nullptr;

void handle_signal(int) {
  if (g_token) g_token->cancel(util::CancelReason::shutdown);
}

constexpr long kMaxCount = std::numeric_limits<int>::max();
constexpr long kMaxLong = std::numeric_limits<long>::max();
constexpr long kMaxPort = 65535;

/// Reads an integer flag, rejecting a value outside [lo, hi] instead of
/// letting the unsigned or narrowing cast that stores it wrap around.
long bounded_flag(const util::Flags& flags, const std::string& key,
                  long fallback, long lo, long hi) {
  const long value = flags.get_long(key, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + key + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

int run_generator(const util::Flags& flags) {
  service::StreamConfig config;
  config.events = static_cast<std::uint64_t>(
      bounded_flag(flags, "gen-stream", 1000, 0, kMaxLong));
  config.num_nodes = static_cast<service::NodeId>(
      bounded_flag(flags, "nodes", 50, 1, kMaxCount));
  config.num_items = static_cast<service::ItemId>(
      bounded_flag(flags, "items", 50, 1, kMaxCount));
  config.zipf = flags.get_double("zipf", 1.0);
  config.request_fraction = flags.get_double("request-fraction", 0.5);
  config.crash_fraction = flags.get_double("crash-fraction", 0.0);
  config.slots_per_event = flags.get_double("slots-per-event", 0.5);
  config.quit = flags.get_bool("quit", true);
  const auto seed = static_cast<std::uint64_t>(flags.get_long("seed", 1));
  const auto events = service::generate_stream(config, seed);

  const std::string out_path = flags.get_string("out", "-");
  if (out_path == "-") {
    service::write_stream(std::cout, events);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "replicationd: cannot write " << out_path << '\n';
      return 1;
    }
    service::write_stream(out, events);
  }
  return 0;
}

int run_daemon(const util::Flags& flags) {
  service::DaemonConfig config;
  config.store.num_nodes = static_cast<service::NodeId>(
      bounded_flag(flags, "nodes", 50, 1, kMaxCount));
  config.store.num_items = static_cast<service::ItemId>(
      bounded_flag(flags, "items", 50, 1, kMaxCount));
  config.store.cache_capacity = flags.get_int("capacity", 5);
  config.store.sticky_replicas = flags.get_bool("sticky", true);
  config.store.utility_spec = flags.get_string("utility", "step:tau=10");
  config.store.mu = flags.get_double("mu", 0.05);
  config.store.reaction_scale = flags.get_double("scale", 1.0);
  config.store.mandate_routing = flags.get_bool("mandate-routing", true);
  config.seed = static_cast<std::uint64_t>(flags.get_long("seed", 1));
  config.socket_path = flags.get_string("socket", "");
  config.tcp_port =
      static_cast<int>(bounded_flag(flags, "tcp", -1, -1, kMaxPort));
  config.input_path = flags.get_string("input", "-");
  config.follow = flags.get_bool("follow", false);
  config.follow_poll_s = flags.get_duration("follow-poll", 0.05);
  config.ingest_buffer_bytes = static_cast<std::size_t>(
      bounded_flag(flags, "ingest-buffer", 256 * 1024, 0, kMaxLong));
  config.http_port =
      static_cast<int>(bounded_flag(flags, "port", 0, -1, kMaxPort));
  config.snapshot_path = flags.get_string("snapshot", "");
  config.snapshot_interval_s = flags.get_duration("snapshot-interval", 0.0);
  config.snapshot_every = static_cast<std::uint64_t>(
      bounded_flag(flags, "snapshot-every", 0, 0, kMaxLong));
  config.restore = flags.get_bool("restore", false);
  config.snapshot_deltas = flags.get_bool("snapshot-deltas", false);
  config.snapshot_delta_limit = static_cast<std::size_t>(
      bounded_flag(flags, "snapshot-delta-limit", 16, 1, kMaxLong));
  config.announce_path = flags.get_string("announce", "");
  const double deadline_s = flags.get_duration("deadline", 0.0);

  service::ReplicationDaemon daemon(config);

  util::CancellationToken token;
  g_token = &token;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // --deadline rides on the engine's watchdog; its expiry cancels with
  // `deadline`, which run() converts into a CancelledError whose reason
  // the engine manifests as error_kind "timeout" — distinguishable from
  // the SIGTERM path above ("shutdown").
  std::unique_ptr<engine::DeadlineWatchdog> watchdog;
  if (deadline_s > 0.0) {
    watchdog = std::make_unique<engine::DeadlineWatchdog>(deadline_s);
    watchdog->arm(&token);
  }

  std::cerr << "replicationd: serving"
            << (daemon.restored() ? " (restored)" : "") << ", nodes="
            << config.store.num_nodes << " items=" << config.store.num_items
            << (daemon.http_port() != 0
                    ? " http=127.0.0.1:" + std::to_string(daemon.http_port())
                    : "")
            << (config.socket_path.empty() ? "" : " socket=" +
                                                      config.socket_path)
            << (daemon.tcp_port() != 0
                    ? " tcp=127.0.0.1:" + std::to_string(daemon.tcp_port())
                    : "")
            << '\n';

  int status = 0;
  try {
    daemon.run(&token);
  } catch (const util::CancelledError& e) {
    std::cerr << "replicationd: " << e.what() << " (reason "
              << util::to_string(e.reason()) << ")\n";
    status = 3;
  }
  g_token = nullptr;

  const auto counters = daemon.store().counters();
  std::cerr << "replicationd: stopped after " << counters.events_applied
            << " events, " << counters.requests_served()
            << " requests served, version " << daemon.store().version()
            << '\n';
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::cout <<
        "replicationd [mode] [flags]\n"
        "\n"
        "Scenario:   --nodes N --items N --capacity N --utility SPEC\n"
        "            --mu X --scale X --sticky BOOL --mandate-routing BOOL\n"
        "            --seed N\n"
        "Ingest:     --socket PATH | --tcp PORT | --input FILE|- [--follow]\n"
        "            --follow-poll DUR (EOF poll period, default 50ms)\n"
        "            --ingest-buffer BYTES (socket buffer cap)\n"
        "Monitor:    --port N (0 = ephemeral, -1 = off) --announce FILE\n"
        "Snapshots:  --snapshot FILE --snapshot-interval DUR\n"
        "            --snapshot-every N --restore\n"
        "            --snapshot-deltas BOOL --snapshot-delta-limit N\n"
        "Lifecycle:  --deadline DUR (cancel reason: deadline)\n"
        "Generator:  --gen-stream N --out FILE|- [--zipf X]\n"
        "            [--request-fraction X] [--crash-fraction X]\n"
        "            [--slots-per-event X] [--quit BOOL]\n";
    return 0;
  }
  try {
    if (flags.has("gen-stream")) return run_generator(flags);
    return run_daemon(flags);
  } catch (const std::exception& e) {
    std::cerr << "replicationd: " << e.what() << '\n';
    return 1;
  }
}
