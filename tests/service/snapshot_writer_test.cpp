// Differential test of the snapshot, delta and manifest writers (suite
// ServiceSnapshotWriter). The std::ostream record writers below are the
// ones the persistent formats were defined with; the library now appends
// std::to_chars output to one string instead, and must produce the same
// bytes and the same FNV-1a body checksum for every value the format can
// carry: ±0.0, denormals, DBL_MAX, doubles that need all 17 significant
// digits, sticky = -1, the extremes of every integer field, empty
// vectors and empty delay windows.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "impatience/engine/seeding.hpp"
#include "impatience/service/snapshot_chain.hpp"
#include "impatience/service/state_store.hpp"

namespace impatience::service {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the std::ostream writers, verbatim from before the to_chars
// writer replaced them.
namespace oracle {

constexpr std::string_view kMagic = "impatience.replicationd_snapshot/1";
constexpr std::string_view kDeltaMagic = "impatience.replicationd_delta/1";
constexpr std::string_view kManifestMagic =
    "impatience.replicationd_manifest/1";

/// %.17g round-trips every finite double through text exactly.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_config_record(std::ostream& body, const StoreConfig& c) {
  body << "config " << c.num_nodes << ' ' << c.num_items << ' '
       << c.cache_capacity << ' ' << (c.sticky_replicas ? 1 : 0) << ' '
       << fmt_double(c.mu) << ' ' << fmt_double(c.reaction_scale) << ' '
       << (c.mandate_routing ? 1 : 0) << ' ' << c.utility_spec << '\n';
}

void write_counters_record(std::ostream& body, const StoreCounters& k) {
  body << "counters " << k.events_applied << ' ' << k.events_malformed << ' '
       << k.contacts << ' ' << k.requests_created << ' '
       << k.immediate_fulfillments << ' ' << k.fulfillments << ' '
       << k.requests_pending << ' ' << k.mandates_created << ' '
       << k.replicas_written << ' ' << k.mandates_outstanding << ' '
       << fmt_double(k.total_gain) << ' ' << fmt_double(k.delay_sum) << '\n';
}

void write_faults_record(std::ostream& body, const fault::FaultCounters& f) {
  body << "faults " << f.crashes << ' ' << f.replicas_lost << ' '
       << f.mandates_lost << ' ' << f.requests_lost << '\n';
}

void write_node_records(std::ostream& body, std::uint64_t id,
                        const StateImage::NodeImage& ni) {
  body << "node " << id << ' ' << ni.server_meetings << ' ' << ni.sticky
       << '\n';
  body << "cache " << ni.cache.size();
  for (ItemId item : ni.cache) body << ' ' << item;
  body << '\n';
  body << "mandates " << ni.mandates.size();
  for (const auto& [item, count] : ni.mandates) {
    body << ' ' << item << ' ' << count;
  }
  body << '\n';
  body << "pending " << ni.pending.size();
  for (const core::PendingRequest& req : ni.pending) {
    body << ' ' << req.item << ' ' << req.created << ' '
         << req.queries_at_creation;
  }
  body << '\n';
}

void write_delays_record(std::ostream& body, const std::vector<double>& d) {
  body << "delays " << d.size();
  for (double v : d) body << ' ' << fmt_double(v);
  body << '\n';
}

/// Appends "checksum <hex>\nend\n" and returns the body checksum.
std::uint64_t seal_body(std::ostream& out, const std::string& text) {
  const std::uint64_t sum = engine::fnv1a64(text);
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64, sum);
  out << text << "checksum " << checksum << '\n' << "end\n";
  return sum;
}

std::uint64_t write_image(std::ostream& out, const StateImage& image) {
  std::ostringstream body;
  body << kMagic << '\n';
  write_config_record(body, image.config);
  body << "seed " << image.seed << '\n';
  body << "state " << image.version << ' ' << image.seq << ' ' << image.clock
       << '\n';
  write_counters_record(body, image.counters);
  write_faults_record(body, image.faults);
  body << "nodes " << image.nodes.size() << '\n';
  for (std::size_t n = 0; n < image.nodes.size(); ++n) {
    write_node_records(body, n, image.nodes[n]);
  }
  write_delays_record(body, image.recent_delays);
  return seal_body(out, body.str());
}

std::uint64_t write_delta(std::ostream& out, const StateDelta& delta) {
  std::ostringstream body;
  body << kDeltaMagic << '\n';
  body << "parent " << delta.parent_checksum << '\n';
  write_config_record(body, delta.config);
  body << "seed " << delta.seed << '\n';
  body << "state " << delta.version << ' ' << delta.seq << ' ' << delta.clock
       << '\n';
  write_counters_record(body, delta.counters);
  write_faults_record(body, delta.faults);
  body << "nodes " << delta.nodes.size() << '\n';
  for (const auto& [id, ni] : delta.nodes) {
    write_node_records(body, id, ni);
  }
  write_delays_record(body, delta.recent_delays);
  return seal_body(out, body.str());
}

struct ManifestEntry {
  bool is_base;
  std::string file;
  std::uint64_t checksum;
  std::uint64_t seq;
};

void write_manifest(std::ostream& out,
                    const std::vector<ManifestEntry>& elements) {
  out << kManifestMagic << '\n';
  for (const ManifestEntry& e : elements) {
    out << (e.is_base ? "base " : "delta ") << e.file << ' ' << e.checksum
        << ' ' << e.seq << '\n';
  }
  out << "end\n";
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Seeded random images and deltas.

constexpr long kLongMin = std::numeric_limits<long>::min();
constexpr long kLongMax = std::numeric_limits<long>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr ItemId kItemMax = std::numeric_limits<ItemId>::max();

/// Doubles whose %.17g text is easy to get wrong.
const std::vector<double>& special_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest denormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      0.1,
      0.1 + 0.2,  // 0.30000000000000004: needs all 17 digits
      1.0 / 3.0,
      2.0 / 3.0,
      5e-324 * 3,
      1.0,
      -1.0,
      2017.0,
      1e16,
      1e17,
      123456789012345678.0,
      9007199254740993.0,  // 2^53 + 1 rounds to an even neighbour
      1e21,
      1e22,
      1e-5,
      1e-4,
      0.0001234,
      1e100,
      -1e-100,
      4.9406564584124654e-324,
      1.7976931348623157e308,
  };
  return values;
}

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t u64() { return rng_(); }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }
  bool coin() { return (rng_() & 1) != 0; }

  /// Any finite double: a special value, a random bit pattern, or a
  /// plain fraction such as a delay in slots.
  double real() {
    switch (below(3)) {
      case 0:
        return special_doubles()[below(special_doubles().size())];
      case 1: {
        for (;;) {
          const std::uint64_t bits = rng_();
          double v;
          std::memcpy(&v, &bits, sizeof(v));
          if (std::isfinite(v)) return v;
        }
      }
      default:
        return static_cast<double>(below(100000)) / 7.0;
    }
  }

  template <typename T>
  T integer(T lo, T hi) {
    switch (below(4)) {
      case 0:
        return lo;
      case 1:
        return hi;
      case 2:
        return static_cast<T>(below(1000));
      default:
        return static_cast<T>(rng_());
    }
  }

  StateImage::NodeImage node() {
    StateImage::NodeImage ni;
    ni.server_meetings = integer(kLongMin, kLongMax);
    ni.sticky = coin() ? -1 : integer(kI64Min, kI64Max);
    const std::size_t cache = below(6);
    for (std::size_t i = 0; i < cache; ++i) {
      ni.cache.push_back(integer<ItemId>(0, kItemMax));
    }
    const std::size_t mandates = below(4);
    for (std::size_t i = 0; i < mandates; ++i) {
      ni.mandates.emplace_back(integer<ItemId>(0, kItemMax),
                               integer(kLongMin, kLongMax));
    }
    const std::size_t pending = below(4);
    for (std::size_t i = 0; i < pending; ++i) {
      ni.pending.push_back({integer<ItemId>(0, kItemMax),
                            integer(kI64Min, kI64Max),
                            integer(kLongMin, kLongMax)});
    }
    return ni;
  }

  StoreConfig config() {
    StoreConfig c;
    c.num_nodes = integer<NodeId>(0, std::numeric_limits<NodeId>::max());
    c.num_items = integer<ItemId>(0, kItemMax);
    c.cache_capacity = integer(std::numeric_limits<int>::min(),
                               std::numeric_limits<int>::max());
    c.sticky_replicas = coin();
    c.utility_spec = coin() ? "step:tau=10" : "power:alpha=0.5";
    c.mu = real();
    c.reaction_scale = real();
    c.mandate_routing = coin();
    return c;
  }

  StoreCounters counters() {
    StoreCounters k;
    k.events_applied = integer<std::uint64_t>(0, kU64Max);
    k.events_malformed = integer<std::uint64_t>(0, kU64Max);
    k.contacts = integer<std::uint64_t>(0, kU64Max);
    k.requests_created = integer<std::uint64_t>(0, kU64Max);
    k.immediate_fulfillments = integer<std::uint64_t>(0, kU64Max);
    k.fulfillments = integer<std::uint64_t>(0, kU64Max);
    k.requests_pending = integer<std::uint64_t>(0, kU64Max);
    k.mandates_created = integer(kLongMin, kLongMax);
    k.replicas_written = integer(kLongMin, kLongMax);
    k.mandates_outstanding = integer(kLongMin, kLongMax);
    k.total_gain = real();
    k.delay_sum = real();
    return k;
  }

  fault::FaultCounters faults() {
    fault::FaultCounters f;
    f.crashes = integer<std::uint64_t>(0, kU64Max);
    f.replicas_lost = integer<std::uint64_t>(0, kU64Max);
    f.mandates_lost = integer(kLongMin, kLongMax);
    f.requests_lost = integer<std::uint64_t>(0, kU64Max);
    return f;
  }

  std::vector<double> delays() {
    std::vector<double> d(below(3) == 0 ? 0 : below(40));
    for (double& v : d) v = real();
    return d;
  }

  StateImage image() {
    StateImage image;
    image.config = config();
    image.seed = integer<std::uint64_t>(0, kU64Max);
    image.version = integer<std::uint64_t>(0, kU64Max);
    image.seq = integer<std::uint64_t>(0, kU64Max);
    image.clock = integer(kI64Min, kI64Max);
    image.counters = counters();
    image.faults = faults();
    const std::size_t nodes = below(4) == 0 ? 0 : below(30);
    for (std::size_t n = 0; n < nodes; ++n) image.nodes.push_back(node());
    image.recent_delays = delays();
    return image;
  }

  StateDelta delta() {
    StateDelta delta;
    delta.config = config();
    delta.seed = integer<std::uint64_t>(0, kU64Max);
    delta.parent_checksum = integer<std::uint64_t>(0, kU64Max);
    delta.version = integer<std::uint64_t>(0, kU64Max);
    delta.seq = integer<std::uint64_t>(0, kU64Max);
    delta.clock = integer(kI64Min, kI64Max);
    delta.counters = counters();
    delta.faults = faults();
    const std::size_t nodes = below(4) == 0 ? 0 : below(30);
    for (std::size_t n = 0; n < nodes; ++n) {
      delta.nodes.emplace_back(integer<NodeId>(0, 1000000), node());
    }
    delta.recent_delays = delays();
    return delta;
  }

 private:
  std::mt19937_64 rng_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid());
}

TEST(ServiceSnapshotWriter, EveryDoubleFormatsAsPercent17g) {
  Generator gen(1);
  std::vector<double> values = special_doubles();
  for (int i = 0; i < 20000; ++i) values.push_back(gen.real());
  for (double v : values) {
    StateImage image;
    image.recent_delays = {v};
    std::ostringstream got, want;
    write_image(got, image);
    oracle::write_image(want, image);
    ASSERT_EQ(got.str(), want.str()) << oracle::fmt_double(v);
  }
}

TEST(ServiceSnapshotWriter, ImagesMatchTheOstreamOracle) {
  const std::string path = temp_path("snapshot_writer_image");
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Generator gen(seed);
    const StateImage image = gen.image();
    std::ostringstream got, want;
    const std::uint64_t got_sum = write_image(got, image);
    const std::uint64_t want_sum = oracle::write_image(want, image);
    ASSERT_EQ(got.str(), want.str()) << "seed " << seed;
    ASSERT_EQ(got_sum, want_sum) << "seed " << seed;
    if (seed % 50 == 0) {
      // The file path serializes through the same writer.
      ASSERT_EQ(save_image(path, image), want_sum);
      ASSERT_EQ(read_file(path), want.str()) << "seed " << seed;
    }
  }
  std::remove(path.c_str());
}

TEST(ServiceSnapshotWriter, DeltasMatchTheOstreamOracle) {
  const std::string path = temp_path("snapshot_writer_delta");
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Generator gen(1000 + seed);
    const StateDelta delta = gen.delta();
    std::ostringstream got, want;
    const std::uint64_t got_sum = write_delta(got, delta);
    const std::uint64_t want_sum = oracle::write_delta(want, delta);
    ASSERT_EQ(got.str(), want.str()) << "seed " << seed;
    ASSERT_EQ(got_sum, want_sum) << "seed " << seed;
    if (seed % 50 == 0) {
      ASSERT_EQ(save_delta(path, delta), want_sum);
      ASSERT_EQ(read_file(path), want.str()) << "seed " << seed;
    }
  }
  std::remove(path.c_str());
}

TEST(ServiceSnapshotWriter, EmptyImageAndDeltaMatchTheOracle) {
  const StateImage image;
  const StateDelta delta;
  std::ostringstream got_image, want_image, got_delta, want_delta;
  EXPECT_EQ(write_image(got_image, image),
            oracle::write_image(want_image, image));
  EXPECT_EQ(got_image.str(), want_image.str());
  EXPECT_EQ(write_delta(got_delta, delta),
            oracle::write_delta(want_delta, delta));
  EXPECT_EQ(got_delta.str(), want_delta.str());
}

TEST(ServiceSnapshotWriter, LiveStoreImagesMatchTheOracle) {
  StoreConfig config;
  config.num_nodes = 40;
  config.num_items = 30;
  config.cache_capacity = 4;
  StreamConfig stream;
  stream.events = 3000;
  stream.num_nodes = config.num_nodes;
  stream.num_items = config.num_items;
  stream.crash_fraction = 0.01;
  stream.quit = false;
  StateStore store(config, 9);
  std::size_t applied = 0;
  for (const Event& event : generate_stream(stream, 3)) {
    store.apply(event);
    if (++applied % 500 != 0) continue;
    const StateImage image = store.image();
    std::ostringstream got, want;
    ASSERT_EQ(write_image(got, image), oracle::write_image(want, image));
    ASSERT_EQ(got.str(), want.str()) << "after " << applied << " events";
    StateDelta delta = store.take_delta();
    delta.parent_checksum = applied;
    std::ostringstream got_delta, want_delta;
    ASSERT_EQ(write_delta(got_delta, delta),
              oracle::write_delta(want_delta, delta));
    ASSERT_EQ(got_delta.str(), want_delta.str());
  }
}

TEST(ServiceSnapshotWriter, ManifestMatchesTheOracle) {
  const std::string path = temp_path("snapshot_writer_chain");
  StoreConfig config;
  config.num_nodes = 16;
  config.num_items = 12;
  config.cache_capacity = 3;
  StreamConfig stream;
  stream.events = 600;
  stream.num_nodes = 16;
  stream.num_items = 12;
  stream.quit = false;
  StateStore store(config, 5);
  SnapshotChain chain({path, /*delta_limit=*/3});
  std::vector<std::string> files;
  std::size_t applied = 0;
  for (const Event& event : generate_stream(stream, 6)) {
    store.apply(event);
    if (++applied % 50 != 0) continue;
    chain.snapshot(store);
    // Re-emit the committed manifest through the oracle from its parsed
    // entries: the bytes must not move.
    const std::string text = read_file(path + ".manifest");
    std::istringstream lines(text);
    std::string line;
    std::vector<oracle::ManifestEntry> entries;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string kind;
      oracle::ManifestEntry e{};
      if (fields >> kind >> e.file >> e.checksum >> e.seq) {
        e.is_base = kind == "base";
        entries.push_back(e);
        files.push_back(path.substr(0, path.find_last_of('/') + 1) + e.file);
      }
    }
    ASSERT_FALSE(entries.empty());
    std::ostringstream want;
    oracle::write_manifest(want, entries);
    ASSERT_EQ(text, want.str()) << "after " << applied << " events";
  }
  for (const std::string& file : files) std::remove(file.c_str());
  std::remove((path + ".manifest").c_str());
}

}  // namespace
}  // namespace impatience::service
