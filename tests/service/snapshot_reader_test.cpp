// Differential test of the snapshot, delta and manifest readers (suite
// ServiceSnapshotReader). The std::istream readers the formats were first
// read with (snapshot_istream_oracle.hpp) are the oracle: every file the
// writers produce must read back under both readers to an image whose
// re-encoding is byte-equal to the file, across seeded random images and
// deltas, live-store images and chain manifests, and the extremes of
// every field (±0.0, denormals, DBL_MAX, 17-digit doubles, sticky -1,
// the int64 and uint64 limits). The library reader accepts only the
// canonical text the writers emit, so the oracle's lax parses each get a
// named test here that the library reader must reject.
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
#include "impatience/util/errors.hpp"
#include "snapshot_istream_oracle.hpp"

namespace impatience::service {
namespace {

namespace oracle = istream_oracle;

constexpr long kLongMin = std::numeric_limits<long>::min();
constexpr long kLongMax = std::numeric_limits<long>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr ItemId kItemMax = std::numeric_limits<ItemId>::max();

std::string encoded(const StateImage& image) {
  std::ostringstream out;
  write_image(out, image);
  return out.str();
}

std::string encoded(const StateDelta& delta) {
  std::ostringstream out;
  write_delta(out, delta);
  return out.str();
}

/// Reads `text` with the library reader and with the oracle, and expects
/// both to re-encode it byte for byte, with the checksum it was sealed
/// under.
template <typename Read, typename OracleRead>
void expect_both_read_back(const std::string& text, std::uint64_t sealed,
                           Read read, OracleRead oracle_read) {
  std::istringstream in(text), oracle_in(text);
  std::uint64_t checksum = 0;
  std::uint64_t oracle_checksum = 0;
  EXPECT_EQ(encoded(read(in, &checksum)), text);
  EXPECT_EQ(encoded(oracle_read(oracle_in, &oracle_checksum)), text);
  EXPECT_EQ(checksum, sealed);
  EXPECT_EQ(oracle_checksum, sealed);
}

void expect_image_reads_back(const StateImage& image) {
  std::ostringstream out;
  const std::uint64_t sealed = write_image(out, image);
  expect_both_read_back(
      out.str(), sealed,
      [](std::istream& in, std::uint64_t* sum) { return read_image(in, sum); },
      [](std::istream& in, std::uint64_t* sum) {
        return oracle::read_image(in, sum);
      });
}

void expect_delta_reads_back(const StateDelta& delta) {
  std::ostringstream out;
  const std::uint64_t sealed = write_delta(out, delta);
  expect_both_read_back(
      out.str(), sealed,
      [](std::istream& in, std::uint64_t* sum) { return read_delta(in, sum); },
      [](std::istream& in, std::uint64_t* sum) {
        return oracle::read_delta(in, sum);
      });
}

/// Doubles whose %.17g text is easy to get wrong.
const std::vector<double>& special_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest denormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      0.1,
      0.1 + 0.2,  // 0.30000000000000004: needs all 17 digits
      1.0 / 3.0,
      2017.0,
      1e16,
      1e17,
      9007199254740993.0,  // 2^53 + 1 rounds to an even neighbour
      1e21,
      1e22,
      1e-5,
      0.0001234,
      -1e-100,
  };
  return values;
}

/// Seeded random images and deltas that a reader must accept: the config
/// validates, an image holds exactly num_nodes nodes, and delta node ids
/// ascend below num_nodes. Every other field ranges over its whole type.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }
  bool coin() { return (rng_() & 1) != 0; }

  double real() {
    switch (below(3)) {
      case 0:
        return special_doubles()[below(special_doubles().size())];
      case 1:
        for (;;) {
          const std::uint64_t bits = rng_();
          double v;
          std::memcpy(&v, &bits, sizeof(v));
          if (std::isfinite(v)) return v;
        }
      default:
        return static_cast<double>(below(100000)) / 7.0;
    }
  }

  double positive() {
    for (;;) {
      const double v = std::fabs(real());
      if (v > 0.0) return v;
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
    for (std::size_t i = below(6); i > 0; --i) {
      ni.cache.push_back(integer<ItemId>(0, kItemMax));
    }
    for (std::size_t i = below(4); i > 0; --i) {
      ni.mandates.emplace_back(integer<ItemId>(0, kItemMax),
                               integer(kLongMin, kLongMax));
    }
    for (std::size_t i = below(4); i > 0; --i) {
      ni.pending.push_back({integer<ItemId>(0, kItemMax),
                            integer(kI64Min, kI64Max),
                            integer(kLongMin, kLongMax)});
    }
    return ni;
  }

  StoreConfig config(NodeId max_nodes) {
    StoreConfig c;
    c.num_nodes = 1 + static_cast<NodeId>(below(max_nodes));
    c.num_items = std::max<ItemId>(1, integer<ItemId>(1, kItemMax));
    c.cache_capacity =
        std::max(1, integer(1, std::numeric_limits<int>::max()));
    c.sticky_replicas = coin();
    c.utility_spec = coin() ? "step:tau=10" : "power:alpha=0.5";
    c.mu = positive();
    c.reaction_scale = positive();
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
    image.config = config(30);
    image.seed = integer<std::uint64_t>(0, kU64Max);
    image.version = integer<std::uint64_t>(0, kU64Max);
    image.seq = integer<std::uint64_t>(0, kU64Max);
    image.clock = integer(kI64Min, kI64Max);
    image.counters = counters();
    image.faults = faults();
    for (NodeId n = 0; n < image.config.num_nodes; ++n) {
      image.nodes.push_back(node());
    }
    image.recent_delays = delays();
    return image;
  }

  StateDelta delta() {
    StateDelta delta;
    delta.config = config(coin() ? 30 : std::numeric_limits<NodeId>::max());
    delta.seed = integer<std::uint64_t>(0, kU64Max);
    delta.parent_checksum = integer<std::uint64_t>(0, kU64Max);
    delta.version = integer<std::uint64_t>(0, kU64Max);
    delta.seq = integer<std::uint64_t>(0, kU64Max);
    delta.clock = integer(kI64Min, kI64Max);
    delta.counters = counters();
    delta.faults = faults();
    for (NodeId id = 0; id < delta.config.num_nodes && delta.nodes.size() < 30;
         id += 1 + static_cast<NodeId>(below(1000))) {
      if (coin()) delta.nodes.emplace_back(id, node());
    }
    delta.recent_delays = delays();
    return delta;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(ServiceSnapshotReader, RandomImagesReadBackUnderBothReaders) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_image_reads_back(Generator(seed).image());
  }
}

TEST(ServiceSnapshotReader, RandomDeltasReadBackUnderBothReaders) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_delta_reads_back(Generator(1000 + seed).delta());
  }
}

TEST(ServiceSnapshotReader, ExtremeValuesReadBackUnderBothReaders) {
  StateImage image = Generator(7).image();
  image.recent_delays = special_doubles();
  image.config.mu = DBL_MAX;
  image.config.reaction_scale = std::numeric_limits<double>::denorm_min();
  image.config.num_items = kItemMax;
  image.config.cache_capacity = std::numeric_limits<int>::max();
  image.seed = kU64Max;
  image.version = kU64Max;
  image.seq = 0;
  image.clock = kI64Min;
  image.counters.events_applied = kU64Max;
  image.counters.mandates_created = kLongMin;
  image.counters.replicas_written = kLongMax;
  image.counters.total_gain = -0.0;
  image.counters.delay_sum = 0.1 + 0.2;
  image.faults.mandates_lost = kLongMin;
  StateImage::NodeImage& first = image.nodes.front();
  first.sticky = -1;
  first.server_meetings = kLongMin;
  first.cache = {0, kItemMax};
  first.mandates = {{kItemMax, kLongMax}, {0, kLongMin}};
  first.pending = {{kItemMax, kI64Max, kLongMin}, {0, kI64Min, kLongMax}};
  image.nodes.back().sticky = kI64Max;
  expect_image_reads_back(image);

  for (double v : special_doubles()) {
    SCOPED_TRACE(v);
    StateImage one = image;
    one.recent_delays = {v};
    one.counters.total_gain = v;
    expect_image_reads_back(one);
  }

  StateDelta delta = Generator(8).delta();
  delta.config.num_nodes = std::numeric_limits<NodeId>::max();
  delta.nodes = {{0, first},
                 {std::numeric_limits<NodeId>::max() - 1, image.nodes.back()}};
  delta.parent_checksum = kU64Max;
  delta.recent_delays = special_doubles();
  expect_delta_reads_back(delta);
}

StoreConfig small_config() {
  StoreConfig config;
  config.num_nodes = 40;
  config.num_items = 30;
  config.cache_capacity = 4;
  return config;
}

std::vector<Event> workload(std::uint64_t events, std::uint64_t seed) {
  StreamConfig stream;
  stream.events = events;
  stream.num_nodes = 40;
  stream.num_items = 30;
  stream.crash_fraction = 0.01;
  stream.quit = false;
  return generate_stream(stream, seed);
}

TEST(ServiceSnapshotReader, LiveStoreImagesReadBackUnderBothReaders) {
  StateStore store(small_config(), 9);
  std::size_t applied = 0;
  for (const Event& event : workload(3000, 3)) {
    store.apply(event);
    if (++applied % 500 != 0) continue;
    SCOPED_TRACE("after " + std::to_string(applied) + " events");
    expect_image_reads_back(store.image());
    StateDelta delta = store.take_delta();
    delta.parent_checksum = applied;
    expect_delta_reads_back(delta);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ServiceSnapshotReader, ChainsRestoreAlikeUnderBothReaders) {
  const std::string path = ::testing::TempDir() + "snapshot_reader_chain_" +
                           std::to_string(::getpid());
  StateStore store(small_config(), 5);
  SnapshotChain chain({path, /*delta_limit=*/3});
  std::vector<std::string> files;
  std::size_t applied = 0;
  for (const Event& event : workload(1200, 6)) {
    store.apply(event);
    if (++applied % 100 != 0) continue;
    chain.snapshot(store);
    SCOPED_TRACE("after " + std::to_string(applied) + " events");
    const std::string restored = encoded(SnapshotChain::restore_image(path));
    EXPECT_EQ(restored, encoded(store.image()));
    EXPECT_EQ(encoded(oracle::restore_image(path)), restored);
    std::istringstream manifest(read_file(path + ".manifest"));
    std::string kind, file;
    while (manifest >> kind >> file) {
      if (kind == "base" || kind == "delta") {
        files.push_back(path.substr(0, path.find_last_of('/') + 1) + file);
      }
      std::getline(manifest, kind);
    }
  }
  for (const std::string& file : files) std::remove(file.c_str());
  std::remove((path + ".manifest").c_str());
}

// ---------------------------------------------------------------------------
// The oracle's lax parses. Each case is a sealed file the std::istream
// reader loads without error; the library reader must refuse it.

/// A sealed image of a store that has served requests.
std::string sealed_image() {
  StateStore store(small_config(), 11);
  for (const Event& event : workload(800, 12)) store.apply(event);
  return encoded(store.image());
}

/// `text` with its first line that starts with `prefix` replaced by
/// `line`, resealed under a correct checksum.
std::string with_record(const std::string& text, const std::string& prefix,
                        const std::string& line) {
  std::string body = text.substr(0, text.rfind("\nchecksum ") + 1);
  const std::size_t at = body.find("\n" + prefix) + 1;
  EXPECT_NE(at, 0u) << "no record starts with " << prefix;
  body.replace(at, body.find('\n', at) - at, line);
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                engine::fnv1a64(body));
  return body + "checksum " + checksum + "\nend\n";
}

/// Expects the oracle to load `text` and the library reader to refuse it.
void expect_only_the_oracle_loads(const std::string& text) {
  std::istringstream oracle_in(text), in(text);
  EXPECT_NO_THROW(oracle::read_image(oracle_in));
  EXPECT_THROW(read_image(in), util::IoError);
}

TEST(ServiceSnapshotReader, FieldPastTheDeclaredCountIsAnIoError) {
  // The oracle loads 3 items and drops the trailing 9.
  expect_only_the_oracle_loads(
      with_record(sealed_image(), "cache ", "cache 3 0 1 8 9"));
}

TEST(ServiceSnapshotReader, PlusSignOnACountIsAnIoError) {
  expect_only_the_oracle_loads(
      with_record(sealed_image(), "pending ", "pending +0"));
}

TEST(ServiceSnapshotReader, MinusOneInAnUnsignedFieldIsAnIoError) {
  // The oracle wraps -1 to the type's maximum: a seed loads as 2^64 - 1,
  // and a count as SIZE_MAX, which fails only at the first missing field.
  const std::string image = sealed_image();
  expect_only_the_oracle_loads(with_record(image, "seed ", "seed -1"));
  std::istringstream in(with_record(image, "delays ", "delays -1"));
  try {
    read_image(in);
    ADD_FAILURE() << "a count of -1 was read";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("delay count"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceSnapshotReader, TabsOrDoubleSpacesBetweenFieldsAreAnIoError) {
  const std::string image = sealed_image();
  expect_only_the_oracle_loads(with_record(image, "cache ", "cache  2 0 1"));
  expect_only_the_oracle_loads(with_record(image, "cache ", "cache\t2 0 1"));
  expect_only_the_oracle_loads(with_record(image, "cache ", "cache 2\t0 1"));
  expect_only_the_oracle_loads(with_record(image, "cache ", "cache 2 0 1 "));
}

TEST(ServiceSnapshotReader, BytesAfterTheEndTrailerAreAnIoError) {
  const std::string image = sealed_image();
  for (const char* tail : {"x", "\n", "end\n", "checksum 0\n"}) {
    SCOPED_TRACE(tail);
    expect_only_the_oracle_loads(image + tail);
  }
}

TEST(ServiceSnapshotReader, NegativeZeroNodeIdIsAnIoError) {
  expect_only_the_oracle_loads(
      with_record(sealed_image(), "node ", "node -0 0 -1"));
}

TEST(ServiceSnapshotReader, NonCanonicalNumbersAreAnIoError) {
  const std::string image = sealed_image();
  // A leading zero, "-0" in a signed field, a flag that is not 0/1, and
  // doubles that are not the writer's %.17g text.
  for (const auto& [prefix, line] :
       std::vector<std::pair<std::string, std::string>>{
           {"node ", "node 00 0 -1"},
           {"node ", "node 0 -0 -1"},
           {"node ", "node 0 0 -01"},
           {"config ", "config 40 30 4 2 1 1 1 step:tau=10"},
           {"config ", "config 40 30 4 0 0.05 1 1 step:tau=10"},
           {"delays ", "delays 1 1e0"},
           {"delays ", "delays 1 1.0"},
           {"delays ", "delays 1 0x1p0"}}) {
    SCOPED_TRACE(line);
    std::istringstream in(with_record(image, prefix, line));
    EXPECT_THROW(read_image(in), util::IoError);
  }
}

}  // namespace
}  // namespace impatience::service
