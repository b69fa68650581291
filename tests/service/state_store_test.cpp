#include "impatience/service/state_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "impatience/engine/seeding.hpp"
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

std::vector<Event> workload(std::uint64_t events, std::uint64_t seed,
                            double crash_fraction = 0.0) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.crash_fraction = crash_fraction;
  config.quit = false;
  return generate_stream(config, seed);
}

std::string serialized(const StateStore& store) {
  std::ostringstream out;
  write_image(out, store.image());
  return out.str();
}

class TempFile {
 public:
  explicit TempFile(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".snap";
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ServiceStateStore, FreshInitIsSeededAndSticky) {
  StateStore a(small_config(), 42);
  StateStore b(small_config(), 42);
  StateStore c(small_config(), 43);
  EXPECT_EQ(serialized(a), serialized(b));
  EXPECT_NE(serialized(a), serialized(c));
  EXPECT_EQ(a.version(), 0u);

  // Every item has at least one replica (seeders pin 0..num_items-1).
  const auto counts = a.replica_counts();
  for (long count : counts) EXPECT_GE(count, 1);
  const auto image = a.image();
  for (ItemId i = 0; i < 12; ++i) {
    EXPECT_EQ(image.nodes[i].sticky, static_cast<std::int64_t>(i));
  }
}

TEST(ServiceStateStore, VersionIsMonotonicPerMutation) {
  StateStore store(small_config(), 1);
  std::uint64_t last = store.version();
  for (const Event& event : workload(300, 5)) {
    const std::uint64_t version = store.apply(event);
    EXPECT_GT(version, last);  // every event bumps at least once
    last = version;
  }
  EXPECT_EQ(store.version(), last);
  // Replica writes bump beyond the per-event tick.
  EXPECT_GE(last, store.counters().events_applied);
}

TEST(ServiceStateStore, CopyOnReadImageIsStable) {
  StateStore store(small_config(), 2);
  for (const Event& event : workload(200, 6)) store.apply(event);
  const StateImage image = store.image();
  const std::uint64_t version_at_copy = image.version;
  // Mutating the store after the copy must not affect the image.
  for (const Event& event : workload(100, 7)) store.apply(event);
  EXPECT_EQ(image.version, version_at_copy);
  EXPECT_GT(store.version(), version_at_copy);
  std::ostringstream a, b;
  write_image(a, image);
  write_image(b, image);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ServiceStateStore, AppliesTheCoreSemantics) {
  StateStore store(small_config(), 3);
  std::uint64_t applied = 0;
  for (const Event& event : workload(2000, 8)) {
    store.apply(event);
    ++applied;
  }
  const StoreCounters k = store.counters();
  EXPECT_EQ(k.events_applied, applied);
  EXPECT_GT(k.contacts, 0u);
  EXPECT_GT(k.requests_created, 0u);
  EXPECT_GT(k.fulfillments, 0u);
  EXPECT_GT(k.total_gain, 0.0);
  EXPECT_GT(k.replicas_written, 0);
  // Served + still-pending = created.
  EXPECT_EQ(k.immediate_fulfillments + k.fulfillments + k.requests_pending,
            k.requests_created);
  EXPECT_TRUE(store.mandate_conservation_ok());
  EXPECT_GT(store.delay_percentile(0.99), 0.0);
  EXPECT_GE(store.delay_percentile(0.99), store.delay_percentile(0.50));
}

TEST(ServiceStateStore, OutOfRangeEventsCountMalformedNotCrash) {
  StateStore store(small_config(), 4);
  store.apply({Event::Kind::contact, 0, 99, 1, 0});
  store.apply({Event::Kind::request, 0, 1, 0, 99});
  store.apply({Event::Kind::crash, 0, 99, 0, 0});
  EXPECT_EQ(store.counters().events_malformed, 3u);
  EXPECT_EQ(store.seq(), 3u);  // stream position still advances
}

TEST(ServiceStateStore, SnapshotRoundTripsByteExactly) {
  StateStore store(small_config(), 5);
  for (const Event& event : workload(800, 9, 0.01)) store.apply(event);
  TempFile file("roundtrip");
  save_image(file.path(), store.image());
  const StateImage loaded = load_image(file.path());
  std::ostringstream a, b;
  write_image(a, store.image());
  write_image(b, loaded);
  EXPECT_EQ(a.str(), b.str());
}

// The acceptance criterion: interrupt at an arbitrary event, snapshot,
// restore, replay the tail — the final serialized state must be byte-
// identical to the uninterrupted run, crashes included.
TEST(ServiceStateStore, WarmRestartIsStateIdentical) {
  const auto events = workload(2000, 10, 0.005);
  const std::size_t cut = 900;

  StateStore uninterrupted(small_config(), 6);
  for (const Event& event : events) uninterrupted.apply(event);

  StateStore first(small_config(), 6);
  for (std::size_t i = 0; i < cut; ++i) first.apply(events[i]);
  TempFile file("warmrestart");
  save_image(file.path(), first.image());

  StateStore resumed(small_config(), 6, load_image(file.path()));
  EXPECT_EQ(resumed.seq(), cut);
  for (std::size_t i = cut; i < events.size(); ++i) resumed.apply(events[i]);

  EXPECT_EQ(serialized(uninterrupted), serialized(resumed));
  EXPECT_TRUE(resumed.mandate_conservation_ok());
}

// Restore rebuilds live state the image does not carry: the pending-item
// index, the replica counts and the dirty set. Every node of a restored
// store must match the original, and both must produce the same delta
// for the same tail.
TEST(ServiceStateStore, RestoredLiveStateMatchesOriginal) {
  const auto events = workload(3000, 14, 0.01);
  const std::size_t cut = 1201;

  StateStore original(small_config(), 13);
  for (std::size_t i = 0; i < cut; ++i) original.apply(events[i]);
  ASSERT_GT(original.faults().crashes, 0u);
  std::ostringstream snap;
  write_image(snap, original.checkpoint_image());
  std::istringstream in(snap.str());
  StateStore restored(small_config(), 13, read_image(in));

  EXPECT_EQ(restored.version(), original.version());
  EXPECT_EQ(restored.replica_counts(), original.replica_counts());
  EXPECT_EQ(restored.dirty_node_count(), 0u);
  EXPECT_EQ(original.dirty_node_count(), 0u);
  std::size_t pending_seen = 0;
  std::size_t mandates_seen = 0;
  for (NodeId id = 0; id < small_config().num_nodes; ++id) {
    const core::Node want = original.node(id);
    const core::Node got = restored.node(id);
    EXPECT_EQ(got.cache().items(), want.cache().items()) << "node " << id;
    EXPECT_EQ(got.cache().sticky(), want.cache().sticky()) << "node " << id;
    EXPECT_EQ(got.server_meetings(), want.server_meetings()) << "node " << id;
    const auto items = want.mandates().active_items();
    EXPECT_EQ(got.mandates().active_items(), items) << "node " << id;
    mandates_seen += items.size();
    for (ItemId item : items) {
      EXPECT_EQ(got.mandates().count(item), want.mandates().count(item))
          << "node " << id << " item " << item;
    }
    ASSERT_EQ(got.pending().size(), want.pending().size()) << "node " << id;
    for (std::size_t k = 0; k < want.pending().size(); ++k) {
      EXPECT_EQ(got.pending()[k].item, want.pending()[k].item);
      EXPECT_EQ(got.pending()[k].created, want.pending()[k].created);
      EXPECT_EQ(got.pending()[k].queries_at_creation,
                want.pending()[k].queries_at_creation);
    }
    pending_seen += want.pending().size();
    for (ItemId item = 0; item < small_config().num_items; ++item) {
      EXPECT_EQ(got.has_pending(item), want.has_pending(item))
          << "node " << id << " item " << item;
    }
  }
  EXPECT_GT(pending_seen, 0u);
  EXPECT_GT(mandates_seen, 0u);

  for (std::size_t i = cut; i < events.size(); ++i) {
    original.apply(events[i]);
    restored.apply(events[i]);
  }
  std::ostringstream want_delta, got_delta;
  write_delta(want_delta, original.take_delta());
  write_delta(got_delta, restored.take_delta());
  EXPECT_EQ(got_delta.str(), want_delta.str());
}

std::string image_bytes(const StateImage& image) {
  std::ostringstream out;
  write_image(out, image);
  return out.str();
}

std::string delta_bytes(const StateDelta& delta) {
  std::ostringstream out;
  write_delta(out, delta);
  return out.str();
}

/// Crashes `node`, then files `requests` requests there for an item it
/// no longer holds: its pending list ends `requests` long.
std::vector<Event> crash_then_request(NodeId node, std::size_t requests) {
  std::vector<Event> events{{Event::Kind::crash, 0, node, 0, 0}};
  const auto item = static_cast<ItemId>((node + 1) % small_config().num_items);
  for (std::size_t i = 0; i < requests; ++i) {
    events.push_back({Event::Kind::request, 0, node, 0, item});
  }
  return events;
}

/// The node whose pending list has the least capacity among `nodes`.
template <typename Nodes, typename Pending>
std::size_t least_pending_capacity(const Nodes& nodes, Pending pending) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (pending(nodes[i]).capacity() < pending(nodes[best]).capacity()) {
      best = i;
    }
  }
  return best;
}

// A capture buffer reused across snapshots must carry nothing of its
// previous fill. Between the two fills a crash-heavy tail drains mandate
// bags and pending lists and shrinks caches, and one node's pending list
// grows past the capacity the first fill left it, so per-node vectors
// are refilled both shorter and longer than before. The refill must
// serialize to the same bytes as a fresh image of a twin store.
TEST(ServiceStateStore, RefilledCaptureMatchesFreshImage) {
  StateStore store(small_config(), 31);
  StateStore twin(small_config(), 31);
  const auto apply_both = [&](const std::vector<Event>& events) {
    for (const Event& event : events) {
      store.apply(event);
      twin.apply(event);
    }
  };
  apply_both(workload(1500, 32));
  StateImage buffer;
  store.image(buffer);
  ASSERT_EQ(image_bytes(buffer), image_bytes(twin.image()));
  const StateImage first = buffer;
  const std::size_t grown = least_pending_capacity(
      buffer.nodes, [](const auto& ni) -> const auto& { return ni.pending; });
  const std::size_t old_capacity = buffer.nodes[grown].pending.capacity();

  apply_both(workload(600, 33, 0.3));
  apply_both(crash_then_request(static_cast<NodeId>(grown),
                                old_capacity + 3));
  store.image(buffer);
  EXPECT_EQ(image_bytes(buffer), image_bytes(twin.image()));

  // The tail did shrink what the first fill held, and did outgrow it.
  ASSERT_GT(store.faults().crashes, 10u);
  EXPECT_GT(buffer.nodes[grown].pending.size(), old_capacity);
  bool cache_shrank = false, mandates_shrank = false, pending_shrank = false;
  for (std::size_t n = 0; n < buffer.nodes.size(); ++n) {
    const auto& was = first.nodes[n];
    const auto& now = buffer.nodes[n];
    cache_shrank |= now.cache.size() < was.cache.size();
    mandates_shrank |= now.mandates.size() < was.mandates.size();
    pending_shrank |= now.pending.size() < was.pending.size();
  }
  EXPECT_TRUE(cache_shrank);
  EXPECT_TRUE(mandates_shrank);
  EXPECT_TRUE(pending_shrank);
}

// The delta twin: a reused StateDelta refilled with fewer dirty nodes
// than its previous fill, some of them crashed, one with a pending list
// past its slot's old capacity, and a parent_checksum the chain writer
// left in it, serializes like a fresh take_delta() of a twin store.
TEST(ServiceStateStore, RefilledDeltaMatchesFreshDelta) {
  StateStore store(small_config(), 34);
  StateStore twin(small_config(), 34);
  const auto apply_both = [&](const std::vector<Event>& events) {
    for (const Event& event : events) {
      store.apply(event);
      twin.apply(event);
    }
  };
  apply_both(workload(1500, 35));
  // Slots 0-2 of the first fill hold two pending requests each.
  for (const NodeId node : {NodeId{0}, NodeId{1}, NodeId{2}}) {
    apply_both(crash_then_request(node, 2));
  }
  StateDelta buffer;
  store.take_delta(buffer);
  ASSERT_EQ(delta_bytes(buffer), delta_bytes(twin.take_delta()));
  ASSERT_EQ(buffer.nodes.size(), small_config().num_nodes);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(buffer.nodes[i].second.pending.size(), 2u) << "slot " << i;
  }
  const StateDelta first = buffer;
  buffer.parent_checksum = 0x1234;  // what a persist writes into it

  // Three dirty nodes, so slots 0-2 are refilled: node 0, whose pending
  // list outgrows what slot 0 held, and two crashed nodes with none.
  const std::size_t old_capacity = buffer.nodes[0].second.pending.capacity();
  std::vector<Event> tail = crash_then_request(0, old_capacity + 3);
  for (const NodeId node : {NodeId{5}, NodeId{11}}) {
    tail.push_back({Event::Kind::crash, 0, node, 0, 0});
  }
  apply_both(tail);
  store.take_delta(buffer);
  EXPECT_EQ(delta_bytes(buffer), delta_bytes(twin.take_delta()));

  ASSERT_EQ(buffer.nodes.size(), 3u);
  EXPECT_LT(buffer.nodes.size(), first.nodes.size());
  EXPECT_EQ(buffer.nodes[0].first, 0u);
  EXPECT_GT(buffer.nodes[0].second.pending.size(), old_capacity);
  for (std::size_t i = 1; i < buffer.nodes.size(); ++i) {
    EXPECT_TRUE(buffer.nodes[i].second.mandates.empty());
    EXPECT_TRUE(buffer.nodes[i].second.pending.empty());
  }
}

// The daemon batches ingest lines through apply_batch; a batch boundary
// must not be a semantic boundary. Ragged splits, malformed lines and a
// snapshot/restore cut mid-stream all land on the per-line bytes.
TEST(ServiceStateStore, ApplyBatchMatchesPerLineApply) {
  std::vector<IngestLine> lines;
  for (const Event& event : workload(1500, 12, 0.01)) {
    lines.push_back({false, event});
    if (lines.size() % 17 == 0) lines.push_back({true, Event{}});
  }
  // Out-of-range events count malformed inside a batch too.
  lines.insert(lines.begin() + 5, {false, {Event::Kind::contact, 0, 99, 1, 0}});
  lines.insert(lines.begin() + 60, {false, {Event::Kind::crash, 0, 99, 0, 0}});

  StateStore reference(small_config(), 8);
  for (const IngestLine& line : lines) {
    if (line.malformed) {
      reference.apply_malformed();
    } else {
      reference.apply(line.event);
    }
  }
  const std::string want = serialized(reference);

  const std::span<const IngestLine> all(lines);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    StateStore store(small_config(), 8);
    for (std::size_t begin = 0; begin < all.size(); begin += chunk) {
      store.apply_batch(
          all.subspan(begin, std::min(chunk, all.size() - begin)));
    }
    EXPECT_EQ(serialized(store), want) << "chunk=" << chunk;
  }

  const std::size_t cut = lines.size() / 3;
  StateStore first(small_config(), 8);
  first.apply_batch(all.subspan(0, cut));
  std::ostringstream snap;
  write_image(snap, first.image());
  std::istringstream in(snap.str());
  StateStore resumed(small_config(), 8, read_image(in));
  resumed.apply_batch(all.subspan(cut));
  EXPECT_EQ(serialized(resumed), want);
}

// SIGKILL mid-snapshot leaves `<path>.tmp` garbage while the atomic
// rename never replaced `<path>`: loading must ignore the temp file and
// come back from the last consistent snapshot.
TEST(ServiceStateStore, RestoreFallsBackPastTornTempFile) {
  StateStore store(small_config(), 7);
  const auto events = workload(600, 11);
  for (std::size_t i = 0; i < 300; ++i) store.apply(events[i]);
  TempFile file("tornsnap");
  save_image(file.path(), store.image());
  const std::string consistent = serialized(store);

  // Simulate the torn write: a half-serialized temp next to the good file.
  {
    std::ofstream torn(file.path() + ".tmp");
    torn << "impatience.replicationd_snapshot/1\nconfig 16 12 3";
  }

  auto restored = std::make_unique<StateStore>(small_config(), 7,
                                               load_image(file.path()));
  EXPECT_EQ(serialized(*restored), consistent);
  EXPECT_TRUE(restored->mandate_conservation_ok());
}

TEST(ServiceStateStore, TruncatedOrCorruptSnapshotIsRejected) {
  StateStore store(small_config(), 8);
  for (const Event& event : workload(200, 12)) store.apply(event);
  TempFile file("corrupt");
  save_image(file.path(), store.image());

  std::string text;
  {
    std::ifstream in(file.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Truncation: drop the trailer and half the body.
  {
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_THROW(read_image(in), util::IoError);
  }
  // Bit flip inside the body: checksum must catch it.
  {
    std::string flipped = text;
    flipped[text.size() / 3] ^= 1;
    std::istringstream in(flipped);
    EXPECT_THROW(read_image(in), util::IoError);
  }
  // Not a snapshot at all.
  {
    std::istringstream in(std::string("hello world\n"));
    EXPECT_THROW(read_image(in), util::IoError);
  }
  EXPECT_THROW(load_image(file.path() + ".does-not-exist"), util::IoError);
}

/// `text` (a sealed image or delta) with the last line that starts with
/// `prefix` replaced by `line`, resealed under a recomputed checksum so
/// the reader gets past its integrity check to the record itself.
std::string with_record(const std::string& text, const std::string& prefix,
                        const std::string& line) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string current;
  while (std::getline(in, current) && current.rfind("checksum ", 0) != 0) {
    lines.push_back(current);
  }
  const auto last = std::find_if(
      lines.rbegin(), lines.rend(),
      [&](const std::string& l) { return l.rfind(prefix, 0) == 0; });
  EXPECT_NE(last, lines.rend()) << "no record starts with '" << prefix << "'";
  if (last != lines.rend()) *last = line;
  std::string body;
  for (const std::string& l : lines) body += l + '\n';
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                engine::fnv1a64(body));
  return body + "checksum " + checksum + "\nend\n";
}

/// A sealed image and a sealed delta of a small store that has served
/// requests, so every record kind is present.
struct SealedFiles {
  std::string image;
  std::string delta;
};

SealedFiles sealed_files() {
  StateStore store(small_config(), 21);
  for (const Event& event : workload(300, 22)) store.apply(event);
  store.checkpoint_image();
  for (const Event& event : workload(60, 23)) store.apply(event);
  SealedFiles files;
  files.image = serialized(store);
  std::ostringstream delta;
  write_delta(delta, store.take_delta());
  files.delta = delta.str();
  return files;
}

StateImage read_image_text(const std::string& text) {
  std::istringstream in(text);
  return read_image(in);
}

StateDelta read_delta_text(const std::string& text) {
  std::istringstream in(text);
  return read_delta(in);
}

/// `text` with its checksum line replaced by `line`.
std::string with_checksum_line(const std::string& text,
                               const std::string& line) {
  const std::size_t begin = text.rfind("\nchecksum ") + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + line + text.substr(end);
}

TEST(ServiceSnapshot, MalformedChecksumLineIsAnIoError) {
  const SealedFiles files = sealed_files();
  for (const char* bad : {"checksum g123", "checksum ", "checksum 12zz",
                          "checksum -5", "checksum 99999999999999999999"}) {
    EXPECT_THROW(read_image_text(with_checksum_line(files.image, bad)),
                 util::IoError)
        << bad;
    EXPECT_THROW(read_delta_text(with_checksum_line(files.delta, bad)),
                 util::IoError)
        << bad;
  }
}

// Declared record counts are untrusted: a hostile count under a valid
// checksum must fail as util::IoError, without allocating up front.
constexpr const char* kHugeCount = "4000000000000000000";

TEST(ServiceSnapshot, NodeCountMustMatchTheConfig) {
  const SealedFiles files = sealed_files();
  // Control: resealing the true count reproduces the file, which reads.
  EXPECT_EQ(with_record(files.image, "nodes ", "nodes 16"), files.image);
  EXPECT_NO_THROW(read_image_text(files.image));
  EXPECT_NO_THROW(read_delta_text(files.delta));
  for (const char* count : {kHugeCount, "17", "15"}) {
    const std::string line = std::string("nodes ") + count;
    EXPECT_THROW(read_image_text(with_record(files.image, "nodes ", line)),
                 util::IoError)
        << count;
  }
  // A delta carries at most config.num_nodes node blocks.
  for (const char* count : {kHugeCount, "17"}) {
    const std::string line = std::string("nodes ") + count;
    EXPECT_THROW(read_delta_text(with_record(files.delta, "nodes ", line)),
                 util::IoError)
        << count;
  }
}

TEST(ServiceSnapshot, DeltaNodeIdBeyondTheConfigIsAnIoError) {
  // 2^32 + 3 would narrow to node 3 if the id were not checked first.
  const SealedFiles files = sealed_files();
  EXPECT_THROW(read_delta_text(
                   with_record(files.delta, "node ", "node 4294967299 0 -1")),
               util::IoError);
  EXPECT_THROW(
      read_delta_text(with_record(files.delta, "node ", "node 16 0 -1")),
      util::IoError);
}

TEST(ServiceSnapshot, HugeCacheCountIsAnIoError) {
  const SealedFiles files = sealed_files();
  const std::string line = std::string("cache ") + kHugeCount + " 1 2";
  EXPECT_THROW(read_image_text(with_record(files.image, "cache ", line)),
               util::IoError);
  EXPECT_THROW(read_delta_text(with_record(files.delta, "cache ", line)),
               util::IoError);
}

TEST(ServiceSnapshot, HugeMandatesCountIsAnIoError) {
  const SealedFiles files = sealed_files();
  const std::string line = std::string("mandates ") + kHugeCount + " 1 1";
  EXPECT_THROW(read_image_text(with_record(files.image, "mandates ", line)),
               util::IoError);
  EXPECT_THROW(read_delta_text(with_record(files.delta, "mandates ", line)),
               util::IoError);
}

TEST(ServiceSnapshot, HugePendingCountIsAnIoError) {
  const SealedFiles files = sealed_files();
  const std::string line = std::string("pending ") + kHugeCount + " 1 0 0";
  EXPECT_THROW(read_image_text(with_record(files.image, "pending ", line)),
               util::IoError);
  EXPECT_THROW(read_delta_text(with_record(files.delta, "pending ", line)),
               util::IoError);
}

TEST(ServiceSnapshot, HugeDelaysCountIsAnIoError) {
  const SealedFiles files = sealed_files();
  const std::string line = std::string("delays ") + kHugeCount + " 1.5";
  EXPECT_THROW(read_image_text(with_record(files.image, "delays ", line)),
               util::IoError);
  EXPECT_THROW(read_delta_text(with_record(files.delta, "delays ", line)),
               util::IoError);
}

/// The util::IoError message that restoring the sealed image `text`
/// raises, or "" if it restores.
std::string restore_error(const std::string& text) {
  try {
    StateStore restored(small_config(), 21, read_image_text(text));
  } catch (const util::IoError& e) {
    return e.what();
  }
  return "";
}

// The mandate records parse, so these reach the store's own checks.
TEST(ServiceSnapshot, MandateItemBeyondTheCatalogIsAnIoError) {
  const SealedFiles files = sealed_files();
  EXPECT_EQ(restore_error(files.image), "");  // control
  for (const char* line : {"mandates 1 12 1", "mandates 1 4294967295 1"}) {
    EXPECT_NE(restore_error(with_record(files.image, "mandates ", line))
                  .find("mandate entry invalid"),
              std::string::npos)
        << line;
  }
}

TEST(ServiceSnapshot, NonPositiveMandateCountIsAnIoError) {
  const SealedFiles files = sealed_files();
  for (const char* line : {"mandates 1 3 0", "mandates 1 3 -2"}) {
    EXPECT_NE(restore_error(with_record(files.image, "mandates ", line))
                  .find("mandate entry invalid"),
              std::string::npos)
        << line;
  }
}

TEST(ServiceSnapshot, RepeatedMandateItemIsAnIoError) {
  // Merging the two entries would load as count 2 and re-serialize to
  // different bytes than the file that was read.
  const SealedFiles files = sealed_files();
  EXPECT_EQ(restore_error(with_record(files.image, "mandates ",
                                      "mandates 2 3 1 5 1")),
            "");  // control: distinct items restore
  EXPECT_NE(restore_error(with_record(files.image, "mandates ",
                                      "mandates 2 3 1 3 1"))
                .find("mandates repeat an item"),
            std::string::npos);
}

TEST(ServiceStateStore, RestoreRefusesMismatchedScenario) {
  StateStore store(small_config(), 9);
  TempFile file("mismatch");
  save_image(file.path(), store.image());

  StoreConfig other = small_config();
  other.cache_capacity = 4;
  EXPECT_THROW(StateStore(other, 9, load_image(file.path())),
               std::invalid_argument);
  // Wrong seed would silently change replay randomness: refused too.
  EXPECT_THROW(StateStore(small_config(), 10, load_image(file.path())),
               std::invalid_argument);
}

/// `image` written and read back, so a test restores what a sealed file
/// with these counters would give the store.
StateImage resealed(const StateImage& image) {
  std::ostringstream out;
  write_image(out, image);
  std::istringstream in(out.str());
  return read_image(in);
}

// Restored mandate counters seed totals the store keeps adding to, so a
// restore refuses any outside [0, kMaxRestoredMandateCounter].
TEST(ServiceStateStore, RestoreRefusesMandateCountersPastHeadroom) {
  StateStore store(small_config(), 15);
  for (const Event& event : workload(800, 16, 0.01)) store.apply(event);
  const StateImage base = store.image();
  constexpr long kMax = std::numeric_limits<long>::max();
  constexpr long kBound = StateStore::kMaxRestoredMandateCounter;

  // The reader takes any long; the store is the one that refuses.
  StateImage image = base;
  image.counters.replicas_written = kMax;
  image.faults.mandates_lost = 1;
  EXPECT_THROW(StateStore(small_config(), 15, resealed(image)),
               util::IoError);

  for (const long bad : {-1L, kBound + 1, kMax}) {
    image = base;
    image.counters.mandates_created = bad;
    EXPECT_THROW(StateStore(small_config(), 15, image), util::IoError) << bad;
    image = base;
    image.counters.replicas_written = bad;
    EXPECT_THROW(StateStore(small_config(), 15, image), util::IoError) << bad;
    image = base;
    image.faults.mandates_lost = bad;
    EXPECT_THROW(StateStore(small_config(), 15, image), util::IoError) << bad;
  }
  image = base;
  image.counters.mandates_created = kBound;
  image.counters.replicas_written = kBound;
  image.faults.mandates_lost = kBound;
  EXPECT_NO_THROW(StateStore(small_config(), 15, image));
}

// Counters restored at the headroom bound keep closing the conservation
// sum while a crash-bearing stream adds to them.
TEST(ServiceStateStore, MandateCountersAtHeadroomStayConserved) {
  StateStore store(small_config(), 17);
  const auto events = workload(3000, 18, 0.01);
  for (std::size_t i = 0; i < 1000; ++i) store.apply(events[i]);
  StateImage image = store.image();
  ASSERT_TRUE(store.mandate_conservation_ok());
  const long shift =
      StateStore::kMaxRestoredMandateCounter - image.counters.mandates_created;
  image.counters.mandates_created += shift;
  image.counters.replicas_written += shift;

  StateStore restored(small_config(), 17, resealed(image));
  EXPECT_TRUE(restored.mandate_conservation_ok());
  for (std::size_t i = 1000; i < events.size(); ++i) restored.apply(events[i]);
  EXPECT_GT(restored.counters().mandates_created,
            StateStore::kMaxRestoredMandateCounter);
  EXPECT_GT(restored.faults().mandates_lost, image.faults.mandates_lost);
  EXPECT_TRUE(restored.mandate_conservation_ok());
}

// An outstanding total near LONG_MAX restores (each count parses and the
// sum fits), and the conservation check reads it as not conserved rather
// than overflowing.
TEST(ServiceStateStore, OutstandingNearLongMaxIsNotConserved) {
  StateStore store(small_config(), 19);
  StateImage image = store.image();
  image.nodes[0].mandates = {{3, std::numeric_limits<long>::max()}};
  StateStore restored(small_config(), 19, resealed(image));
  EXPECT_FALSE(restored.mandate_conservation_ok());
}

TEST(ServiceStateStore, CrashEventsDegradeConservationGracefully) {
  StateStore store(small_config(), 11);
  for (const Event& event : workload(1500, 13, 0.02)) store.apply(event);
  const auto f = store.faults();
  EXPECT_GT(f.crashes, 0u);
  // Losses are accounted, so the invariant still closes.
  EXPECT_TRUE(store.mandate_conservation_ok());
  // Sticky seeders survive crashes: no item can go extinct.
  for (long count : store.replica_counts()) EXPECT_GE(count, 1);
}

TEST(ServiceStateStore, ValidatesConfig) {
  StoreConfig bad = small_config();
  bad.cache_capacity = 0;
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
  bad = small_config();
  bad.utility_spec = "no spaces allowed";
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
  bad = small_config();
  bad.mu = 0.0;
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
  // Every node is a client and a server, so own-cache hits happen; a
  // utility with unbounded h(0+) cannot value them and is refused.
  for (const char* spec : {"neglog", "power:alpha=1.5"}) {
    bad = small_config();
    bad.utility_spec = spec;
    EXPECT_THROW(StateStore(bad, 1), std::invalid_argument) << spec;
  }
  StoreConfig bounded = small_config();
  bounded.utility_spec = "power:alpha=0.5";
  EXPECT_NO_THROW(StateStore(bounded, 1));
}

// Byte lock on the service apply path: a default-config store fed a
// fixed crash-bearing stream must serialize to exactly these bytes.
// Refactors of the meeting protocol may move code, never change state.
TEST(ServiceGolden, ImageMatchesPreRefactorCapture) {
  StreamConfig stream;
  stream.events = 20000;
  stream.crash_fraction = 0.001;
  StateStore store(StoreConfig{}, 42);
  for (const Event& event : generate_stream(stream, 7)) store.apply(event);

  std::ostringstream out;
  const std::uint64_t checksum = write_image(out, store.image());
  const StoreCounters c = store.counters();
  EXPECT_EQ(checksum, 0x933658d7b7e9f354ULL);
  EXPECT_EQ(out.str().size(), 16892u);
  EXPECT_EQ(c.fulfillments, 8200u);
  EXPECT_EQ(c.mandates_created, 881);
  EXPECT_EQ(c.total_gain, 2017.0);
  EXPECT_TRUE(store.mandate_conservation_ok());
}

}  // namespace
}  // namespace impatience::service
