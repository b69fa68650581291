// Delta snapshot and chain tests (suite ServiceSnapshotDelta;
// scripts/check_engine_tsan.sh sweeps it under ThreadSanitizer). Locks
// the incremental persistence contract: base + deltas restore to exactly
// the bytes of a full image, torn / missing / spliced chain elements are
// rejected loudly, the manifest is the only commit point, and the plain
// single-file snapshot path keeps working unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "impatience/service/snapshot_chain.hpp"
#include "impatience/service/state_store.hpp"
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

std::string serialized_image(const StateImage& image) {
  std::ostringstream out;
  write_image(out, image);
  return out.str();
}

std::string serialized(const StateStore& store) {
  return serialized_image(store.image());
}

/// Chain root inside the gtest temp dir, cleaned up with its manifest,
/// bases and deltas (seq suffixes are enumerated by prefix scan).
class TempChain {
 public:
  explicit TempChain(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempChain() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".manifest").c_str());
    std::remove((path_ + ".manifest.tmp").c_str());
    for (const std::string& file : created_) std::remove(file.c_str());
  }
  const std::string& path() const { return path_; }
  /// Registers a chain data file for cleanup.
  std::string file(const char* kind, std::uint64_t seq) {
    std::string f = path_ + "." + kind + "." + std::to_string(seq);
    created_.push_back(f);
    return f;
  }
  void track(const std::string& file) { created_.push_back(file); }

 private:
  std::string path_;
  std::vector<std::string> created_;
};

/// Every data file the manifest references, tracked for cleanup.
void track_manifest_files(TempChain& chain) {
  std::ifstream in(chain.path() + ".manifest");
  std::string line;
  const std::string dir =
      chain.path().substr(0, chain.path().find_last_of('/') + 1);
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, file;
    if (fields >> kind >> file && (kind == "base" || kind == "delta")) {
      chain.track(dir + file);
    }
  }
}

TEST(ServiceSnapshotDelta, DeltaRoundTripsThroughTheSerializer) {
  StateStore store(small_config(), 3);
  for (const Event& event : workload(200, 4)) store.apply(event);
  store.checkpoint_image();  // reset dirty tracking
  for (const Event& event : workload(50, 5)) store.apply(event);
  EXPECT_GT(store.dirty_node_count(), 0u);

  StateDelta delta = store.take_delta();
  delta.parent_checksum = 12345;
  EXPECT_EQ(store.dirty_node_count(), 0u);
  EXPECT_FALSE(delta.nodes.empty());

  std::ostringstream out;
  const std::uint64_t checksum = write_delta(out, delta);
  std::istringstream in(out.str());
  std::uint64_t read_checksum = 0;
  const StateDelta back = read_delta(in, &read_checksum);
  EXPECT_EQ(read_checksum, checksum);
  EXPECT_EQ(back.parent_checksum, 12345u);
  EXPECT_EQ(back.seq, delta.seq);
  EXPECT_EQ(back.nodes.size(), delta.nodes.size());

  std::ostringstream again;
  EXPECT_EQ(write_delta(again, back), checksum);
  EXPECT_EQ(again.str(), out.str());
}

TEST(ServiceSnapshotDelta, ApplyDeltaReconstructsTheFullImage) {
  StateStore store(small_config(), 7);
  for (const Event& event : workload(300, 8)) store.apply(event);
  const StateImage base = store.checkpoint_image();
  for (const Event& event : workload(120, 9, 0.02)) store.apply(event);
  const StateImage want = store.image();
  const StateDelta delta = store.take_delta();

  StateImage rebuilt = base;
  apply_delta(rebuilt, delta);
  EXPECT_EQ(serialized_image(rebuilt), serialized_image(want));
}

TEST(ServiceSnapshotDelta, ApplyDeltaRejectsMismatchedProvenance) {
  StateStore store(small_config(), 11);
  for (const Event& event : workload(100, 12)) store.apply(event);
  const StateImage base = store.checkpoint_image();
  for (const Event& event : workload(40, 13)) store.apply(event);
  const StateDelta delta = store.take_delta();

  {  // wrong seed
    StateImage image = base;
    image.seed = 999;
    EXPECT_THROW(apply_delta(image, delta), util::IoError);
  }
  {  // seq regression: delta older than the image
    StateImage image = base;
    image.seq = delta.seq + 1;
    EXPECT_THROW(apply_delta(image, delta), util::IoError);
  }
  {  // config mismatch
    StateImage image = base;
    image.config.num_nodes = 17;
    EXPECT_THROW(apply_delta(image, delta), util::IoError);
  }
  {  // node id out of the image's range
    StateImage image = base;
    StateDelta bad = delta;
    bad.nodes.front().first = 99;
    EXPECT_THROW(apply_delta(image, bad), util::IoError);
  }
}

TEST(ServiceSnapshotDelta, ChainRestoresExactlyAcrossCheckpoints) {
  TempChain chain("snapdelta_chain");
  StateStore store(small_config(), 21);
  SnapshotChain writer({chain.path(), 16});

  const auto events = workload(1000, 22, 0.01);
  std::size_t at = 0;
  for (const std::size_t checkpoint : {std::size_t{0}, std::size_t{250},
                                       std::size_t{500}, std::size_t{750},
                                       events.size()}) {
    for (; at < checkpoint; ++at) store.apply(events[at]);
    writer.snapshot(store);
    track_manifest_files(chain);

    ASSERT_TRUE(SnapshotChain::chain_available(chain.path()));
    const StateImage restored = SnapshotChain::restore_image(chain.path());
    EXPECT_EQ(serialized_image(restored), serialized(store))
        << "checkpoint at " << checkpoint;
  }
  EXPECT_EQ(writer.chain_length(), 5u);  // one base + four deltas
  EXPECT_EQ(writer.deltas_since_base(), 4u);
}

TEST(ServiceSnapshotDelta, CheckpointAtUnchangedSeqIsSkipped) {
  TempChain chain("snapdelta_skip");
  StateStore store(small_config(), 31);
  for (const Event& event : workload(80, 32)) store.apply(event);
  SnapshotChain writer({chain.path(), 16});
  const std::uint64_t seq = writer.snapshot(store);
  track_manifest_files(chain);
  EXPECT_EQ(writer.snapshot(store), seq);  // no new element
  EXPECT_EQ(writer.chain_length(), 1u);
}

TEST(ServiceSnapshotDelta, DeltaLimitCollapsesIntoAFreshBase) {
  TempChain chain("snapdelta_limit");
  StateStore store(small_config(), 41);
  SnapshotChain writer({chain.path(), 2});
  const auto events = workload(600, 42);
  std::size_t at = 0;
  for (int checkpoint = 1; checkpoint <= 5; ++checkpoint) {
    for (; at < static_cast<std::size_t>(checkpoint) * 100; ++at) {
      store.apply(events[at]);
    }
    writer.snapshot(store);
    track_manifest_files(chain);
    EXPECT_LE(writer.deltas_since_base(), 2u);
  }
  // base, +d, +d, collapse to base, +d
  EXPECT_EQ(writer.chain_length(), 2u);
  const StateImage restored = SnapshotChain::restore_image(chain.path());
  EXPECT_EQ(serialized_image(restored), serialized(store));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The daemon refills one SnapshotCapture at every checkpoint, so a chain
// that alternates bases and deltas moves node storage between the
// capture's image and delta. Every element it writes must match the one
// a fresh capture of a twin store writes.
TEST(ServiceSnapshotDelta, ReusedCaptureWritesWhatFreshCapturesWrite) {
  TempChain reused_chain("snapdelta_reused");
  TempChain fresh_chain("snapdelta_fresh");
  StateStore reused(small_config(), 61);
  StateStore fresh(small_config(), 61);
  SnapshotChain reused_writer({reused_chain.path(), 2});
  SnapshotChain fresh_writer({fresh_chain.path(), 2});
  SnapshotCapture capture;
  std::size_t bases = 0, deltas = 0;
  const auto events = workload(900, 62, 0.05);
  for (std::size_t i = 0; i < events.size(); ++i) {
    reused.apply(events[i]);
    fresh.apply(events[i]);
    if (i % 100 != 99) continue;
    reused_writer.capture(reused, capture);
    const std::uint64_t seq = reused_writer.persist(capture);
    ASSERT_EQ(fresh_writer.snapshot(fresh), seq);
    const bool base = capture.kind == SnapshotCapture::Kind::image;
    (base ? bases : deltas) += 1;
    const char* kind = base ? "base" : "delta";
    EXPECT_EQ(file_bytes(reused_chain.file(kind, seq)),
              file_bytes(fresh_chain.file(kind, seq)))
        << kind << " at seq " << seq;
  }
  EXPECT_GE(bases, 3u);  // base, +d, +d, at least three times over
  EXPECT_GE(deltas, 2 * bases - 2);
  SnapshotChain::capture_base(reused, capture);
  reused_writer.persist(capture);
  fresh_writer.finalize(fresh);
  EXPECT_EQ(file_bytes(reused_chain.file("base", reused.seq())),
            file_bytes(fresh_chain.file("base", fresh.seq())));
  EXPECT_EQ(serialized_image(SnapshotChain::restore_image(reused_chain.path())),
            serialized(fresh));
}

TEST(ServiceSnapshotDelta, FinalizeCollapsesToASingleBase) {
  TempChain chain("snapdelta_final");
  StateStore store(small_config(), 51);
  SnapshotChain writer({chain.path(), 16});
  const auto events = workload(400, 52);
  for (std::size_t i = 0; i < events.size(); ++i) {
    store.apply(events[i]);
    if (i % 100 == 99) {
      writer.snapshot(store);
      track_manifest_files(chain);
    }
  }
  writer.finalize(store);
  track_manifest_files(chain);
  EXPECT_EQ(writer.chain_length(), 1u);
  EXPECT_EQ(writer.deltas_since_base(), 0u);
  const StateImage restored = SnapshotChain::restore_image(chain.path());
  EXPECT_EQ(serialized_image(restored), serialized(store));
}

TEST(ServiceSnapshotDelta, TornDeltaFileIsRejected) {
  TempChain chain("snapdelta_torn");
  StateStore store(small_config(), 61);
  SnapshotChain writer({chain.path(), 16});
  const auto events = workload(300, 62);
  for (std::size_t i = 0; i < events.size() / 2; ++i) store.apply(events[i]);
  writer.snapshot(store);  // base
  for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
    store.apply(events[i]);
  }
  const std::uint64_t delta_seq = writer.snapshot(store);
  track_manifest_files(chain);
  ASSERT_EQ(writer.deltas_since_base(), 1u);

  // Flip one byte inside the newest delta's body: the checksum must
  // catch it, and restore must throw rather than half-load.
  const std::string delta_path =
      chain.path() + ".delta." + std::to_string(delta_seq);
  std::string bytes;
  {
    std::ifstream in(delta_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(delta_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(SnapshotChain::restore_image(chain.path()), util::IoError);
}

TEST(ServiceSnapshotDelta, MissingDeltaFileIsRejected) {
  TempChain chain("snapdelta_missing");
  StateStore store(small_config(), 71);
  SnapshotChain writer({chain.path(), 16});
  const auto events = workload(300, 72);
  for (std::size_t i = 0; i < events.size() / 2; ++i) store.apply(events[i]);
  writer.snapshot(store);  // base
  for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
    store.apply(events[i]);
  }
  const std::uint64_t delta_seq = writer.snapshot(store);
  track_manifest_files(chain);
  const std::string delta_path =
      chain.path() + ".delta." + std::to_string(delta_seq);
  ASSERT_EQ(std::remove(delta_path.c_str()), 0);
  EXPECT_THROW(SnapshotChain::restore_image(chain.path()), util::IoError);
}

TEST(ServiceSnapshotDelta, SplicedChainElementIsRejected) {
  // Two chains with identical scenario but different streams. Graft
  // chain A's delta into chain B — file AND manifest entry, so the
  // per-file checksum verifies — and only the parent link (the parent
  // checksum sealed inside the delta body) is left to refuse the splice.
  TempChain chain_a("snapdelta_splice_a");
  TempChain chain_b("snapdelta_splice_b");
  std::string delta_paths[2];
  std::string manifest_lines[2];
  for (int variant = 0; variant < 2; ++variant) {
    TempChain& chain = variant == 0 ? chain_a : chain_b;
    StateStore store(small_config(), 81);
    SnapshotChain writer({chain.path(), 16});
    const auto events = workload(300, 82 + variant);
    for (std::size_t i = 0; i < events.size() / 2; ++i) {
      store.apply(events[i]);
    }
    writer.snapshot(store);  // base
    for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
      store.apply(events[i]);
    }
    const std::uint64_t delta_seq = writer.snapshot(store);
    track_manifest_files(chain);
    delta_paths[variant] =
        chain.path() + ".delta." + std::to_string(delta_seq);

    std::ifstream manifest(chain.path() + ".manifest");
    std::string line;
    while (std::getline(manifest, line)) {
      if (line.rfind("delta ", 0) == 0) manifest_lines[variant] = line;
    }
    ASSERT_FALSE(manifest_lines[variant].empty());
  }

  {  // graft A's delta file under B's delta filename...
    std::ifstream in(delta_paths[0], std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ofstream out(delta_paths[1], std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  {  // ...and carry A's checksum/seq into B's manifest, keeping B's
     // basename (fields: delta <file> <checksum> <seq>).
    std::istringstream a_fields(manifest_lines[0]);
    std::istringstream b_fields(manifest_lines[1]);
    std::string kind, a_file, b_file, a_checksum, a_seq;
    a_fields >> kind >> a_file >> a_checksum >> a_seq;
    b_fields >> kind >> b_file;
    std::ifstream manifest(chain_b.path() + ".manifest");
    std::ostringstream spliced;
    std::string line;
    while (std::getline(manifest, line)) {
      if (line == manifest_lines[1]) {
        spliced << "delta " << b_file << ' ' << a_checksum << ' ' << a_seq
                << '\n';
      } else {
        spliced << line << '\n';
      }
    }
    manifest.close();
    std::ofstream out(chain_b.path() + ".manifest",
                      std::ios::binary | std::ios::trunc);
    out << spliced.str();
  }
  EXPECT_THROW(SnapshotChain::restore_image(chain_b.path()), util::IoError);
}

TEST(ServiceSnapshotDelta, OrphanedDataFileWithoutManifestIsInvisible) {
  // A crash between the data write and the manifest write leaves an
  // orphan; chain_available must stay false and restore must fall back
  // to the classic single-file snapshot at `path`.
  TempChain chain("snapdelta_orphan");
  StateStore store(small_config(), 91);
  for (const Event& event : workload(150, 92)) store.apply(event);
  const std::uint64_t committed_seq = store.seq();
  save_image(chain.path(), store.image());

  // Orphaned base from a "newer" run that never committed.
  for (const Event& event : workload(50, 93)) store.apply(event);
  const std::string orphan = chain.path() + ".base." +
                             std::to_string(store.seq());
  chain.track(orphan);
  save_image(orphan, store.image());

  EXPECT_FALSE(SnapshotChain::chain_available(chain.path()));
  const StateImage restored = SnapshotChain::restore_image(chain.path());
  // The committed plain snapshot wins; the orphan stays invisible.
  EXPECT_EQ(restored.seq, committed_seq);
  EXPECT_LT(restored.seq, store.seq());
}

// The daemon restores exactly when restorable() says there is something
// to read: a manifest, or else a plain snapshot at the path.
TEST(ServiceSnapshotDelta, RestorableSeesManifestOrPlainFile) {
  StateStore store(small_config(), 95);
  for (const Event& event : workload(100, 96)) store.apply(event);

  TempChain plain("snapdelta_restorable_plain");
  EXPECT_FALSE(SnapshotChain::restorable(plain.path()));
  save_image(plain.path(), store.image());
  EXPECT_TRUE(SnapshotChain::restorable(plain.path()));

  TempChain chained("snapdelta_restorable_chain");
  chained.file("base", store.seq());  // the chain's first element
  SnapshotChain chain({chained.path(), /*delta_limit=*/4});
  chain.snapshot(store);
  EXPECT_TRUE(SnapshotChain::restorable(chained.path()));
  EXPECT_EQ(serialized_image(SnapshotChain::restore_image(chained.path())),
            serialized(store));
}

TEST(ServiceSnapshotDelta, ManifestTrailerAndMagicAreEnforced) {
  TempChain chain("snapdelta_manifest");
  StateStore store(small_config(), 101);
  for (const Event& event : workload(100, 102)) store.apply(event);
  SnapshotChain writer({chain.path(), 16});
  writer.snapshot(store);
  track_manifest_files(chain);

  const std::string manifest = chain.path() + ".manifest";
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  {  // torn manifest: drop the `end` trailer
    const std::size_t trailer = bytes.rfind("end");
    ASSERT_NE(trailer, std::string::npos);
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, trailer);
  }
  EXPECT_THROW(SnapshotChain::restore_image(chain.path()), util::IoError);
  {  // wrong magic
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << "impatience.other_format/1\nend\n";
  }
  EXPECT_THROW(SnapshotChain::restore_image(chain.path()), util::IoError);
}

}  // namespace
}  // namespace impatience::service
