// Seeded byte-level fuzzing of replicationd's persistent-format readers
// (suite ServiceSnapshotFuzz): read_image, read_delta and the chain
// manifest behind SnapshotChain::restore_image. Each case mutates a real
// file — bit flips, digit->letter swaps, dropped, duplicated, swapped and
// truncated lines, extreme numbers in any field, huge and negative
// counts, node ids beyond the config, doubled separators and tabs — and
// reseals the body under a correct checksum, so the mutation reaches the
// field parser instead of stopping at the integrity check. A few cases
// damage the checksum line and trailer instead.
//
// The contract every case must keep: the reader throws util::IoError, or
// it yields an image that a StateStore for the file's own scenario either
// rejects (util::IoError, or std::invalid_argument when the image names a
// different scenario, exactly as for a mismatched --restore) or restores
// completely. Nothing crashes, hangs or half-loads: a restored store
// reproduces its own image when rebuilt from it, and a chain restores to
// exactly one committed prefix of the chain that was written. Whatever
// the reader accepts re-encodes to the same bytes, and the std::istream
// oracle (snapshot_istream_oracle.hpp) accepts it too, with the same
// image.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "impatience/engine/seeding.hpp"
#include "impatience/service/snapshot_chain.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/util/errors.hpp"
#include "snapshot_istream_oracle.hpp"

namespace impatience::service {
namespace {

constexpr std::uint64_t kStoreSeed = 21;

StoreConfig small_config() {
  StoreConfig config;
  config.num_nodes = 16;
  config.num_items = 12;
  config.cache_capacity = 3;
  return config;
}

std::vector<Event> workload(std::uint64_t events, std::uint64_t seed) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.crash_fraction = 0.01;
  config.quit = false;
  return generate_stream(config, seed);
}

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

/// A sealed image, the delta that extends it, and the base it extends,
/// from a small store that has served requests, so that every record
/// kind (mandates, pending requests, delays) is populated.
struct SealedFiles {
  StateImage base;
  std::string image;
  std::string delta;
};

SealedFiles sealed_files() {
  StateStore store(small_config(), kStoreSeed);
  for (const Event& event : workload(300, 22)) store.apply(event);
  SealedFiles files;
  files.base = store.checkpoint_image();
  for (const Event& event : workload(60, 23)) store.apply(event);
  files.image = encoded(store.image());
  files.delta = encoded(store.take_delta());
  return files;
}

/// `body` sealed the way the writers seal it.
std::string seal(const std::string& body) {
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                engine::fnv1a64(body));
  return body + "checksum " + checksum + "\nend\n";
}

/// The checksummed body of a sealed file.
std::string body_of(const std::string& text) {
  return text.substr(0, text.rfind("\nchecksum ") + 1);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// Positions where each space-separated token of `line` starts, after
/// the record key.
std::vector<std::size_t> field_starts(const std::string& line) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    if (line[i] == ' ') starts.push_back(i + 1);
  }
  return starts;
}

/// `line` with the token starting at `at` replaced by `value`.
std::string replace_token(const std::string& line, std::size_t at,
                          const std::string& value) {
  std::size_t end = line.find(' ', at);
  if (end == std::string::npos) end = line.size();
  return line.substr(0, at) + value + line.substr(end);
}

/// Numbers a field may be fuzzed to: the limits of every integer width
/// the formats use, one past them, signs, non-canonical spellings and
/// values that are not decimal numbers at all.
const std::vector<std::string>& extreme_numbers() {
  static const std::vector<std::string> values = {
      "0", "1", "-1", "-0", "+1", "007", "16", "17", "12", "15",
      "2147483647", "2147483648", "-2147483649", "4294967295", "4294967296",
      "4294967299", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "18446744073709551615", "18446744073709551616",
      "4000000000000000000", "1e308", "1e400", "-1e-400", "0x10", "1.5",
      "nan", "inf", "-inf", "", "1 2", "9\t9"};
  return values;
}

/// One seeded mutation of a sealed snapshot or delta file.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string mutate(const std::string& sealed) {
    if (below(10) == 0) return damage_trailer(sealed);
    std::vector<std::string> lines = split_lines(body_of(sealed));
    const std::size_t steps = 1 + below(3);
    for (std::size_t s = 0; s < steps && !lines.empty(); ++s) {
      mutate_lines(lines);
    }
    return seal(join_lines(lines));
  }

 private:
  void mutate_lines(std::vector<std::string>& lines) {
    std::string& line = lines[below(lines.size())];
    switch (below(12)) {
      case 0:  // bit flip
        if (!line.empty()) {
          line[below(line.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1: {  // digit -> letter
        std::vector<std::size_t> digits;
        for (std::size_t i = 0; i < line.size(); ++i) {
          if (line[i] >= '0' && line[i] <= '9') digits.push_back(i);
        }
        if (!digits.empty()) {
          line[digits[below(digits.size())]] =
              static_cast<char>('a' + below(26));
        }
        break;
      }
      case 2:  // drop a line
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(below(lines.size())));
        break;
      case 3: {  // duplicate a line
        const std::size_t at = below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
      }
      case 4:  // swap two lines
        std::swap(line, lines[below(lines.size())]);
        break;
      case 5:  // truncate a line
        line.resize(below(line.size() + 1));
        break;
      case 6:
      case 7: {  // any field to an extreme number
        const auto starts = field_starts(line);
        if (!starts.empty()) {
          line = replace_token(line, starts[below(starts.size())],
                               pick(extreme_numbers()));
        }
        break;
      }
      case 8: {  // a declared count to a huge or negative value
        std::vector<std::size_t> counted;
        for (std::size_t i = 0; i < lines.size(); ++i) {
          for (const char* key :
               {"nodes ", "cache ", "mandates ", "pending ", "delays "}) {
            if (lines[i].rfind(key, 0) == 0) counted.push_back(i);
          }
        }
        if (!counted.empty()) {
          std::string& target = lines[counted[below(counted.size())]];
          target = replace_token(
              target, target.find(' ') + 1,
              pick({"4000000000000000000", "18446744073709551615", "-1",
                    "-5", "+2", "99"}));
        }
        break;
      }
      case 9: {  // a node id beyond the config
        std::vector<std::size_t> nodes;
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (lines[i].rfind("node ", 0) == 0) nodes.push_back(i);
        }
        if (!nodes.empty()) {
          std::string& target = lines[nodes[below(nodes.size())]];
          target = replace_token(target, 5,
                                 pick({"16", "17", "4294967296", "4294967299",
                                       "18446744073709551615", "-0"}));
        }
        break;
      }
      case 10: {  // separators: a doubled space, a tab, a trailing token
        const auto starts = field_starts(line);
        const std::string insert = pick({" ", "\t", "\r", " 9"});
        if (insert == " 9" || starts.empty()) {
          line += insert;
        } else {
          line.insert(starts[below(starts.size())] - 1, insert);
        }
        break;
      }
      default: {  // insert or delete one byte
        if (below(2) == 0 || line.empty()) {
          line.insert(below(line.size() + 1), 1,
                      static_cast<char>(below(128)));
        } else {
          line.erase(below(line.size()), 1);
        }
        break;
      }
    }
  }

  /// Damage outside the checksummed body: the checksum line, the `end`
  /// trailer, or bytes after it.
  std::string damage_trailer(const std::string& sealed) {
    const std::size_t checksum_at = sealed.rfind("\nchecksum ") + 1;
    std::string text = sealed;
    switch (below(6)) {
      case 0:
        return text + pick({"x", "\n", "end\n", " "});
      case 1:
        return text.substr(0, text.size() - 1 - below(4));
      case 2:
        text[checksum_at + 9 + below(16)] =
            pick({"0", "f", "F", "g", " "})[0];
        return text;
      case 3:
        return text.insert(checksum_at + 9 + below(17), pick({"0", " ", "-"}));
      case 4:
        return text.substr(0, checksum_at + below(text.size() - checksum_at));
      default:
        return text.substr(0, checksum_at) + "end\n";
    }
  }

  std::string pick(const std::vector<std::string>& values) {
    return values[below(values.size())];
  }

  std::mt19937_64 rng_;
};

/// Where a fuzzed file ended up.
struct Tally {
  int rejected_by_reader = 0;
  int refused_by_store = 0;
  int other_scenario = 0;
  int restored = 0;
};

StateImage read_image_text(const std::string& text) {
  std::istringstream in(text);
  return read_image(in);
}

StateDelta read_delta_text(const std::string& text) {
  std::istringstream in(text);
  return read_delta(in);
}

StateImage oracle_read_image(const std::string& text) {
  std::istringstream in(text);
  return istream_oracle::read_image(in);
}

StateDelta oracle_read_delta(const std::string& text) {
  std::istringstream in(text);
  return istream_oracle::read_delta(in);
}

/// Builds a store for the small scenario from `image` and, unless the
/// store refuses it, checks that it loaded whole.
void restore_into_store(const StateImage& image, Tally& tally) {
  StateImage restored;
  try {
    StateStore store(small_config(), kStoreSeed, image);
    restored = store.image();
  } catch (const util::IoError&) {
    ++tally.refused_by_store;
    return;
  } catch (const std::invalid_argument&) {
    ++tally.other_scenario;
    return;
  }
  ++tally.restored;
  EXPECT_EQ(restored.seq, image.seq);
  EXPECT_EQ(restored.version, image.version);
  ASSERT_EQ(restored.nodes.size(), image.nodes.size());
  // No half-load: rebuilding from what was restored reproduces it.
  StateStore again(small_config(), kStoreSeed, restored);
  EXPECT_EQ(encoded(again.image()), encoded(restored));
}

/// The reader's verdict on `text`: a util::IoError, or the parsed image.
/// What it accepts is the canonical text the writers emit, so it
/// re-encodes to the same bytes, and the std::istream oracle reads it to
/// the same image: the accepted set only shrinks.
template <typename Parsed, typename Read, typename OracleRead>
bool read_or_reject(const std::string& text, Read read,
                    OracleRead oracle_read, Parsed& parsed, Tally& tally) {
  try {
    parsed = read(text);
  } catch (const util::IoError&) {
    ++tally.rejected_by_reader;
    return false;
  }
  EXPECT_EQ(encoded(parsed), text);
  try {
    EXPECT_EQ(encoded(oracle_read(text)), text);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "the oracle refuses what the reader accepts: "
                  << e.what();
  }
  return true;
}

/// Every case lands in exactly one outcome, and the mutations reach each
/// layer: the reader, the store's own checks and a full restore. (A delta
/// naming another scenario is refused by apply_delta before a store sees
/// it, so only images reach the store's scenario check.)
void expect_every_layer_reached(const Tally& tally, int cases) {
  EXPECT_EQ(tally.rejected_by_reader + tally.refused_by_store +
                tally.other_scenario + tally.restored,
            cases);
  EXPECT_GT(tally.rejected_by_reader, 0);
  EXPECT_GT(tally.refused_by_store, 0);
  EXPECT_GT(tally.restored, 0);
}

constexpr int kCases = 3000;

TEST(ServiceSnapshotFuzz, ImageReaderRejectsOrRestoresWhole) {
  const SealedFiles files = sealed_files();
  Tally tally;
  for (int seed = 1; seed <= kCases; ++seed) {
    Mutator mutator(static_cast<std::uint64_t>(seed));
    const std::string text = mutator.mutate(files.image);
    SCOPED_TRACE("seed " + std::to_string(seed));
    StateImage image;
    if (read_or_reject(text, read_image_text, oracle_read_image, image,
                       tally)) {
      restore_into_store(image, tally);
    }
  }
  expect_every_layer_reached(tally, kCases);
  EXPECT_GT(tally.other_scenario, 0);
}

TEST(ServiceSnapshotFuzz, DeltaReaderRejectsOrRestoresWhole) {
  const SealedFiles files = sealed_files();
  Tally tally;
  for (int seed = 1; seed <= kCases; ++seed) {
    Mutator mutator(1000000 + static_cast<std::uint64_t>(seed));
    const std::string text = mutator.mutate(files.delta);
    SCOPED_TRACE("seed " + std::to_string(seed));
    StateDelta delta;
    if (!read_or_reject(text, read_delta_text, oracle_read_delta, delta,
                        tally)) {
      continue;
    }
    StateImage image = files.base;
    try {
      apply_delta(image, delta);
    } catch (const util::IoError&) {
      ++tally.refused_by_store;
      continue;
    }
    restore_into_store(image, tally);
  }
  expect_every_layer_reached(tally, kCases);
}

// The reader fixes these suites keep closed: the checksum token is parsed
// in full, declared counts are bounded by the config or grown as tokens
// parse, node ids stay below the config, and a repeated mandate item is
// refused instead of merged.
TEST(ServiceSnapshotFuzz, EarlierReaderFixesStayClosed) {
  const SealedFiles files = sealed_files();
  const std::string image_body = body_of(files.image);
  const std::string delta_body = body_of(files.delta);
  auto with = [](const std::string& body, const std::string& key,
                 const std::string& line) {
    std::vector<std::string> lines = split_lines(body);
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
      if (it->rfind(key, 0) == 0) {
        *it = line;
        break;
      }
    }
    return seal(join_lines(lines));
  };
  // Bytes after the 16 checksum digits are part of the token.
  for (const char* tail : {"0", "g", " ", "-"}) {
    std::string text = files.image;
    text.insert(text.rfind("\nend\n"), tail);
    EXPECT_THROW(read_image_text(text), util::IoError) << tail;
  }
  for (const char* key : {"cache ", "mandates ", "pending ", "delays "}) {
    for (const char* count : {"4000000000000000000", "18446744073709551615",
                              "-1"}) {
      const std::string line = std::string(key) + count + " 1 1 1";
      EXPECT_THROW(read_image_text(with(image_body, key, line)),
                   util::IoError)
          << line;
      EXPECT_THROW(read_delta_text(with(delta_body, key, line)),
                   util::IoError)
          << line;
    }
  }
  for (const char* count : {"4000000000000000000", "17", "15", "-1"}) {
    const std::string line = std::string("nodes ") + count;
    EXPECT_THROW(read_image_text(with(image_body, "nodes ", line)),
                 util::IoError)
        << line;
  }
  for (const char* id : {"16", "4294967296", "4294967299"}) {
    const std::string line = std::string("node ") + id + " 0 -1";
    EXPECT_THROW(read_delta_text(with(delta_body, "node ", line)),
                 util::IoError)
        << line;
  }
  const StateImage repeated =
      read_image_text(with(image_body, "mandates ", "mandates 2 3 1 3 1"));
  EXPECT_THROW(StateStore(small_config(), kStoreSeed, repeated),
               util::IoError);
}

// Found by the suites: mandate counts that each parse, but whose sum
// overflows the long the store totals them in.
TEST(ServiceSnapshotFuzz, MandateCountsThatOverflowAreRefused) {
  StateImage image = sealed_files().base;
  image.nodes[0].mandates = {{3, std::numeric_limits<long>::max()}, {5, 1}};
  EXPECT_THROW(StateStore(small_config(), kStoreSeed, image), util::IoError);
  image.nodes[0].mandates = {{3, std::numeric_limits<long>::max()}};
  image.nodes[1].mandates = {{5, 1}};
  EXPECT_THROW(StateStore(small_config(), kStoreSeed, image), util::IoError);
  image.nodes[1].mandates.clear();
  EXPECT_NO_THROW(StateStore(small_config(), kStoreSeed, image));
}

/// Chain root inside the gtest temp dir; removes every file it names.
class TempChain {
 public:
  TempChain() {
    path_ = ::testing::TempDir() + "snapshot_fuzz_chain_" +
            std::to_string(::getpid());
  }
  ~TempChain() {
    for (const std::string& file : files_) std::remove(file.c_str());
    std::remove((path_ + ".manifest").c_str());
    std::remove((path_ + ".manifest.tmp").c_str());
  }
  const std::string& path() const { return path_; }
  void track(const std::string& file) { files_.push_back(file); }

 private:
  std::string path_;
  std::vector<std::string> files_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A committed chain of one base and three deltas, plus the image each of
/// its prefixes restores to.
struct ChainFixture {
  std::string manifest;
  std::vector<std::string> prefix_images;
};

ChainFixture write_chain(TempChain& temp) {
  StateStore store(small_config(), kStoreSeed);
  SnapshotChain chain({temp.path(), /*delta_limit=*/8});
  const std::vector<Event> events = workload(400, 31);
  for (std::size_t i = 0; i < events.size(); ++i) {
    store.apply(events[i]);
    if ((i + 1) % 100 == 0) chain.snapshot(store);
  }
  ChainFixture fixture;
  fixture.manifest = read_file(temp.path() + ".manifest");
  const std::vector<std::string> lines = split_lines(fixture.manifest);
  const std::string dir =
      temp.path().substr(0, temp.path().find_last_of('/') + 1);
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    // Entry lines read "<kind> <file> <checksum> <seq>".
    const std::size_t file = lines[i].find(' ') + 1;
    temp.track(dir + lines[i].substr(file, lines[i].find(' ', file) - file));
  }
  // Prefix k keeps the magic, the first k elements and the trailer.
  for (std::size_t k = 1; k + 1 < lines.size(); ++k) {
    std::vector<std::string> prefix(lines.begin(),
                                    lines.begin() + 1 +
                                        static_cast<std::ptrdiff_t>(k));
    prefix.push_back("end");
    write_file(temp.path() + ".manifest", join_lines(prefix));
    fixture.prefix_images.push_back(
        encoded(SnapshotChain::restore_image(temp.path())));
  }
  write_file(temp.path() + ".manifest", fixture.manifest);
  return fixture;
}

/// One seeded mutation of a manifest, which carries no checksum of its
/// own: its entries are checked against the files they name.
std::string mutate_manifest(const std::string& manifest, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  std::vector<std::string> lines = split_lines(manifest);
  const std::size_t steps = 1 + below(2);
  for (std::size_t s = 0; s < steps && !lines.empty(); ++s) {
    std::string& line = lines[below(lines.size())];
    switch (below(9)) {
      case 0:
        if (!line.empty()) {
          line[below(line.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1:
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(below(lines.size())));
        break;
      case 2: {
        const std::size_t at = below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
      }
      case 3:
        std::swap(line, lines[below(lines.size())]);
        break;
      case 4:
        line.resize(below(line.size() + 1));
        break;
      case 5: {
        const auto starts = field_starts(line);
        if (!starts.empty()) {
          line = replace_token(line, starts[below(starts.size())],
                               extreme_numbers()[below(
                                   extreme_numbers().size())]);
        }
        break;
      }
      case 6: {
        const auto starts = field_starts(line);
        if (!starts.empty()) {
          line.insert(starts[below(starts.size())] - 1,
                      below(2) == 0 ? " " : "\t");
        }
        break;
      }
      case 7:
        line += below(2) == 0 ? " 9" : " ";
        break;
      default:
        lines.push_back(below(2) == 0 ? "end" : "x");
        break;
    }
  }
  std::string text = join_lines(lines);
  if (below(8) == 0) text.pop_back();  // no final newline
  return text;
}

TEST(ServiceSnapshotFuzz, ManifestRestoresACommittedPrefixOrNothing) {
  TempChain temp;
  const ChainFixture fixture = write_chain(temp);
  ASSERT_GE(fixture.prefix_images.size(), 3u);
  int rejected = 0;
  int restored = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const std::string text = mutate_manifest(fixture.manifest, seed);
    write_file(temp.path() + ".manifest", text);
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string image;
    try {
      image = encoded(SnapshotChain::restore_image(temp.path()));
    } catch (const util::IoError&) {
      ++rejected;
      continue;
    }
    ++restored;
    EXPECT_NE(std::find(fixture.prefix_images.begin(),
                        fixture.prefix_images.end(), image),
              fixture.prefix_images.end())
        << text;
    try {
      EXPECT_EQ(encoded(istream_oracle::restore_image(temp.path())), image);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "the oracle refuses what the reader accepts: "
                    << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
}

}  // namespace
}  // namespace impatience::service
