// The std::istream snapshot, delta and manifest readers, verbatim from
// before the std::from_chars reader (src/service/text_in.hpp) replaced
// them. Kept only as the test oracle: the library reader must accept a
// subset of what these accept, and read it to the same image.
#pragma once

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "impatience/engine/seeding.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/util/errors.hpp"

namespace impatience::service::istream_oracle {

constexpr std::string_view kMagic = "impatience.replicationd_snapshot/1";

class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next line; throws on EOF (snapshots end with an explicit trailer).
  std::string next() {
    std::string line;
    if (!std::getline(in_, line)) {
      throw util::IoError("snapshot: truncated (unexpected end of file)");
    }
    return line;
  }

 private:
  std::istream& in_;
};

/// Tokenizing reader for one expected record line: "key v1 v2 ...".
class Record {
 public:
  Record(std::string line, std::string_view key)
      : line_size_(line.size()), stream_(std::move(line)) {
    std::string got;
    if (!(stream_ >> got) || got != key) {
      throw util::IoError("snapshot: expected '" + std::string(key) +
                          "' record, got '" + got + "'");
    }
  }

  template <typename T>
  T get(const char* what) {
    T value{};
    if (!(stream_ >> value)) {
      throw util::IoError(std::string("snapshot: bad or missing field: ") +
                          what);
    }
    return value;
  }

  /// Capacity safe to reserve for a declared, untrusted `count` of
  /// entries of `tokens` tokens each: no more than the line can hold,
  /// since every token takes at least a separator and one character.
  std::size_t capacity_for(std::size_t count, std::size_t tokens) const {
    return std::min(count, line_size_ / (2 * tokens));
  }

  /// Remainder of the line, stripped of one leading space.
  std::string rest() {
    std::string tail;
    std::getline(stream_, tail);
    if (!tail.empty() && tail.front() == ' ') tail.erase(0, 1);
    return tail;
  }

 private:
  std::size_t line_size_;
  std::istringstream stream_;
};

constexpr std::string_view kDeltaMagic = "impatience.replicationd_delta/1";

/// Pass 1 of every reader: collect the body, verify checksum + trailer.
/// Any torn or bit-flipped file is rejected before a field is parsed.
inline std::string read_checked_body(std::istream& in,
                                     std::uint64_t* checksum) {
  std::string body;
  std::string line;
  bool have_checksum = false;
  std::uint64_t stored_checksum = 0;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      const char* first = line.data() + 9;
      const char* last = line.data() + line.size();
      const auto [end, ec] = std::from_chars(first, last, stored_checksum, 16);
      if (ec != std::errc() || end != last) {
        throw util::IoError("snapshot: malformed checksum line");
      }
      have_checksum = true;
      break;
    }
    body += line;
    body += '\n';
  }
  if (!have_checksum) {
    throw util::IoError("snapshot: missing checksum line (torn file?)");
  }
  if (engine::fnv1a64(body) != stored_checksum) {
    throw util::IoError("snapshot: checksum mismatch (corrupt file)");
  }
  if (!std::getline(in, line) || line != "end") {
    throw util::IoError("snapshot: missing end trailer");
  }
  if (checksum) *checksum = stored_checksum;
  return body;
}

inline void read_config_record(LineReader& lines, StoreConfig& config) {
  Record r(lines.next(), "config");
  config.num_nodes = r.get<NodeId>("num_nodes");
  config.num_items = r.get<ItemId>("num_items");
  config.cache_capacity = r.get<int>("cache_capacity");
  config.sticky_replicas = r.get<int>("sticky_replicas") != 0;
  config.mu = r.get<double>("mu");
  config.reaction_scale = r.get<double>("reaction_scale");
  config.mandate_routing = r.get<int>("mandate_routing") != 0;
  config.utility_spec = r.rest();
  config.validate();
}

inline void read_counters_record(LineReader& lines, StoreCounters& k) {
  Record r(lines.next(), "counters");
  k.events_applied = r.get<std::uint64_t>("events_applied");
  k.events_malformed = r.get<std::uint64_t>("events_malformed");
  k.contacts = r.get<std::uint64_t>("contacts");
  k.requests_created = r.get<std::uint64_t>("requests_created");
  k.immediate_fulfillments = r.get<std::uint64_t>("immediate_fulfillments");
  k.fulfillments = r.get<std::uint64_t>("fulfillments");
  k.requests_pending = r.get<std::uint64_t>("requests_pending");
  k.mandates_created = r.get<long>("mandates_created");
  k.replicas_written = r.get<long>("replicas_written");
  k.mandates_outstanding = r.get<long>("mandates_outstanding");
  k.total_gain = r.get<double>("total_gain");
  k.delay_sum = r.get<double>("delay_sum");
}

inline void read_faults_record(LineReader& lines, fault::FaultCounters& f) {
  Record r(lines.next(), "faults");
  f.crashes = r.get<std::uint64_t>("crashes");
  f.replicas_lost = r.get<std::uint64_t>("replicas_lost");
  f.mandates_lost = r.get<long>("mandates_lost");
  f.requests_lost = r.get<std::uint64_t>("requests_lost");
}

/// Reads one node/cache/mandates/pending block; returns the node id.
inline std::uint64_t read_node_records(LineReader& lines,
                                       StateImage::NodeImage& ni) {
  std::uint64_t id = 0;
  {
    Record r(lines.next(), "node");
    id = r.get<std::uint64_t>("node id");
    ni.server_meetings = r.get<long>("server_meetings");
    ni.sticky = r.get<std::int64_t>("sticky");
  }
  // Declared counts are untrusted: each vector reserves at most what
  // its line can hold and grows as its entries parse, so a hostile count
  // fails at the first missing token instead of allocating up front.
  {
    Record r(lines.next(), "cache");
    const auto count = r.get<std::size_t>("cache size");
    ni.cache.reserve(r.capacity_for(count, 1));
    for (std::size_t k = 0; k < count; ++k) {
      ni.cache.push_back(r.get<ItemId>("cache item"));
    }
  }
  {
    Record r(lines.next(), "mandates");
    const auto count = r.get<std::size_t>("mandate entries");
    ni.mandates.reserve(r.capacity_for(count, 2));
    for (std::size_t k = 0; k < count; ++k) {
      const auto item = r.get<ItemId>("mandate item");
      ni.mandates.emplace_back(item, r.get<long>("mandate count"));
    }
  }
  {
    Record r(lines.next(), "pending");
    const auto count = r.get<std::size_t>("pending entries");
    ni.pending.reserve(r.capacity_for(count, 3));
    for (std::size_t k = 0; k < count; ++k) {
      core::PendingRequest req;
      req.item = r.get<ItemId>("pending item");
      req.created = r.get<Slot>("pending created");
      req.queries_at_creation = r.get<long>("pending queries");
      ni.pending.push_back(req);
    }
  }
  return id;
}

inline void read_delays_record(LineReader& lines,
                               std::vector<double>& delays) {
  Record r(lines.next(), "delays");
  const auto count = r.get<std::size_t>("delay count");
  delays.reserve(r.capacity_for(count, 1));
  for (std::size_t k = 0; k < count; ++k) {
    delays.push_back(r.get<double>("delay"));
  }
}

/// The "nodes" record's count, which the config record bounds: an image
/// holds exactly config.num_nodes nodes, a delta at most that many. The
/// node vectors still grow one parsed block at a time.
inline std::size_t read_nodes_count(LineReader& lines,
                                    const StoreConfig& config, bool exact) {
  Record r(lines.next(), "nodes");
  const auto count = r.get<std::size_t>("nodes");
  if (exact ? count != config.num_nodes : count > config.num_nodes) {
    throw util::IoError("snapshot: node count " + std::to_string(count) +
                        (exact ? " != " : " > ") + "config num_nodes " +
                        std::to_string(config.num_nodes));
  }
  return count;
}

inline StateImage read_image(std::istream& in,
                             std::uint64_t* checksum = nullptr) {
  std::istringstream text(read_checked_body(in, checksum));
  LineReader lines(text);
  if (lines.next() != kMagic) {
    throw util::IoError("snapshot: bad magic (not a replicationd snapshot)");
  }

  StateImage image;
  read_config_record(lines, image.config);
  {
    Record r(lines.next(), "seed");
    image.seed = r.get<std::uint64_t>("seed");
  }
  {
    Record r(lines.next(), "state");
    image.version = r.get<std::uint64_t>("version");
    image.seq = r.get<std::uint64_t>("seq");
    image.clock = r.get<Slot>("clock");
  }
  read_counters_record(lines, image.counters);
  read_faults_record(lines, image.faults);
  const std::size_t num_nodes =
      read_nodes_count(lines, image.config, /*exact=*/true);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (read_node_records(lines, image.nodes.emplace_back()) != n) {
      throw util::IoError("snapshot: node records out of order");
    }
  }
  read_delays_record(lines, image.recent_delays);
  return image;
}

inline StateImage load_image(const std::string& path,
                             std::uint64_t* checksum = nullptr) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("snapshot: cannot open " + path);
  }
  return read_image(in, checksum);
}

inline StateDelta read_delta(std::istream& in,
                             std::uint64_t* checksum = nullptr) {
  std::istringstream text(read_checked_body(in, checksum));
  LineReader lines(text);
  if (lines.next() != kDeltaMagic) {
    throw util::IoError("snapshot: bad magic (not a replicationd delta)");
  }

  StateDelta delta;
  {
    Record r(lines.next(), "parent");
    delta.parent_checksum = r.get<std::uint64_t>("parent checksum");
  }
  read_config_record(lines, delta.config);
  {
    Record r(lines.next(), "seed");
    delta.seed = r.get<std::uint64_t>("seed");
  }
  {
    Record r(lines.next(), "state");
    delta.version = r.get<std::uint64_t>("version");
    delta.seq = r.get<std::uint64_t>("seq");
    delta.clock = r.get<Slot>("clock");
  }
  read_counters_record(lines, delta.counters);
  read_faults_record(lines, delta.faults);
  const std::size_t num_nodes =
      read_nodes_count(lines, delta.config, /*exact=*/false);
  std::uint64_t prev_id = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& [id, ni] = delta.nodes.emplace_back();
    const std::uint64_t got = read_node_records(lines, ni);
    if (got >= delta.config.num_nodes) {
      throw util::IoError("snapshot: delta node id out of range");
    }
    if (n > 0 && got <= prev_id) {
      throw util::IoError("snapshot: delta node records not ascending");
    }
    id = static_cast<NodeId>(got);
    prev_id = got;
  }
  read_delays_record(lines, delta.recent_delays);
  return delta;
}

inline StateDelta load_delta(const std::string& path,
                             std::uint64_t* checksum = nullptr) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("snapshot: cannot open " + path);
  }
  return read_delta(in, checksum);
}

constexpr std::string_view kManifestMagic =
    "impatience.replicationd_manifest/1";

/// SnapshotChain::restore_image with the std::istream manifest loop.
inline StateImage restore_image(const std::string& path) {
  std::ifstream manifest(path + ".manifest");
  if (!manifest) {
    // Pre-chain snapshot layout: one full image at the plain path.
    return load_image(path);
  }
  const std::string dir = path.substr(0, path.find_last_of('/') + 1);

  std::string line;
  if (!std::getline(manifest, line) || line != kManifestMagic) {
    throw util::IoError("snapshot chain: bad manifest magic: " + path +
                        ".manifest");
  }
  struct Entry {
    bool is_base;
    std::string file;
    std::uint64_t checksum;
    std::uint64_t seq;
  };
  std::vector<Entry> entries;
  bool sealed = false;
  while (std::getline(manifest, line)) {
    if (line == "end") {
      sealed = true;
      break;
    }
    std::istringstream fields(line);
    std::string kind;
    Entry entry;
    if (!(fields >> kind >> entry.file >> entry.checksum >> entry.seq) ||
        (kind != "base" && kind != "delta")) {
      throw util::IoError("snapshot chain: malformed manifest line: " + line);
    }
    entry.is_base = kind == "base";
    entries.push_back(std::move(entry));
  }
  if (!sealed) {
    throw util::IoError("snapshot chain: manifest missing end trailer (torn?)");
  }
  if (entries.empty() || !entries.front().is_base) {
    throw util::IoError("snapshot chain: manifest must start with a base");
  }

  std::uint64_t checksum = 0;
  StateImage image = load_image(dir + entries.front().file, &checksum);
  if (checksum != entries.front().checksum) {
    throw util::IoError("snapshot chain: base checksum does not match " +
                        std::string("manifest: ") + entries.front().file);
  }
  std::uint64_t parent = checksum;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    if (entry.is_base) {
      throw util::IoError("snapshot chain: manifest has a second base");
    }
    const StateDelta delta = load_delta(dir + entry.file, &checksum);
    if (checksum != entry.checksum) {
      throw util::IoError("snapshot chain: delta checksum does not match " +
                          std::string("manifest: ") + entry.file);
    }
    if (delta.parent_checksum != parent) {
      throw util::IoError("snapshot chain: broken parent link at " +
                          entry.file + " (spliced chain?)");
    }
    apply_delta(image, delta);
    parent = checksum;
  }
  return image;
}

}  // namespace impatience::service::istream_oracle
