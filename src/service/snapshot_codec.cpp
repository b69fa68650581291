// replicationd's on-disk grammar (docs/service.md "Snapshot format and
// crash safety"): the snapshot and delta encoders and parsers, their
// checksum seal, delta replay, and the chain manifest. This is the one
// translation unit that reads or writes those bytes.
//
// Images and deltas share every record but the delta's `parent` link:
//
//   magic, [parent], config, seed, state, counters, faults, nodes <count>,
//   <count> node blocks (node/cache/mandates/pending), delays,
//   checksum <16 hex digits>, end
//
// and differ only in which node ids they hold: an image exactly 0..n-1,
// a delta ascending ids below config.num_nodes.
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "impatience/engine/seeding.hpp"
#include "impatience/service/snapshot_chain.hpp"
#include "impatience/service/state_store.hpp"
#include "impatience/util/errors.hpp"
#include "text_in.hpp"
#include "text_out.hpp"

namespace impatience::service {

namespace {

constexpr std::string_view kImageMagic = "impatience.replicationd_snapshot/1";
constexpr std::string_view kDeltaMagic = "impatience.replicationd_delta/1";
constexpr std::string_view kManifestMagic =
    "impatience.replicationd_manifest/1";

using detail::Fields;
using detail::LineCursor;
using detail::TextOut;

template <typename Snapshot>
constexpr bool kIsDelta = std::is_same_v<Snapshot, StateDelta>;

/// Bytes to reserve for the writers' text, from typical record widths,
/// so a real snapshot is written with one allocation. A short guess only
/// costs the string a regrowth; reserved pages that stay untouched are
/// never made resident.
std::size_t reserve_bytes(const StoreState& state) {
  return 512 + state.config.utility_spec.size() +
         25 * state.recent_delays.size();
}
std::size_t reserve_bytes(const StateImage::NodeImage& ni) {
  return 64 + 8 * ni.cache.size() + 16 * ni.mandates.size() +
         32 * ni.pending.size();
}

/// The records between the magic (or the delta's parent link) and the
/// node count, which images and deltas share.
void write_state_records(TextOut& body, const StoreState& s) {
  const StoreConfig& c = s.config;
  body << "config " << c.num_nodes << ' ' << c.num_items << ' '
       << c.cache_capacity << ' ' << (c.sticky_replicas ? 1 : 0) << ' '
       << c.mu << ' ' << c.reaction_scale << ' '
       << (c.mandate_routing ? 1 : 0) << ' ' << c.utility_spec << '\n';
  body << "seed " << s.seed << '\n';
  body << "state " << s.version << ' ' << s.seq << ' ' << s.clock << '\n';
  const StoreCounters& k = s.counters;
  body << "counters " << k.events_applied << ' ' << k.events_malformed << ' '
       << k.contacts << ' ' << k.requests_created << ' '
       << k.immediate_fulfillments << ' ' << k.fulfillments << ' '
       << k.requests_pending << ' ' << k.mandates_created << ' '
       << k.replicas_written << ' ' << k.mandates_outstanding << ' '
       << k.total_gain << ' ' << k.delay_sum << '\n';
  const fault::FaultCounters& f = s.faults;
  body << "faults " << f.crashes << ' ' << f.replicas_lost << ' '
       << f.mandates_lost << ' ' << f.requests_lost << '\n';
}

void write_node_records(TextOut& body, std::uint64_t id,
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

/// Appends "checksum <hex>\nend\n" and returns the body checksum.
std::uint64_t seal_body(TextOut& out) {
  const std::uint64_t sum = engine::fnv1a64(out.str());
  out << "checksum ";
  out.hex16(sum) << '\n' << "end\n";
  return sum;
}

/// The whole image or delta file as text; returns the body checksum.
template <typename Snapshot>
std::uint64_t encode(const Snapshot& snapshot, std::string& text) {
  std::size_t bytes = reserve_bytes(snapshot);
  for (const auto& entry : snapshot.nodes) {
    if constexpr (kIsDelta<Snapshot>) {
      bytes += reserve_bytes(entry.second);
    } else {
      bytes += reserve_bytes(entry);
    }
  }
  TextOut body(bytes);
  if constexpr (kIsDelta<Snapshot>) {
    body << kDeltaMagic << '\n';
    body << "parent " << snapshot.parent_checksum << '\n';
  } else {
    body << kImageMagic << '\n';
  }
  write_state_records(body, snapshot);
  body << "nodes " << snapshot.nodes.size() << '\n';
  for (std::size_t k = 0; k < snapshot.nodes.size(); ++k) {
    if constexpr (kIsDelta<Snapshot>) {
      write_node_records(body, snapshot.nodes[k].first,
                         snapshot.nodes[k].second);
    } else {
      write_node_records(body, k, snapshot.nodes[k]);
    }
  }
  body << "delays " << snapshot.recent_delays.size();
  for (double v : snapshot.recent_delays) body << ' ' << v;
  body << '\n';
  const std::uint64_t sum = seal_body(body);
  text = std::move(body.str());
  return sum;
}

/// Pass 1 of every reader: verify the checksum and trailer of the whole
/// file and return a view of the body they seal, so a torn or bit-flipped
/// file is rejected before a field is parsed. The file must end in
/// exactly "checksum <16 lowercase hex digits>\nend\n".
std::string_view checked_body(std::string_view text, std::uint64_t* checksum) {
  constexpr std::string_view kChecksum = "checksum ";
  constexpr std::string_view kEnd = "\nend\n";
  constexpr std::size_t kDigits = 16;
  const std::size_t at = text.rfind("\nchecksum ");
  if (at == std::string_view::npos) {
    throw util::IoError("snapshot: missing checksum line (torn file?)");
  }
  const std::string_view body = text.substr(0, at + 1);
  const std::string_view digits = text.substr(body.size() + kChecksum.size());
  std::uint64_t stored = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), stored, 16);
  if (ec != std::errc() || end != digits.data() + kDigits ||
      digits.substr(0, kDigits).find_first_not_of("0123456789abcdef") !=
          std::string_view::npos) {
    throw util::IoError("snapshot: malformed checksum line");
  }
  if (engine::fnv1a64(body) != stored) {
    throw util::IoError("snapshot: checksum mismatch (corrupt file)");
  }
  if (digits.substr(kDigits) != kEnd) {
    throw util::IoError("snapshot: missing end trailer, or bytes after it");
  }
  if (checksum) *checksum = stored;
  return body;
}

/// The inverse of write_state_records.
void read_state_records(LineCursor& lines, StoreState& s) {
  {
    StoreConfig& config = s.config;
    Fields r(lines.next_line(), "config");
    config.num_nodes = r.get<NodeId>("num_nodes");
    config.num_items = r.get<ItemId>("num_items");
    config.cache_capacity = r.get<int>("cache_capacity");
    config.sticky_replicas = r.flag("sticky_replicas");
    config.mu = r.get<double>("mu");
    config.reaction_scale = r.get<double>("reaction_scale");
    config.mandate_routing = r.flag("mandate_routing");
    config.utility_spec = r.rest("utility_spec");
    try {
      config.validate();
    } catch (const std::invalid_argument& e) {
      throw util::IoError(std::string("snapshot: ") + e.what());
    }
  }
  {
    Fields r(lines.next_line(), "seed");
    s.seed = r.get<std::uint64_t>("seed");
    r.finish();
  }
  {
    Fields r(lines.next_line(), "state");
    s.version = r.get<std::uint64_t>("version");
    s.seq = r.get<std::uint64_t>("seq");
    s.clock = r.get<Slot>("clock");
    r.finish();
  }
  {
    StoreCounters& k = s.counters;
    Fields r(lines.next_line(), "counters");
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
    r.finish();
  }
  fault::FaultCounters& f = s.faults;
  Fields r(lines.next_line(), "faults");
  f.crashes = r.get<std::uint64_t>("crashes");
  f.replicas_lost = r.get<std::uint64_t>("replicas_lost");
  f.mandates_lost = r.get<long>("mandates_lost");
  f.requests_lost = r.get<std::uint64_t>("requests_lost");
  r.finish();
}

/// Reads one node/cache/mandates/pending block; returns the node id.
std::uint64_t read_node_records(LineCursor& lines,
                                StateImage::NodeImage& ni) {
  std::uint64_t id = 0;
  {
    Fields r(lines.next_line(), "node");
    id = r.get<std::uint64_t>("node id");
    ni.server_meetings = r.get<long>("server_meetings");
    ni.sticky = r.get<std::int64_t>("sticky");
    r.finish();
  }
  // Declared counts are untrusted: each vector reserves at most what
  // its line can hold and grows as its entries parse, so a hostile count
  // fails at the first missing field instead of allocating up front.
  {
    Fields r(lines.next_line(), "cache");
    const auto count = r.get<std::size_t>("cache size");
    ni.cache.reserve(r.capacity_for(count, 1));
    for (std::size_t k = 0; k < count; ++k) {
      ni.cache.push_back(r.get<ItemId>("cache item"));
    }
    r.finish();
  }
  {
    Fields r(lines.next_line(), "mandates");
    const auto count = r.get<std::size_t>("mandate entries");
    ni.mandates.reserve(r.capacity_for(count, 2));
    for (std::size_t k = 0; k < count; ++k) {
      const auto item = r.get<ItemId>("mandate item");
      ni.mandates.emplace_back(item, r.get<long>("mandate count"));
    }
    r.finish();
  }
  {
    Fields r(lines.next_line(), "pending");
    const auto count = r.get<std::size_t>("pending entries");
    ni.pending.reserve(r.capacity_for(count, 3));
    for (std::size_t k = 0; k < count; ++k) {
      core::PendingRequest req;
      req.item = r.get<ItemId>("pending item");
      req.created = r.get<Slot>("pending created");
      req.queries_at_creation = r.get<long>("pending queries");
      ni.pending.push_back(req);
    }
    r.finish();
  }
  return id;
}

/// The inverse of encode.
template <typename Snapshot>
Snapshot parse(std::string_view text, std::uint64_t* checksum) {
  constexpr bool delta = kIsDelta<Snapshot>;
  LineCursor lines(checked_body(text, checksum));
  if (lines.next_line() != (delta ? kDeltaMagic : kImageMagic)) {
    throw util::IoError(
        std::string("snapshot: bad magic (not a replicationd ") +
        (delta ? "delta" : "snapshot") + ")");
  }
  Snapshot snapshot;
  if constexpr (delta) {
    Fields r(lines.next_line(), "parent");
    snapshot.parent_checksum = r.get<std::uint64_t>("parent checksum");
    r.finish();
  }
  read_state_records(lines, snapshot);
  // The config bounds the node count: an image holds exactly
  // config.num_nodes nodes, a delta at most that many.
  const NodeId num_nodes = snapshot.config.num_nodes;
  std::size_t count = 0;
  {
    Fields r(lines.next_line(), "nodes");
    count = r.get<std::size_t>("nodes");
    r.finish();
  }
  if (delta ? count > num_nodes : count != num_nodes) {
    throw util::IoError("snapshot: node count " + std::to_string(count) +
                        (delta ? " > " : " != ") + "config num_nodes " +
                        std::to_string(num_nodes));
  }
  for (std::size_t k = 0; k < count; ++k) {
    if constexpr (delta) {
      auto& [id, ni] = snapshot.nodes.emplace_back();
      const std::uint64_t got = read_node_records(lines, ni);
      if (got >= num_nodes) {
        throw util::IoError("snapshot: delta node id out of range");
      }
      if (k > 0 && got <= snapshot.nodes[k - 1].first) {
        throw util::IoError("snapshot: delta node records not ascending");
      }
      id = static_cast<NodeId>(got);
    } else if (read_node_records(lines, snapshot.nodes.emplace_back()) != k) {
      throw util::IoError("snapshot: node records out of order");
    }
  }
  // The "delays" record closes the body: nothing may follow it.
  Fields r(lines.next_line(), "delays");
  const auto delays = r.get<std::size_t>("delay count");
  snapshot.recent_delays.reserve(r.capacity_for(delays, 1));
  for (std::size_t k = 0; k < delays; ++k) {
    snapshot.recent_delays.push_back(r.get<double>("delay"));
  }
  r.finish();
  if (!lines.done()) {
    throw util::IoError("snapshot: unexpected record after 'delays'");
  }
  return snapshot;
}

template <typename Snapshot>
std::uint64_t write_stream(std::ostream& out, const Snapshot& snapshot) {
  std::string text;
  const std::uint64_t checksum = encode(snapshot, text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return checksum;
}

template <typename Snapshot>
std::uint64_t save_file(const std::string& path, const Snapshot& snapshot) {
  std::string text;
  const std::uint64_t checksum = encode(snapshot, text);
  detail::write_text_file(path, text);
  return checksum;
}

}  // namespace

std::uint64_t write_image(std::ostream& out, const StateImage& image) {
  return write_stream(out, image);
}

StateImage read_image(std::istream& in, std::uint64_t* checksum) {
  return parse<StateImage>(detail::read_text_stream(in), checksum);
}

std::uint64_t save_image(const std::string& path, const StateImage& image) {
  return save_file(path, image);
}

StateImage load_image(const std::string& path, std::uint64_t* checksum) {
  return parse<StateImage>(detail::read_text_file(path), checksum);
}

std::uint64_t write_delta(std::ostream& out, const StateDelta& delta) {
  return write_stream(out, delta);
}

StateDelta read_delta(std::istream& in, std::uint64_t* checksum) {
  return parse<StateDelta>(detail::read_text_stream(in), checksum);
}

std::uint64_t save_delta(const std::string& path, const StateDelta& delta) {
  return save_file(path, delta);
}

StateDelta load_delta(const std::string& path, std::uint64_t* checksum) {
  return parse<StateDelta>(detail::read_text_file(path), checksum);
}

void apply_delta(StateImage& image, const StateDelta& delta) {
  if (image.config != delta.config) {
    throw util::IoError("snapshot: delta config does not match base");
  }
  if (image.seed != delta.seed) {
    throw util::IoError("snapshot: delta seed does not match base");
  }
  if (delta.seq < image.seq) {
    throw util::IoError("snapshot: delta seq regresses past base");
  }
  for (const auto& [id, ni] : delta.nodes) {
    if (id >= image.nodes.size()) {
      throw util::IoError("snapshot: delta node id out of range");
    }
  }
  static_cast<StoreState&>(image) = delta;
  for (const auto& [id, ni] : delta.nodes) {
    image.nodes[id] = ni;
  }
}

// The manifest: the magic line, one "base|delta <file> <checksum> <seq>"
// line per element, and an `end` line that ends the file. It has no
// checksum of its own; restore_image checks each entry against the file
// it names.

void SnapshotChain::commit_manifest() {
  TextOut out(64 + 96 * elements_.size());
  out << kManifestMagic << '\n';
  for (const Element& e : elements_) {
    out << (e.is_base ? "base " : "delta ") << e.file << ' ' << e.checksum
        << ' ' << e.seq << '\n';
  }
  out << "end\n";
  detail::write_text_file(options_.path + ".manifest", out.str());
}

std::vector<SnapshotChain::Element> SnapshotChain::read_manifest(
    const std::string& manifest_path) {
  const std::string text = detail::read_text_file(manifest_path);
  LineCursor lines(text);
  if (lines.done() || lines.next_line() != kManifestMagic) {
    throw util::IoError("snapshot chain: bad manifest magic: " +
                        manifest_path);
  }
  std::vector<Element> elements;
  for (;;) {
    if (lines.done()) {
      throw util::IoError(
          "snapshot chain: manifest missing end trailer (torn?)");
    }
    const std::string_view line = lines.next_line();
    if (line == "end") break;
    Element& element = elements.emplace_back();
    element.is_base = line.substr(0, 5) == "base ";
    Fields fields(line, element.is_base ? "base" : "delta");
    element.file = fields.word("manifest file");
    element.checksum = fields.get<std::uint64_t>("manifest checksum");
    element.seq = fields.get<std::uint64_t>("manifest seq");
    fields.finish();
  }
  if (!lines.done()) {
    throw util::IoError("snapshot chain: bytes after the manifest trailer");
  }
  return elements;
}

}  // namespace impatience::service
