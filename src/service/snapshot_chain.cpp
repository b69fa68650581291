#include "impatience/service/snapshot_chain.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "impatience/util/errors.hpp"

namespace impatience::service {

namespace {

std::string chain_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string chain_basename(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// A chain refills one SnapshotCapture with bases and deltas in turn. So
// that the two kinds keep one set of per-node vectors between them, a
// delta borrows its NodeImages from the back of the image buffer, and
// the next capture of either kind hands them back. Two whole buffers
// raised replicationd's peak memory by ~11% at 10^5 nodes, where a delta
// holds about half the nodes (docs/perf.md §7).
void return_delta_nodes(SnapshotCapture& out) {
  for (auto& entry : out.delta.nodes) {
    out.image.nodes.push_back(std::move(entry.second));
  }
  out.delta.nodes.clear();
}

void lend_image_nodes(SnapshotCapture& out, std::size_t count) {
  for (; count > 0 && !out.image.nodes.empty(); --count) {
    out.delta.nodes.emplace_back(NodeId{0}, std::move(out.image.nodes.back()));
    out.image.nodes.pop_back();
  }
}

}  // namespace

SnapshotChain::SnapshotChain(Options options)
    : options_(std::move(options)),
      dir_(chain_dir(options_.path)),
      basename_(chain_basename(options_.path)) {
  if (options_.path.empty()) {
    throw std::invalid_argument("SnapshotChain: path must not be empty");
  }
  if (options_.delta_limit == 0) {
    throw std::invalid_argument("SnapshotChain: delta_limit must be > 0");
  }
}

std::string SnapshotChain::full_path(const std::string& basename) const {
  return dir_ + basename;
}

void SnapshotChain::capture(StateStore& store, SnapshotCapture& out) const {
  return_delta_nodes(out);
  if (have_chain_ && store.seq() == last_seq_) {
    // Nothing countable happened since the last element. Skipping keeps
    // file names unique per chain: re-emitting `<...>.delta.<seq>` would
    // overwrite a file whose checksum the manifest already records.
    out.kind = SnapshotCapture::Kind::none;
    return;
  }
  if (!have_chain_ || deltas_since_base() >= options_.delta_limit) {
    capture_base(store, out);
    return;
  }
  // The dirty count only grows until take_delta resets it, so the
  // borrowed nodes are all filled and none is freed.
  lend_image_nodes(out, store.dirty_node_count());
  store.take_delta(out.delta);
  out.kind = SnapshotCapture::Kind::delta;
}

void SnapshotChain::capture_base(StateStore& store, SnapshotCapture& out) {
  return_delta_nodes(out);
  store.checkpoint_image(out.image);
  out.kind = SnapshotCapture::Kind::image;
}

std::uint64_t SnapshotChain::persist(SnapshotCapture& capture) {
  switch (capture.kind) {
    case SnapshotCapture::Kind::image:
      // finalize() forces a base even when the last element already
      // sits at this seq: the collapsed chain must be a single file. The
      // base file name can then collide with an existing
      // `<...>.base.<seq>`; the content is a deterministic function of
      // the state, so the atomic overwrite is byte-identical and the
      // recorded checksum stays valid.
      write_base(capture.image);
      break;
    case SnapshotCapture::Kind::delta: {
      StateDelta& delta = capture.delta;
      delta.parent_checksum = elements_.back().checksum;
      Element element;
      element.is_base = false;
      element.seq = delta.seq;
      element.file = basename_ + ".delta." + std::to_string(delta.seq);
      element.checksum = save_delta(full_path(element.file), delta);
      elements_.push_back(std::move(element));
      last_seq_ = delta.seq;
      commit_manifest();
      break;
    }
    case SnapshotCapture::Kind::none:
      break;
  }
  return last_seq_;
}

void SnapshotChain::write_base(const StateImage& image) {
  std::vector<std::string> old_files;
  for (const Element& e : elements_) old_files.push_back(e.file);

  Element element;
  element.is_base = true;
  element.seq = image.seq;
  element.file = basename_ + ".base." + std::to_string(image.seq);
  element.checksum = save_image(full_path(element.file), image);
  elements_.clear();
  elements_.push_back(std::move(element));
  last_seq_ = image.seq;
  have_chain_ = true;
  commit_manifest();
  // Only after the manifest points at the new base is the old chain
  // garbage; a crash before this line leaves both chains on disk and
  // the manifest decides.
  remove_stale(old_files);
}

void SnapshotChain::remove_stale(const std::vector<std::string>& old_files) {
  for (const std::string& file : old_files) {
    bool live = false;
    for (const Element& e : elements_) {
      if (e.file == file) {
        live = true;
        break;
      }
    }
    if (!live) std::remove(full_path(file).c_str());
  }
}

bool SnapshotChain::chain_available(const std::string& path) {
  std::ifstream in(path + ".manifest");
  return in.good();
}

bool SnapshotChain::restorable(const std::string& path) {
  return chain_available(path) || ::access(path.c_str(), F_OK) == 0;
}

StateImage SnapshotChain::restore_image(const std::string& path) {
  if (!chain_available(path)) {
    // Pre-chain snapshot layout: one full image at the plain path.
    return load_image(path);
  }
  const std::string dir = chain_dir(path);
  const std::vector<Element> entries = read_manifest(path + ".manifest");
  if (entries.empty() || !entries.front().is_base) {
    throw util::IoError("snapshot chain: manifest must start with a base");
  }

  std::uint64_t checksum = 0;
  StateImage image = load_image(dir + entries.front().file, &checksum);
  if (checksum != entries.front().checksum ||
      image.seq != entries.front().seq) {
    throw util::IoError("snapshot chain: base checksum or seq does not " +
                        std::string("match manifest: ") +
                        entries.front().file);
  }
  std::uint64_t parent = checksum;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Element& entry = entries[i];
    if (entry.is_base) {
      throw util::IoError("snapshot chain: manifest has a second base");
    }
    const StateDelta delta = load_delta(dir + entry.file, &checksum);
    if (checksum != entry.checksum || delta.seq != entry.seq) {
      throw util::IoError("snapshot chain: delta checksum or seq does not " +
                          std::string("match manifest: ") + entry.file);
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

}  // namespace impatience::service
