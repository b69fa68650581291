// Incremental snapshot chains for replicationd (docs/service.md "Delta
// snapshots"): a full base image plus a bounded run of delta files, with
// a manifest as the single atomic commit point.
//
// On-disk layout for a chain rooted at `<path>`:
//
//   <path>.manifest          the commit point (atomic_write_file)
//   <path>.base.<seq>        full image at seq (snapshot format)
//   <path>.delta.<seq>       dirty-node delta at seq (delta format)
//
// Write protocol: the data file (base or delta) is written first — also
// atomically — and only then is the manifest rewritten to reference it.
// A SIGKILL between the two leaves an orphaned data file and a manifest
// that still describes the previous, complete chain; a SIGKILL inside
// either atomic write leaves the previous file intact. Restore therefore
// always recovers exactly the chain the newest manifest commits to — the
// last complete prefix of the run.
//
// Link discipline: every delta records the body checksum of its parent
// (base or previous delta) inside its own checksummed body, and the
// manifest records every element's checksum. Restore verifies both, so
// a spliced, torn, or missing chain element is rejected loudly — never
// half-loaded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "impatience/service/state_store.hpp"

namespace impatience::service {

/// One snapshot boundary taken under the store lock and not yet on disk:
/// a full image (a plain snapshot or a chain base) or a dirty-node delta,
/// or neither when a chain checkpoint finds the store unchanged. Plain
/// data, so it can be serialized and written on another thread.
///
/// A capture is a reusable buffer: each capture overwrites the member its
/// kind names, so its per-node storage outlives the boundary and the next
/// capture refills it in place instead of allocating and freeing a whole
/// image. A chain's captures move NodeImages between the two members
/// (snapshot_chain.cpp), so the member a capture does not name holds no
/// meaningful state.
struct SnapshotCapture {
  enum class Kind { none, image, delta };

  Kind kind = Kind::none;
  StateImage image;  ///< the capture when kind == Kind::image
  StateDelta delta;  ///< the capture when kind == Kind::delta

  bool empty() const noexcept { return kind == Kind::none; }
  /// Store version the capture carries; 0 when empty.
  std::uint64_t version() const noexcept {
    return kind == Kind::image   ? image.version
           : kind == Kind::delta ? delta.version
                                 : 0;
  }
};

/// Writer side of a snapshot chain. One instance per daemon; not
/// thread-safe. Each checkpoint is a capture (under the store lock) and a
/// persist (file + manifest), which may run on different threads as long
/// as a capture is persisted before the next capture is taken: the
/// base/delta decision and the parent link read the committed chain.
class SnapshotChain {
 public:
  struct Options {
    /// Chain root: files are `<path>.manifest`, `<path>.base.<seq>`,
    /// `<path>.delta.<seq>` next to the classic full-snapshot path.
    std::string path;
    /// Deltas allowed between full bases; the next checkpoint past the
    /// limit collapses the chain into a fresh base.
    std::size_t delta_limit = 16;
  };

  explicit SnapshotChain(Options options);

  /// Periodic checkpoint: emits a delta of the nodes dirtied since the
  /// last checkpoint — or a full base when the chain is empty or
  /// delta_limit is reached — then commits the manifest. A checkpoint at
  /// an unchanged seq is skipped (nothing to persist). Returns the seq
  /// the chain now ends at.
  std::uint64_t snapshot(StateStore& store) {
    SnapshotCapture captured;
    capture(store, captured);
    return persist(captured);
  }

  /// Graceful-exit collapse: writes a fresh full base, commits a
  /// one-element manifest, and removes the superseded chain files.
  void finalize(StateStore& store) {
    SnapshotCapture captured;
    capture_base(store, captured);
    persist(captured);
  }

  /// Capture half of snapshot(), into `out`: a delta of the dirty nodes,
  /// a full base (empty chain or delta limit reached), or nothing
  /// (unchanged seq).
  void capture(StateStore& store, SnapshotCapture& out) const;
  /// Capture half of finalize(), into `out`: always a full base.
  static void capture_base(StateStore& store, SnapshotCapture& out);
  /// Persist half: writes the capture's base or delta file, commits the
  /// manifest, and after a base removes the superseded chain files. An
  /// empty capture writes nothing. Only a delta's parent_checksum is
  /// written to; the capture's storage stays for the next capture.
  /// Returns the seq the chain now ends at.
  std::uint64_t persist(SnapshotCapture& capture);

  /// Elements (base + deltas) in the committed chain.
  std::size_t chain_length() const noexcept { return elements_.size(); }
  /// Deltas since the last full base.
  std::size_t deltas_since_base() const noexcept {
    return elements_.empty() ? 0 : elements_.size() - 1;
  }

  /// True when `<path>.manifest` exists (restore would use the chain
  /// rather than the plain `<path>` snapshot).
  static bool chain_available(const std::string& path);
  /// True when restore_image(path) has something to read: a chain
  /// manifest, or else a plain snapshot file at `path`.
  static bool restorable(const std::string& path);

  /// Restores the image a chain rooted at `path` commits to: loads the
  /// base, verifies and replays each delta. Falls back to plain
  /// load_image(path) when no manifest exists. Throws util::IoError on
  /// any checksum, link, or ordering damage.
  static StateImage restore_image(const std::string& path);

 private:
  struct Element {
    bool is_base = false;
    std::string file;  ///< basename, resolved against the chain dir
    std::uint64_t checksum = 0;
    std::uint64_t seq = 0;
  };

  void write_base(const StateImage& image);
  /// The manifest codec, defined with the snapshot codec in
  /// snapshot_codec.cpp.
  void commit_manifest();
  static std::vector<Element> read_manifest(const std::string& path);
  void remove_stale(const std::vector<std::string>& old_files);
  std::string full_path(const std::string& basename) const;

  Options options_;
  std::string dir_;       ///< directory part of path (with trailing '/')
  std::string basename_;  ///< filename part of path
  std::vector<Element> elements_;
  std::uint64_t last_seq_ = 0;
  bool have_chain_ = false;
};

}  // namespace impatience::service
