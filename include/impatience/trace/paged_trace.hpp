// Delta-encoded paged trace files: the on-disk streaming counterpart of
// GeneratedSource for parsed real-world contact logs (GPS / Bluetooth
// sightings preprocessed into slot-sorted ContactEvents).
//
// Layout (little-endian):
//   header   magic "IPTRACE1", u32 version, u32 num_nodes, i64 duration,
//            u64 num_events, u64 events_per_page, u64 num_pages
//   index    per page: u64 byte offset into the data section,
//            i64 first slot, u64 event count
//   data     pages of LEB128-varint event triples:
//              slot_delta = slot - prev_slot   (prev = page first slot,
//                                               so the first delta is 0)
//              a
//              gap = b - a - 1                 (canonical a < b)
//
// Slot deltas make long sparse traces a few bytes per event instead of
// 16; per-page slot anchors keep pages independently decodable, and the
// reader holds exactly one decoded page (plus the current slot's batch,
// which may span pages) in memory.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "impatience/trace/contact.hpp"
#include "impatience/trace/event_source.hpp"

namespace impatience::trace {

/// Writes `trace` to `path` in the paged format above. Events are taken
/// in the trace's canonical (slot, a, b) order. Throws std::runtime_error
/// on I/O failure, std::invalid_argument for a bad page size.
void write_paged_trace(const ContactTrace& trace, const std::string& path,
                       std::size_t events_per_page = 4096);

/// Streams a paged trace file slot by slot. Keeps one decoded page in
/// memory; a slot whose events span pages is assembled across page loads
/// before being handed out, so batches still cover whole slots.
class PagedTraceReader final : public EventSource {
 public:
  explicit PagedTraceReader(const std::string& path);

  NodeId num_nodes() const override { return num_nodes_; }
  Slot duration() const override { return duration_; }
  Slot next_slot() override;
  std::span<const ContactEvent> take_batch() override;

  std::size_t total_events() const noexcept { return num_events_; }
  std::size_t num_pages() const noexcept { return page_index_.size(); }

 private:
  struct PageInfo {
    std::uint64_t offset;
    Slot first_slot;
    std::uint64_t count;
  };

  void load_next_page();          // decodes one page into buffer_
  bool ensure_buffered();         // true when buffer_ has unserved events

  std::ifstream file_;
  std::string path_;
  NodeId num_nodes_ = 0;
  Slot duration_ = 0;
  std::size_t num_events_ = 0;
  std::vector<PageInfo> page_index_;
  std::uint64_t data_begin_ = 0;  // file offset of the data section
  std::size_t next_page_ = 0;
  std::vector<ContactEvent> buffer_;  // decoded, not yet consumed
  std::size_t head_ = 0;              // first unconsumed index in buffer_
  std::vector<ContactEvent> batch_;   // current slot's assembled batch
};

/// Convenience: materialize a paged file back into a ContactTrace (test
/// and tooling helper; experiments should stream via PagedTraceReader).
ContactTrace read_paged_trace(const std::string& path);

}  // namespace impatience::trace
