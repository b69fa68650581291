#include "impatience/trace/paged_trace.hpp"

#include <cstring>
#include <stdexcept>

namespace impatience::trace {
namespace {

constexpr char kMagic[8] = {'I', 'P', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Varint cursor over one page's raw bytes.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_ || shift > 63) {
        throw std::runtime_error("PagedTraceReader: corrupt varint in " +
                                 path_);
      }
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  bool done() const { return pos_ >= size_; }

 private:
  const char* data_;
  std::size_t size_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

std::uint32_t read_u32(std::istream& in) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  unsigned char b[8];
  in.read(reinterpret_cast<char*>(b), 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

}  // namespace

void write_paged_trace(const ContactTrace& trace, const std::string& path,
                       std::size_t events_per_page) {
  if (events_per_page == 0) {
    throw std::invalid_argument(
        "write_paged_trace: events_per_page must be > 0");
  }
  const auto& events = trace.events();
  const std::size_t num_pages =
      (events.size() + events_per_page - 1) / events_per_page;

  // Encode pages first so the index can carry byte offsets.
  std::string data;
  struct PageMeta {
    std::uint64_t offset;
    Slot first_slot;
    std::uint64_t count;
  };
  std::vector<PageMeta> index;
  index.reserve(num_pages);
  for (std::size_t p = 0; p < num_pages; ++p) {
    const std::size_t begin = p * events_per_page;
    const std::size_t end = std::min(begin + events_per_page, events.size());
    const Slot first_slot = events[begin].slot;
    index.push_back({data.size(), first_slot,
                     static_cast<std::uint64_t>(end - begin)});
    Slot prev = first_slot;
    for (std::size_t k = begin; k < end; ++k) {
      const ContactEvent& e = events[k];
      put_varint(data, static_cast<std::uint64_t>(e.slot - prev));
      put_varint(data, e.a);
      put_varint(data, static_cast<std::uint64_t>(e.b) - e.a - 1);
      prev = e.slot;
    }
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u32(header, kVersion);
  put_u32(header, trace.num_nodes());
  put_u64(header, static_cast<std::uint64_t>(trace.duration()));
  put_u64(header, events.size());
  put_u64(header, events_per_page);
  put_u64(header, num_pages);
  for (const auto& page : index) {
    put_u64(header, page.offset);
    put_u64(header, static_cast<std::uint64_t>(page.first_slot));
    put_u64(header, page.count);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_paged_trace: cannot open " + path);
  }
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) {
    throw std::runtime_error("write_paged_trace: write failed for " + path);
  }
}

PagedTraceReader::PagedTraceReader(const std::string& path)
    : file_(path, std::ios::binary), path_(path) {
  if (!file_) {
    throw std::runtime_error("PagedTraceReader: cannot open " + path);
  }
  char magic[sizeof(kMagic)];
  file_.read(magic, sizeof(magic));
  if (!file_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("PagedTraceReader: bad magic in " + path);
  }
  const std::uint32_t version = read_u32(file_);
  if (version != kVersion) {
    throw std::runtime_error("PagedTraceReader: unsupported version in " +
                             path);
  }
  num_nodes_ = read_u32(file_);
  duration_ = static_cast<Slot>(read_u64(file_));
  num_events_ = static_cast<std::size_t>(read_u64(file_));
  read_u64(file_);  // events_per_page: advisory, unused by the reader
  const std::uint64_t num_pages = read_u64(file_);
  if (!file_ || num_nodes_ == 0 || duration_ <= 0) {
    throw std::runtime_error("PagedTraceReader: corrupt header in " + path);
  }
  page_index_.reserve(num_pages);
  std::uint64_t indexed_events = 0;
  for (std::uint64_t p = 0; p < num_pages; ++p) {
    PageInfo info;
    info.offset = read_u64(file_);
    info.first_slot = static_cast<Slot>(read_u64(file_));
    info.count = read_u64(file_);
    indexed_events += info.count;
    page_index_.push_back(info);
  }
  if (!file_ || indexed_events != num_events_) {
    throw std::runtime_error("PagedTraceReader: corrupt page index in " +
                             path);
  }
  data_begin_ = static_cast<std::uint64_t>(file_.tellg());
}

void PagedTraceReader::load_next_page() {
  const PageInfo& page = page_index_[next_page_];
  const std::uint64_t end_offset = next_page_ + 1 < page_index_.size()
                                       ? page_index_[next_page_ + 1].offset
                                       : std::uint64_t(-1);
  std::vector<char> bytes;
  file_.seekg(static_cast<std::streamoff>(data_begin_ + page.offset));
  if (end_offset != std::uint64_t(-1)) {
    bytes.resize(end_offset - page.offset);
    file_.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!file_) {
      throw std::runtime_error("PagedTraceReader: truncated page in " +
                               path_);
    }
  } else {
    // Last page: read to EOF.
    std::vector<char> chunk(64 * 1024);
    while (file_.read(chunk.data(),
                      static_cast<std::streamsize>(chunk.size())) ||
           file_.gcount() > 0) {
      bytes.insert(bytes.end(), chunk.begin(),
                   chunk.begin() + file_.gcount());
      if (file_.eof()) break;
    }
    file_.clear();
  }

  // Compact already-served events before appending the new page.
  if (head_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  ByteReader reader(bytes.data(), bytes.size(), path_);
  Slot prev = page.first_slot;
  for (std::uint64_t k = 0; k < page.count; ++k) {
    const Slot slot = prev + static_cast<Slot>(reader.varint());
    const auto a = static_cast<NodeId>(reader.varint());
    const auto b = static_cast<NodeId>(reader.varint() + a + 1);
    if (slot < 0 || slot >= duration_ || b >= num_nodes_) {
      throw std::runtime_error("PagedTraceReader: event out of range in " +
                               path_);
    }
    buffer_.push_back({slot, a, b});
    prev = slot;
  }
  ++next_page_;
}

bool PagedTraceReader::ensure_buffered() {
  while (head_ >= buffer_.size() && next_page_ < page_index_.size()) {
    load_next_page();
  }
  return head_ < buffer_.size();
}

Slot PagedTraceReader::next_slot() {
  if (!ensure_buffered()) return kNoMoreEvents;
  return buffer_[head_].slot;
}

std::span<const ContactEvent> PagedTraceReader::take_batch() {
  if (!ensure_buffered()) {
    throw std::logic_error("PagedTraceReader: take_batch on drained source");
  }
  const Slot slot = buffer_[head_].slot;
  batch_.clear();
  while (true) {
    while (head_ < buffer_.size() && buffer_[head_].slot == slot) {
      batch_.push_back(buffer_[head_]);
      ++head_;
    }
    // A slot's events may continue on the next page.
    if (head_ >= buffer_.size() && next_page_ < page_index_.size() &&
        page_index_[next_page_].first_slot == slot) {
      load_next_page();
      continue;
    }
    break;
  }
  return {batch_.data(), batch_.size()};
}

ContactTrace read_paged_trace(const std::string& path) {
  PagedTraceReader reader(path);
  std::vector<ContactEvent> events;
  events.reserve(reader.total_events());
  while (reader.next_slot() != EventSource::kNoMoreEvents) {
    const auto batch = reader.take_batch();
    events.insert(events.end(), batch.begin(), batch.end());
  }
  return ContactTrace(reader.num_nodes(), reader.duration(),
                      std::move(events));
}

}  // namespace impatience::trace
