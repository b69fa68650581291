#include <algorithm>
#include <stdexcept>
#include <string>

#include "impatience/core/mandate.hpp"

namespace impatience::core {

MandateBag::MandateBag(ItemId num_items) : num_items_(num_items) {
  if (num_items == 0) {
    throw std::invalid_argument("MandateBag: need at least one item");
  }
}

std::size_t MandateBag::find(ItemId item, const char* who) const {
  if (item >= num_items_) {
    throw std::out_of_range(std::string("MandateBag::") + who + ": bad item");
  }
  std::size_t at = 0;
  while (at < active_.size() && active_[at].first != item) ++at;
  return at;
}

long MandateBag::count(ItemId item) const {
  const std::size_t at = find(item, "count");
  return at == active_.size() ? 0 : active_[at].second;
}

void MandateBag::add(ItemId item, long n) {
  const std::size_t at = find(item, "add");
  if (n < 0) {
    throw std::invalid_argument("MandateBag::add: negative count");
  }
  if (n == 0) return;
  if (at == active_.size()) {
    active_.emplace_back(item, n);
  } else {
    active_[at].second += n;
  }
  total_ += n;
}

long MandateBag::take(ItemId item, long n) {
  const std::size_t at = find(item, "take");
  if (n < 0) {
    throw std::invalid_argument("MandateBag::take: negative count");
  }
  if (at == active_.size()) return 0;
  const long taken = std::min(n, active_[at].second);
  active_[at].second -= taken;
  total_ -= taken;
  if (active_[at].second == 0) {
    // Swap-remove; the entry order is not part of the behaviour.
    active_[at] = active_.back();
    active_.pop_back();
  }
  return taken;
}

long MandateBag::drain() {
  const long lost = total_;
  active_.clear();
  total_ = 0;
  return lost;
}

std::vector<ItemId> MandateBag::active_items() const {
  std::vector<ItemId> out;
  out.reserve(active_.size());
  append_active_items(out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace impatience::core
