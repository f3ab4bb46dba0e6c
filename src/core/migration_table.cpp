#include "core/migration_table.h"

#include <stdexcept>
#include <string>

namespace laps {
namespace {

std::size_t checked_capacity(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("MigrationTable: capacity 0");
  if (capacity > MigrationTable::kMaxCapacity) {
    throw std::invalid_argument(
        "MigrationTable: capacity " + std::to_string(capacity) +
        " exceeds the int32-indexed maximum " +
        std::to_string(MigrationTable::kMaxCapacity));
  }
  return capacity;
}

}  // namespace

MigrationTable::MigrationTable(std::size_t capacity)
    : slots_(checked_capacity(capacity)), index_(capacity) {
  clear();
}

void MigrationTable::add(std::uint64_t flow_key, CoreId core) {
  std::int32_t s = index_.find(flow_key);
  if (s != kNone) {
    // Refresh position: treat re-pin as newest.
    unlink(s);
  } else {
    if (size_ == slots_.size()) {
      index_.erase(slots_[oldest_].key);
      release(oldest_);
    }
    s = free_;
    free_ = slots_[s].newer;
    slots_[s].key = flow_key;
    index_.insert(flow_key, s);
    ++size_;
  }
  slots_[s].core = core;
  push_newest(s);
}

bool MigrationTable::erase(std::uint64_t flow_key) {
  const std::int32_t s = index_.erase(flow_key);
  if (s == kNone) return false;
  release(s);
  return true;
}

std::size_t MigrationTable::remove_core_entries(CoreId core) {
  std::size_t removed = 0;
  for (std::int32_t s = oldest_; s != kNone;) {
    const std::int32_t newer = slots_[s].newer;
    if (slots_[s].core == core) {
      index_.erase(slots_[s].key);
      release(s);
      ++removed;
    }
    s = newer;
  }
  return removed;
}

void MigrationTable::clear() {
  index_.clear();
  const auto n = static_cast<std::int32_t>(slots_.size());
  for (std::int32_t s = 0; s < n; ++s) {
    slots_[s].newer = s + 1 < n ? s + 1 : kNone;
  }
  free_ = 0;
  oldest_ = kNone;
  newest_ = kNone;
  size_ = 0;
}

std::vector<std::uint64_t> MigrationTable::keys_in_order() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (std::int32_t s = oldest_; s != kNone; s = slots_[s].newer) {
    out.push_back(slots_[s].key);
  }
  return out;
}

void MigrationTable::push_newest(std::int32_t s) {
  slots_[s].older = newest_;
  slots_[s].newer = kNone;
  if (newest_ == kNone) {
    oldest_ = s;
  } else {
    slots_[newest_].newer = s;
  }
  newest_ = s;
}

void MigrationTable::unlink(std::int32_t s) {
  const Slot& slot = slots_[s];
  if (slot.older == kNone) {
    oldest_ = slot.newer;
  } else {
    slots_[slot.older].newer = slot.newer;
  }
  if (slot.newer == kNone) {
    newest_ = slot.older;
  } else {
    slots_[slot.newer].older = slot.older;
  }
}

void MigrationTable::release(std::int32_t s) {
  unlink(s);
  slots_[s].newer = free_;
  free_ = s;
  --size_;
}

}  // namespace laps
