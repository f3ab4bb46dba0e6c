#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/scheduler.h"
#include "util/open_index.h"

namespace laps {

/// The migration table of paper Fig. 3: flow-id -> core overrides that take
/// priority over the hash path ("the scheduler gives priority to the output
/// of migration table over the default hash table").
///
/// Fixed capacity like the hardware CAM it models; when full, the oldest
/// pin is evicted and that flow falls back to its hash bucket (a single
/// extra migration — harmless, and it bounds state). The layout is flat and
/// allocated once at construction: an array of pin slots chained by int32
/// index into a FIFO (oldest first), a free list through the same links,
/// and an open-addressed flow-key -> slot index (util/open_index.h). Lookup,
/// erase, re-pin-as-newest and evict-oldest are all O(1).
class MigrationTable {
 public:
  /// Largest capacity the int32 slot indices can address.
  static constexpr std::size_t kMaxCapacity =
      OpenIndex<std::uint64_t>::kMaxCapacity;

  explicit MigrationTable(std::size_t capacity);

  /// Pinned core for a flow, if any.
  std::optional<CoreId> lookup(std::uint64_t flow_key) const {
    const std::int32_t s = index_.find(flow_key);
    if (s == kNone) return std::nullopt;
    return slots_[s].core;
  }

  /// Pins `flow_key` to `core` (moves it to newest position if already
  /// pinned). Evicts the oldest pin when full.
  void add(std::uint64_t flow_key, CoreId core);

  /// Unpins a flow; returns true if it was pinned.
  bool erase(std::uint64_t flow_key);

  /// Drops every pin that targets `core` — used when a core is reassigned
  /// to another service. Returns the number removed.
  std::size_t remove_core_entries(CoreId core);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  void clear();

  /// Pinned flows in eviction order (oldest first); for tests.
  std::vector<std::uint64_t> keys_in_order() const;

 private:
  static constexpr std::int32_t kNone = -1;

  struct Slot {
    std::uint64_t key = 0;
    CoreId core = 0;
    std::int32_t older = kNone;
    std::int32_t newer = kNone;  // also the free-list link
  };

  void push_newest(std::int32_t s);
  void unlink(std::int32_t s);
  /// Unlinks slot `s` (already gone from the index) and frees it.
  void release(std::int32_t s);

  std::vector<Slot> slots_;
  OpenIndex<std::uint64_t> index_;
  std::int32_t oldest_ = kNone;
  std::int32_t newest_ = kNone;
  std::int32_t free_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace laps
