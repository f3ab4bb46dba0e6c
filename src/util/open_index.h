#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace laps {

/// Fixed-capacity open-addressed hash index from a key to an int32 slot of
/// some caller-owned flat array — the key lookup of the fully associative
/// hardware tables (the AFD's LFU caches, the migration-table CAM).
///
/// Linear probing over a power-of-two table sized at construction to at
/// least twice the capacity (load factor <= 1/2); erase uses backward-shift
/// deletion, so there are no tombstones and probe chains never degrade.
/// Nothing is allocated after construction. The caller guarantees that at
/// most `capacity` keys are present at once.
template <typename Key>
class OpenIndex {
 public:
  /// Largest capacity whose slot table (2x, rounded up to a power of two)
  /// is still addressable by int32 indices.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 29;

  explicit OpenIndex(std::size_t capacity) {
    if (capacity == 0 || capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "OpenIndex: capacity must be in [1, " +
          std::to_string(kMaxCapacity) + "], got " + std::to_string(capacity));
    }
    const std::size_t slots = std::bit_ceil(capacity * 2);
    slots_.assign(slots, Slot{Key{}, kEmpty});
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
  }

  /// Value stored for `key`, or -1 when absent.
  std::int32_t find(const Key& key) const {
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.value == kEmpty) return kEmpty;
      if (slot.key == key) return slot.value;
    }
  }

  /// Stores `key` -> `value`; `key` must be absent and `value` >= 0.
  void insert(const Key& key, std::int32_t value) {
    std::size_t s = home(key);
    while (slots_[s].value != kEmpty) s = (s + 1) & mask_;
    slots_[s] = Slot{key, value};
  }

  /// Removes `key`; returns its value, or -1 when absent.
  std::int32_t erase(const Key& key) {
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].value == kEmpty) return kEmpty;
      if (slots_[hole].key == key) break;
    }
    const std::int32_t value = slots_[hole].value;
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies cyclically in (hole, s].
    for (std::size_t s = (hole + 1) & mask_; slots_[s].value != kEmpty;
         s = (s + 1) & mask_) {
      const std::size_t h = home(slots_[s].key);
      if (((s - h) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole].value = kEmpty;
    return value;
  }

  void clear() {
    for (Slot& slot : slots_) slot.value = kEmpty;
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  struct Slot {
    Key key;
    std::int32_t value;
  };

  // Fibonacci hashing: the multiply spreads identity hashes (std::hash of
  // integers) over the top bits, which pick the home slot.
  std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

}  // namespace laps
