#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/open_index.h"

namespace laps {

/// Fully-associative cache with Least-Frequently-Used replacement.
///
/// This models the hardware structures of the paper's Aggressive Flow
/// Detector: both the Aggressive Flow Cache (AFC) and the annex cache are
/// small fully-associative LFU caches of a fixed size (Sec. III-F). Like
/// the hardware, the model is flat and fixed-capacity: parallel arrays
/// sized at construction, and nothing is allocated afterwards.
///
///  * `items_`: one slot per cache line (key + links), chained by int32
///    index into the list of its frequency bucket, head = most recently
///    touched, tail = eviction end.
///  * `buckets_`: one per distinct cached frequency, chained in ascending
///    frequency order; the minimum bucket's tail is the LFU victim.
///  * `index_`: an open-addressed key -> item index (util/open_index.h).
///  * A tier index over the bucket chain (first bucket of each
///    quarter-octave frequency range, plus an occupancy bitmap), so an
///    insert at an arbitrary frequency — an annex-to-AFC promotion, or an
///    AFC victim demoted into the annex with its counter — finds its place
///    without walking the chain from the minimum.
///
/// Touch, insert, erase and eviction are O(1) apart from the tier walk,
/// which only visits buckets of one quarter-octave. Ties within a frequency
/// are broken LRU (the least recently touched entry of the minimum
/// frequency is evicted), which is what a hardware LFU with a secondary
/// recency bit does.
template <typename Key>
class LfuCache {
 public:
  /// One cache entry as seen by callers: the key and its frequency counter.
  struct Entry {
    Key key;
    std::uint64_t freq;
  };

  /// Largest capacity the int32 item/bucket indices can address.
  static constexpr std::size_t kMaxCapacity = OpenIndex<Key>::kMaxCapacity;

  explicit LfuCache(std::size_t capacity)
      : capacity_(checked_capacity(capacity)),
        items_(capacity),
        buckets_(capacity),
        index_(capacity) {
    clear();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  /// True if `key` is cached. Does not change replacement state.
  bool contains(const Key& key) const { return index_.find(key) != kNone; }

  /// Frequency counter of `key`, or nullopt if absent. Read-only.
  std::optional<std::uint64_t> freq_of(const Key& key) const {
    const std::int32_t i = index_.find(key);
    if (i == kNone) return std::nullopt;
    return buckets_[items_[i].bucket].freq;
  }

  /// Cache access: if `key` is present, increments its counter and returns
  /// the new value; otherwise returns nullopt (caller decides whether to
  /// insert — the AFD's promotion logic needs that decision to be separate).
  std::optional<std::uint64_t> touch(const Key& key) {
    const std::int32_t i = index_.find(key);
    if (i == kNone) return std::nullopt;
    const std::int32_t b = items_[i].bucket;
    const std::uint64_t freq = buckets_[b].freq + 1;
    const std::int32_t up = buckets_[b].higher;
    if (up != kNone && buckets_[up].freq == freq) {
      unlink(i);
      push_head(i, up);
    } else if (buckets_[b].head == buckets_[b].tail) {
      // Sole occupant: bump the bucket in place; the chain stays sorted
      // because the next bucket up (if any) is above `freq`.
      tier_remove(b);
      buckets_[b].freq = freq;
      tier_add(b);
    } else {
      unlink(i);
      push_head(i, new_bucket(freq, b, up));
    }
    return freq;
  }

  /// Inserts `key` with initial frequency `freq` (default 1). If the cache
  /// is full, evicts and returns the LFU victim. Inserting an existing key
  /// overwrites its frequency. Returns nullopt when nothing was evicted.
  std::optional<Entry> insert(const Key& key, std::uint64_t freq = 1) {
    const std::int32_t existing = index_.find(key);
    if (existing != kNone) {
      unlink(existing);
      push_head(existing, bucket_for(freq));
      return std::nullopt;
    }
    std::optional<Entry> victim;
    if (full()) victim = evict_lfu();
    const std::int32_t i = free_item_;
    free_item_ = items_[i].older;
    items_[i].key = key;
    push_head(i, bucket_for(freq));
    index_.insert(key, i);
    ++size_;
    return victim;
  }

  /// Removes `key`; returns its entry if it was present.
  std::optional<Entry> erase(const Key& key) {
    const std::int32_t i = index_.erase(key);
    if (i == kNone) return std::nullopt;
    const Entry out{key, buckets_[items_[i].bucket].freq};
    release(i);
    return out;
  }

  /// Evicts the least-frequently-used entry (LRU among ties). The cache
  /// must not be empty.
  Entry evict_lfu() {
    if (size_ == 0) throw std::logic_error("LfuCache: evict on empty");
    const std::int32_t i = buckets_[min_bucket_].tail;
    const Entry out{items_[i].key, buckets_[min_bucket_].freq};
    index_.erase(out.key);
    release(i);
    return out;
  }

  /// Minimum frequency currently cached; 0 if empty.
  std::uint64_t min_freq() const {
    return min_bucket_ == kNone ? 0 : buckets_[min_bucket_].freq;
  }

  /// Snapshot of all entries, most-frequent first (ties: most recent first).
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(size_);
    for (std::int32_t b = max_bucket_; b != kNone; b = buckets_[b].lower) {
      for (std::int32_t i = buckets_[b].head; i != kNone; i = items_[i].older) {
        out.push_back(Entry{items_[i].key, buckets_[b].freq});
      }
    }
    return out;
  }

  /// Halves every frequency counter (integer division, minimum 1), modeling
  /// the periodic aging of hardware rate counters. When two old counts
  /// collapse into the same new tier, the entry that had the *higher* old
  /// count is placed nearer the protected (recent) end: it demonstrated
  /// more locality, so it should outlive the tier's existing entries.
  /// Without this, a decayed elephant would land at the eviction end of the
  /// count-1 tier and be thrown out ahead of one-hit mice.
  void age_halve() {
    // Walk down from the highest bucket. Halving is monotone, so the chain
    // stays sorted; a bucket whose new count equals the one kept above it
    // is merged into that bucket's eviction end, in its existing order.
    std::int32_t kept = kNone;
    for (std::int32_t b = max_bucket_; b != kNone;) {
      const std::int32_t lower = buckets_[b].lower;
      const std::uint64_t freq =
          std::max<std::uint64_t>(buckets_[b].freq / 2, 1);
      if (kept != kNone && buckets_[kept].freq == freq) {
        for (std::int32_t i = buckets_[b].head; i != kNone;) {
          const std::int32_t older = items_[i].older;
          push_tail(i, kept);
          i = older;
        }
        buckets_[kept].lower = lower;
        if (lower == kNone) {
          min_bucket_ = kept;
        } else {
          buckets_[lower].higher = kept;
        }
        buckets_[b].higher = free_bucket_;
        free_bucket_ = b;
      } else {
        buckets_[b].freq = freq;
        kept = b;
      }
      b = lower;
    }
    tier_first_.fill(kNone);
    tier_mask_.fill(0);
    for (std::int32_t b = max_bucket_; b != kNone; b = buckets_[b].lower) {
      tier_add(b);
    }
  }

  /// Removes every entry.
  void clear() {
    index_.clear();
    const auto n = static_cast<std::int32_t>(capacity_);
    for (std::int32_t i = 0; i < n; ++i) {
      items_[i].older = i + 1 < n ? i + 1 : kNone;
      buckets_[i].higher = i + 1 < n ? i + 1 : kNone;
    }
    free_item_ = 0;
    free_bucket_ = 0;
    min_bucket_ = kNone;
    max_bucket_ = kNone;
    size_ = 0;
    tier_first_.fill(kNone);
    tier_mask_.fill(0);
  }

 private:
  static constexpr std::int32_t kNone = -1;
  // Quarter-octave frequency tiers: 0..3 exact, then four per power of two
  // (the top two bits below the leading one), 252 in all for 64-bit counts.
  static constexpr int kTiers = 256;

  struct Item {
    Key key{};
    std::int32_t bucket = kNone;
    std::int32_t newer = kNone;  // toward the bucket head; kNone at head
    std::int32_t older = kNone;  // toward the tail; the free-list link
  };
  struct Bucket {
    std::uint64_t freq = 0;
    std::int32_t head = kNone;
    std::int32_t tail = kNone;
    std::int32_t lower = kNone;
    std::int32_t higher = kNone;  // also the free-list link
  };

  static std::size_t checked_capacity(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("LfuCache: capacity 0");
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "LfuCache: capacity " + std::to_string(capacity) +
          " exceeds the int32-indexed maximum " + std::to_string(kMaxCapacity));
    }
    return capacity;
  }

  static int tier_of(std::uint64_t freq) {
    if (freq < 4) return static_cast<int>(freq);
    const int e = std::bit_width(freq) - 1;
    return 4 * (e - 1) + static_cast<int>((freq >> (e - 2)) & 3);
  }

  /// First non-empty tier at or above `t`, or -1.
  int next_tier(int t) const {
    for (int w = t >> 6; w < kTiers / 64; ++w) {
      std::uint64_t bits = tier_mask_[w];
      if (w == t >> 6) bits &= ~std::uint64_t{0} << (t & 63);
      if (bits != 0) return w * 64 + std::countr_zero(bits);
    }
    return -1;
  }

  void tier_add(std::int32_t b) {
    const int t = tier_of(buckets_[b].freq);
    const std::int32_t first = tier_first_[t];
    if (first == kNone || buckets_[b].freq < buckets_[first].freq) {
      tier_first_[t] = b;
    }
    tier_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  /// Drops `b` from the tier index; call while `b` is still chained.
  void tier_remove(std::int32_t b) {
    const int t = tier_of(buckets_[b].freq);
    if (tier_first_[t] != b) return;
    const std::int32_t up = buckets_[b].higher;
    if (up != kNone && tier_of(buckets_[up].freq) == t) {
      tier_first_[t] = up;
      return;
    }
    tier_first_[t] = kNone;
    tier_mask_[t >> 6] &= ~(std::uint64_t{1} << (t & 63));
  }

  /// The bucket holding `freq`, chained in at its sorted place if new.
  std::int32_t bucket_for(std::uint64_t freq) {
    // Lowest bucket at or above `freq`: scan its tier from the tier's
    // first bucket, or take the first bucket of the next non-empty tier.
    std::int32_t up = tier_first_[tier_of(freq)];
    if (up == kNone) {
      const int t = next_tier(tier_of(freq));
      up = t < 0 ? kNone : tier_first_[t];
    }
    while (up != kNone && buckets_[up].freq < freq) up = buckets_[up].higher;
    if (up != kNone && buckets_[up].freq == freq) return up;
    return new_bucket(freq, up == kNone ? max_bucket_ : buckets_[up].lower,
                      up);
  }

  std::int32_t new_bucket(std::uint64_t freq, std::int32_t lower,
                          std::int32_t higher) {
    const std::int32_t b = free_bucket_;
    free_bucket_ = buckets_[b].higher;
    buckets_[b] = Bucket{freq, kNone, kNone, lower, higher};
    if (lower == kNone) {
      min_bucket_ = b;
    } else {
      buckets_[lower].higher = b;
    }
    if (higher == kNone) {
      max_bucket_ = b;
    } else {
      buckets_[higher].lower = b;
    }
    tier_add(b);
    return b;
  }

  void free_bucket(std::int32_t b) {
    tier_remove(b);
    const Bucket& x = buckets_[b];
    if (x.lower == kNone) {
      min_bucket_ = x.higher;
    } else {
      buckets_[x.lower].higher = x.higher;
    }
    if (x.higher == kNone) {
      max_bucket_ = x.lower;
    } else {
      buckets_[x.higher].lower = x.lower;
    }
    buckets_[b].higher = free_bucket_;
    free_bucket_ = b;
  }

  void push_head(std::int32_t i, std::int32_t b) {
    Bucket& bucket = buckets_[b];
    items_[i].bucket = b;
    items_[i].newer = kNone;
    items_[i].older = bucket.head;
    if (bucket.head == kNone) {
      bucket.tail = i;
    } else {
      items_[bucket.head].newer = i;
    }
    bucket.head = i;
  }

  void push_tail(std::int32_t i, std::int32_t b) {
    Bucket& bucket = buckets_[b];
    items_[i].bucket = b;
    items_[i].older = kNone;
    items_[i].newer = bucket.tail;
    if (bucket.tail == kNone) {
      bucket.head = i;
    } else {
      items_[bucket.tail].older = i;
    }
    bucket.tail = i;
  }

  /// Takes item `i` out of its bucket, freeing the bucket if it empties.
  void unlink(std::int32_t i) {
    const Item& item = items_[i];
    Bucket& bucket = buckets_[item.bucket];
    if (item.newer == kNone) {
      bucket.head = item.older;
    } else {
      items_[item.newer].older = item.older;
    }
    if (item.older == kNone) {
      bucket.tail = item.newer;
    } else {
      items_[item.older].newer = item.newer;
    }
    if (bucket.head == kNone) free_bucket(item.bucket);
  }

  /// Unlinks item `i` (already gone from the index) and frees its slot.
  void release(std::int32_t i) {
    unlink(i);
    items_[i].older = free_item_;
    free_item_ = i;
    --size_;
  }

  std::size_t capacity_;
  std::vector<Item> items_;
  std::vector<Bucket> buckets_;
  OpenIndex<Key> index_;
  std::int32_t free_item_ = kNone;
  std::int32_t free_bucket_ = kNone;
  std::int32_t min_bucket_ = kNone;  // LFU end of the bucket chain
  std::int32_t max_bucket_ = kNone;
  std::size_t size_ = 0;
  std::array<std::int32_t, kTiers> tier_first_{};
  std::array<std::uint64_t, kTiers / 64> tier_mask_{};
};

}  // namespace laps
