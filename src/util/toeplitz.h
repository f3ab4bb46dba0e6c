#pragma once

#include <array>
#include <cstdint>

#include "util/flow.h"

namespace laps {

/// Toeplitz hash over the 5-tuple — the hash used by NIC receive-side
/// scaling (RSS), provided as an alternative to the paper's CRC16 for the
/// hash-quality ablation and as the cluster's rss/fdir dispatcher hash. The
/// bench compares CRC16, Toeplitz, and a naive modulo fold for bucket
/// uniformity and flow-bundle balance (Cao et al., INFOCOM'00, is the
/// paper's reference for why CRC16 is a good choice).
///
/// Toeplitz is linear over GF(2): the hash of an input is the XOR of the
/// contributions of its bytes, and a byte's contribution depends only on
/// its value and offset. The constructor tabulates all of them once, so a
/// hash is 12 lookups instead of 96 key-window shifts.
class ToeplitzHash {
 public:
  /// 40-byte RSS key; the default is Microsoft's canonical verification key
  /// so hash values match published RSS test vectors.
  explicit ToeplitzHash(
      const std::array<std::uint8_t, 40>& key = kDefaultKey);

  /// 32-bit Toeplitz hash of the 12-byte src/dst address+port block (the
  /// standard RSS TCP/IPv4 input, network byte order; protocol is not part
  /// of RSS input).
  std::uint32_t hash(const FiveTuple& tuple) const {
    const auto at = [this](std::size_t offset, std::uint32_t value,
                           int shift) {
      return table_[offset][(value >> shift) & 0xFF];
    };
    return at(0, tuple.src_ip, 24) ^ at(1, tuple.src_ip, 16) ^
           at(2, tuple.src_ip, 8) ^ at(3, tuple.src_ip, 0) ^
           at(4, tuple.dst_ip, 24) ^ at(5, tuple.dst_ip, 16) ^
           at(6, tuple.dst_ip, 8) ^ at(7, tuple.dst_ip, 0) ^
           at(8, tuple.src_port, 8) ^ at(9, tuple.src_port, 0) ^
           at(10, tuple.dst_port, 8) ^ at(11, tuple.dst_port, 0);
  }

  static const std::array<std::uint8_t, 40> kDefaultKey;

 private:
  static constexpr std::size_t kInputBytes = 12;

  /// table_[i][b]: the 32-bit contribution of byte value b at input offset
  /// i — the XOR of the key windows at bit offsets 8i .. 8i+7 selected by
  /// b's set bits (most significant bit first).
  std::array<std::array<std::uint32_t, 256>, kInputBytes> table_{};
};

/// Deliberately poor hash for the ablation: folds the tuple with modulo,
/// which correlates with address assignment patterns exactly the way
/// real deployments regret.
std::uint16_t naive_fold_hash(const FiveTuple& tuple);

}  // namespace laps
