#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "util/crc.h"

namespace laps {

/// The 5-tuple flow identifier used throughout the paper: a *flow* is the
/// set of packets sharing source/destination IPv4 address, source/destination
/// port, and IP protocol.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  /// Serializes the tuple into the canonical 13-byte wire layout the
  /// hardware hashes (big-endian fields, the order they appear in the
  /// IP/TCP headers: src ip, dst ip, src port, dst port, protocol).
  std::array<std::uint8_t, 13> wire_bytes() const;

  /// CRC16-CCITT of the 13-byte wire layout — the LAPS scheduler hash.
  /// Table-driven by byte position (kCrc16TupleTable), straight from the
  /// fields. Inline: LAPS computes it once per packet.
  std::uint16_t crc16() const {
    const auto at = [](std::size_t offset, std::uint32_t value, int shift) {
      return kCrc16TupleTable[offset][(value >> shift) & 0xFF];
    };
    return static_cast<std::uint16_t>(
        kCrc16TupleInit ^ at(0, src_ip, 24) ^ at(1, src_ip, 16) ^
        at(2, src_ip, 8) ^ at(3, src_ip, 0) ^ at(4, dst_ip, 24) ^
        at(5, dst_ip, 16) ^ at(6, dst_ip, 8) ^ at(7, dst_ip, 0) ^
        at(8, src_port, 8) ^ at(9, src_port, 0) ^ at(10, dst_port, 8) ^
        at(11, dst_port, 0) ^ at(12, protocol, 0));
  }

  /// A 64-bit key for software hash maps (migration tables, statistics).
  /// Collision-free in practice for simulated flow populations: mixes all
  /// 104 tuple bits through SplitMix64 in two dependent rounds. Inline:
  /// per-packet probes compute it on their fast path.
  std::uint64_t key64() const {
    const std::uint64_t lo = (static_cast<std::uint64_t>(src_ip) << 32) | dst_ip;
    const std::uint64_t hi = (static_cast<std::uint64_t>(src_port) << 24) |
                             (static_cast<std::uint64_t>(dst_port) << 8) |
                             protocol;
    return mix64(mix64(lo) ^ hi);
  }

  /// Human-readable "a.b.c.d:p -> a.b.c.d:p/proto" form for logs and
  /// error messages.
  std::string to_string() const;
};

/// Hash functor so FiveTuple can key std::unordered_map directly.
struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.key64());
  }
};

/// Formats an IPv4 address (host byte order) as dotted quad.
std::string ipv4_to_string(std::uint32_t ip);

}  // namespace laps
