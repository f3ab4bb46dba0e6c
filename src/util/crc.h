#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace laps {

/// CRC16-CCITT (polynomial 0x1021, init 0xFFFF, no reflection).
///
/// This is the hash function LAPS uses over the 13-byte 5-tuple; Cao et al.
/// (INFOCOM'00) showed 16-bit CRCs spread IP headers close to uniformly,
/// which is why the paper picks it. Table-driven, one table lookup per byte.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init = 0xFFFF);

/// CRC16-CCITT of a fixed 13-byte message (the 5-tuple wire layout, see
/// FiveTuple::crc16) by byte position. A CRC is affine over GF(2), so
///
///   crc16_ccitt(m) == kCrc16TupleInit ^ XOR_i kCrc16TupleTable[i][m[i]]
///
/// for every 13-byte m: 13 independent lookups in place of the bytewise
/// loop's 13 dependent ones. kCrc16TupleInit is the CRC of 13 zero bytes;
/// kCrc16TupleTable[i][b] is the init-0 CRC of byte b at offset i followed
/// by 12 - i zero bytes.
inline constexpr std::size_t kCrc16TupleBytes = 13;
extern const std::uint16_t kCrc16TupleInit;
extern const std::array<std::array<std::uint16_t, 256>, kCrc16TupleBytes>
    kCrc16TupleTable;

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected). Provided as an
/// alternative scheduler hash for ablations and for pcap sanity checking.
std::uint32_t crc32_ieee(std::span<const std::uint8_t> data,
                         std::uint32_t init = 0xFFFFFFFF);

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Used to derive
/// map keys from flow tuples and to seed per-stream RNGs.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace laps
