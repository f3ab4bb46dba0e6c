#include "util/toeplitz.h"

#include <bit>

namespace laps {

// Microsoft's RSS verification key (NDIS documentation).
const std::array<std::uint8_t, 40> ToeplitzHash::kDefaultKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

ToeplitzHash::ToeplitzHash(const std::array<std::uint8_t, 40>& key) {
  // The 32-bit key window starting at key bit `bit` (bits numbered from
  // the most significant bit of key[0]). The 12-byte input needs windows up
  // to bit 95, i.e. key bytes 0..15.
  const auto window = [&key](std::size_t bit) {
    const std::size_t byte = bit / 8;
    const std::uint64_t five = (std::uint64_t(key[byte]) << 32) |
                               (std::uint64_t(key[byte + 1]) << 24) |
                               (std::uint64_t(key[byte + 2]) << 16) |
                               (std::uint64_t(key[byte + 3]) << 8) |
                               key[byte + 4];
    return static_cast<std::uint32_t>(five >> (8 - bit % 8));
  };
  for (std::size_t i = 0; i < kInputBytes; ++i) {
    std::array<std::uint32_t, 256>& row = table_[i];
    row[0] = 0;
    // Bit j of the byte (j = 7 is the MSB, fed first) selects the window
    // at key bit 8i + (7 - j); a value's entry is the XOR of its bits'
    // windows, built from the entry without its lowest set bit.
    for (std::size_t b = 1; b < 256; ++b) {
      const auto low = static_cast<std::size_t>(
          std::countr_zero(static_cast<unsigned>(b)));
      row[b] = row[b & (b - 1)] ^ window(8 * i + (7 - low));
    }
  }
}

std::uint16_t naive_fold_hash(const FiveTuple& tuple) {
  return static_cast<std::uint16_t>(
      (tuple.src_ip + tuple.dst_ip + tuple.src_port + tuple.dst_port +
       tuple.protocol) &
      0xFFFF);
}

}  // namespace laps
