#include "util/crc.h"

#include <array>

namespace laps {
namespace {

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc16Table = make_crc16_table();
constexpr auto kCrc32Table = make_crc32_table();

/// The bytewise update for one input byte.
constexpr std::uint16_t crc16_step(std::uint16_t crc, std::uint8_t byte) {
  return static_cast<std::uint16_t>((crc << 8) ^
                                    kCrc16Table[((crc >> 8) ^ byte) & 0xFF]);
}

constexpr std::uint16_t make_crc16_tuple_init() {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < kCrc16TupleBytes; ++i) crc = crc16_step(crc, 0);
  return crc;
}

constexpr std::array<std::array<std::uint16_t, 256>, kCrc16TupleBytes>
make_crc16_tuple_table() {
  std::array<std::array<std::uint16_t, 256>, kCrc16TupleBytes> table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    // Byte b last, then one more trailing zero byte per earlier offset.
    std::uint16_t crc = crc16_step(0, static_cast<std::uint8_t>(b));
    for (std::size_t i = kCrc16TupleBytes; i-- > 0;) {
      table[i][b] = crc;
      crc = crc16_step(crc, 0);
    }
  }
  return table;
}

}  // namespace

constinit const std::uint16_t kCrc16TupleInit = make_crc16_tuple_init();
constinit const std::array<std::array<std::uint16_t, 256>, kCrc16TupleBytes>
    kCrc16TupleTable = make_crc16_tuple_table();

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t byte : data) crc = crc16_step(crc, byte);
  return crc;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data,
                         std::uint32_t init) {
  std::uint32_t crc = init;
  for (std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrc32Table[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

}  // namespace laps
