#include "common/crc32.h"

#include <array>

namespace desalign::common {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// table[0] is the classic byte-at-a-time table; table[s][b] is the CRC
// contribution of byte b followed by s zero bytes, so one step folds eight
// input bytes with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < table.size(); ++s) {
      const uint32_t prev = table[s - 1][i];
      table[s][i] = (prev >> 8) ^ table[0][prev & 0xFFu];
    }
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Tables table = BuildTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  // The first four bytes are assembled little-endian with shifts, so the
  // result is the same on any host byte order.
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo =
        crc ^ (uint32_t{bytes[0]} | uint32_t{bytes[1]} << 8 |
               uint32_t{bytes[2]} << 16 | uint32_t{bytes[3]} << 24);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][bytes[4]] ^ table[2][bytes[5]] ^ table[1][bytes[6]] ^
          table[0][bytes[7]];
  }
  for (; size > 0; ++bytes, --size) {
    crc = table[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace desalign::common
