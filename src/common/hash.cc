#include "common/hash.h"

#include <cstring>

namespace ireduct {

namespace {

// Slice-by-8 tables: 8 KiB that let the loop fold 8 bytes per step.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const Crc32Tables& tb = Tables();
  uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xffu] ^ tb.t[6][(lo >> 8) & 0xffu] ^
          tb.t[5][(lo >> 16) & 0xffu] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xffu] ^ tb.t[2][(hi >> 8) & 0xffu] ^
          tb.t[1][(hi >> 16) & 0xffu] ^ tb.t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data++) & 0xffu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ireduct
