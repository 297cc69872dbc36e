#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lt {
namespace crc32c {
namespace {

// CRC32C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Table {
  uint32_t t[4][256];
};

Table BuildTable() {
  Table table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; i++) {
    table.t[1][i] = (table.t[0][i] >> 8) ^ table.t[0][table.t[0][i] & 0xff];
    table.t[2][i] = (table.t[1][i] >> 8) ^ table.t[0][table.t[1][i] & 0xff];
    table.t[3][i] = (table.t[2][i] >> 8) ^ table.t[0][table.t[2][i] & 0xff];
  }
  return table;
}

const Table& GetTable() {
  static const Table table = BuildTable();
  return table;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& tab = GetTable();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Process 4 bytes at a time (slicing-by-4).
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tab.t[3][crc & 0xff] ^ tab.t[2][(crc >> 8) & 0xff] ^
          tab.t[1][(crc >> 16) & 0xff] ^ tab.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)
bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 alone (no global -msse4.2), so only Extend's run-time
// choice, or a caller that checked HardwareAvailable(), may call it.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; n--) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; n--) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}
#else
bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}
#endif

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const auto kernel =
      HardwareAvailable() ? ExtendHardware : ExtendPortable;
  return kernel(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace lt
