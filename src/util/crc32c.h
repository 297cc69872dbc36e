// CRC32C (Castagnoli) checksums, used to detect corruption in tablet blocks
// and footers. Extend uses the SSE4.2 crc32 instruction where the CPU has
// it, chosen once at the first call, and a software slicing-by-4 kernel
// (four 256-entry tables) elsewhere; both give the same values. The masked
// form guards against checksumming a checksum.
#ifndef LITTLETABLE_UTIL_CRC32C_H_
#define LITTLETABLE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lt {
namespace crc32c {

/// Returns the CRC32C of data[0..n-1], extending `init_crc`.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The two kernels behind Extend, exposed so tests can compare them. The
/// hardware one may be called only when HardwareAvailable(); on a CPU
/// family without a CRC32C instruction it is the portable kernel.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
bool HardwareAvailable();

/// Returns the CRC32C of data[0..n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Returns a masked CRC. Storing raw CRCs of data that itself contains CRCs
/// is error-prone; the mask makes stored checksums distinct from raw ones.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace lt

#endif  // LITTLETABLE_UTIL_CRC32C_H_
