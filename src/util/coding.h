// Primitive encoders/decoders for the tablet file format and wire protocol.
//
// All multi-byte integers are little-endian. Varints use the LEB128-style
// 7-bits-per-byte encoding. Decoders take a Slice cursor and consume from it.
#ifndef LITTLETABLE_UTIL_CODING_H_
#define LITTLETABLE_UTIL_CODING_H_

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace lt {

void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends a varint length followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

/// Each GetX consumes the decoded bytes from `input` and returns false on
/// truncated or malformed input (leaving `input` unspecified).
bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Bytes the varint encoding of `v` takes (1–10).
inline int VarintLength(uint64_t v) {
  return (70 - __builtin_clzll(v | 1)) / 7;
}

/// Writes the varint encoding of `v` at `dst`, which must have room for
/// VarintLength(v) bytes; returns the byte just past it.
inline char* EncodeVarint64(char* dst, uint64_t v) {
  unsigned char* p = reinterpret_cast<unsigned char*>(dst);
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return reinterpret_cast<char*>(p);
}

/// Decodes the varint at [p, limit) — the GetVarint64 rules: at most ten
/// bytes, bits past 64 dropped. Returns the byte just past it, or null when
/// the input ends first. (GetVarint64 keeps its own loop: routed through
/// this one, the insert path measured slower.)
inline const char* DecodeVarint64(const char* p, const char* limit,
                                  uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    const uint64_t byte = static_cast<unsigned char>(*p++);
    if (byte < 0x80) {
      *value = result | (byte << shift);
      return p;
    }
    result |= (byte & 0x7f) << shift;
  }
  return nullptr;
}

/// ZigZag maps signed integers to unsigned so small magnitudes stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace lt

#endif  // LITTLETABLE_UTIL_CODING_H_
