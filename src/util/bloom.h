// Bloom filters, the §3.4.5 extension: each on-disk tablet stores a filter
// over its key prefixes so latest-row-for-prefix queries (and the uniqueness
// slow path) can skip ~99% of non-matching tablets at ~10 bits/row.
#ifndef LITTLETABLE_UTIL_BLOOM_H_
#define LITTLETABLE_UTIL_BLOOM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lt {

/// Builds a Bloom filter from a set of byte-string elements.
class BloomFilterBuilder {
 public:
  /// bits_per_key controls the false-positive rate; the paper's proposed 10
  /// bits/key gives ~1% false positives with the derived k = 6 probes
  /// (int(10 * 0.69)).
  explicit BloomFilterBuilder(int bits_per_key = 10);

  void Add(const Slice& key);
  /// Counts a key equal to one already added (sorted input repeats key
  /// prefixes row after row). Its bits are set already, so only the filter
  /// size, num_keys * bits_per_key, sees it: Finish's output is the same
  /// as if the key were added again.
  void AddRepeat() { num_keys_++; }
  size_t NumKeys() const { return num_keys_; }

  /// Serializes the filter (bit array + probe count). Safe to call on an
  /// empty builder; the resulting filter matches nothing.
  std::string Finish() const;

 private:
  int bits_per_key_;
  size_t num_keys_ = 0;
  std::vector<uint64_t> hashes_;  // Of the keys added, repeats excluded.
};

/// Read-side view over a serialized Bloom filter.
class BloomFilter {
 public:
  /// Parses a serialized filter. The data is copied.
  static Status Parse(const Slice& data, BloomFilter* out);

  /// True if `key` may be in the set (false positives possible, false
  /// negatives not). An empty filter returns false for every key.
  bool MayContain(const Slice& key) const;

  size_t SizeBytes() const { return bits_.size(); }

 private:
  std::string bits_;
  uint64_t wrap_ = 0;  // BloomWrap(bits_.size() * 8).
  int num_probes_ = 0;
};

/// 64-bit hash used by the filter (also exposed for tests).
uint64_t BloomHash(const Slice& key);

/// 2^64 mod `bits`, the correction BloomProbe applies when its 64-bit
/// position wraps.
inline uint64_t BloomWrap(uint64_t bits) {
  return (~uint64_t{0} % bits + 1) % bits;
}

/// The probe positions of one key's hash `h` in a `bits`-bit filter, by
/// double hashing: probe i is ((h1 + i * h2) mod 2^64) mod bits. The
/// position is stepped mod `bits` by h2 mod `bits`, less BloomWrap(bits)
/// whenever h1 + i * h2 wraps 2^64, so a key costs two 64-bit modulos, not
/// one per probe, and sets the same bits. The wrap is a coin flip per
/// probe, so the step is chosen without a branch. `bits` must be at most
/// 2^63.
class BloomProbe {
 public:
  BloomProbe(uint64_t h, uint64_t bits, uint64_t wrap)
      : bits_(bits),
        x_(h),
        h2_((h >> 32) | (h << 32)),
        step_(h2_ % bits),
        wrapped_step_(step_ >= wrap ? step_ - wrap : step_ + bits - wrap),
        bit_(h % bits) {}

  uint64_t bit() const { return bit_; }

  void Next() {
    const bool wrapped = __builtin_add_overflow(x_, h2_, &x_);
    bit_ += wrapped ? wrapped_step_ : step_;
    bit_ = bit_ >= bits_ ? bit_ - bits_ : bit_;
  }

 private:
  uint64_t bits_;
  uint64_t x_;  // h1 + i * h2, mod 2^64.
  uint64_t h2_;
  uint64_t step_;          // h2 mod bits.
  uint64_t wrapped_step_;  // (h2 - 2^64) mod bits.
  uint64_t bit_;
};

}  // namespace lt

#endif  // LITTLETABLE_UTIL_BLOOM_H_
