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
  /// bits/key gives ~1% false positives with the derived k = 7 probes.
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
  int num_probes_ = 0;
};

/// 64-bit hash used by the filter (also exposed for tests).
uint64_t BloomHash(const Slice& key);

}  // namespace lt

#endif  // LITTLETABLE_UTIL_BLOOM_H_
