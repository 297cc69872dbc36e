#include "util/bloom.h"

#include "util/coding.h"

namespace lt {

uint64_t BloomHash(const Slice& key) {
  // FNV-1a 64-bit followed by a finalizing mix.
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<unsigned char>(key[i]);
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

BloomFilterBuilder::BloomFilterBuilder(int bits_per_key)
    : bits_per_key_(bits_per_key < 1 ? 1 : bits_per_key) {}

void BloomFilterBuilder::Add(const Slice& key) {
  hashes_.push_back(BloomHash(key));
  num_keys_++;
}

std::string BloomFilterBuilder::Finish() const {
  // k = bits_per_key * ln(2), clamped to [1, 30].
  int k = static_cast<int>(bits_per_key_ * 0.69);
  if (k < 1) k = 1;
  if (k > 30) k = 30;

  size_t bits = num_keys_ * static_cast<size_t>(bits_per_key_);
  if (bits < 64) bits = 64;
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  std::string array(bytes, '\0');
  const uint64_t wrap = BloomWrap(bits);
  for (uint64_t h : hashes_) {
    BloomProbe probe(h, bits, wrap);
    for (int i = 0; i < k; i++, probe.Next()) {
      const uint64_t bit = probe.bit();
      array[bit / 8] |= static_cast<char>(1 << (bit % 8));
    }
  }

  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(k));
  PutLengthPrefixedSlice(&out, array);
  return out;
}

Status BloomFilter::Parse(const Slice& data, BloomFilter* out) {
  Slice in = data;
  uint32_t k;
  Slice array;
  if (!GetVarint32(&in, &k) || !GetLengthPrefixedSlice(&in, &array) ||
      k == 0 || k > 30 || array.empty()) {
    return Status::Corruption("bad bloom filter encoding");
  }
  out->num_probes_ = static_cast<int>(k);
  out->bits_ = array.ToString();
  out->wrap_ = BloomWrap(out->bits_.size() * 8);
  return Status::OK();
}

bool BloomFilter::MayContain(const Slice& key) const {
  if (bits_.empty()) return false;
  BloomProbe probe(BloomHash(key), bits_.size() * 8, wrap_);
  for (int i = 0; i < num_probes_; i++, probe.Next()) {
    const uint64_t bit = probe.bit();
    if (!(bits_[bit / 8] & (1 << (bit % 8)))) return false;
  }
  return true;
}

}  // namespace lt
