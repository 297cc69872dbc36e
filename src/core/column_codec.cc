#include "core/column_codec.h"

#include <map>

#include "util/coding.h"

namespace lt {

namespace {

// Signed deltas are computed in uint64 space so overflow wraps (lossless:
// the decoder reverses with the same wrapping adds) instead of being UB.
uint64_t WrapDelta(int64_t cur, int64_t prev) {
  return static_cast<uint64_t>(cur) - static_cast<uint64_t>(prev);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, 8);
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, 8);
  return d;
}

}  // namespace

bool IsValidChunkEncoding(uint8_t b) {
  return b >= static_cast<uint8_t>(ChunkEncoding::kDeltaDelta) &&
         b <= static_cast<uint8_t>(ChunkEncoding::kPlainBytes);
}

size_t ColumnValues::ApproximateMemoryUsage() const {
  size_t total = ints.capacity() * sizeof(int64_t) +
                 dbls.capacity() * sizeof(double) +
                 strs.capacity() * sizeof(std::string);
  for (const std::string& s : strs) total += s.capacity();
  return total;
}

void EncodeIntChunk(const std::vector<int64_t>& v, ChunkEncoding enc,
                    std::string* out) {
  if (v.empty()) return;
  if (enc == ChunkEncoding::kZigZag) {
    for (int64_t x : v) PutVarint64(out, ZigZagEncode(x));
    return;
  }
  // kDeltaDelta: first value, first delta, then delta-of-deltas.
  PutVarint64(out, ZigZagEncode(v[0]));
  uint64_t prev_delta = 0;
  for (size_t i = 1; i < v.size(); i++) {
    uint64_t delta = WrapDelta(v[i], v[i - 1]);
    uint64_t dod = delta - prev_delta;
    PutVarint64(out, ZigZagEncode(static_cast<int64_t>(dod)));
    prev_delta = delta;
  }
}

void EncodeDoubleChunk(const std::vector<double>& v, std::string* out) {
  if (v.empty()) return;
  PutFixed64(out, DoubleBits(v[0]));
  uint64_t prev = DoubleBits(v[0]);
  for (size_t i = 1; i < v.size(); i++) {
    uint64_t bits = DoubleBits(v[i]);
    PutVarint64(out, bits ^ prev);
    prev = bits;
  }
}

namespace {

// Sorted distinct values -> dense ids, shared by the dict chooser/encoder.
std::map<std::string, uint32_t> BuildDict(const std::vector<std::string>& v) {
  std::map<std::string, uint32_t> dict;
  for (const std::string& s : v) dict.emplace(s, 0);
  uint32_t id = 0;
  for (auto& [key, value] : dict) value = id++;
  return dict;
}

size_t SharedPrefixLen(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return i;
}

}  // namespace

void EncodeBytesChunk(const std::vector<std::string>& v, ChunkEncoding enc,
                      std::string* out) {
  if (v.empty()) return;
  if (enc == ChunkEncoding::kPlainBytes) {
    for (const std::string& s : v) PutLengthPrefixedSlice(out, s);
    return;
  }
  // kDict: front-coded sorted dictionary, then one index per row.
  std::map<std::string, uint32_t> dict = BuildDict(v);
  PutVarint32(out, static_cast<uint32_t>(dict.size()));
  const std::string* prev = nullptr;
  for (const auto& [entry, id] : dict) {
    size_t shared = prev ? SharedPrefixLen(*prev, entry) : 0;
    PutVarint32(out, static_cast<uint32_t>(shared));
    PutVarint32(out, static_cast<uint32_t>(entry.size() - shared));
    out->append(entry.data() + shared, entry.size() - shared);
    prev = &entry;
  }
  for (const std::string& s : v) PutVarint32(out, dict.find(s)->second);
}

ChunkEncoding ChooseIntEncoding(const std::vector<int64_t>& v) {
  size_t zz = 0, dod = 0;
  uint64_t prev_delta = 0;
  for (size_t i = 0; i < v.size(); i++) {
    zz += VarintLength(ZigZagEncode(v[i]));
    if (i == 0) {
      dod += VarintLength(ZigZagEncode(v[0]));
    } else {
      uint64_t delta = WrapDelta(v[i], v[i - 1]);
      dod += VarintLength(ZigZagEncode(static_cast<int64_t>(delta - prev_delta)));
      prev_delta = delta;
    }
  }
  return dod <= zz ? ChunkEncoding::kDeltaDelta : ChunkEncoding::kZigZag;
}

ChunkEncoding ChooseBytesEncoding(const std::vector<std::string>& v) {
  size_t plain = 0;
  for (const std::string& s : v) plain += VarintLength(s.size()) + s.size();

  std::map<std::string, uint32_t> dict = BuildDict(v);
  size_t dict_cost = VarintLength(dict.size());
  const std::string* prev = nullptr;
  for (const auto& [entry, id] : dict) {
    size_t shared = prev ? SharedPrefixLen(*prev, entry) : 0;
    dict_cost += VarintLength(shared) + VarintLength(entry.size() - shared) +
                 (entry.size() - shared);
    prev = &entry;
  }
  for (const std::string& s : v) dict_cost += VarintLength(dict.find(s)->second);
  return dict_cost < plain ? ChunkEncoding::kDict : ChunkEncoding::kPlainBytes;
}

namespace {

// The int and double decoders write into storage sized once to `count`
// (DecodeChunk bounded count by the chunk bytes) through an inlined varint
// loop; on error the partial values are dropped.
Status DecodeIntChunk(Slice in, ChunkEncoding enc, uint32_t count,
                      ColumnValues* out) {
  out->arm = ColumnValues::Arm::kInt;
  out->ints.resize(count);
  int64_t* v = out->ints.data();
  const char* p = in.data();
  const char* const limit = p + in.size();
  if (enc == ChunkEncoding::kZigZag) {
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      p = DecodeVarint64(p, limit, &u);
      if (p == nullptr) {
        out->ints.clear();
        return Status::Corruption("short int chunk");
      }
      v[i] = ZigZagDecode(u);
    }
  } else {
    uint64_t value = 0, delta = 0;
    for (uint32_t i = 0; i < count; i++) {
      uint64_t u;
      p = DecodeVarint64(p, limit, &u);
      if (p == nullptr) {
        out->ints.clear();
        return Status::Corruption("short dod chunk");
      }
      if (i == 0) {
        value = static_cast<uint64_t>(ZigZagDecode(u));
      } else {
        delta += static_cast<uint64_t>(ZigZagDecode(u));
        value += delta;
      }
      v[i] = static_cast<int64_t>(value);
    }
  }
  if (p != limit) {
    out->ints.clear();
    return Status::Corruption("int chunk trailing bytes");
  }
  return Status::OK();
}

Status DecodeDoubleChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kDouble;
  out->dbls.resize(count);
  double* v = out->dbls.data();
  const char* p = in.data();
  const char* const limit = p + in.size();
  uint64_t prev = 0;
  for (uint32_t i = 0; i < count; i++) {
    if (i == 0) {
      if (limit - p < 8) {
        out->dbls.clear();
        return Status::Corruption("short xor chunk");
      }
      prev = DecodeFixed64(p);
      p += 8;
    } else {
      uint64_t x;
      p = DecodeVarint64(p, limit, &x);
      if (p == nullptr) {
        out->dbls.clear();
        return Status::Corruption("short xor chunk");
      }
      prev ^= x;
    }
    v[i] = BitsDouble(prev);
  }
  if (p != limit) {
    out->dbls.clear();
    return Status::Corruption("xor chunk trailing bytes");
  }
  return Status::OK();
}

Status DecodeDictChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kBytes;
  // The encoder emits nothing at all for an empty chunk — not even the
  // dictionary-size varint.
  if (count == 0) {
    if (!in.empty()) return Status::Corruption("dict chunk trailing bytes");
    return Status::OK();
  }
  uint32_t n;
  if (!GetVarint32(&in, &n)) return Status::Corruption("bad dict size");
  // A dictionary cannot hold more distinct values than the chunk has rows,
  // and a non-empty chunk needs a non-empty dictionary.
  if (n > count || (count > 0 && n == 0)) {
    return Status::Corruption("dict size out of range");
  }
  std::vector<std::string> dict;
  dict.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    uint32_t shared, suffix_len;
    if (!GetVarint32(&in, &shared) || !GetVarint32(&in, &suffix_len)) {
      return Status::Corruption("bad dict entry header");
    }
    if (i == 0 ? shared != 0 : shared > dict.back().size()) {
      return Status::Corruption("dict shared prefix out of range");
    }
    if (suffix_len > in.size()) {
      return Status::Corruption("dict entry suffix truncated");
    }
    std::string entry;
    entry.reserve(shared + suffix_len);
    if (i > 0) entry.assign(dict.back(), 0, shared);
    entry.append(in.data(), suffix_len);
    in.remove_prefix(suffix_len);
    // Entries must be strictly ascending (the encoder emits a sorted set);
    // anything else is a corrupt or non-canonical dictionary.
    if (i > 0 && entry <= dict.back()) {
      return Status::Corruption("dict entries not ascending");
    }
    dict.push_back(std::move(entry));
  }
  out->strs.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    uint32_t idx;
    if (!GetVarint32(&in, &idx)) return Status::Corruption("short dict index");
    if (idx >= n) return Status::Corruption("dict index out of range");
    out->strs.push_back(dict[idx]);
  }
  if (!in.empty()) return Status::Corruption("dict chunk trailing bytes");
  return Status::OK();
}

Status DecodePlainBytesChunk(Slice in, uint32_t count, ColumnValues* out) {
  out->arm = ColumnValues::Arm::kBytes;
  out->strs.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice s;
    if (!GetLengthPrefixedSlice(&in, &s)) {
      return Status::Corruption("short bytes chunk");
    }
    out->strs.push_back(s.ToString());
  }
  if (!in.empty()) return Status::Corruption("bytes chunk trailing bytes");
  return Status::OK();
}

}  // namespace

Status DecodeChunk(Slice in, ChunkEncoding enc, uint32_t count,
                   ColumnValues* out) {
  out->arm = ColumnValues::Arm::kNone;
  out->ints.clear();
  out->dbls.clear();
  out->strs.clear();
  // Every encoding spends at least one byte per value (kXor spends 8 on the
  // first), so a count beyond the chunk size is corrupt — checked before any
  // reserve() so garbage counts cannot drive huge allocations.
  if (count > in.size()) {
    return Status::Corruption("chunk count exceeds chunk bytes");
  }
  switch (enc) {
    case ChunkEncoding::kDeltaDelta:
    case ChunkEncoding::kZigZag:
      return DecodeIntChunk(in, enc, count, out);
    case ChunkEncoding::kXor:
      return DecodeDoubleChunk(in, count, out);
    case ChunkEncoding::kDict:
      return DecodeDictChunk(in, count, out);
    case ChunkEncoding::kPlainBytes:
      return DecodePlainBytesChunk(in, count, out);
  }
  return Status::Corruption("unknown chunk encoding");
}

}  // namespace lt
