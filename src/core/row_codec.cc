#include "core/row_codec.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace lt {

namespace {

// std::string's inline (small-string) capacity, part of the seal charge.
const size_t kInlineCapacity = std::string().capacity();

// Reads a varint that must be in canonical (shortest) form.
bool GetCanonicalVarint(Slice* input, uint64_t* v) {
  const size_t before = input->size();
  return GetVarint64(input, v) &&
         before - input->size() == static_cast<size_t>(VarintLength(*v));
}

}  // namespace

void EncodeRow(std::string* dst, const Schema& schema, const Row& row) {
  for (size_t i = 0; i < schema.num_columns(); i++) {
    EncodeValue(dst, row[i], schema.columns()[i].type);
  }
}

Status DecodeRow(Slice* input, const Schema& schema, Row* out) {
  out->clear();
  out->reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); i++) {
    Value v;
    LT_RETURN_IF_ERROR(DecodeValue(input, schema.columns()[i].type, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

void EncodeKey(std::string* dst, const Schema& schema, const Key& key) {
  for (size_t i = 0; i < key.size(); i++) {
    EncodeValue(dst, key[i], schema.columns()[i].type);
  }
}

void EncodeKeyCells(const Schema& schema, const KeyCell* key,
                    std::string* dst, uint32_t* ends) {
  const size_t nkey = schema.num_key_columns();
  auto is_bytes = [&](size_t c) {
    const ColumnType t = schema.columns()[c].type;
    return t == ColumnType::kString || t == ColumnType::kBlob;
  };
  // Sized once for the longest encoding, then written in place.
  size_t most = dst->size();
  for (size_t c = 0; c < nkey; c++) {
    most += 10 + (is_bytes(c) ? key[c].s.size() : 0);
  }
  const size_t start = dst->size();
  dst->resize(most);
  char* const base = dst->data();
  char* p = base + start;
  for (size_t c = 0; c < nkey; c++) {
    if (is_bytes(c)) {
      p = EncodeVarint64(p, key[c].s.size());
      memcpy(p, key[c].s.data(), key[c].s.size());
      p += key[c].s.size();
    } else {
      p = EncodeVarint64(p, ZigZagEncode(key[c].i));
    }
    ends[c] = static_cast<uint32_t>(p - base);
  }
  dst->resize(static_cast<size_t>(p - base));
}

Status DecodeKey(Slice* input, const Schema& schema, Key* out) {
  out->clear();
  out->reserve(schema.num_key_columns());
  for (size_t i = 0; i < schema.num_key_columns(); i++) {
    Value v;
    LT_RETURN_IF_ERROR(DecodeValue(input, schema.columns()[i].type, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status ParseRow(Slice* input, const Schema& schema, KeyCell* key,
                uint32_t* key_ends, size_t* charge) {
  const char* const start = input->data();
  const size_t num_keys = schema.num_key_columns();
  size_t bytes_charge = 0;
  for (size_t c = 0; c < schema.num_columns(); c++) {
    KeyCell cell;
    switch (schema.columns()[c].type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64:
      case ColumnType::kTimestamp: {
        uint64_t u;
        if (!GetCanonicalVarint(input, &u)) {
          return Status::Corruption("bad integer cell");
        }
        cell.i = ZigZagDecode(u);
        if (schema.columns()[c].type == ColumnType::kInt32 &&
            (cell.i < INT32_MIN || cell.i > INT32_MAX)) {
          return Status::Corruption("int32 cell out of range");
        }
        break;
      }
      case ColumnType::kDouble:
        if (input->size() < 8) return Status::Corruption("bad double cell");
        input->remove_prefix(8);
        break;
      case ColumnType::kString:
      case ColumnType::kBlob: {
        uint64_t len;
        if (!GetCanonicalVarint(input, &len) || input->size() < len) {
          return Status::Corruption("bad bytes cell");
        }
        cell.s = Slice(input->data(), len);
        input->remove_prefix(len);
        bytes_charge += std::max<size_t>(len, kInlineCapacity);
        break;
      }
    }
    if (c < num_keys) {
      if (key != nullptr) key[c] = cell;
      if (key_ends != nullptr) {
        key_ends[c] = static_cast<uint32_t>(input->data() - start);
      }
    }
  }
  if (charge != nullptr) {
    *charge = sizeof(Row) + schema.num_columns() * sizeof(Value) + bytes_charge;
  }
  return Status::OK();
}

void RebaseKeyCells(const Schema& schema, const char* from, const char* to,
                    KeyCell* key) {
  for (size_t c = 0; c < schema.num_key_columns(); c++) {
    ColumnType t = schema.columns()[c].type;
    if (t == ColumnType::kString || t == ColumnType::kBlob) {
      key[c].s = Slice(to + (key[c].s.data() - from), key[c].s.size());
    }
  }
}

}  // namespace lt
