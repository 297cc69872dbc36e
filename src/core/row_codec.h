// Row and key serialization against a schema. Rows are stored in tablet
// blocks as the concatenation of their cell encodings in schema order; keys
// appear standalone in block indexes and Bloom filters. Key columns lead the
// schema, so a row's key encoding — and each key prefix's — is a byte prefix
// of the row's encoding.
//
// The write path keeps rows in this form from the server to the tablet
// block: EncodedRows carries a batch, ParseRow walks one row in place.
#ifndef LITTLETABLE_CORE_ROW_CODEC_H_
#define LITTLETABLE_CORE_ROW_CODEC_H_

#include <string>
#include <vector>

#include "core/schema.h"

namespace lt {

/// One primary-key cell, read in place. Key columns are never doubles
/// (Schema::Validate), so a cell is an integer (int32, int64 and timestamp
/// columns, in `i`) or a byte string (string and blob columns, in `s`,
/// pointing into storage the reader pins while it uses the cell).
struct KeyCell {
  int64_t i = 0;
  Slice s;
};

/// Appends the encoding of all cells of `row` to `dst`.
void EncodeRow(std::string* dst, const Schema& schema, const Row& row);

/// Decodes one row, consuming from `input`.
Status DecodeRow(Slice* input, const Schema& schema, Row* out);

/// Appends the encoding of the leading `key.size()` key columns.
void EncodeKey(std::string* dst, const Schema& schema, const Key& key);

/// Appends the key encoding of `key` (one cell per key column of `schema`),
/// the bytes EncodeKey writes for the same key, and sets ends[c] to
/// dst->size() just past cell c.
void EncodeKeyCells(const Schema& schema, const KeyCell* key,
                    std::string* dst, uint32_t* ends);

/// Decodes a full primary key (all key columns).
Status DecodeKey(Slice* input, const Schema& schema, Key* out);

/// Walks the row encoding at the front of `input` under `schema` and
/// consumes it, failing closed: every cell must be well-formed, int32 cells
/// in range, and every varint canonical — exactly the bytes EncodeRow
/// writes, so two rows with equal keys have byte-equal key encodings.
/// Optional outputs: `key` receives the num_key_columns() key cells (byte
/// cells point into `input`'s storage), `key_ends` the offset just past
/// each key cell, and `charge` the row's seal charge.
///
/// The seal charge is what a MemTablet adds toward its flush_bytes trigger
/// per row: the footprint the row once had decoded as Values — the vector,
/// one Value per column, and each string or blob cell's std::string
/// capacity (its length, or the inline capacity when shorter). It depends
/// on the schema and cell lengths only, so memtablets seal after the same
/// rows whatever form the row arrives in. It is not the arena's byte count.
Status ParseRow(Slice* input, const Schema& schema, KeyCell* key = nullptr,
                uint32_t* key_ends = nullptr, size_t* charge = nullptr);

/// Re-points the byte cells among `key` (one per key column of `schema`)
/// from `from` to the same offsets in `to`: for key cells parsed from one
/// buffer and kept with a copy of its bytes.
void RebaseKeyCells(const Schema& schema, const char* from, const char* to,
                    KeyCell* key);

/// A batch of rows as their EncodeRow bytes under one schema version, back
/// to back: the write path's unit from the server to the memtablet.
struct EncodedRows {
  uint32_t schema_version = 0;
  std::string bytes;
  std::vector<uint32_t> ends;  // Row i is bytes[ends[i-1], ends[i]).

  size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  Slice row(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return Slice(bytes.data() + begin, ends[i] - begin);
  }
  void Clear(uint32_t version) {
    schema_version = version;
    bytes.clear();
    ends.clear();
  }
  /// Appends a row already encoded under schema_version.
  void AddEncoded(const Slice& row) {
    bytes.append(row.data(), row.size());
    ends.push_back(static_cast<uint32_t>(bytes.size()));
  }
  /// Encodes and appends `row`, which must match `schema`.
  void Add(const Schema& schema, const Row& row) {
    EncodeRow(&bytes, schema, row);
    ends.push_back(static_cast<uint32_t>(bytes.size()));
  }
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_ROW_CODEC_H_
