// Tablet blocks (§3.2, §3.5).
//
// An on-disk tablet is a sequence of rows sorted by primary key and grouped
// into blocks (64 kB of row data by default). Every block this build writes
// is columnar (tablet format 2, see tablet_writer.h), stored as:
//
//   fixed32 masked-CRC32C of the image
//   image:
//     varint32 row count
//     varint32 column count
//     chunk directory, one entry per column:
//       uint8    encoding            (ChunkEncoding, column_codec.h)
//       uint8    compression marker  (0 = raw, 1 = lzmini)
//       varint32 stored_len          (chunk bytes as stored in the image)
//       varint32 raw_len             (chunk bytes before compression)
//     chunk bytes back-to-back, in column order
//
// Each column of the block's rows is one independently encoded chunk,
// compressed by itself — or stored raw when lzmini would expand it (the
// marker byte) — so a reader can decode exactly the columns a query
// references and nothing else. Chunks decode lazily, on first touch, into
// the shared BlockContents; in-block binary search touches only key
// columns, and a projected scan never touches unreferenced columns at all.
//
// Tablet format 1 blocks are still read (never written). They are
// row-wise:
//
//   fixed32 masked-CRC32C of the compressed payload
//   lzmini-compressed payload:
//     row encodings back-to-back
//     fixed32 start offset of each row
//     fixed32 row count
//
// and are transposed into the same column view once, at parse.
//
// The tablet index stores each block's last key and the CRC of its whole
// stored frame (the inner CRC above included), so readers check that one
// and skip the inner one. A query binary-searches the index to find the
// relevant block and then binary-searches within the block to find the
// relevant row (§3.2).
#ifndef LITTLETABLE_CORE_BLOCK_H_
#define LITTLETABLE_CORE_BLOCK_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/column_codec.h"
#include "core/cursor.h"
#include "core/row_codec.h"
#include "core/schema.h"
#include "core/stats.h"

namespace lt {

class BlockReader;

/// Accumulates rows into one columnar block image. Blocks are sized by
/// uncompressed row-encoding bytes (data_bytes), the unit of the 64 kB
/// target.
class BlockBuilder {
 public:
  explicit BlockBuilder(const Schema* schema) : schema_(schema) {}

  /// Appends a row given as its encoding under the schema, well-formed (as
  /// ParseRow checks). Rows must arrive in ascending key order. The cells
  /// are decoded once, into the column accumulators.
  void Add(const Slice& row);
  /// Encodes `row` (which must match the schema) and adds it.
  void Add(const Row& row);
  /// Appends rows [first, first + count) of `block` as decoded columns, a
  /// range copy per column. The block's schema is an older version of this
  /// builder's or the same (§3.5: evolution appends columns and widens
  /// int32 to int64, which share the integer arm); appended columns take
  /// their defaults. `bytes` is the rows' encoded length under this schema.
  void AddRows(const BlockReader& block, size_t first, size_t count,
               size_t bytes);

  size_t num_rows() const { return num_rows_; }
  /// Bytes of row data so far (the 64 kB target applies to this).
  size_t data_bytes() const { return data_bytes_; }
  bool empty() const { return num_rows_ == 0; }

  /// Completes the image and returns it; the builder resets for the next
  /// block.
  std::string Finish();
  /// As Finish, but appends the image to `dst` (a frame being built).
  void FinishInto(std::string* dst);

  /// Cumulative chunk bytes this builder stored raw vs. lzmini-compressed
  /// across all Finish calls — the per-table block_bytes_raw/compressed
  /// counters.
  uint64_t bytes_raw() const { return bytes_raw_; }
  uint64_t bytes_compressed() const { return bytes_compressed_; }

 private:
  /// Sizes cols_ to the schema (on first use).
  void InitColumns();

  const Schema* schema_;
  std::string row_buf_;  // Add(const Row&)'s encoding.
  size_t data_bytes_ = 0;
  // Per-column value accumulators (indexed like the schema).
  std::vector<ColumnValues> cols_;
  size_t num_rows_ = 0;
  uint64_t bytes_raw_ = 0;
  uint64_t bytes_compressed_ = 0;
};

/// A verified block, as decoded columns — schema-free once parsed, so one
/// BlockContents can be shared (via the block cache) by every cursor reading
/// the block, and can outlive the TabletReader that produced it.
///
/// Both layouts end up in the same column view. Row-wise blocks (format 1)
/// are transposed into columns once, at Parse — their cells are not
/// self-describing, so Parse takes the tablet schema. Columnar blocks keep
/// the image and materialize one column per EnsureColumn call —
/// thread-safe (double-checked atomics under a decode mutex), with sticky
/// errors, so concurrent cursors sharing a cached block each pay at most
/// one decode per column. Not movable once parsed; always heap-allocate and
/// share.
struct BlockContents {
  struct ChunkRef {
    uint8_t encoding;     // ChunkEncoding byte (validated).
    uint8_t compression;  // 0 = raw, 1 = lzmini.
    uint32_t offset;      // Chunk start within payload (not the image).
    uint32_t stored_len;
    uint32_t raw_len;
  };
  // ---- Columnar state (tablet format 2). ----
  // The columnar image, maybe after its stored frame's CRC (empty for
  // row-wise blocks).
  std::string payload;
  std::vector<ChunkRef> chunks;
  bool columnar = false;

  /// Validates a format-1 row-wise payload's trailer and decodes every row
  /// into columns typed by `schema` (the tablet's). Any malformed cell is
  /// Corruption.
  static Status Parse(const Schema& schema, std::string payload,
                      BlockContents* out);

  /// Validates a columnar image's chunk directory (bounds, encoding bytes,
  /// markers, exact coverage of the image) without decoding any chunk. The
  /// image is `buf` from byte `image_start` on (<= buf.size()); the
  /// contents keep all of `buf`, so a stored frame parses with no copy.
  static Status ParseColumnar(std::string buf, BlockContents* out,
                              size_t image_start = 0);

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return columns_; }

  /// Decompresses and decodes column `c` if this is the first touch;
  /// `*did_decode` (optional) reports whether this call did the work.
  /// Errors are sticky: a corrupt chunk fails every caller identically.
  /// Row-wise columns are decoded at Parse, so this never decodes them.
  Status EnsureColumn(size_t c, bool* did_decode = nullptr) const;

  /// The decoded values of column `c`. Only valid after EnsureColumn(c)
  /// returned OK.
  const ColumnValues& column(size_t c) const { return lazy_[c].values; }

  /// Heap footprint, the block-cache charge for this entry. For columnar
  /// blocks this is a stable upper bound that includes every chunk fully
  /// materialized, so lazy decodes never grow an entry past its charge.
  size_t ApproximateMemoryUsage() const { return approx_mem_; }

 private:
  struct LazyCol {
    // 0 = not decoded, 1 = ready, 2 = failed.
    std::atomic<int> state{0};
    ColumnValues values;
    Status error;
  };
  uint32_t rows_ = 0;
  uint32_t columns_ = 0;
  // Array (not vector): atomics are neither movable nor copyable.
  std::unique_ptr<LazyCol[]> lazy_;
  mutable std::mutex decode_mu_;
  size_t approx_mem_ = 0;  // Fixed at Parse (see above).
};

/// Positional row access and in-block binary search over a (possibly
/// shared) BlockContents, interpreted under the tablet schema. Copyable:
/// copies share the contents. The shared_ptr's deleter is how cache-resident
/// blocks stay pinned while a cursor is positioned in them.
///
/// Rows are read in place from the decoded columns. Prepare() ensures the
/// needed columns once per block load and validates each against the
/// schema — chunk count, row count, chunk arm vs declared type, int32 range
/// — so the per-row accessors below index the column arrays without checks.
class BlockReader {
 public:
  /// Parses a columnar `image` into freshly owned contents.
  static Status ParseColumnar(const Schema* schema, std::string image,
                              BlockReader* out);

  /// Points this reader at already-parsed contents (cache hits). `stats`
  /// (optional) receives column_chunks_decoded increments for lazy decodes
  /// this reader triggers; it must outlive the reader. The reader must be
  /// prepared again before row access.
  void Reset(const Schema* schema,
             std::shared_ptr<const BlockContents> contents,
             TableStats* stats = nullptr) {
    schema_ = schema;
    contents_ = std::move(contents);
    stats_ = stats;
    prepared_ = false;
  }

  /// Projection hint for columnar blocks: `needed` has one entry per schema
  /// column; rows read false entries as the column's default value without
  /// ever decoding the chunk. Key columns must be marked needed (seeks and
  /// merge ordering read them regardless). Null (the default) reads every
  /// column. Row-wise blocks are decoded whole at Parse and ignore the
  /// hint. The pointer must outlive the reader.
  void set_needed_columns(const std::vector<char>* needed) {
    needed_ = needed;
  }

  size_t num_rows() const { return contents_ ? contents_->num_rows() : 0; }
  bool columnar() const { return contents_ && contents_->columnar; }
  const BlockContents* contents() const { return contents_.get(); }

  /// Ensures and validates every needed column. Row access requires it to
  /// have returned OK since the last Reset.
  Status Prepare();
  bool prepared() const { return prepared_; }

  // Row i (rows are indexed in ascending key order); each requires
  // Prepare() and i < num_rows().

  /// The row's key cells, one per key column.
  void KeyAt(size_t i, KeyCell* out) const;
  /// Three-way comparison of the row's first `n` key cells with `cells`
  /// (n <= num_key_columns), straight from the key columns; the same
  /// order as KeyOrder::Compare.
  int CompareKeyAt(size_t i, const KeyCell* cells, size_t n) const {
    for (size_t c = 0; c < n; c++) {
      const ColumnValues& col = *cols_[c];
      int r;
      if (col.arm == ColumnValues::Arm::kBytes) {
        r = Slice(col.strs[i]).compare(cells[c].s);
      } else {
        const int64_t v = col.ints[i];
        r = v < cells[c].i ? -1 : (v > cells[c].i ? 1 : 0);
      }
      if (r != 0) return r;
    }
    return 0;
  }
  /// The decoded integers of key column `c` (every key column is one).
  const int64_t* KeyInts(size_t c) const { return cols_[c]->ints.data(); }
  /// Appends the row's encoding under the block's schema (EncodeRow bytes).
  void AppendEncodedAt(size_t i, std::string* dst) const;
  /// Sets (*lengths)[k] to the encoded length of the k-th of `count` rows
  /// starting at row `first` and moving down (`descending`) or up, plus
  /// `tail` bytes; computed column by column.
  void RowLengths(size_t first, size_t count, bool descending, size_t tail,
                  std::vector<size_t>* lengths) const;
  /// Appends the encodings of up to `count` rows starting at row `first`
  /// and moving down (`descending`) or up, each followed by `tail`, and
  /// stops after the row that brings dst->size() to `byte_target`.
  /// Returns the rows appended. The output is sized once and filled column
  /// by column; `offsets` is scratch.
  size_t AppendRows(size_t first, size_t count, bool descending,
                    const Slice& tail, size_t byte_target, std::string* dst,
                    std::vector<size_t>* offsets) const;
  /// Appends rows [first, first + count) of each column onto `cols` (one
  /// per schema column, each of the same arm; projected-away columns append
  /// their defaults) and returns the number of columns, the schema's.
  size_t AppendColumns(size_t first, size_t count, ColumnValues* cols) const;
  /// Builds the row as Values under the block's schema.
  void RowAt(size_t i, Row* out) const;

  /// Index of the first row whose key-vs-prefix comparison is >= 0
  /// (`or_equal`) or > 0 (!`or_equal`); returns num_rows() if none.
  /// Used to position cursors at a query's minimum key bound. Touches only
  /// the compared key columns; needs no Prepare.
  Status SeekFirst(const Key& prefix, bool or_equal, size_t* index) const;

 private:
  /// Ensures column `c` and validates it against its declared type.
  Status EnsureColumn(size_t c) const;

  const Schema* schema_ = nullptr;
  std::shared_ptr<const BlockContents> contents_;
  TableStats* stats_ = nullptr;
  const std::vector<char>* needed_ = nullptr;
  // Set by Prepare: per column, its values, or null when the projection
  // skips it — and then, in defaults_, its default value's encoding.
  std::vector<const ColumnValues*> cols_;
  std::vector<std::string> defaults_;
  bool prepared_ = false;
};

/// Bytes of a stored block frame before its image or payload: the inner
/// masked CRC.
constexpr size_t kBlockCrcBytes = 4;

/// Frames a columnar image in place (CRC + image; chunks are already
/// individually compressed, so no whole-block pass): `frame` holds
/// kBlockCrcBytes of room, then the image, and the room gets the image's
/// CRC. A reader parses the image out of the frame with
/// BlockContents::ParseColumnar(frame, out, kBlockCrcBytes), skipping the
/// inner CRC: the index CRC it has already checked covers the whole frame.
void StoreBlockV2(std::string* frame);

/// Unframes and decompresses a format-1 row-wise block (inner CRC + lzmini
/// payload); the inner CRC is skipped as for format 2.
Status LoadBlock(const Slice& stored, std::string* payload);

}  // namespace lt

#endif  // LITTLETABLE_CORE_BLOCK_H_
