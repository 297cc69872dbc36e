// TabletWriter: serializes a sorted row stream into an on-disk tablet file.
//
// File layout (§3.2, §3.5):
//
//   block 0 … block N-1          (see block.h for the per-block framing)
//   footer                       (compressed; see below)
//   trailer (28 bytes):
//     fixed32 masked-CRC32C of the compressed footer
//     fixed64 footer decompressed size     \  the "final two words"
//     fixed64 footer offset in the file    /  the paper describes
//     fixed64 magic                        (encodes the format version)
//
// The footer payload carries the tablet's schema, the block index (last key,
// offset, sizes, row count, and a masked CRC32C of each stored block), the
// tablet timespan, min/max keys, and the optional Bloom filter over key
// prefixes (§3.4.5). On average the index is ~0.5% of the tablet, so readers
// cache it in memory indefinitely. The stored footer is a one-byte marker
// (0 = raw, 1 = lzmini) ahead of the footer bytes, so an incompressible
// footer skips the expansion.
//
// Format versions (distinguished by the trailer magic). This build writes
// only the newest:
//   2 ("lttab1v3"): columnar blocks — per-column chunks with type-specialized
//     encodings, each independently compressed or stored raw (see block.h).
//     An index entry's payload_len is the uncompressed image size.
//   1 ("lttab1v2"): row-wise blocks, each lzmini-compressed whole, and a
//     footer that is always lzmini with no marker byte. Read only; merges
//     rewrite its rows as format 2.
//   0 ("lttab1v1"): format 1 without the per-block CRC in the index. No
//     longer read: the reader refuses it as Corruption, so the table
//     quarantines it. Merge such tablets with an older build before
//     upgrading.
//
// Both flushes (§3.4.1) and merges write tablets through this class, always
// as one long sequential write — that is the core of LittleTable's insert
// efficiency on spinning disks. A flush adds rows as their encodings (the
// memtablet's arena bytes); a merge adds runs of decoded block columns
// (AddMerged), so its rows are never encoded between the input blocks and
// the output block. Both make the same per-row decisions — block cuts,
// Bloom keys, key range — so a tablet's bytes do not depend on the route.
#ifndef LITTLETABLE_CORE_TABLET_WRITER_H_
#define LITTLETABLE_CORE_TABLET_WRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/block.h"
#include "core/stats.h"
#include "core/tablet_meta.h"
#include "env/env.h"
#include "util/bloom.h"

namespace lt {

constexpr uint64_t kTabletMagic = 0x6c74746162317631ull;    // "lttab1v1"
constexpr uint64_t kTabletMagicV2 = 0x6c74746162317632ull;  // "lttab1v2"
constexpr uint64_t kTabletMagicV3 = 0x6c74746162317633ull;  // "lttab1v3"
constexpr size_t kTabletTrailerSize = 4 + 8 + 8 + 8;
/// The on-disk format version this build writes (the only one).
constexpr uint32_t kTabletFormatLatest = 2;

struct TabletWriterOptions {
  /// Uncompressed row bytes per block.
  size_t block_bytes = 64 * 1024;
  /// Bloom filter over key prefixes; <= 0 disables it.
  int bloom_bits_per_key = 10;
  /// Sync the file before Finish returns (flushes must sync before the
  /// descriptor references the tablet).
  bool sync = true;
  /// Optional per-table counters: receives block_bytes_raw/compressed for
  /// the store-raw fallback accounting. Must outlive the writer.
  TableStats* stats = nullptr;
};

class TabletWriter {
 public:
  /// Creates `fname` for writing. `schema` must outlive the writer.
  TabletWriter(Env* env, std::string fname, const Schema* schema,
               TabletWriterOptions options);

  /// Appends a row given as its encoding under the schema (EncodeRow
  /// bytes; malformed input is rejected). Rows must arrive in strictly
  /// ascending key order (the writer checks and rejects regressions —
  /// flushes and merges both produce sorted, duplicate-free streams). The
  /// row's key encoding and every Bloom key prefix are byte prefixes of it.
  Status Add(const Slice& row);
  /// Checks `row` against the schema, encodes it and adds it.
  Status Add(const Row& row);
  /// Adds rows [first, first + count) of `block` (prepared, under the
  /// writer's schema or an older version of it), each of whose encodings
  /// under the writer's schema is `tail` bytes longer than under the
  /// block's (appended columns' defaults). Each row is checked and
  /// accounted from its decoded key cells as Add accounts it, and blocks
  /// are cut after the same rows; cells go to the block builder as column
  /// ranges. On error the rows before the failing one stay added.
  Status AddRows(const BlockReader& block, size_t first, size_t count,
                 size_t tail);
  /// Adds the merge of `inputs` — ascending cursors translated to the
  /// writer's schema — dropping rows with ts below `min_ts` (the TTL
  /// cutoff): one run over a MergingCursor, whose tablet cursors hand their
  /// stretches to AddRows.
  Status AddMerged(std::vector<std::unique_ptr<Cursor>> inputs,
                   Timestamp min_ts);

  uint64_t rows_added() const { return rows_added_; }

  /// Writes the final block, footer, and trailer; syncs and closes. Fills
  /// `meta` (everything except flushed_at, which the caller stamps).
  Status Finish(TabletMeta* meta);

  /// Abandons the file (best effort removal).
  void Abandon();

 private:
  struct IndexEntry {
    std::string last_key;  // Encoded full key of the block's last row.
    uint64_t offset;
    uint32_t stored_len;
    uint32_t payload_len;
    uint32_t row_count;
    uint32_t crc;  // Masked CRC32C of the stored block bytes.
  };

  /// The per-row bookkeeping of Add and AddRows, from the row's key: the
  /// strict-order check, Bloom keys, timespan, and min/last key. `key` is
  /// the key's encoding, cells_ its cells and ends_ the end of each cell.
  Status AddKey(const Slice& key);
  Status FlushBlock();

  Env* env_;
  std::string fname_;
  const Schema* schema_;
  TabletWriterOptions opts_;
  std::unique_ptr<WritableFile> file_;
  Status open_status_;

  BlockBuilder block_;
  std::vector<IndexEntry> index_;
  BloomFilterBuilder bloom_;
  KeyOrder order_;
  uint64_t file_offset_ = 0;
  uint64_t rows_added_ = 0;
  Timestamp min_ts_ = 0, max_ts_ = 0;
  std::string min_key_;  // Encoded full key of the first row.
  // The row being added: its key cells and the end offset of each.
  std::vector<KeyCell> cells_;
  std::vector<uint32_t> ends_;
  // AddRows scratch: a row's key encoding, and the stretch's row lengths.
  std::string key_buf_;
  std::vector<size_t> lengths_;
  // The last row added, for ordering checks and repeated Bloom prefixes:
  // its encoded key (the max key, and the open block's last key), and its
  // key cells (byte cells pointing into last_key_) and their end offsets.
  std::string last_key_;
  std::vector<KeyCell> last_cells_;
  std::vector<uint32_t> last_ends_;
  std::string row_buf_;  // Add(const Row&)'s encoding.
  bool finished_ = false;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_TABLET_WRITER_H_
