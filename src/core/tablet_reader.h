// TabletReader: opens an on-disk tablet, caches its footer (index, schema,
// timespan, Bloom filter) in memory, and serves cursors.
//
// Reading the footer of a cold tablet costs three seeks (§3.5): the inode,
// the trailer words at the end of the file, and the footer itself. Once the
// footer is cached — readers stay open for the life of the table — any block
// is one more seek away, which is exactly the 4-seek/1-seek split Figure 6
// measures.
#ifndef LITTLETABLE_CORE_TABLET_READER_H_
#define LITTLETABLE_CORE_TABLET_READER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/block.h"
#include "core/bounds.h"
#include "core/cursor.h"
#include "core/query_trace.h"
#include "core/stats.h"
#include "core/tablet_meta.h"
#include "env/env.h"
#include "util/bloom.h"
#include "util/cache.h"

namespace lt {

class TabletReader : public std::enable_shared_from_this<TabletReader> {
 public:
  /// Creates a reader for `fname`. The footer is loaded lazily, on first
  /// use — after a restart, footers are "reloaded into memory on demand"
  /// (§3.5), so opening a table with hundreds of tablets costs nothing and
  /// a query pays footer seeks only for the tablets its timestamp range
  /// selects.
  ///
  /// `block_cache` (optional) is the shared decompressed-block cache
  /// consulted before any Env read; the reader claims a fresh cache id so
  /// its blocks never collide with another tablet's. `stats` (optional)
  /// receives per-table hit/miss counters and must outlive the reader (the
  /// owning Table's TableStats does).
  static Status Open(Env* env, const std::string& fname,
                     std::shared_ptr<TabletReader>* out,
                     std::shared_ptr<Cache> block_cache = nullptr,
                     TableStats* stats = nullptr);

  /// Forces the footer load (callers must Load() before using accessors
  /// below; Table does this for the tablets a request actually touches).
  /// Success and Unusable are final; other failures retry on the next call.
  Status Load() const;

  /// Load failures meaning the tablet itself is unusable (Table quarantines
  /// it), as opposed to transient I/O errors, which propagate.
  static bool Unusable(const Status& s) {
    return s.IsCorruption() || s.IsNotFound();
  }

  /// The schema rows in this tablet were written under (§3.5).
  const Schema& tablet_schema() const { return schema_; }

  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }
  uint64_t row_count() const { return row_count_; }
  const Key& min_key() const { return min_key_; }
  const Key& max_key() const { return max_key_; }
  bool has_bloom() const { return has_bloom_; }

  /// On-disk format version this tablet was written under: 2 = columnar
  /// blocks with per-chunk encodings, 1 = row-wise blocks (read only; see
  /// tablet_writer.h). Format 0 fails Load as Corruption.
  uint32_t format_version() const { return format_version_; }

  /// Bloom-filter check for a key prefix (or a full key). True means "may
  /// contain"; when the tablet carries no filter, always true.
  bool MayContainPrefix(const Key& prefix) const;

  /// Opens a cursor over rows satisfying `bounds`' *key* dimension, in
  /// bounds.direction order, translated to `current_schema` (§3.5).
  /// Timestamp filtering happens downstream: tablets are selected by
  /// timespan, but their rows generally straddle the exact bounds (§3.2).
  /// `scanned` (optional) is incremented for every row decoded — the
  /// rows-scanned side of the Figure 9 efficiency ratio. `trace` (optional)
  /// accumulates per-query block-read and cache-hit counts; it must outlive
  /// the cursor and is touched only from the cursor's thread.
  Status NewCursor(const QueryBounds& bounds, const Schema* current_schema,
                   std::atomic<uint64_t>* scanned,
                   std::unique_ptr<Cursor>* out, QueryTrace* trace = nullptr);

  size_t num_blocks() const { return index_.size(); }

 private:
  friend class TabletCursor;

  struct IndexEntry {
    Key last_key;
    uint64_t offset;
    uint32_t stored_len;
    uint32_t payload_len;
    uint32_t row_count;
    uint32_t crc = 0;  // Masked CRC32C of the stored block.
  };

  TabletReader() = default;

  Status LoadFooter(const std::string& fname);
  Status LoadLocked() const;
  /// Points `*out` at block `i`: served from the block cache when present
  /// (pinning the entry for the reader's lifetime), otherwise read from the
  /// Env, CRC-verified, decompressed, and inserted into the cache. Blocks
  /// that fail verification are NEVER cached — a corrupt block is
  /// re-detected on every access. Cache-probe and miss-read latencies go to
  /// `stats_`; per-query counts go to `trace` when non-null.
  Status ReadBlock(size_t i, BlockReader* out,
                   QueryTrace* trace = nullptr) const;

  /// Index of the first block that could contain a row with
  /// key-compare(prefix) >= 0 (`or_equal`) or > 0; == num_blocks() if none.
  size_t SeekBlock(const Key& prefix, bool or_equal) const;

  Env* env_ = nullptr;
  std::string fname_;
  std::shared_ptr<Cache> block_cache_;  // Null = uncached reads.
  uint64_t cache_id_ = 0;               // Key-space prefix within the cache.
  TableStats* stats_ = nullptr;         // Owned by the Table; may be null.
  mutable std::mutex load_mu_;
  mutable bool loaded_ = false;
  mutable Status load_status_;

  mutable std::unique_ptr<RandomAccessFile> file_;
  Schema schema_;
  uint32_t format_version_ = 0;
  std::vector<IndexEntry> index_;
  Timestamp min_ts_ = 0, max_ts_ = 0;
  uint64_t row_count_ = 0;
  Key min_key_, max_key_;
  bool has_bloom_ = false;
  BloomFilter bloom_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_TABLET_READER_H_
