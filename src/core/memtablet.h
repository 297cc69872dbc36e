// MemTablet: the in-memory tablet (§3.2).
//
// Newly inserted rows land in a sorted in-memory structure. When a filling
// tablet reaches the configured size or age limit, the table marks it
// read-only (seals it) and queues it for flushing. With application-driven
// timespans (§3.4.3), several MemTablets fill at once — one per time period
// — and each remembers its period and creation time so the flush scheduler
// can apply the 10-minute age bound.
//
// Layout (LevelDB's memtable design). Each row is stored once, as its
// EncodeRow bytes, in an append-only arena, and indexed by a skiplist
// ordered by the schema's KeyOrder. A skiplist node lives in the arena too:
// the row's bytes, its insertion sequence number, and its key cells decoded
// once at insert (byte cells point into the arena copy), so a comparison
// never re-decodes a varint. Nothing in the arena moves or is freed before
// the memtablet is.
//
// Thread safety: one writer at a time (the owning Table serializes inserts),
// any number of concurrent readers. The writer fully builds a node, then
// links it in with release stores, bottom level first; readers follow links
// with acquire loads, so they need no lock once they hold a shared_ptr to
// the memtablet. A reader fixes what it sees with a watermark: the rows with
// sequence number below num_rows() as read when its view was taken. Rows
// inserted later may already be linked, and cursors skip them. The Table
// reads watermarks under its mutex, which is also held while a commit group
// applies, so a reader sees whole groups or none of a group. min_ts(),
// max_ts(), ApproximateBytes() and sealed() are guarded by the owner.
//
// Series tails (§3.4.4). A series is one key prefix: every key column but
// ts. Almost every row is newer than every earlier row of its series, so
// the writer keeps, per series, the node of its newest row (the tail) and
// the series' last node of height 2 or more (the tall node) in an
// open-addressing table. A row newer than its series' tail needs no search
// to prove it unique. Every node between the tall node and the tail is a
// height-1 node of the series, so the new node links after the tail on
// level 0 and after the tall node on each level below the tall node's
// height, with no search; only the levels above those are searched (about
// one tall append in five). Only the writer touches the table: readers and
// cursors never do.
#ifndef LITTLETABLE_CORE_MEMTABLET_H_
#define LITTLETABLE_CORE_MEMTABLET_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/cursor.h"
#include "core/periods.h"
#include "core/schema.h"

namespace lt {

class MemTablet {
 public:
  MemTablet(uint64_t id, std::shared_ptr<const Schema> schema, Period period,
            Timestamp created_at);
  ~MemTablet();
  MemTablet(const MemTablet&) = delete;
  MemTablet& operator=(const MemTablet&) = delete;

  /// Inserts one row given as its encoding under schema(), which must pass
  /// ParseRow. Returns false, storing nothing, if the row is malformed or a
  /// row with the same primary key is already present.
  bool InsertEncoded(const Slice& row);

  /// Encodes `row` (which must match the schema) and inserts it.
  bool Insert(const Row& row);

  /// True if a row with exactly this full primary key (num_key_columns
  /// cells) exists. Writer-only: it reads the series tails, which only the
  /// thread that inserts (under the owner's insert lock) may touch.
  bool ContainsKey(const KeyCell* key) const;

  uint64_t id() const { return id_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const Period& period() const { return period_; }
  Timestamp created_at() const { return created_at_; }
  bool sealed() const { return sealed_; }
  void Seal() { sealed_ = true; }

  /// Rows inserted so far; read with acquire, it is a reader's watermark.
  size_t num_rows() const { return num_rows_.load(std::memory_order_acquire); }
  bool empty() const { return num_rows() == 0; }
  /// Sum of the rows' seal charges (ParseRow), for the flush size trigger.
  size_t ApproximateBytes() const { return approx_bytes_; }

  /// Timespan of rows actually inserted (undefined when empty).
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }

  /// Checks the skiplist's links: every level strictly ascending under
  /// KeyOrder, and each level a sublist of the level below. A mis-linked
  /// upper level leaves every answer right (searches finish on level 0),
  /// so only this check sees it. Writer-side: call it with no insert
  /// running.
  Status CheckLinksForTest() const;

 private:
  friend class MemTabletCursor;
  struct Node;

  // One slot of the series-tail table; node is null in an empty slot.
  struct Tail {
    uint64_t hash;
    Node* node;       // The series' newest row.
    Node* tall;       // Its last node of height >= 2, or null.
    int tall_height;  // tall's height; 1 when tall is null.
  };

  /// Bump allocation from the arena, aligned for nodes.
  char* Allocate(size_t bytes);
  int RandomHeight();
  /// Hash of the series of full key `key` (its cells before ts).
  uint64_t SeriesHash(const KeyCell* key) const;
  /// The slot holding the tail of `key`'s series, or the empty slot where
  /// it would go. A slot matches only if its node's series compares equal.
  size_t FindTail(const KeyCell* key, uint64_t hash) const;

  uint64_t id_;
  std::shared_ptr<const Schema> schema_;
  KeyOrder order_;
  Period period_;
  Timestamp created_at_;
  bool sealed_ = false;
  size_t approx_bytes_ = 0;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
  std::atomic<size_t> num_rows_{0};

  // Arena: blocks never move; the current block fills from alloc_ptr_.
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* alloc_ptr_ = nullptr;
  size_t alloc_left_ = 0;

  Node* head_;
  std::atomic<int> max_height_{1};
  uint64_t rnd_ = 0x2545f4914f6cdd1dull;
  // Series tails: a power-of-two table, at most half full, linear probing.
  // Every series in the memtablet has a tail, so a miss means no row of the
  // series is present.
  std::vector<Tail> tails_;
  size_t num_tails_ = 0;
  // InsertEncoded's parsed key cells, and Insert(const Row&)'s encoding.
  std::vector<KeyCell> parsed_key_;
  std::string row_buf_;
};

/// The positional cursor over one memtablet (see cursor.h): the rows with
/// sequence number below `watermark` inside `bounds`' key dimension, in
/// bounds.direction. The current row is read in place: key() is a copy of
/// the node's decoded cells, AppendEncoded a memcpy of the arena bytes
/// (plus appended columns' defaults when `current_schema` is newer than the
/// memtablet's, §3.5). `scanned` (optional) counts each row positioned on
/// within the key bounds. Pins the memtablet.
class MemTabletCursor final : public Cursor {
 public:
  MemTabletCursor(std::shared_ptr<const MemTablet> mt,
                  const QueryBounds& bounds, size_t watermark,
                  const Schema* current_schema,
                  std::atomic<uint64_t>* scanned);

  bool Valid() const override { return node_ != nullptr; }
  Status Next() override;
  Status status() const override { return Status::OK(); }

  const KeyCell* key() const override { return key_.data(); }
  Timestamp ts() const override { return key_[key_.size() - 1].i; }
  void AppendEncoded(std::string* dst) const override;
  void MaterializeRow(Row* out) const override;

  /// The current row's bytes in the arena, encoded under the memtablet's
  /// schema (what a flush writes); requires Valid().
  Slice row() const;

 private:
  /// Steps past rows above the watermark, applies the trailing key bound,
  /// and loads the position's key cells.
  void Settle();
  /// The next node in scan direction (null at the end).
  const MemTablet::Node* Step(const MemTablet::Node* n) const;

  std::shared_ptr<const MemTablet> mt_;
  const Schema* current_schema_;
  size_t watermark_;
  std::atomic<uint64_t>* scanned_;
  Direction direction_;
  // The trailing key bound (max ascending, min descending) as cells into
  // this cursor's copy of the bound.
  std::optional<KeyBound> trailing_;
  std::vector<KeyCell> trailing_cells_;
  std::string appended_enc_;  // Appended columns' defaults (§3.5).
  const MemTablet::Node* node_ = nullptr;
  std::vector<KeyCell> key_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_MEMTABLET_H_
