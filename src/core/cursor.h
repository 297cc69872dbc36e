// Cursors: ordered row streams. A query opens one cursor per overlapping
// tablet (in-memory and on-disk), merge-sorts them into a single stream
// ordered by primary key (§3.2), and filters rows whose timestamps fall
// outside the query's bounds or past the table's TTL.
//
// A cursor's current row is read in place, never handed out as a Row: its
// key cells (what merge ordering and bounds need), its timestamp, and two
// operations — AppendEncoded, which writes the row's wire/row-codec bytes
// straight from wherever the cursor keeps it (decoded block columns, for
// tablet cursors), and MaterializeRow, which builds a Row for the callers
// that need Values (query results, uniqueness checks).
// A streaming scan therefore goes from decoded chunk to socket with no
// per-row allocation.
//
// The streamed scan and the merge move a run at a time (AppendRun): a
// cursor hands on consecutive rows until the next one would fall past a
// stop key — in a merge, the runner-up child's key — or a chunk limit ends
// the run. It applies, row by row, the same rules the one-row loop applies,
// so runs change no chunk boundary and no scan counter. A run goes to a
// RunOutput: a streamed chunk's row encodings, or a merge's tablet writer,
// which takes a tablet cursor's rows as decoded block columns.
#ifndef LITTLETABLE_CORE_CURSOR_H_
#define LITTLETABLE_CORE_CURSOR_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/row_codec.h"
#include "core/schema.h"

namespace lt {

class TabletWriter;

/// Key-cell comparators for one schema, picked once per key column: each
/// column compares as integers or as bytes. Key columns are never appended
/// or widened (§3.5), so one KeyOrder serves every schema version of a
/// table.
class KeyOrder {
 public:
  explicit KeyOrder(const Schema& schema);

  size_t num_key_columns() const { return bytes_.size(); }

  /// Three-way comparison of the first `n` cells (n <= num_key_columns()).
  int Compare(const KeyCell* a, const KeyCell* b, size_t n) const {
    for (size_t c = 0; c < n; c++) {
      int r;
      if (bytes_[c]) {
        r = a[c].s.compare(b[c].s);
      } else {
        r = a[c].i < b[c].i ? -1 : (a[c].i > b[c].i ? 1 : 0);
      }
      if (r != 0) return r;
    }
    return 0;
  }

  /// Converts a key or key prefix to cells, truncated to the key columns.
  /// Byte cells point into `key`'s strings, so `key` must outlive them.
  void CellsOf(const Key& key, std::vector<KeyCell>* out) const;

 private:
  std::vector<char> bytes_;  // Per key column: compare as bytes?
};

/// Why a Cursor::AppendRun call returned.
enum class RunEnd : uint8_t {
  /// The chunk is complete: the last appended row used up its row cap,
  /// reached its byte target, or found the scan cap spent. The cursor rests
  /// on that row (RunState::on_row).
  kFull,
  /// The chunk's filtered-row allowance is spent; the cursor rests on a row
  /// not yet examined.
  kYield,
  /// A matching row beyond the query's row limit: the scan is done with
  /// more rows available. The cursor rests on that row, not appended.
  kLimit,
  /// The cursor's row lies past RunState::stop; it rests on that row.
  kStop,
  /// No rows are left (the cursor is invalid, maybe with an error).
  kExhausted,
};

/// The limits one run works within and the counters it advances: the
/// rules of a streamed query's chunk (QueryStream::NextChunk), which a run
/// applies exactly as the one-row loop would. The defaults set no limit,
/// so a run ends only when the rows do (a merge):
///   - a row outside `filter`'s ts range is skipped; each skip spends one
///     of `filter_left`, and the chunk yields when none is left;
///   - a matching row when `limit_left` is 0 ends the scan (kLimit);
///   - otherwise the row is appended, and the chunk ends on it (kFull) when
///     `max_rows` reaches 0, the output reaches `byte_target`, or `scanned`
///     has reached `scan_cap`; if not, `filter_left` is reset to
///     scan_cap - scanned and the cursor steps past the row.
/// `scanned` counts what the stream's rows-scanned counter gains since the
/// chunk began: one per row a tablet cursor lands on (a row past its
/// trailing key bound included), one per row a memtablet cursor lands on
/// inside its bounds.
struct RunState {
  static constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

  // ---- Fixed for the scan. ----
  const QueryBounds* filter = nullptr;
  /// The stream's rows-scanned counter (null: nothing is counted).
  const std::atomic<uint64_t>* counter = nullptr;
  uint64_t scan_cap = kNoLimit;  // > 0.

  // ---- Per chunk. ----
  size_t max_rows = kNoLimit;       // Rows the chunk may still take.
  uint64_t limit_left = kNoLimit;   // Rows the query may still return.
  size_t byte_target = kNoLimit;    // Output size at which the chunk ends.
  uint64_t scanned = 0;
  uint64_t filter_left = kNoLimit;

  // ---- Set by a merging parent for one child's run. ----
  /// Key cells the run must not pass: a row strictly after them in scan
  /// direction ends the run (kStop). Null = no stop.
  const KeyCell* stop = nullptr;
  const KeyOrder* stop_order = nullptr;
  bool descending = false;

  // ---- Carried across chunks. ----
  bool on_row = false;  // The cursor rests on a row already appended.

  // ---- Output. ----
  size_t rows = 0;  // Rows appended.
  RunEnd end = RunEnd::kExhausted;

  /// True if key cells `key` lie past the stop key.
  bool PastStop(const KeyCell* key) const {
    if (stop == nullptr) return false;
    const int c = stop_order->Compare(key, stop, stop_order->num_key_columns());
    return descending ? c < 0 : c > 0;
  }
  /// After appending a row (output now `size` bytes): true if the chunk
  /// ends on it.
  bool ChunkEnds(size_t size) const {
    return max_rows == 0 || size >= byte_target || scanned >= scan_cap;
  }
};

/// Where a run's rows go; exactly one member is set.
struct RunOutput {
  /// A streamed chunk: each row's encoding under the current schema,
  /// appended back to back.
  std::string* bytes = nullptr;
  /// A merge's output tablet, which takes ascending runs only. A tablet
  /// cursor hands it each stretch of rows as decoded block columns
  /// (TabletWriter::AddRows); the one-row loop hands it row encodings.
  TabletWriter* writer = nullptr;

  /// Output bytes so far, the measure of RunState::byte_target (a merge
  /// sets no target).
  size_t size() const { return bytes != nullptr ? bytes->size() : 0; }
};

/// An ordered stream of rows. A freshly created cursor is already positioned
/// on its first row (Valid() is false for an empty stream). All rows stream
/// in the cursor's scan direction by primary key.
class Cursor {
 public:
  virtual ~Cursor() = default;

  virtual bool Valid() const = 0;
  /// Advances to the next row in scan direction.
  virtual Status Next() = 0;
  /// First error encountered, if any (an erroring cursor becomes invalid).
  virtual Status status() const = 0;

  // The current row, read in place; each requires Valid().

  /// Its key cells, one per key column. The pointer is stable for the
  /// cursor's lifetime; the cells it points at follow the cursor's position.
  virtual const KeyCell* key() const = 0;
  /// Its timestamp (the ts key cell).
  virtual Timestamp ts() const = 0;
  /// Appends the row's encoding under the current schema: exactly the bytes
  /// EncodeRow would append for MaterializeRow's result.
  virtual void AppendEncoded(std::string* dst) const = 0;
  /// Builds the row as Values, in current-schema column order.
  virtual void MaterializeRow(Row* out) const = 0;

  /// Hands a run of rows to `out` under `run`'s rules (see RunState) and
  /// sets run->end. With run->on_row set it first steps past the current
  /// row. The default is the one-row loop over Next; cursors that hold
  /// rows in bulk override it. A writer's error ends the run with it.
  virtual Status AppendRun(RunState* run, RunOutput out);
};

/// A cursor over an in-memory vector of rows (conforming to `schema`),
/// already sorted ascending by key; iterates in `direction`.
///
/// Position is a signed int64_t rather than size_t on purpose: the
/// one-before-the-start state of a descending scan over an empty (or
/// exhausted) vector is pos_ == -1, which a size_t would wrap to 2^64-1 and
/// (since any size_t comparison against rows_.size() would also have to
/// wrap) make indistinguishable from a huge in-range index. The invariant
/// is -1 <= pos_ <= rows_.size(): Valid() is exactly 0 <= pos_ < size, and
/// Next() clamps at the sentinels so repeated calls past the end cannot
/// overflow. Rows_ is bounded far below 2^63 (it holds a query result), so
/// the cast to int64_t never truncates.
class VectorCursor final : public Cursor {
 public:
  VectorCursor(const Schema* schema, std::vector<Row> rows,
               Direction direction);

  bool Valid() const override {
    return pos_ >= 0 && pos_ < static_cast<int64_t>(rows_.size());
  }
  Status Next() override {
    if (Valid()) pos_ += direction_ == Direction::kAscending ? 1 : -1;
    LoadKey();
    return Status::OK();
  }
  Status status() const override { return Status::OK(); }

  const KeyCell* key() const override { return key_.data(); }
  Timestamp ts() const override { return key_[schema_->ts_index()].i; }
  void AppendEncoded(std::string* dst) const override;
  void MaterializeRow(Row* out) const override { *out = current(); }

 private:
  const Row& current() const { return rows_[static_cast<size_t>(pos_)]; }
  /// Points key_ at the current row's key cells (no-op when invalid).
  void LoadKey();

  const Schema* schema_;
  std::vector<Row> rows_;
  Direction direction_;
  int64_t pos_;
  std::vector<KeyCell> key_;
};

/// Merge-sorts N child cursors into one stream via an N-way tournament
/// heap: heap_ holds the indices of the still-valid children, ordered by
/// their current key cells (direction-adjusted, through the schema's
/// KeyOrder), so advancing costs O(log N) comparisons. Children must share
/// the direction and never produce duplicate keys (LittleTable enforces key
/// uniqueness at insert, §3.4.4).
class MergingCursor final : public Cursor {
 public:
  MergingCursor(const Schema* schema, std::vector<std::unique_ptr<Cursor>> children,
                Direction direction);

  bool Valid() const override { return !heap_.empty(); }
  Status Next() override;
  Status status() const override { return status_; }

  const KeyCell* key() const override { return key_.data(); }
  Timestamp ts() const override { return key_[schema_->ts_index()].i; }
  void AppendEncoded(std::string* dst) const override {
    children_[heap_[0]]->AppendEncoded(dst);
  }
  void MaterializeRow(Row* out) const override {
    children_[heap_[0]]->MaterializeRow(out);
  }
  /// Serves runs from the top child, with the runner-up's key as the
  /// child's stop key, and re-places the child once per run.
  Status AppendRun(RunState* run, RunOutput out) override;

 private:
  /// True if child a's current row precedes child b's in scan direction.
  bool Before(size_t a, size_t b) const {
    int cmp = order_.Compare(child_keys_[a], child_keys_[b],
                             order_.num_key_columns());
    return direction_ == Direction::kDescending ? cmp > 0 : cmp < 0;
  }
  /// Restores the heap property below heap_[i].
  void SiftDown(size_t i);
  /// Re-places the top child after it moved: sifts it down, or drops it
  /// once exhausted. False (the cursor failed) if the child failed.
  bool ReplaceTop();
  /// Copies the top child's key cells into key_.
  void LoadKey();
  void Fail(Status s);

  const Schema* schema_;
  KeyOrder order_;
  std::vector<std::unique_ptr<Cursor>> children_;
  std::vector<const KeyCell*> child_keys_;  // children_[i]->key(), cached.
  Direction direction_;
  std::vector<size_t> heap_;  // Indices into children_; heap_[0] is next.
  std::vector<KeyCell> key_;
  Status status_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_CURSOR_H_
