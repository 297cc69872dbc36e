// MemTablet: the in-memory tablet (§3.2).
//
// Newly inserted rows land in a balanced binary tree sorted by primary key.
// When a filling tablet reaches the configured size or age limit, the table
// marks it read-only (seals it) and queues it for flushing. With
// application-driven timespans (§3.4.3), several MemTablets fill at once —
// one per time period — and each remembers its period and creation time so
// the flush scheduler can apply the 10-minute age bound.
//
// Thread safety: guarded externally by the owning Table's mutex. Once
// sealed, a MemTablet is immutable and may be read without the lock.
#ifndef LITTLETABLE_CORE_MEMTABLET_H_
#define LITTLETABLE_CORE_MEMTABLET_H_

#include <memory>
#include <set>
#include <vector>

#include "core/bounds.h"
#include "core/periods.h"
#include "core/schema.h"

namespace lt {

class MemTablet {
 public:
  MemTablet(uint64_t id, std::shared_ptr<const Schema> schema, Period period,
            Timestamp created_at);

  /// Inserts a row (which must match the schema). Returns false if a row
  /// with the same primary key is already present.
  bool Insert(Row row);

  /// True if a row with exactly this full primary key exists.
  bool ContainsKey(const Row& key_row) const;

  uint64_t id() const { return id_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const Period& period() const { return period_; }
  Timestamp created_at() const { return created_at_; }
  bool sealed() const { return sealed_; }
  void Seal() { sealed_ = true; }

  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  /// Approximate heap footprint, for the flush size trigger.
  size_t ApproximateBytes() const { return approx_bytes_; }

  /// Timespan of rows actually inserted (undefined when empty).
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }

  /// The largest key currently present (for the §3.4.4 uniqueness fast
  /// path); requires non-empty.
  const Row& MaxKeyRow() const { return *rows_.rbegin(); }

  /// Copies the rows satisfying `bounds`' key dimension into `out`, in
  /// ascending key order. (Timestamp filtering happens downstream; this
  /// only snapshots, so queries never hold the table lock while streaming.)
  /// With a nonzero `limit`, copying runs in bounds.direction and stops
  /// after limit + 1 rows inside the timestamp bounds — all a query with
  /// that limit can return, plus the row proving more are available.
  void Snapshot(const QueryBounds& bounds, std::vector<Row>* out,
                uint64_t limit = 0) const;

  /// All rows in ascending key order (flush path; requires sealed).
  std::vector<Row> AllRows() const;

 private:
  /// Probe type for heterogeneous set lookups against a key prefix.
  struct KeyProbe {
    const Key* prefix;
  };

  struct RowLess {
    using is_transparent = void;
    const Schema* schema;
    bool operator()(const Row& a, const Row& b) const {
      return schema->CompareKeys(a, b) < 0;
    }
    bool operator()(const Row& a, const KeyProbe& p) const {
      return schema->CompareKeyToPrefix(a, *p.prefix) < 0;
    }
    bool operator()(const KeyProbe& p, const Row& b) const {
      return schema->CompareKeyToPrefix(b, *p.prefix) > 0;
    }
  };

  uint64_t id_;
  std::shared_ptr<const Schema> schema_;
  Period period_;
  Timestamp created_at_;
  bool sealed_ = false;
  size_t approx_bytes_ = 0;
  Timestamp min_ts_ = 0;
  Timestamp max_ts_ = 0;
  std::set<Row, RowLess> rows_;
};

}  // namespace lt

#endif  // LITTLETABLE_CORE_MEMTABLET_H_
