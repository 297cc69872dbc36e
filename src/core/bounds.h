// Query bounds: every LittleTable query is an ordered scan of the rows
// inside a two-dimensional bounding box (§3.1) — primary keys or prefixes
// thereof in one dimension, timestamps in the other. Bounds may be inclusive
// or exclusive; results stream in ascending or descending key order with an
// optional row limit.
#ifndef LITTLETABLE_CORE_BOUNDS_H_
#define LITTLETABLE_CORE_BOUNDS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "util/clock.h"
#include "util/status.h"

namespace lt {

enum class Direction : uint8_t { kAscending = 0, kDescending = 1 };

/// One end of the key dimension: a (possibly partial) key prefix plus
/// inclusivity. An absent bound is unbounded on that side.
struct KeyBound {
  Key prefix;
  bool inclusive = true;
};

/// The 2-D bounding box plus scan direction and limit.
struct QueryBounds {
  std::optional<KeyBound> min_key;
  std::optional<KeyBound> max_key;
  /// Timestamp range; defaults cover all time. Inclusive flags apply to the
  /// respective endpoint.
  Timestamp min_ts = std::numeric_limits<Timestamp>::min();
  Timestamp max_ts = std::numeric_limits<Timestamp>::max();
  bool min_ts_inclusive = true;
  bool max_ts_inclusive = true;
  Direction direction = Direction::kAscending;
  /// 0 = unlimited (the server still applies its own cap, §3.5).
  uint64_t limit = 0;

  /// Column indexes (into the current schema) the caller will read; empty
  /// means all columns. A decode hint, not a result shape: rows keep every
  /// column, but cells outside the projection may carry the column's
  /// default value instead of the stored one — columnar (format 2) tablets
  /// skip decoding those chunks entirely, which is where wide-row scans win
  /// (rows still in memory, or in row-wise tablets, keep their real
  /// values). Key columns are always materialized regardless.
  std::vector<uint32_t> projection;

  /// Convenience: both key bounds set to the same prefix (rows beginning
  /// with that prefix), i.e. the Figure 1 "rectangle" key range.
  static QueryBounds ForPrefix(Key prefix) {
    QueryBounds b;
    b.min_key = KeyBound{prefix, true};
    b.max_key = KeyBound{std::move(prefix), true};
    return b;
  }

  /// §3.5 continuation: moves the key bound the scan starts from (min_key
  /// ascending, max_key descending) past `last_key`, exclusive, so the next
  /// query resumes after the last row returned.
  void StartAfter(Key last_key) {
    KeyBound past{std::move(last_key), /*inclusive=*/false};
    (direction == Direction::kAscending ? min_key : max_key) = std::move(past);
  }

  /// True if `ts` satisfies the timestamp dimension.
  bool TsInRange(Timestamp ts) const {
    if (min_ts_inclusive ? ts < min_ts : ts <= min_ts) return false;
    if (max_ts_inclusive ? ts > max_ts : ts >= max_ts) return false;
    return true;
  }

  /// True if the timespan [lo, hi] could contain matching timestamps
  /// (tablet-selection test, §3.2).
  bool TsOverlaps(Timestamp lo, Timestamp hi) const {
    if (min_ts_inclusive ? hi < min_ts : hi <= min_ts) return false;
    if (max_ts_inclusive ? lo > max_ts : lo >= max_ts) return false;
    return true;
  }

  /// True if the key span [lo, hi] could contain keys satisfying the key
  /// dimension (tablet pruning by footer min/max keys).
  bool KeysOverlap(const Schema& schema, const Key& lo, const Key& hi) const {
    if (min_key) {
      int c = schema.CompareKeyToPrefix(hi, min_key->prefix);
      if (min_key->inclusive ? c < 0 : c <= 0) return false;
    }
    if (max_key) {
      int c = schema.CompareKeyToPrefix(lo, max_key->prefix);
      if (max_key->inclusive ? c > 0 : c >= 0) return false;
    }
    return true;
  }

  /// True if a row's key columns satisfy the key dimension.
  bool KeyInRange(const Schema& schema, const Row& row) const {
    if (min_key) {
      int c = schema.CompareKeyToPrefix(row, min_key->prefix);
      if (min_key->inclusive ? c < 0 : c <= 0) return false;
    }
    if (max_key) {
      int c = schema.CompareKeyToPrefix(row, max_key->prefix);
      if (max_key->inclusive ? c > 0 : c >= 0) return false;
    }
    return true;
  }

  /// Full membership test (both dimensions). The timestamp checked is the
  /// row's ts key column.
  bool Matches(const Schema& schema, const Row& row) const {
    return TsInRange(row[schema.ts_index()].AsInt()) &&
           KeyInRange(schema, row);
  }
};

/// The result of a query: rows in scan order, plus the §3.5 more-available
/// flag the client uses to paginate with continuation queries.
struct QueryResult {
  std::vector<Row> rows;
  bool more_available = false;
  /// Rows the engine decoded to produce this result (Figure 9 numerator).
  uint64_t rows_scanned = 0;
};

/// §3.5 pagination: runs a query to completion, one page per
/// `run_page(page_bounds, &result)` call, appending every page's rows to
/// `rows`. After a page that reports more rows available, the next page
/// starts past that page's last row (StartAfter) and asks only for the rows
/// the limit still allows. Stops when a page reports no more rows, the
/// limit is met, or a page returns no rows (no progress).
template <typename RunPage>
Status QueryAllPages(const Schema& schema, const QueryBounds& bounds,
                     std::vector<Row>* rows, RunPage&& run_page) {
  rows->clear();
  QueryBounds page = bounds;
  const uint64_t want = bounds.limit;  // 0 = all rows.
  while (true) {
    if (want > 0) page.limit = want - rows->size();
    QueryResult result;
    LT_RETURN_IF_ERROR(run_page(page, &result));
    const bool more = result.more_available && !result.rows.empty();
    if (more) page.StartAfter(schema.KeyOf(result.rows.back()));
    if (rows->empty()) {
      *rows = std::move(result.rows);
    } else {
      for (Row& row : result.rows) rows->push_back(std::move(row));
    }
    if (!more || (want > 0 && rows->size() >= want)) return Status::OK();
  }
}

}  // namespace lt

#endif  // LITTLETABLE_CORE_BOUNDS_H_
