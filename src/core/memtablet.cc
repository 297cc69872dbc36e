#include "core/memtablet.h"

#include <algorithm>

#include "core/row_codec.h"

namespace lt {

MemTablet::MemTablet(uint64_t id, std::shared_ptr<const Schema> schema,
                     Period period, Timestamp created_at)
    : id_(id),
      schema_(std::move(schema)),
      period_(period),
      created_at_(created_at),
      rows_(RowLess{schema_.get()}) {}

bool MemTablet::Insert(Row row) {
  Timestamp ts = row[schema_->ts_index()].AsInt();
  size_t bytes = ApproximateRowBytes(row);
  auto [it, inserted] = rows_.insert(std::move(row));
  if (!inserted) return false;
  approx_bytes_ += bytes;
  if (rows_.size() == 1) {
    min_ts_ = max_ts_ = ts;
  } else {
    if (ts < min_ts_) min_ts_ = ts;
    if (ts > max_ts_) max_ts_ = ts;
  }
  return true;
}

bool MemTablet::ContainsKey(const Row& key_row) const {
  return rows_.find(key_row) != rows_.end();
}

void MemTablet::Snapshot(const QueryBounds& bounds, std::vector<Row>* out,
                         uint64_t limit) const {
  const uint64_t want =
      limit == 0 || limit == UINT64_MAX ? UINT64_MAX : limit + 1;
  uint64_t in_range = 0;
  const size_t ts_index = schema_->ts_index();
  // True once this row completes the limit + 1 rows inside the ts bounds.
  auto copy = [&](const Row& row) {
    out->push_back(row);
    return bounds.TsInRange(row[ts_index].AsInt()) && ++in_range >= want;
  };
  if (bounds.direction == Direction::kAscending) {
    // Seek to the first row satisfying the min-key bound, then copy rows
    // until the max-key bound fails.
    auto it = rows_.begin();
    if (bounds.min_key) {
      // First row with CompareKeyToPrefix >= 0 (inclusive) or > 0.
      const KeyBound& kb = *bounds.min_key;
      KeyProbe probe{&kb.prefix};
      it = kb.inclusive ? rows_.lower_bound(probe) : rows_.upper_bound(probe);
    }
    for (; it != rows_.end(); ++it) {
      if (bounds.max_key) {
        int c = schema_->CompareKeyToPrefix(*it, bounds.max_key->prefix);
        if (bounds.max_key->inclusive ? c > 0 : c >= 0) break;
      }
      if (copy(*it)) break;
    }
    return;
  }
  // Descending: seek one past the last row satisfying the max-key bound,
  // copy backwards until the min-key bound fails, then restore ascending
  // order.
  const size_t first = out->size();
  auto it = rows_.end();
  if (bounds.max_key) {
    // First row with CompareKeyToPrefix > 0 (inclusive) or >= 0.
    const KeyBound& kb = *bounds.max_key;
    KeyProbe probe{&kb.prefix};
    it = kb.inclusive ? rows_.upper_bound(probe) : rows_.lower_bound(probe);
  }
  while (it != rows_.begin()) {
    --it;
    if (bounds.min_key) {
      int c = schema_->CompareKeyToPrefix(*it, bounds.min_key->prefix);
      if (bounds.min_key->inclusive ? c < 0 : c <= 0) break;
    }
    if (copy(*it)) break;
  }
  std::reverse(out->begin() + first, out->end());
}

std::vector<Row> MemTablet::AllRows() const {
  return std::vector<Row>(rows_.begin(), rows_.end());
}

}  // namespace lt
