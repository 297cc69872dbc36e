#include "core/cursor.h"

#include <algorithm>
#include <utility>

#include "core/row_codec.h"
#include "core/tablet_writer.h"

namespace lt {

namespace {

// A key Value as a cell. Key columns are never doubles; a double (from a
// malformed caller-supplied prefix) reads as 0.
KeyCell CellOf(const Value& v) {
  KeyCell cell;
  if (v.is_bytes()) {
    cell.s = Slice(v.bytes());
  } else if (!v.is_double()) {
    cell.i = v.AsInt();
  }
  return cell;
}

}  // namespace

KeyOrder::KeyOrder(const Schema& schema) {
  bytes_.reserve(schema.num_key_columns());
  for (size_t c = 0; c < schema.num_key_columns(); c++) {
    ColumnType t = schema.columns()[c].type;
    bytes_.push_back(t == ColumnType::kString || t == ColumnType::kBlob);
  }
}

void KeyOrder::CellsOf(const Key& key, std::vector<KeyCell>* out) const {
  const size_t n = std::min(key.size(), bytes_.size());
  out->clear();
  for (size_t c = 0; c < n; c++) out->push_back(CellOf(key[c]));
}

Status Cursor::AppendRun(RunState* run, RunOutput out) {
  // Steps past the current row, counting what the step scanned.
  auto advance = [&] {
    const uint64_t before =
        run->counter ? run->counter->load(std::memory_order_relaxed) : 0;
    Status s = Next();
    if (s.ok()) s = status();
    if (run->counter) {
      run->scanned += run->counter->load(std::memory_order_relaxed) - before;
    }
    return s;
  };
  if (run->on_row) {
    run->on_row = false;
    LT_RETURN_IF_ERROR(advance());
  }
  std::string row;  // A writer's row encoding.
  while (Valid()) {
    if (run->PastStop(key())) {
      run->end = RunEnd::kStop;
      return Status::OK();
    }
    if (!run->filter->TsInRange(ts())) {
      LT_RETURN_IF_ERROR(advance());
      if (--run->filter_left == 0) {
        run->end = RunEnd::kYield;
        return Status::OK();
      }
      continue;
    }
    if (run->limit_left == 0) {
      run->end = RunEnd::kLimit;
      return Status::OK();
    }
    if (out.writer != nullptr) {
      row.clear();
      AppendEncoded(&row);
      LT_RETURN_IF_ERROR(out.writer->Add(Slice(row)));
    } else {
      AppendEncoded(out.bytes);
    }
    run->rows++;
    run->max_rows--;
    run->limit_left--;
    if (run->ChunkEnds(out.size())) {
      run->on_row = true;
      run->end = RunEnd::kFull;
      return Status::OK();
    }
    run->filter_left = run->scan_cap - run->scanned;
    LT_RETURN_IF_ERROR(advance());
  }
  run->end = RunEnd::kExhausted;
  return status();
}

VectorCursor::VectorCursor(const Schema* schema, std::vector<Row> rows,
                           Direction direction)
    : schema_(schema),
      rows_(std::move(rows)),
      direction_(direction),
      key_(schema->num_key_columns()) {
  pos_ = direction_ == Direction::kAscending
             ? 0
             : static_cast<int64_t>(rows_.size()) - 1;
  LoadKey();
}

void VectorCursor::LoadKey() {
  if (!Valid()) return;
  const Row& row = current();
  for (size_t c = 0; c < key_.size(); c++) key_[c] = CellOf(row[c]);
}

void VectorCursor::AppendEncoded(std::string* dst) const {
  EncodeRow(dst, *schema_, current());
}

MergingCursor::MergingCursor(const Schema* schema,
                             std::vector<std::unique_ptr<Cursor>> children,
                             Direction direction)
    : schema_(schema),
      order_(*schema),
      children_(std::move(children)),
      direction_(direction),
      key_(schema->num_key_columns()) {
  for (const auto& c : children_) {
    if (!c->status().ok()) {
      status_ = c->status();
      return;
    }
  }
  child_keys_.reserve(children_.size());
  heap_.reserve(children_.size());
  for (size_t i = 0; i < children_.size(); i++) {
    child_keys_.push_back(children_[i]->key());
    if (children_[i]->Valid()) heap_.push_back(i);
  }
  // Floyd build-heap: O(N), vs. O(N log N) for N pushes.
  for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  LoadKey();
}

void MergingCursor::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t best = i;
    size_t left = 2 * i + 1, right = 2 * i + 2;
    if (left < n && Before(heap_[left], heap_[best])) best = left;
    if (right < n && Before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void MergingCursor::LoadKey() {
  if (heap_.empty()) return;
  const KeyCell* top = child_keys_[heap_[0]];
  std::copy(top, top + key_.size(), key_.begin());
}

void MergingCursor::Fail(Status s) {
  status_ = std::move(s);
  heap_.clear();
}

bool MergingCursor::ReplaceTop() {
  Cursor* top = children_[heap_[0]].get();
  if (!top->status().ok()) {
    Fail(top->status());
    return false;
  }
  if (top->Valid()) {
    SiftDown(0);  // Re-place the advanced child by its new row.
  } else {
    heap_[0] = heap_.back();  // Exhausted: drop it from the tournament.
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  }
  return true;
}

Status MergingCursor::Next() {
  if (heap_.empty()) return status_;
  Status s = children_[heap_[0]]->Next();
  if (!s.ok()) {
    Fail(s);
    return status_;
  }
  if (ReplaceTop()) LoadKey();
  return status_;
}

Status MergingCursor::AppendRun(RunState* run, RunOutput out) {
  // Merges never nest; a stop key from a parent takes the one-row loop.
  if (run->stop != nullptr) return Cursor::AppendRun(run, out);
  while (!heap_.empty()) {
    // The top child runs until its rows pass the runner-up's, where a
    // one-row merge would first hand the top to another child.
    if (heap_.size() > 1) {
      size_t next = heap_[1];
      if (heap_.size() > 2 && Before(heap_[2], next)) next = heap_[2];
      run->stop = child_keys_[next];
      run->stop_order = &order_;
      run->descending = direction_ == Direction::kDescending;
    }
    Status s = children_[heap_[0]]->AppendRun(run, out);
    run->stop = nullptr;
    if (!s.ok()) {
      Fail(s);
      break;
    }
    if (!ReplaceTop()) break;
    if (run->end != RunEnd::kStop && run->end != RunEnd::kExhausted) {
      LoadKey();
      return Status::OK();
    }
  }
  run->end = RunEnd::kExhausted;
  return status_;
}

}  // namespace lt
