#include "core/memtablet.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <string>

#include "core/row_codec.h"

namespace lt {

namespace {

constexpr int kMaxHeight = 12;
constexpr size_t kArenaBlockBytes = 128 << 10;
constexpr size_t kInitialTailSlots = 16;

uint64_t Mix(uint64_t h) {
  h *= 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

}  // namespace

// A skiplist node, in the arena. Followed there by its `height` links, then
// its key cells, then the row's bytes.
struct MemTablet::Node {
  const char* row;
  uint32_t row_len;
  uint32_t seq;        // Insertion index: visible below a reader's watermark.
  const KeyCell* key;  // num_key_columns cells; byte cells point into `row`.

  std::atomic<Node*>* links() {
    return reinterpret_cast<std::atomic<Node*>*>(this + 1);
  }
  const std::atomic<Node*>* links() const {
    return reinterpret_cast<const std::atomic<Node*>*>(this + 1);
  }
  Node* Next(int level) const {
    return links()[level].load(std::memory_order_acquire);
  }
};

namespace {

// The last node (or `head`) in key order for which `pred` holds, among the
// nodes on level `bottom` (< height); `pred` must be monotone — true up to
// some point in key order, false after. Records the level-by-level
// predecessors from `bottom` up in `prev` when non-null.
template <typename Node, typename Pred>
Node* LastWhere(Node* head, int height, Pred&& pred, Node** prev = nullptr,
                int bottom = 0) {
  Node* x = head;
  for (int level = height - 1;;) {
    Node* next = x->Next(level);
    if (next != nullptr && pred(next)) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == bottom) return x;
      level--;
    }
  }
}

}  // namespace

MemTablet::MemTablet(uint64_t id, std::shared_ptr<const Schema> schema,
                     Period period, Timestamp created_at)
    : id_(id),
      schema_(std::move(schema)),
      order_(*schema_),
      period_(period),
      created_at_(created_at),
      tails_(kInitialTailSlots, Tail{0, nullptr, nullptr, 1}),
      parsed_key_(schema_->num_key_columns()) {
  char* mem = Allocate(sizeof(Node) + kMaxHeight * sizeof(std::atomic<Node*>));
  head_ = new (mem) Node{nullptr, 0, 0, nullptr};
  for (int i = 0; i < kMaxHeight; i++) {
    new (&head_->links()[i]) std::atomic<Node*>(nullptr);
  }
}

MemTablet::~MemTablet() = default;

char* MemTablet::Allocate(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  if (bytes > alloc_left_) {
    if (bytes > kArenaBlockBytes / 4) {
      // A large row gets a block of its own; the current one keeps filling.
      blocks_.emplace_back(new char[bytes]);
      return blocks_.back().get();
    }
    blocks_.emplace_back(new char[kArenaBlockBytes]);
    alloc_ptr_ = blocks_.back().get();
    alloc_left_ = kArenaBlockBytes;
  }
  char* p = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_left_ -= bytes;
  return p;
}

int MemTablet::RandomHeight() {
  // Branching factor 4, as in LevelDB.
  int height = 1;
  while (height < kMaxHeight) {
    rnd_ ^= rnd_ << 13;
    rnd_ ^= rnd_ >> 7;
    rnd_ ^= rnd_ << 17;
    if ((rnd_ & 3) != 0) break;
    height++;
  }
  return height;
}

uint64_t MemTablet::SeriesHash(const KeyCell* key) const {
  uint64_t h = 0;
  for (size_t c = 0; c + 1 < parsed_key_.size(); c++) {
    const ColumnType type = schema_->columns()[c].type;
    if (type != ColumnType::kString && type != ColumnType::kBlob) {
      h = Mix(h ^ static_cast<uint64_t>(key[c].i));
      continue;
    }
    const Slice& s = key[c].s;
    h = Mix(h ^ s.size());
    size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      uint64_t word;
      memcpy(&word, s.data() + i, 8);
      h = Mix(h ^ word);
    }
    if (i < s.size()) {
      uint64_t word = 0;
      memcpy(&word, s.data() + i, s.size() - i);
      h = Mix(h ^ word);
    }
  }
  return h;
}

size_t MemTablet::FindTail(const KeyCell* key, uint64_t hash) const {
  const size_t mask = tails_.size() - 1;
  const size_t series_cells = parsed_key_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Tail& t = tails_[i];
    if (t.node == nullptr ||
        (t.hash == hash &&
         order_.Compare(t.node->key, key, series_cells) == 0)) {
      return i;
    }
  }
}

bool MemTablet::Insert(const Row& row) {
  row_buf_.clear();
  EncodeRow(&row_buf_, *schema_, row);
  return InsertEncoded(row_buf_);
}

bool MemTablet::InsertEncoded(const Slice& row) {
  const size_t nkey = parsed_key_.size();
  Slice in = row;
  size_t charge = 0;
  if (!ParseRow(&in, *schema_, parsed_key_.data(), nullptr, &charge).ok() ||
      !in.empty()) {
    return false;
  }
  const KeyCell* key = parsed_key_.data();
  const Timestamp ts = key[nkey - 1].i;
  const uint64_t hash = SeriesHash(key);
  const size_t slot = FindTail(key, hash);
  Tail& series = tails_[slot];
  const bool newest =
      series.node != nullptr && ts > series.node->key[nkey - 1].i;

  Node* prev[kMaxHeight] = {};
  const int height_now = max_height_.load(std::memory_order_relaxed);
  auto before = [&](const Node* n) {
    return order_.Compare(n->key, key, nkey) < 0;
  };
  int height;
  if (newest) {
    // Newer than every row of its series, so no row can share the key.
    // Every node after the series' tall node up to the tail is a height-1
    // node of the series: the tail is the level-0 predecessor and the tall
    // node the predecessor on each level below its height. Only the levels
    // above those are searched, and the search stops there.
    height = RandomHeight();
    prev[0] = series.node;
    const int known = std::min(height, series.tall_height);
    for (int i = 1; i < known; i++) prev[i] = series.tall;
    if (height > known && height_now > known) {
      LastWhere(head_, height_now, before, prev, known);
    }
  } else {
    Node* x = LastWhere(head_, height_now, before, prev);
    const Node* at = x->Next(0);
    if (at != nullptr && order_.Compare(at->key, key, nkey) == 0) {
      return false;
    }
    height = RandomHeight();
  }
  if (height > height_now) {
    for (int i = height_now; i < height; i++) prev[i] = head_;
    // Readers may see the new height before the node: head's links at the
    // new levels are then null, which reads as "descend".
    max_height_.store(height, std::memory_order_relaxed);
  }
  char* mem = Allocate(sizeof(Node) + height * sizeof(std::atomic<Node*>) +
                       nkey * sizeof(KeyCell) + row.size());
  auto* links = reinterpret_cast<std::atomic<Node*>*>(mem + sizeof(Node));
  KeyCell* cells = reinterpret_cast<KeyCell*>(links + height);
  char* bytes = reinterpret_cast<char*>(cells + nkey);
  memcpy(bytes, row.data(), row.size());
  for (size_t c = 0; c < nkey; c++) new (&cells[c]) KeyCell(key[c]);
  RebaseKeyCells(*schema_, row.data(), bytes, cells);
  const size_t seq = num_rows_.load(std::memory_order_relaxed);
  Node* node = new (mem) Node{bytes, static_cast<uint32_t>(row.size()),
                              static_cast<uint32_t>(seq), cells};
  // Publish bottom-up: the node is complete before the release store that
  // links it, so a reader that reaches it sees every field.
  for (int i = 0; i < height; i++) {
    new (&links[i]) std::atomic<Node*>(
        prev[i]->links()[i].load(std::memory_order_relaxed));
    prev[i]->links()[i].store(node, std::memory_order_release);
  }

  const bool new_series = series.node == nullptr;
  if (new_series) series.hash = hash;
  if (new_series || newest) series.node = node;
  // The tall node is the series' last node of height 2 or more: a taller
  // newest row always becomes it, an out-of-order one only past it.
  if (height > 1 &&
      (series.tall == nullptr || ts > series.tall->key[nkey - 1].i)) {
    series.tall = node;
    series.tall_height = height;
  }
  if (new_series && ++num_tails_ * 2 > tails_.size()) {
    std::vector<Tail> old = std::move(tails_);
    tails_.assign(old.size() * 2, Tail{0, nullptr, nullptr, 1});
    const size_t mask = tails_.size() - 1;
    for (const Tail& t : old) {
      if (t.node == nullptr) continue;
      size_t i = t.hash & mask;
      while (tails_[i].node != nullptr) i = (i + 1) & mask;
      tails_[i] = t;
    }
  }
  if (seq == 0) {
    min_ts_ = max_ts_ = ts;
  } else {
    if (ts < min_ts_) min_ts_ = ts;
    if (ts > max_ts_) max_ts_ = ts;
  }
  approx_bytes_ += charge;
  num_rows_.store(seq + 1, std::memory_order_release);
  return true;
}

bool MemTablet::ContainsKey(const KeyCell* key) const {
  const size_t nkey = parsed_key_.size();
  // No row of the series, or newer than all of them: no search needed.
  const Node* tail = tails_[FindTail(key, SeriesHash(key))].node;
  if (tail == nullptr || key[nkey - 1].i > tail->key[nkey - 1].i) return false;
  const Node* x = LastWhere(
      head_, max_height_.load(std::memory_order_relaxed),
      [&](const Node* n) { return order_.Compare(n->key, key, nkey) < 0; });
  const Node* at = x->Next(0);
  return at != nullptr && order_.Compare(at->key, key, nkey) == 0;
}

Status MemTablet::CheckLinksForTest() const {
  const size_t nkey = parsed_key_.size();
  auto fail = [](int level, const Node* n, const char* what) {
    return Status::Corruption("level " + std::to_string(level) + ", row " +
                              std::to_string(n->seq) + ": " + what);
  };
  const int height = max_height_.load(std::memory_order_relaxed);
  for (int level = 0; level < height; level++) {
    const Node* below = head_;  // Walks the level below alongside.
    const Node* prev = nullptr;
    for (const Node* n = head_->Next(level); n != nullptr;
         prev = n, n = n->Next(level)) {
      if (prev != nullptr && order_.Compare(prev->key, n->key, nkey) >= 0) {
        return fail(level, n, "not after its predecessor");
      }
      if (level == 0) continue;
      // The level below is ascending (checked first), so once it passes
      // n's key, n is not on it.
      while (below != n) {
        below = below->Next(level - 1);
        if (below == nullptr ||
            (below != n && order_.Compare(below->key, n->key, nkey) >= 0)) {
          return fail(level, n, "missing from the level below");
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

MemTabletCursor::MemTabletCursor(std::shared_ptr<const MemTablet> mt,
                                 const QueryBounds& bounds, size_t watermark,
                                 const Schema* current_schema,
                                 std::atomic<uint64_t>* scanned)
    : mt_(std::move(mt)),
      current_schema_(current_schema),
      watermark_(watermark),
      scanned_(scanned),
      direction_(bounds.direction),
      key_(mt_->order_.num_key_columns()) {
  const Schema& schema = *mt_->schema_;
  for (size_t c = schema.num_columns(); c < current_schema_->num_columns();
       c++) {
    const Column& col = current_schema_->columns()[c];
    EncodeValue(&appended_enc_, col.default_value, col.type);
  }
  const bool ascending = direction_ == Direction::kAscending;
  const KeyOrder& order = mt_->order_;
  trailing_ = ascending ? bounds.max_key : bounds.min_key;
  if (trailing_) order.CellsOf(trailing_->prefix, &trailing_cells_);

  // The leading bound (min ascending, max descending) picks the first row.
  const std::optional<KeyBound>& lead = ascending ? bounds.min_key : bounds.max_key;
  std::vector<KeyCell> lead_cells;
  if (lead) order.CellsOf(lead->prefix, &lead_cells);
  const bool inclusive = lead && lead->inclusive;
  auto cmp = [&](const MemTablet::Node* n) {
    return order.Compare(n->key, lead_cells.data(), lead_cells.size());
  };
  const MemTablet::Node* head = mt_->head_;
  const int height = mt_->max_height_.load(std::memory_order_relaxed);
  if (ascending) {
    // First row at or past the bound: after the last one before it.
    node_ = LastWhere(head, height, [&](const MemTablet::Node* n) {
              if (!lead) return false;
              int c = cmp(n);
              return inclusive ? c < 0 : c <= 0;
            })->Next(0);
  } else {
    // Last row within the bound (with no bound, cmp is always 0).
    const MemTablet::Node* x =
        LastWhere(head, height, [&](const MemTablet::Node* n) {
          int c = cmp(n);
          return !lead || inclusive ? c <= 0 : c < 0;
        });
    node_ = x == head ? nullptr : x;
  }
  Settle();
}

const MemTablet::Node* MemTabletCursor::Step(const MemTablet::Node* n) const {
  if (direction_ == Direction::kAscending) return n->Next(0);
  const size_t nkey = key_.size();
  const MemTablet::Node* head = mt_->head_;
  const MemTablet::Node* x = LastWhere(
      head, mt_->max_height_.load(std::memory_order_relaxed),
      [&](const MemTablet::Node* m) {
        return mt_->order_.Compare(m->key, n->key, nkey) < 0;
      });
  return x == head ? nullptr : x;
}

void MemTabletCursor::Settle() {
  while (node_ != nullptr && node_->seq >= watermark_) node_ = Step(node_);
  if (node_ == nullptr) return;
  if (trailing_) {
    int c = mt_->order_.Compare(node_->key, trailing_cells_.data(),
                                trailing_cells_.size());
    bool past = direction_ == Direction::kAscending
                    ? (trailing_->inclusive ? c > 0 : c >= 0)
                    : (trailing_->inclusive ? c < 0 : c <= 0);
    if (past) {
      node_ = nullptr;
      return;
    }
  }
  std::copy(node_->key, node_->key + key_.size(), key_.begin());
  if (scanned_) scanned_->fetch_add(1, std::memory_order_relaxed);
}

Status MemTabletCursor::Next() {
  if (node_ != nullptr) {
    node_ = Step(node_);
    Settle();
  }
  return Status::OK();
}

Slice MemTabletCursor::row() const { return Slice(node_->row, node_->row_len); }

void MemTabletCursor::AppendEncoded(std::string* dst) const {
  dst->append(node_->row, node_->row_len);
  dst->append(appended_enc_);
}

void MemTabletCursor::MaterializeRow(Row* out) const {
  const Schema& schema = *mt_->schema_;
  Slice in = row();
  DecodeRow(&in, schema, out);  // Validated at insert; cannot fail.
  if (schema.version() != current_schema_->version()) {
    *out = current_schema_->TranslateRow(schema, *out);
  }
}

}  // namespace lt
