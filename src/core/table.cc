#include "core/table.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ranges>
#include <string_view>

#include "core/merge_policy.h"
#include "core/row_codec.h"
#include "core/tablet_writer.h"
#include "util/bloom.h"
#include "util/fault.h"
#include "util/logger.h"

namespace lt {
namespace {

std::string TabletFileName(uint64_t seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%06llu.tab", static_cast<unsigned long long>(seq));
  return buf;
}

void SortMetas(std::vector<TabletMeta>* metas) {
  std::sort(metas->begin(), metas->end(),
            [](const TabletMeta& a, const TabletMeta& b) {
              if (a.min_ts != b.min_ts) return a.min_ts < b.min_ts;
              if (a.max_ts != b.max_ts) return a.max_ts < b.max_ts;
              return a.filename < b.filename;
            });
}

}  // namespace

Table::Table(Env* env, std::shared_ptr<Clock> clock, std::string dir,
             TableOptions options)
    : env_(env), clock_(std::move(clock)), dir_(std::move(dir)),
      opts_(options) {
  if (!opts_.logger) opts_.logger = Logger::Default();
}

Status Table::Create(Env* env, std::shared_ptr<Clock> clock,
                     const std::string& dir, const std::string& name,
                     const Schema& schema, const TableOptions& options,
                     std::unique_ptr<Table>* out) {
  LT_RETURN_IF_ERROR(schema.Validate());
  LT_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<Table> table(new Table(env, clock, dir, options));
  if (env->FileExists(table->DescriptorPath())) {
    return Status::AlreadyExists("table already exists in " + dir);
  }
  table->name_ = name;
  table->schema_ = std::make_shared<const Schema>(schema);
  table->ttl_ = options.ttl;
  {
    std::lock_guard<std::mutex> lock(table->mu_);
    LT_RETURN_IF_ERROR(table->SaveDescriptorLocked());
  }
  *out = std::move(table);
  return Status::OK();
}

Status Table::Open(Env* env, std::shared_ptr<Clock> clock,
                   const std::string& dir, const TableOptions& options,
                   std::unique_ptr<Table>* out) {
  std::unique_ptr<Table> table(new Table(env, clock, dir, options));
  TableDescriptor desc;
  LT_RETURN_IF_ERROR(TableDescriptor::Load(env, table->DescriptorPath(), &desc));
  table->name_ = desc.table_name;
  table->schema_ = std::make_shared<const Schema>(desc.schema);
  table->ttl_ = desc.ttl;
  table->next_file_seq_ = desc.next_file_seq;
  desc.SortTablets();
  table->tablets_ = desc.tablets;

  // Remove files a crash mid-flush or mid-merge left unreferenced.
  // Quarantined tablets (`*.corrupt`) are kept for post-mortems.
  std::set<std::string> live;
  for (const TabletMeta& m : table->tablets_) live.insert(m.filename);
  std::vector<std::string> children;
  LT_RETURN_IF_ERROR(env->GetChildren(dir, &children));
  for (const std::string& child : children) {
    if (child == "DESC") continue;
    if (child.ends_with(".corrupt")) continue;
    if (!live.count(child)) env->RemoveFile(dir + "/" + child);
  }

  std::vector<std::pair<std::string, Status>> doomed;
  for (const TabletMeta& m : table->tablets_) {
    std::shared_ptr<TabletReader> reader;
    Status s = TabletReader::Open(env, table->TabletPath(m.filename), &reader,
                                  table->opts_.block_cache, &table->stats_);
    if (s.ok() && options.verify_open) s = reader->Load();
    if (!s.ok()) {
      // A missing or corrupt tablet must not brick the whole table: the
      // paper's contract is that persisted data stays *recoverable*, so we
      // quarantine the bad tablet and keep serving the rest.
      if (!TabletReader::Unusable(s)) return s;
      doomed.emplace_back(m.filename, std::move(s));
      continue;
    }
    table->readers_[m.filename] = std::move(reader);
    if (!table->has_rows_ || m.max_ts > table->max_row_ts_) {
      table->max_row_ts_ = m.max_ts;
      table->has_rows_ = m.row_count > 0 || table->has_rows_;
    }
    if (m.row_count > 0) table->has_rows_ = true;
  }
  if (!doomed.empty()) {
    std::lock_guard<std::mutex> lock(table->mu_);
    for (const auto& [fname, why] : doomed) {
      table->QuarantineTabletLocked(fname, why);
    }
  }
  *out = std::move(table);
  return Status::OK();
}

Status Table::Destroy(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  Status s = env->GetChildren(dir, &children);
  if (s.IsNotFound()) return Status::OK();
  LT_RETURN_IF_ERROR(s);
  for (const std::string& child : children) {
    LT_RETURN_IF_ERROR(env->RemoveFile(dir + "/" + child));
  }
  return Status::OK();
}

std::shared_ptr<const Schema> Table::schema() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schema_;
}

Timestamp Table::ttl() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ttl_;
}

Timestamp Table::ExpiryCutoffLocked(Timestamp now) const {
  if (ttl_ <= 0) return std::numeric_limits<Timestamp>::min();
  return now - ttl_;
}

void Table::QuarantineTabletLocked(const std::string& fname,
                                   const Status& why) {
  auto it = std::find_if(tablets_.begin(), tablets_.end(),
                         [&](const TabletMeta& m) { return m.filename == fname; });
  // Readers load outside mu_: another may have quarantined it first, or a
  // merge or TTL may have retired it.
  if (it == tablets_.end()) return;
  const std::string path = TabletPath(fname);
  opts_.logger->Warn("tablet_quarantined",
                     {{"table", name_}, {"tablet", fname}, {"status", why}});
  readers_.erase(fname);
  tablets_.erase(it);
  if (env_->FileExists(path)) env_->RenameFile(path, path + ".corrupt");
  stats_.tablets_quarantined.fetch_add(1);
  // Persist the drop so the next open doesn't trip over the same tablet.
  // If this write fails, reopening just quarantines again.
  Status s = SaveDescriptorLocked();
  if (!s.ok()) {
    opts_.logger->Error(
        "quarantine_descriptor_update_failed",
        {{"table", name_}, {"tablet", fname}, {"status", s}});
  }
}

Status Table::SaveDescriptorLocked() { return SaveDescriptorWithLocked(tablets_); }

Status Table::SaveDescriptorWithLocked(const std::vector<TabletMeta>& tablets) {
  TableDescriptor desc;
  desc.table_name = name_;
  desc.schema = *schema_;
  desc.ttl = ttl_;
  desc.next_file_seq = next_file_seq_;
  desc.tablets = tablets;
  return desc.Save(env_, DescriptorPath());
}

// ---------------------------------------------------------------------------
// Replication hooks: whole-tablet export/install for primary→secondary
// shipping (flushed tablets are immutable, so a byte copy is a valid
// replica of the tablet).

namespace {
// Parses the numeric prefix of a tablet filename ("000042.tab" → 42);
// returns 0 if the name has no digit prefix.
uint64_t TabletSeqOf(const std::string& fname) {
  uint64_t seq = 0;
  for (char c : fname) {
    if (c < '0' || c > '9') break;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

bool SameTablet(const TabletMeta& a, const TabletMeta& b) {
  return a.filename == b.filename && a.file_bytes == b.file_bytes &&
         a.row_count == b.row_count;
}
}  // namespace

Status Table::ExportTablet(const std::string& filename, TabletMeta* meta,
                           std::string* bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    for (const TabletMeta& m : tablets_) {
      if (m.filename == filename) {
        *meta = m;
        found = true;
        break;
      }
    }
    if (!found) return Status::NotFound("no such tablet: " + filename);
  }
  LT_RETURN_IF_ERROR(ReadFileToString(env_, TabletPath(filename), bytes));
  if (bytes->size() != meta->file_bytes) {
    // Tablets never change size once flushed; a mismatch means the file
    // was replaced under us (merge) — the caller should re-list and retry.
    return Status::NotFound("tablet replaced mid-export: " + filename);
  }
  return Status::OK();
}

Status Table::InstallTablet(const TabletMeta& meta, const Slice& bytes) {
  if (meta.filename.empty() || meta.filename == "DESC" ||
      meta.filename.find('/') != std::string::npos) {
    return Status::InvalidArgument("bad tablet filename");
  }
  if (bytes.size() != meta.file_bytes) {
    return Status::InvalidArgument("tablet size does not match meta");
  }
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TabletMeta& m : tablets_) {
      if (m.filename != meta.filename) continue;
      if (SameTablet(m, meta)) return Status::OK();  // Duplicate ship.
      // Same name, different contents: a divergent-history rejoin. Drop
      // the old entry durably BEFORE the file is overwritten, so a crash
      // in between leaves an orphan (removed at Open), never a descriptor
      // naming bytes it doesn't describe.
      std::vector<TabletMeta> next;
      next.reserve(tablets_.size() - 1);
      for (const TabletMeta& t : tablets_) {
        if (t.filename != meta.filename) next.push_back(t);
      }
      LT_RETURN_IF_ERROR(SaveDescriptorWithLocked(next));
      readers_.erase(meta.filename);
      tablets_ = std::move(next);
      break;
    }
  }
  const std::string path = TabletPath(meta.filename);
  const std::string tmp = path + ".ship";
  std::unique_ptr<WritableFile> f;
  LT_RETURN_IF_ERROR(env_->NewWritableFile(tmp, &f));
  Status s = f->Append(bytes);
  if (s.ok()) s = f->Sync();
  if (s.ok()) s = f->Close();
  if (s.ok()) s = env_->RenameFile(tmp, path);
  if (!s.ok()) {
    env_->RemoveFile(tmp);
    return s;
  }
  // Validate before committing: the bytes must load as a real tablet, so
  // a torn or corrupted transfer that slipped past the wire checksum can
  // never enter the descriptor.
  std::shared_ptr<TabletReader> reader;
  s = TabletReader::Open(env_, path, &reader, opts_.block_cache, &stats_);
  if (s.ok()) s = reader->Load();
  if (!s.ok()) {
    env_->RemoveFile(path);
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TabletMeta> next = tablets_;
    next.push_back(meta);
    SortMetas(&next);
    // Local flushes must never collide with shipped names: advance the
    // sequence counter past the installed file's.
    const uint64_t seq = TabletSeqOf(meta.filename);
    const uint64_t prev_seq = next_file_seq_;
    if (seq >= next_file_seq_) next_file_seq_ = seq + 1;
    Status cs = SaveDescriptorWithLocked(next);
    if (!cs.ok()) {
      next_file_seq_ = prev_seq;
      env_->RemoveFile(path);
      return cs;
    }
    readers_[meta.filename] = std::move(reader);
    tablets_ = std::move(next);
    if (meta.row_count > 0) {
      if (!has_rows_ || meta.max_ts > max_row_ts_) max_row_ts_ = meta.max_ts;
      has_rows_ = true;
    }
  }
  return Status::OK();
}

Status Table::RetainOnlyTablets(const std::vector<TabletMeta>& keep) {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  auto keeps = [&](const TabletMeta& m) {
    for (const TabletMeta& k : keep) {
      if (SameTablet(k, m)) return true;
    }
    return false;
  };
  std::vector<TabletMeta> next;
  std::vector<std::string> drop;
  next.reserve(tablets_.size());
  for (const TabletMeta& m : tablets_) {
    if (keeps(m)) {
      next.push_back(m);
    } else {
      drop.push_back(m.filename);
    }
  }
  if (drop.empty()) return Status::OK();
  // Commit the prune durably first; files are unreferenced afterwards, so
  // a crash between descriptor and removal just leaves orphans for Open.
  LT_RETURN_IF_ERROR(SaveDescriptorWithLocked(next));
  for (const std::string& fname : drop) {
    readers_.erase(fname);
    env_->RemoveFile(TabletPath(fname));
  }
  tablets_ = std::move(next);
  return Status::OK();
}

void Table::DiscardMem() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  filling_.clear();
  sealed_.clear();
  must_flush_first_.clear();
  last_insert_tablet_ = 0;
  flush_backoff_until_ = 0;
  flush_failure_streak_ = 0;
}

void Table::RecordFlushFailureLocked(Timestamp now) {
  stats_.flush_failures.fetch_add(1);
  Timestamp delay = opts_.flush_retry_backoff;
  for (uint32_t i = 0; i < flush_failure_streak_ &&
                       delay < opts_.flush_retry_max_backoff;
       i++) {
    delay *= 2;
  }
  delay = std::min(delay, opts_.flush_retry_max_backoff);
  flush_backoff_until_ = now + delay;
  flush_failure_streak_++;
}

void Table::RecordMergeFailureLocked(Timestamp now) {
  stats_.merge_failures.fetch_add(1);
  Timestamp delay = opts_.flush_retry_backoff;
  for (uint32_t i = 0; i < merge_failure_streak_ &&
                       delay < opts_.flush_retry_max_backoff;
       i++) {
    delay *= 2;
  }
  delay = std::min(delay, opts_.flush_retry_max_backoff);
  merge_backoff_until_ = now + delay;
  merge_failure_streak_++;
}

// ---------------------------------------------------------------------------
// The read view: what queries, latest-row lookups and the uniqueness check
// see.

// A reader drops a disk source by resetting its reader.
struct Table::Source {
  Timestamp min_ts = 0, max_ts = 0;
  std::shared_ptr<TabletReader> reader;  // Null for a memtablet.
  std::string filename;                  // The tablet's: quarantine target.
  std::unique_ptr<Cursor> mem;           // A memtablet's rows, positioned.

  // A memtablet visitor: adds a cursor over `mt`'s rows within `bounds`
  // to `out` as one source, if there are any. mu_ held: the cursor's
  // watermark is the memtablet's row count as the view is taken.
  static bool OpenMem(const std::shared_ptr<MemTablet>& mt,
                      const QueryBounds& bounds, const Schema* schema,
                      std::atomic<uint64_t>* scanned,
                      std::vector<Source>* out) {
    auto cursor = std::make_unique<MemTabletCursor>(mt, bounds, mt->num_rows(),
                                                    schema, scanned);
    if (cursor->Valid()) {
      out->push_back({mt->min_ts(), mt->max_ts(), nullptr, {}, std::move(cursor)});
    }
    return true;
  }
};

template <typename MemFn>
Status Table::VisitReadViewLocked(const QueryBounds& range, QueryTrace* trace,
                                  MemFn&& mem,
                                  std::vector<Source>* disk) const {
  if (disk != nullptr) {
    for (const TabletMeta& m : tablets_) {
      if (trace) trace->tablets_considered++;
      if (!range.TsOverlaps(m.min_ts, m.max_ts)) {
        if (trace) trace->tablets_pruned_time++;
        continue;
      }
      if (m.row_count == 0) continue;
      auto it = readers_.find(m.filename);
      if (it == readers_.end()) {
        return Status::Aborted("internal: no reader for tablet " + m.filename);
      }
      disk->push_back({m.min_ts, m.max_ts, it->second, m.filename, nullptr});
    }
  }
  // A memtablet leaves flushing_ in the critical section that puts its
  // tablet in tablets_ (or puts it back in sealed_), so every row is in
  // exactly one place here. all_of stops at the first visitor call that
  // returns false.
  auto visit = [&](const std::shared_ptr<MemTablet>& mt) {
    return mt->empty() || !range.TsOverlaps(mt->min_ts(), mt->max_ts()) ||
           mem(mt);
  };
  std::ranges::all_of(filling_ | std::views::values, visit) &&
      std::ranges::all_of(sealed_, visit) &&
      std::ranges::all_of(flushing_, visit);
  return Status::OK();
}

Status Table::LoadSource(Source* src) {
  Status s = src->reader->Load();
  if (s.ok() || !TabletReader::Unusable(s)) return s;
  // Unreadable tablet: quarantine it and serve the rest (§2.3.4 — persisted
  // data stays recoverable; one bad file must not take the whole table
  // down). It can no longer contribute rows, so the source is dropped.
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineTabletLocked(src->filename, s);
  src->reader.reset();
  return Status::OK();
}

Status Table::MergeSources(std::span<Source> sources, const QueryBounds& bounds,
                           const Schema* schema, const Key* bloom_prefix,
                           std::atomic<uint64_t>* scanned, QueryTrace* trace,
                           std::unique_ptr<Cursor>* out) {
  std::vector<std::unique_ptr<Cursor>> cursors;
  cursors.reserve(sources.size());
  for (Source& src : sources) {
    if (src.reader) {
      LT_RETURN_IF_ERROR(LoadSource(&src));
      if (!src.reader) continue;
      if (bloom_prefix != nullptr) {
        stats_.bloom_tablet_probes.fetch_add(1);
        if (!src.reader->MayContainPrefix(*bloom_prefix)) {
          stats_.bloom_tablet_skips.fetch_add(1);
          src.reader.reset();
          continue;
        }
      }
      std::unique_ptr<Cursor> c;
      LT_RETURN_IF_ERROR(
          src.reader->NewCursor(bounds, schema, scanned, &c, trace));
      cursors.push_back(std::move(c));
    } else if (src.mem) {
      cursors.push_back(std::move(src.mem));
    }
  }
  auto merged = std::make_unique<MergingCursor>(schema, std::move(cursors),
                                                bounds.direction);
  LT_RETURN_IF_ERROR(merged->status());
  *out = std::move(merged);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Inserts.

namespace {

// An open-addressing set of byte strings that point into storage the caller
// keeps alive: a commit group's encoded keys, which are byte prefixes of its
// rows. Sized for the group up front, so it never rehashes.
class KeySet {
 public:
  explicit KeySet(size_t max_keys) {
    size_t n = 16;
    while (n < 2 * max_keys) n <<= 1;
    slots_.resize(n);
  }
  /// Adds `key`; false if it is already present.
  bool Insert(const Slice& key) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = BloomHash(key) & mask;; i = (i + 1) & mask) {
      std::string_view& slot = slots_[i];
      if (slot.data() == nullptr) {
        slot = key.view();
        return true;
      }
      if (slot == key.view()) return false;
    }
  }
  void Clear() { std::fill(slots_.begin(), slots_.end(), std::string_view()); }

 private:
  std::vector<std::string_view> slots_;
};

// A full key as Values, from its cells (the uniqueness slow path's probe).
Key KeyOfCells(const Schema& schema, const KeyCell* cells) {
  Key key;
  for (size_t c = 0; c < schema.num_key_columns(); c++) {
    switch (schema.columns()[c].type) {
      case ColumnType::kInt32:
        key.push_back(Value::Int32(static_cast<int32_t>(cells[c].i)));
        break;
      case ColumnType::kString:
        key.push_back(Value::String(cells[c].s.ToString()));
        break;
      case ColumnType::kBlob:
        key.push_back(Value::Blob(cells[c].s.ToString()));
        break;
      default:
        key.push_back(Value::Int64(cells[c].i));
        break;
    }
  }
  return key;
}

}  // namespace

// The table as a commit group's uniqueness checks see it: the newest-row
// bound, then — taken once, when the first row needs it — the memtablets
// and disk tablets of the read view. Nothing applies while a group checks
// (insert_mu_ is held), so one view serves every row of the group.
struct Table::UniqueView {
  explicit UniqueView(const Schema& schema) : order(schema) {}

  KeyOrder order;
  bool has_rows = false;
  Timestamp max_row_ts = 0;
  bool taken = false;
  std::vector<std::shared_ptr<MemTablet>> mem;
  std::vector<Source> disk;
  std::vector<char> loaded;                  // Per disk source.
  std::vector<std::vector<KeyCell>> max_key;  // Per loaded disk source.
  std::vector<size_t> probe;                  // Sources a row point-queries.
};

Status Table::CheckUnique(const Schema& schema, const KeyCell* key,
                          UniqueView* v) {
  auto duplicate = [this] {
    stats_.duplicates_rejected.fetch_add(1);
    return Status::AlreadyExists("duplicate key");
  };
  const size_t nkey = schema.num_key_columns();
  const Timestamp ts = key[nkey - 1].i;
  // Fast path 1 (§3.4.4): newer than every existing row — provable from
  // cached metadata alone. Common because most applications timestamp
  // rows with the current time.
  if (!v->has_rows || ts > v->max_row_ts) {
    stats_.unique_by_newest_ts.fetch_add(1);
    return Status::OK();
  }
  if (!v->taken) {
    std::lock_guard<std::mutex> lock(mu_);
    LT_RETURN_IF_ERROR(VisitReadViewLocked(
        QueryBounds(), nullptr,
        [&](const std::shared_ptr<MemTablet>& mt) {
          v->mem.push_back(mt);
          return true;
        },
        &v->disk));
    v->loaded.assign(v->disk.size(), 0);
    v->max_key.resize(v->disk.size());
    v->taken = true;
  }
  // A duplicate shares the full key including ts, so only sources whose
  // timespan contains ts can hold one. In-memory tablets: exact, cheap
  // checks (this thread is their only writer, so no lock is needed).
  for (const std::shared_ptr<MemTablet>& mt : v->mem) {
    if (ts >= mt->min_ts() && ts <= mt->max_ts() && mt->ContainsKey(key)) {
      return duplicate();
    }
  }
  // Fast path 2: larger than every candidate's max key — provable from
  // cached footers alone. Footer loads and point queries run outside mu_ so
  // concurrent queries proceed unencumbered (the paper's in-memory lock
  // table is our insert_mu_, held by the caller).
  v->probe.clear();
  for (size_t d = 0; d < v->disk.size(); d++) {
    Source& c = v->disk[d];
    if (!c.reader || ts < c.min_ts || ts > c.max_ts) continue;
    if (!v->loaded[d]) {
      LT_RETURN_IF_ERROR(LoadSource(&c));
      v->loaded[d] = 1;
      if (!c.reader) continue;  // Quarantined: it cannot hold a duplicate.
      v->order.CellsOf(c.reader->max_key(), &v->max_key[d]);
    }
    int cmp = v->order.Compare(v->max_key[d].data(), key, nkey);
    if (cmp == 0) return duplicate();
    if (cmp > 0) v->probe.push_back(d);  // Else every key in it is smaller.
  }
  if (v->probe.empty()) {
    stats_.unique_by_max_key.fetch_add(1);
    return Status::OK();
  }
  // Slow path: point queries.
  const Key full_key = KeyOfCells(schema, key);
  for (size_t d : v->probe) {
    const Source& c = v->disk[d];
    stats_.bloom_tablet_probes.fetch_add(1);
    if (!c.reader->MayContainPrefix(full_key)) {
      stats_.bloom_tablet_skips.fetch_add(1);
      continue;
    }
    std::unique_ptr<Cursor> cursor;
    LT_RETURN_IF_ERROR(c.reader->NewCursor(QueryBounds::ForPrefix(full_key),
                                           &schema, nullptr, &cursor));
    if (cursor->Valid()) return duplicate();
  }
  stats_.unique_by_point_query.fetch_add(1);
  return Status::OK();
}

void Table::SealLocked(std::shared_ptr<MemTablet> mt) {
  mt->Seal();
  auto it = filling_.find(mt->period().start);
  if (it != filling_.end() && it->second == mt) filling_.erase(it);
  sealed_.push_back(std::move(mt));
}

namespace {
// Group-commit bound: a leader stops claiming followers once the group
// holds this many rows, keeping the critical section (and any follower's
// worst-case wait) proportionate.
constexpr size_t kMaxInsertGroupRows = 65536;
}  // namespace

Status Table::InsertBatch(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  std::shared_ptr<const Schema> schema = this->schema();
  EncodedRows encoded;
  encoded.Clear(schema->version());
  for (const Row& r : rows) {
    if (!schema->RowMatches(r)) {
      return Status::InvalidArgument("row does not match table schema");
    }
    encoded.Add(*schema, r);
  }
  return InsertEncoded(encoded);
}

Status Table::InsertEncoded(const EncodedRows& rows) {
  if (rows.empty()) return Status::OK();
  const Timestamp op_start = MonotonicMicros();

  // Group commit: enqueue, then either wait for a leader to carry this
  // batch or become the leader at the queue front. Latency is recorded per
  // caller — a follower's wait is part of its user-visible insert time.
  InsertWaiter me(&rows);
  std::unique_lock<std::mutex> lock(writers_mu_);
  writers_.push_back(&me);
  while (!me.done && &me != writers_.front()) {
    me.cv.wait(lock);
  }
  if (me.done) {
    lock.unlock();
    stats_.insert_micros.Record(
        static_cast<uint64_t>(MonotonicMicros() - op_start));
    return me.status;
  }

  // Leader: claim a bounded prefix of the queue as this commit group.
  std::vector<InsertWaiter*> group;
  size_t group_rows = 0;
  for (InsertWaiter* w : writers_) {
    if (!group.empty() && group_rows + w->rows->size() > kMaxInsertGroupRows) {
      break;
    }
    group.push_back(w);
    group_rows += w->rows->size();
  }
  lock.unlock();

  RunInsertGroup(group);

  lock.lock();
  for (InsertWaiter* w : group) {
    writers_.pop_front();
    w->done = true;
    if (w != &me) w->cv.notify_one();
  }
  // Promote the next queued writer to leader.
  if (!writers_.empty()) writers_.front()->cv.notify_one();
  lock.unlock();

  stats_.insert_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return me.status;
}

void Table::RunInsertGroup(const std::vector<InsertWaiter*>& group) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  stats_.insert_groups.fetch_add(1);
  stats_.insert_group_size.Record(group.size());

  // While flushes are failing, memory absorbs inserts past the normal
  // backpressure threshold — but only up to a hard cap, rejected here
  // *before* any row applies so each caller sees a clean all-or-nothing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_.size() >= HardSealedCapLocked() &&
        clock_->Now() < flush_backoff_until_) {
      Status reject = Status::Unavailable(
          "too many unflushed tablets while flushes are failing");
      for (InsertWaiter* w : group) w->status = reject;
      return;
    }
  }

  std::shared_ptr<const Schema> schema = this->schema();
  const size_t nkey = schema->num_key_columns();
  size_t group_rows = 0;
  for (InsertWaiter* w : group) group_rows += w->rows->size();

  // Validate and uniqueness-check each batch independently. group_keys
  // holds the encoded keys of batches already accepted in this group: they
  // are not yet in any memtablet, so CheckUnique's fast paths cannot see
  // them, and a cross-batch duplicate must be caught here exactly as it
  // would have been had the batches run serially (earlier queue position
  // wins). A rejected batch's keys are rolled back so it cannot shadow a
  // later batch.
  KeySet group_keys(group_rows);
  UniqueView view(*schema);
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.has_rows = has_rows_;
    view.max_row_ts = max_row_ts_;
  }
  // Per group row, in queue order: its ts and its key bytes' length (the
  // key is a prefix of the row). cells holds one batch's key cells.
  std::vector<Timestamp> row_ts(group_rows);
  std::vector<uint32_t> key_len(group_rows);
  std::vector<KeyCell> cells;
  std::vector<uint32_t> ends(nkey);
  auto key_of = [&](const InsertWaiter& w, size_t i) {
    return Slice(w.rows->row(i).data(), key_len[w.first_row + i]);
  };
  std::vector<InsertWaiter*> accepted;
  size_t first_row = 0;
  for (InsertWaiter* w : group) {
    const EncodedRows& rows = *w->rows;
    w->first_row = first_row;
    first_row += rows.size();
    Status s;
    if (rows.schema_version != schema->version()) {
      s = Status::InvalidArgument("row does not match table schema");
    }
    // Every row is validated before any duplicate check, so a malformed
    // row anywhere fails its batch as InvalidArgument.
    cells.resize(rows.size() * nkey);
    for (size_t i = 0; s.ok() && i < rows.size(); i++) {
      Slice in = rows.row(i);
      KeyCell* key = &cells[i * nkey];
      if (!ParseRow(&in, *schema, key, ends.data()).ok() || !in.empty()) {
        s = Status::InvalidArgument("row does not match table schema");
        break;
      }
      key_len[w->first_row + i] = ends[nkey - 1];
      row_ts[w->first_row + i] = key[nkey - 1].i;
    }
    for (size_t i = 0; s.ok() && i < rows.size(); i++) {
      if (!group_keys.Insert(key_of(*w, i))) {
        stats_.duplicates_rejected.fetch_add(1);
        s = Status::AlreadyExists("duplicate key within batch");
        break;
      }
      s = CheckUnique(*schema, &cells[i * nkey], &view);
    }
    w->status = s;
    if (s.ok()) {
      accepted.push_back(w);
    } else {
      group_keys.Clear();
      for (InsertWaiter* a : accepted) {
        for (size_t i = 0; i < a->rows->size(); i++) {
          group_keys.Insert(key_of(*a, i));
        }
      }
    }
  }

  if (!accepted.empty()) {
    // One mu_ critical section applies every accepted batch, in queue
    // order — the coalescing that turns many small device batches into
    // amortized work. Readers take their memtablet watermarks under mu_,
    // so they see the whole group or none of it.
    std::lock_guard<std::mutex> lock(mu_);
    const Timestamp now = clock_->Now();
    for (InsertWaiter* w : accepted) {
      const EncodedRows& rows = *w->rows;
      for (size_t i = 0; i < rows.size(); i++) {
        Timestamp ts = row_ts[w->first_row + i];
        Period p = PeriodFor(ts, now);
        std::shared_ptr<MemTablet> mt;
        auto it = filling_.find(p.start);
        if (it != filling_.end() && it->second->period() == p) {
          mt = it->second;
        } else {
          // Missing, or a stale tablet whose period has since rolled over
          // into a larger bin sharing the same start: seal the stale one.
          if (it != filling_.end()) SealLocked(it->second);
          mt = std::make_shared<MemTablet>(next_memtablet_id_++, schema_, p,
                                           now);
          filling_[p.start] = mt;
        }
        if (!mt->InsertEncoded(rows.row(i))) {
          w->status = Status::Aborted("uniqueness race despite insert lock");
          break;
        }
        // Flush dependency (§3.4.3): switching filling tablets means the
        // previous one holds earlier rows and must flush first (or with
        // us).
        if (last_insert_tablet_ != 0 && last_insert_tablet_ != mt->id()) {
          must_flush_first_[mt->id()].insert(last_insert_tablet_);
        }
        last_insert_tablet_ = mt->id();
        if (!has_rows_ || ts > max_row_ts_) max_row_ts_ = ts;
        has_rows_ = true;
        if (mt->ApproximateBytes() >= opts_.flush_bytes) SealLocked(mt);
      }
      if (w->status.ok()) {
        stats_.insert_batches.fetch_add(1);
        stats_.rows_inserted.fetch_add(rows.size());
      }
    }
  }

  // Backpressure: once too many sealed tablets await flushing, the insert
  // path does the flushing itself and becomes disk-bound (§5.1.3) — one
  // pass for the whole group. During a failure backoff window the flush is
  // skipped: the rows are already applied and served from memory;
  // maintenance retries the flush later.
  while (true) {
    uint64_t root = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) break;  // Shutdown's FlushAll will persist these rows.
      if (sealed_.size() <= opts_.max_unflushed_tablets) break;
      if (clock_->Now() < flush_backoff_until_) break;
      root = sealed_.front()->id();
    }
    if (!FlushSet({root}).ok()) break;
  }
}

// ---------------------------------------------------------------------------
// Flushing.

Status Table::FlushSet(std::vector<uint64_t> root_ids) {
  const Timestamp op_start = MonotonicMicros();
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::vector<std::shared_ptr<MemTablet>> victims;
  bool is_retry = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    is_retry = flush_failure_streak_ > 0;
    // Transitive closure over the dependency graph (which may have cycles).
    std::set<uint64_t> want(root_ids.begin(), root_ids.end());
    std::deque<uint64_t> work(root_ids.begin(), root_ids.end());
    while (!work.empty()) {
      uint64_t id = work.front();
      work.pop_front();
      auto it = must_flush_first_.find(id);
      if (it == must_flush_first_.end()) continue;
      for (uint64_t dep : it->second) {
        if (want.insert(dep).second) work.push_back(dep);
      }
    }
    for (auto it = filling_.begin(); it != filling_.end();) {
      if (want.count(it->second->id())) {
        it->second->Seal();
        victims.push_back(it->second);
        it = filling_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = sealed_.begin(); it != sealed_.end();) {
      if (want.count((*it)->id())) {
        victims.push_back(*it);
        it = sealed_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& a, const auto& b) { return a->id() < b->id(); });
    flushing_ = victims;  // Still readable until they commit or requeue.
  }
  if (victims.empty()) return Status::OK();
  if (is_retry) stats_.flush_retries.fetch_add(1);

  const Timestamp now = clock_->Now();

  // Write one tablet per non-empty victim, in id order. Id order is only a
  // heuristic: InsertBatch adds an edge from the current filling tablet to
  // the previous one, so inserts alternating between period tablets create
  // edges from an OLDER id to a NEWER one (even cycles). On a write failure
  // the candidate prefix is therefore trimmed below — under mu_, against
  // the real edge set — until it is dependency-closed before anything
  // commits; the failed victim and everything dropped by the trim return to
  // the flush queue, sealed and intact, for a backed-off retry. No victim
  // is ever stranded or dropped.
  struct Written {
    size_t vi;  // Index into `victims`.
    TabletMeta meta;
    std::shared_ptr<TabletReader> reader;
  };
  std::vector<Written> written;
  size_t committed_victims = victims.size();  // victims[0..this) commit.
  Status fail;
  for (size_t vi = 0; vi < victims.size(); vi++) {
    const std::shared_ptr<MemTablet>& mt = victims[vi];
    if (mt->empty()) continue;
    std::string fname;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fname = TabletFileName(next_file_seq_++);
    }
    TabletWriterOptions wopts;
    wopts.block_bytes = opts_.block_bytes;
    wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
    wopts.sync = true;
    wopts.stats = &stats_;
    TabletWriter writer(env_, TabletPath(fname), mt->schema().get(), wopts);
    Status s;
    for (MemTabletCursor rows(mt, QueryBounds(), mt->num_rows(),
                              mt->schema().get(), nullptr);
         s.ok() && rows.Valid(); rows.Next()) {
      s = writer.Add(rows.row());
    }
    TabletMeta meta;
    if (s.ok()) s = writer.Finish(&meta);
    if (!s.ok()) {
      writer.Abandon();  // The partial output file is deleted.
      fail = s;
      committed_victims = vi;
      break;
    }
    meta.filename = fname;
    meta.flushed_at = now;
    std::shared_ptr<TabletReader> reader;
    s = TabletReader::Open(env_, TabletPath(fname), &reader,
                           opts_.block_cache, &stats_);
    if (!s.ok()) {
      env_->RemoveFile(TabletPath(fname));
      fail = s;
      committed_victims = vi;
      break;
    }
    written.push_back({vi, std::move(meta), std::move(reader)});
  }

  size_t committed_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // commit[vi] — does victims[vi] commit this round? Start from the
    // written prefix, then trim it until it is closed under the real
    // dependency edges: a victim whose must-flush-first set names a
    // requeued victim must itself be requeued, transitively (id order does
    // not imply closure — see the write-loop comment above). Committing a
    // non-closed set would durably persist a tablet whose earlier-inserted
    // dependency is still memory-only, breaking §3.4.3 prefix durability
    // on the next crash.
    std::vector<char> commit(victims.size(), 1);
    for (size_t vi = committed_victims; vi < victims.size(); vi++) {
      commit[vi] = 0;
    }
    if (committed_victims < victims.size()) {
      std::map<uint64_t, size_t> index_of;
      for (size_t vi = 0; vi < victims.size(); vi++) {
        index_of[victims[vi]->id()] = vi;
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t vi = 0; vi < victims.size(); vi++) {
          if (!commit[vi]) continue;
          auto dep_it = must_flush_first_.find(victims[vi]->id());
          if (dep_it == must_flush_first_.end()) continue;
          for (uint64_t dep : dep_it->second) {
            auto ix = index_of.find(dep);
            if (ix != index_of.end() && !commit[ix->second]) {
              commit[vi] = 0;
              changed = true;
              break;
            }
          }
        }
      }
      // Output already written for trimmed victims must not reach the
      // descriptor: delete it so the retry rewrites it cleanly.
      for (auto it = written.begin(); it != written.end();) {
        if (!commit[it->vi]) {
          env_->RemoveFile(TabletPath(it->meta.filename));
          it = written.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!written.empty()) {
      // One atomic descriptor update covers the committed set (§3.4.3).
      // Commit durably first, then mutate in-memory state, so a descriptor
      // failure rolls back to exactly the pre-flush picture.
      std::vector<TabletMeta> next_tablets = tablets_;
      for (const Written& w : written) next_tablets.push_back(w.meta);
      SortMetas(&next_tablets);
      Status cs = SaveDescriptorWithLocked(next_tablets);
      if (!cs.ok()) {
        // The old descriptor still rules: delete the unreferenced tablet
        // files and requeue every victim so the retry rewrites cleanly.
        for (const Written& w : written) {
          env_->RemoveFile(TabletPath(w.meta.filename));
        }
        written.clear();
        std::fill(commit.begin(), commit.end(), 0);
        if (fail.ok()) fail = cs;
      } else {
        for (Written& w : written) {
          stats_.flushes.fetch_add(1);
          stats_.bytes_flushed.fetch_add(w.meta.file_bytes);
          readers_[w.meta.filename] = std::move(w.reader);
          tablets_.push_back(std::move(w.meta));
        }
        SortMetas(&tablets_);
      }
    } else if (!fail.ok()) {
      // Nothing reached disk: requeue everything (empty victims included)
      // and leave the dependency graph untouched.
      std::fill(commit.begin(), commit.end(), 0);
    }
    // Committed victims leave the dependency graph entirely — including
    // edges that name them from still-queued tablets, which are satisfied
    // now that the dependency is durable. (Erasing only the victims' own
    // entries leaked those satisfied edges forever.)
    std::set<uint64_t> committed_ids;
    for (size_t vi = 0; vi < victims.size(); vi++) {
      if (commit[vi]) committed_ids.insert(victims[vi]->id());
    }
    for (uint64_t id : committed_ids) must_flush_first_.erase(id);
    for (auto it = must_flush_first_.begin(); it != must_flush_first_.end();) {
      for (uint64_t id : committed_ids) it->second.erase(id);
      it = it->second.empty() ? must_flush_first_.erase(it) : std::next(it);
    }
    // Unflushed victims return to the front of the flush queue (reverse id
    // order keeps the oldest first); their rows stay served from memory.
    // The committed ones are served from their tablets from now on.
    for (size_t vi = victims.size(); vi-- > 0;) {
      if (!commit[vi]) sealed_.push_front(victims[vi]);
    }
    flushing_.clear();
    committed_count = committed_ids.size();
    if (!fail.ok()) {
      RecordFlushFailureLocked(clock_->Now());
    } else {
      flush_failure_streak_ = 0;
      flush_backoff_until_ = 0;
    }
  }
  if (!fail.ok()) {
    opts_.logger->Warn(
        "flush_failed",
        {{"table", name_},
         {"committed", static_cast<uint64_t>(committed_count)},
         {"requeued",
          static_cast<uint64_t>(victims.size() - committed_count)},
         {"status", fail}});
    return fail;
  }
  LT_CRASH_POINT("flush:after_commit");
  stats_.flush_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

Status Table::FlushAll() {
  return FlushThrough(std::numeric_limits<Timestamp>::max());
}

Status Table::FlushThrough(Timestamp ts) {
  // Roots include memtablets a running flush holds: FlushSet waits for it
  // on flush_mu_, so if it fails they are back in sealed_ and flush here.
  std::vector<uint64_t> roots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    QueryBounds through;
    through.max_ts = ts;
    LT_RETURN_IF_ERROR(VisitReadViewLocked(
        through, nullptr,
        [&](const std::shared_ptr<MemTablet>& mt) {
          roots.push_back(mt->id());
          return true;
        },
        nullptr));
  }
  if (roots.empty()) return Status::OK();
  return FlushSet(std::move(roots));
}

// ---------------------------------------------------------------------------
// Maintenance: age-based flushing, merging, TTL.

void Table::BeginShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  closing_ = true;
  // A pending retry backoff must not delay shutdown: the close-time flush
  // is the last chance to persist, so it runs immediately.
  flush_backoff_until_ = 0;
  merge_backoff_until_ = 0;
}

Status Table::MaintainNow() {
  const Timestamp now = clock_->Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return Status::OK();  // Shutdown owns the final flush.
    std::vector<std::shared_ptr<MemTablet>> aged;
    for (const auto& [start, mt] : filling_) {
      if (now - mt->created_at() >= opts_.max_memtablet_age) aged.push_back(mt);
    }
    for (const auto& mt : aged) SealLocked(mt);
  }
  Status flush_status;
  while (true) {
    uint64_t root = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) break;
      if (sealed_.empty()) break;
      if (clock_->Now() < flush_backoff_until_) break;  // Retry later.
      root = sealed_.front()->id();
    }
    flush_status = FlushSet({root});
    if (!flush_status.ok()) break;
  }
  // A failed flush must not starve the rest of maintenance: merging and TTL
  // reclamation still run (reclamation in particular frees the disk space a
  // full disk needs before the flush retry can succeed).
  Status merge_status = MaybeMerge(now);
  Status ttl_status;
  if (ttl() > 0) ttl_status = ReclaimExpired(now);
  LT_RETURN_IF_ERROR(flush_status);
  LT_RETURN_IF_ERROR(merge_status);
  return ttl_status;
}

bool Table::HasMaintenanceWork() {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!sealed_.empty()) return true;
  for (const auto& [start, mt] : filling_) {
    if (now - mt->created_at() >= opts_.max_memtablet_age) return true;
  }
  if (PickMerge(tablets_, now, name_, opts_.merge).valid()) return true;
  if (ttl_ > 0) {
    Timestamp cutoff = ExpiryCutoffLocked(now);
    for (const TabletMeta& m : tablets_) {
      if (m.max_ts < cutoff) return true;
    }
  }
  return false;
}

Status Table::MaybeMerge(Timestamp now) {
  const Timestamp op_start = MonotonicMicros();
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  std::vector<TabletMeta> inputs;
  std::vector<std::shared_ptr<TabletReader>> input_readers;
  std::shared_ptr<const Schema> schema;
  Timestamp cutoff;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return Status::OK();
    if (now < merge_backoff_until_) return Status::OK();  // Retry later.
    MergePick pick = PickMerge(tablets_, now, name_, opts_.merge);
    if (!pick.valid()) return Status::OK();
    for (size_t i = pick.begin; i < pick.end; i++) {
      auto it = readers_.find(tablets_[i].filename);
      if (it == readers_.end()) {
        return Status::Aborted("merge input reader missing");
      }
      inputs.push_back(tablets_[i]);
      input_readers.push_back(it->second);
    }
    schema = schema_;
    cutoff = ExpiryCutoffLocked(now);
  }

  std::string fname;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fname = TabletFileName(next_file_seq_++);
  }
  // The output is format 2 like every tablet written, so merging is how a
  // table's format-1 tablets are upgraded (§3.5: no rewrite in place).
  TabletWriterOptions wopts;
  wopts.block_bytes = opts_.block_bytes;
  wopts.bloom_bits_per_key = opts_.bloom_bits_per_key;
  wopts.sync = true;
  wopts.stats = &stats_;
  TabletWriter writer(env_, TabletPath(fname), schema.get(), wopts);

  // Single-pass merge-sort of the inputs (§3.4.1). Rows already past the
  // TTL are dropped rather than rewritten.
  std::vector<std::unique_ptr<Cursor>> cursors;
  QueryBounds everything;
  for (size_t i = 0; i < input_readers.size(); i++) {
    std::unique_ptr<Cursor> c;
    Status s = input_readers[i]->NewCursor(everything, schema.get(), nullptr,
                                           &c);
    if (!s.ok()) {
      writer.Abandon();
      if (TabletReader::Unusable(s)) {
        // An unreadable input must not wedge maintenance forever: quarantine
        // it and report success; the next pass re-picks without it.
        std::lock_guard<std::mutex> lock(mu_);
        QuarantineTabletLocked(inputs[i].filename, s);
        return Status::OK();
      }
      std::lock_guard<std::mutex> lock(mu_);
      RecordMergeFailureLocked(clock_->Now());
      return s;
    }
    cursors.push_back(std::move(c));
  }
  // Any failure from here on abandons the partial output, backs off, and
  // leaves the inputs untouched: a merge is pure rewrite, so failing it
  // loses nothing — the next attempt re-picks the same inputs.
  Status ws = writer.AddMerged(std::move(cursors), cutoff);

  TabletMeta out_meta;
  bool have_output = ws.ok() && writer.rows_added() > 0;
  if (have_output) {
    ws = writer.Finish(&out_meta);
    out_meta.filename = fname;
    out_meta.flushed_at = now;
  }
  if (!ws.ok() || !have_output) writer.Abandon();
  if (!ws.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    RecordMergeFailureLocked(clock_->Now());
    return ws;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Commit durably before mutating in-memory state: open the output
    // reader and write the descriptor first, so a failure at either step
    // rolls back to exactly the pre-merge picture (inputs still live).
    std::shared_ptr<TabletReader> out_reader;
    if (have_output) {
      Status s = TabletReader::Open(env_, TabletPath(fname), &out_reader,
                                    opts_.block_cache, &stats_);
      if (!s.ok()) {
        env_->RemoveFile(TabletPath(fname));
        RecordMergeFailureLocked(clock_->Now());
        return s;
      }
    }
    std::set<std::string> gone;
    for (const TabletMeta& m : inputs) gone.insert(m.filename);
    std::vector<TabletMeta> next;
    next.reserve(tablets_.size());
    for (const TabletMeta& m : tablets_) {
      if (!gone.count(m.filename)) next.push_back(m);
    }
    if (have_output) next.push_back(out_meta);
    SortMetas(&next);
    Status s = SaveDescriptorWithLocked(next);
    if (!s.ok()) {
      if (have_output) env_->RemoveFile(TabletPath(fname));
      RecordMergeFailureLocked(clock_->Now());
      return s;
    }
    tablets_ = std::move(next);
    if (have_output) readers_[fname] = std::move(out_reader);
    for (const std::string& f : gone) readers_.erase(f);
    stats_.merges.fetch_add(1);
    stats_.tablets_merged.fetch_add(inputs.size());
    if (have_output) stats_.bytes_merge_written.fetch_add(out_meta.file_bytes);
    merge_failure_streak_ = 0;
    merge_backoff_until_ = 0;
  }
  // The descriptor no longer references the inputs; a crash here merely
  // leaves orphaned files that the next Open sweeps away.
  LT_CRASH_POINT("merge:after_commit");
  for (const TabletMeta& m : inputs) env_->RemoveFile(TabletPath(m.filename));
  stats_.merge_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

Status Table::ReclaimExpired(Timestamp now) {
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Timestamp cutoff = ExpiryCutoffLocked(now);
    for (const TabletMeta& m : tablets_) {
      if (m.max_ts < cutoff) doomed.push_back(m.filename);
    }
    if (doomed.empty()) return Status::OK();
    std::vector<TabletMeta> keep;
    keep.reserve(tablets_.size() - doomed.size());
    for (TabletMeta& m : tablets_) {
      if (m.max_ts >= cutoff) keep.push_back(std::move(m));
    }
    tablets_ = std::move(keep);
    LT_RETURN_IF_ERROR(SaveDescriptorLocked());
    for (const std::string& f : doomed) readers_.erase(f);
    stats_.tablets_expired.fetch_add(doomed.size());
  }
  for (const std::string& f : doomed) env_->RemoveFile(TabletPath(f));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries.

Status Table::NewQueryStream(const QueryBounds& user_bounds,
                             std::unique_ptr<QueryStream>* out,
                             QueryTrace* trace) {
  out->reset();
  stats_.queries.fetch_add(1);

  std::unique_ptr<QueryStream> qs(new QueryStream());
  qs->table_ = this;
  // Trace even when the caller doesn't ask for one: the slow-query log
  // needs the counts.
  qs->trace_ = trace != nullptr ? trace : &qs->local_trace_;
  QueryTrace* tr = qs->trace_;
  qs->op_start_ = MonotonicMicros();

  const Timestamp now = clock_->Now();
  QueryBounds bounds = user_bounds;

  uint64_t limit = opts_.server_row_limit > 0
                       ? opts_.server_row_limit
                       : std::numeric_limits<uint64_t>::max();
  if (bounds.limit > 0 && bounds.limit < limit) limit = bounds.limit;

  std::shared_ptr<const Schema> schema;
  std::vector<Source> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
    for (uint32_t c : bounds.projection) {
      if (c >= schema->num_columns()) {
        return Status::InvalidArgument("projection column index out of range");
      }
    }
    // TTL is just a tighter lower timestamp bound (§3.3).
    Timestamp cutoff = ExpiryCutoffLocked(now);
    if (cutoff > bounds.min_ts) {
      bounds.min_ts = cutoff;
      bounds.min_ts_inclusive = true;
    }
    LT_RETURN_IF_ERROR(VisitReadViewLocked(
        bounds, tr,
        [&](const std::shared_ptr<MemTablet>& mt) {
          return Source::OpenMem(mt, bounds, schema.get(), &qs->scanned_,
                                 &sources);
        },
        &sources));
  }
  // Key-range pruning from cached footer min/max keys.
  for (Source& src : sources) {
    if (!src.reader) continue;
    LT_RETURN_IF_ERROR(LoadSource(&src));
    if (src.reader && !bounds.KeysOverlap(*schema, src.reader->min_key(),
                                          src.reader->max_key())) {
      tr->tablets_pruned_key++;
      src.reader.reset();
    }
  }

  std::unique_ptr<Cursor> merged;
  LT_RETURN_IF_ERROR(MergeSources(sources, bounds, schema.get(), nullptr,
                                  &qs->scanned_, tr, &merged));
  // Disk cursors reference their readers; keep them alive.
  for (Source& src : sources) {
    if (src.reader) qs->readers_.push_back(std::move(src.reader));
  }

  qs->schema_ = std::move(schema);
  qs->bounds_ = std::move(bounds);
  qs->limit_ = limit;
  qs->merged_ = std::move(merged);
  qs->finished_ = false;  // Fully constructed: Finish now records stats.
  *out = std::move(qs);
  return Status::OK();
}

QueryStream::~QueryStream() { Finish(); }

Status QueryStream::Next(uint64_t max_scan_rows, bool* have_row,
                         bool* exhausted) {
  *have_row = false;
  *exhausted = false;
  if (done_) {
    *exhausted = true;
    return Status::OK();
  }
  if (on_row_) {  // Step past the row the previous call returned.
    on_row_ = false;
    LT_RETURN_IF_ERROR(merged_->Next());
    LT_RETURN_IF_ERROR(merged_->status());
  }
  uint64_t steps = 0;
  while (merged_->Valid()) {
    if (bounds_.TsInRange(merged_->ts())) {
      if (returned_ >= limit_) {
        // The limit+1'th matching row proves there is more: stop without
        // consuming it so a continuation query re-finds it.
        more_available_ = true;
        done_ = true;
        *exhausted = true;
        return Status::OK();
      }
      returned_++;
      on_row_ = true;
      *have_row = true;
      return Status::OK();
    }
    LT_RETURN_IF_ERROR(merged_->Next());
    LT_RETURN_IF_ERROR(merged_->status());
    if (max_scan_rows > 0 && ++steps >= max_scan_rows) return Status::OK();
  }
  done_ = true;
  *exhausted = true;
  return merged_->status();
}

Status QueryStream::NextChunk(size_t max_rows, size_t target_bytes,
                              uint64_t scan_cap, std::string* dst,
                              uint32_t* rows, bool* final) {
  *rows = 0;
  *final = done_;
  if (done_) return Status::OK();
  RunState run;
  run.filter = &bounds_;
  run.counter = &scanned_;
  run.scan_cap = scan_cap;
  run.max_rows = max_rows;
  run.limit_left = limit_ - returned_;
  run.byte_target = dst->size() + target_bytes;
  run.filter_left = scan_cap;
  run.on_row = on_row_;
  Status s = merged_->AppendRun(&run, RunOutput{.bytes = dst});
  on_row_ = run.on_row;
  returned_ += run.rows;
  *rows = static_cast<uint32_t>(run.rows);
  LT_RETURN_IF_ERROR(s);
  if (run.end == RunEnd::kExhausted || run.end == RunEnd::kLimit) {
    more_available_ = run.end == RunEnd::kLimit;
    done_ = true;
    *final = true;
  }
  return merged_->status();
}

void QueryStream::Finish() {
  if (finished_) return;
  finished_ = true;
  const uint64_t scanned = scanned_.load();
  Table* t = table_;
  t->stats_.rows_scanned.fetch_add(scanned);
  t->stats_.rows_returned.fetch_add(returned_);

  const int64_t elapsed = MonotonicMicros() - op_start_;
  trace_->rows_scanned += scanned;
  trace_->rows_returned += returned_;
  trace_->elapsed_micros += elapsed;
  t->stats_.query_micros.Record(static_cast<uint64_t>(elapsed));
  if (t->opts_.slow_query_micros > 0 &&
      elapsed >= t->opts_.slow_query_micros) {
    t->opts_.logger->Warn(
        "slow_query",
        {{"table", t->name_},
         {"elapsed_us", elapsed},
         {"rows_scanned", scanned},
         {"rows_returned", returned_},
         {"tablets_considered", trace_->tablets_considered},
         {"tablets_pruned", trace_->TabletsPruned()},
         {"blocks_read", trace_->blocks_read},
         {"cache_hits", trace_->cache_hits}});
  }
}

Status Table::Query(const QueryBounds& user_bounds, QueryResult* result,
                    QueryTrace* trace) {
  result->rows.clear();
  result->more_available = false;
  result->rows_scanned = 0;

  std::unique_ptr<QueryStream> qs;
  LT_RETURN_IF_ERROR(NewQueryStream(user_bounds, &qs, trace));
  bool have_row = false, exhausted = false;
  while (!exhausted) {
    LT_RETURN_IF_ERROR(qs->Next(0, &have_row, &exhausted));
    if (have_row) qs->MaterializeRow(&result->rows.emplace_back());
  }
  result->more_available = qs->more_available();
  result->rows_scanned = qs->rows_scanned();
  qs->Finish();
  return Status::OK();
}

Status Table::LatestRowForPrefix(const Key& prefix, Row* row, bool* found) {
  *found = false;
  const Timestamp op_start = MonotonicMicros();
  const Timestamp now = clock_->Now();

  std::vector<Source> sources;
  std::shared_ptr<const Schema> schema;
  Timestamp cutoff;
  QueryBounds prefix_bounds = QueryBounds::ForPrefix(prefix);
  prefix_bounds.direction = Direction::kDescending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    schema = schema_;
    cutoff = ExpiryCutoffLocked(now);
    QueryBounds live;
    live.min_ts = cutoff;
    LT_RETURN_IF_ERROR(VisitReadViewLocked(
        live, nullptr,
        [&](const std::shared_ptr<MemTablet>& mt) {
          return Source::OpenMem(mt, prefix_bounds, schema.get(),
                                 &stats_.rows_scanned, &sources);
        },
        &sources));
  }
  if (sources.empty()) return Status::OK();

  std::sort(sources.begin(), sources.end(), [](const Source& a, const Source& b) {
    return a.min_ts < b.min_ts;
  });

  // Group sources with overlapping timespans (§3.4.5): groups are disjoint
  // in time, so the first (newest) group containing a match holds the
  // global latest row.
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end)
  size_t begin = 0;
  Timestamp group_max = sources[0].max_ts;
  for (size_t i = 1; i < sources.size(); i++) {
    if (sources[i].min_ts > group_max) {
      groups.emplace_back(begin, i);
      begin = i;
      group_max = sources[i].max_ts;
    } else {
      group_max = std::max(group_max, sources[i].max_ts);
    }
  }
  groups.emplace_back(begin, sources.size());

  const bool prefix_is_all_but_ts =
      prefix.size() + 1 == schema->num_key_columns();

  for (auto git = groups.rbegin(); git != groups.rend(); ++git) {
    // Tablets load a group at a time: older groups stay unloaded once a
    // newer one answers.
    std::span<Source> group(sources.begin() + git->first,
                            sources.begin() + git->second);
    std::unique_ptr<Cursor> merged;
    LT_RETURN_IF_ERROR(MergeSources(group, prefix_bounds, schema.get(), &prefix,
                                    &stats_.rows_scanned, nullptr, &merged));

    bool have_best = false;
    Row best;
    Timestamp best_ts = 0;
    while (merged->Valid()) {
      Timestamp ts = merged->ts();
      if (ts >= cutoff) {
        if (!have_best || ts > best_ts) {
          merged->MaterializeRow(&best);
          best_ts = ts;
          have_best = true;
        }
        // With the full key (minus ts) pinned, descending key order is
        // descending timestamp order, so the first hit is the latest.
        if (prefix_is_all_but_ts) break;
      }
      LT_RETURN_IF_ERROR(merged->Next());
    }
    if (have_best) {
      *row = std::move(best);
      *found = true;
      stats_.rows_returned.fetch_add(1);
      break;
    }
  }
  stats_.query_micros.Record(
      static_cast<uint64_t>(MonotonicMicros() - op_start));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Schema evolution.

Status Table::AppendColumn(const Column& column) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  LT_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> lock(mu_);
  Result<Schema> next = schema_->WithAppendedColumn(column);
  if (!next.ok()) return next.status();
  schema_ = std::make_shared<const Schema>(std::move(*next));
  return SaveDescriptorLocked();
}

Status Table::WidenColumn(const std::string& column_name) {
  std::lock_guard<std::mutex> insert_lock(insert_mu_);
  LT_RETURN_IF_ERROR(FlushAll());
  std::lock_guard<std::mutex> lock(mu_);
  Result<Schema> next = schema_->WithWidenedColumn(column_name);
  if (!next.ok()) return next.status();
  schema_ = std::make_shared<const Schema>(std::move(*next));
  return SaveDescriptorLocked();
}

Status Table::SetTtl(Timestamp ttl) {
  if (ttl < 0) return Status::InvalidArgument("negative TTL");
  std::lock_guard<std::mutex> lock(mu_);
  ttl_ = ttl;
  return SaveDescriptorLocked();
}

// ---------------------------------------------------------------------------
// Introspection.

size_t Table::NumDiskTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tablets_.size();
}

size_t Table::NumMemTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return filling_.size() + sealed_.size() + flushing_.size();
}

uint64_t Table::DiskBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const TabletMeta& m : tablets_) total += m.file_bytes;
  return total;
}

uint64_t Table::ApproxMemBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [start, mt] : filling_) total += mt->ApproximateBytes();
  for (const auto& mt : sealed_) total += mt->ApproximateBytes();
  for (const auto& mt : flushing_) total += mt->ApproximateBytes();
  return total;
}

std::vector<TabletMeta> Table::DiskTablets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tablets_;
}

}  // namespace lt
