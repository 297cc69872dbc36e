#include "core/tablet_reader.h"

#include <algorithm>

#include "core/row_codec.h"
#include "core/tablet_writer.h"  // kTabletMagic, kTabletTrailerSize
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"

namespace lt {

// Cursor over one tablet. Positions lazily load blocks; iteration order is
// the scan direction. The position is (block, row index) over the block's
// decoded columns, and the current row is read in place from them. The
// cursor holds a shared_ptr to its reader so merges can drop tablets while
// queries stream from them.
class TabletCursor final : public Cursor {
 public:
  TabletCursor(std::shared_ptr<const TabletReader> reader,
               const QueryBounds& bounds, const Schema* current_schema,
               std::atomic<uint64_t>* scanned, QueryTrace* trace)
      : reader_(std::move(reader)),
        current_schema_(current_schema),
        scanned_(scanned),
        trace_(trace),
        direction_(bounds.direction),
        min_key_(bounds.min_key),
        max_key_(bounds.max_key),
        order_(reader_->tablet_schema()),
        key_(order_.num_key_columns()) {
    const Schema& tablet_schema = reader_->tablet_schema();
    // Schema translation (§3.5): evolution only appends columns and widens
    // int32 to int64, which encodes identically, so a row of an older
    // tablet encodes as its own cells followed by the appended columns'
    // defaults, encoded once here.
    needs_translation_ = current_schema_->version() != tablet_schema.version();
    for (size_t c = tablet_schema.num_columns();
         c < current_schema_->num_columns(); c++) {
      const Column& col = current_schema_->columns()[c];
      EncodeValue(&appended_enc_, col.default_value, col.type);
    }
    // The trailing key bound — max_key ascending, min_key descending — as
    // cells pointing into this cursor's own copy of the bound.
    trailing_ = direction_ == Direction::kAscending
                    ? (max_key_ ? &*max_key_ : nullptr)
                    : (min_key_ ? &*min_key_ : nullptr);
    if (trailing_) order_.CellsOf(trailing_->prefix, &trailing_cells_);
    // Projection pushdown: mark the columns rows must decode — key columns
    // (timestamp filters, merge ordering, trailing bounds) plus the
    // projected set, positionally stable across schema versions (§3.5
    // evolution only appends/widens). Projected indexes beyond this
    // tablet's schema are appended columns, which read as defaults anyway.
    // Only columnar blocks consult the hint.
    if (!bounds.projection.empty()) {
      needed_.assign(tablet_schema.num_columns(), 0);
      for (size_t c = 0; c < tablet_schema.num_key_columns(); c++) {
        needed_[c] = 1;
      }
      for (uint32_t c : bounds.projection) {
        if (c < needed_.size()) needed_[c] = 1;
      }
      for (char n : needed_) {
        if (!n) skipped_per_block_++;
      }
      if (skipped_per_block_ > 0) block_.set_needed_columns(&needed_);
    }
    Seek();
  }

  bool Valid() const override { return valid_; }
  Status status() const override { return status_; }

  Status Next() override {
    if (!valid_) return status_;
    Advance();
    return status_;
  }

  const KeyCell* key() const override { return key_.data(); }
  Timestamp ts() const override { return key_[key_.size() - 1].i; }
  void AppendEncoded(std::string* dst) const override {
    block_.AppendEncodedAt(row_idx_, dst);
    dst->append(appended_enc_);
  }
  void MaterializeRow(Row* out) const override {
    block_.RowAt(row_idx_, out);
    if (needs_translation_) {
      *out = current_schema_->TranslateRow(reader_->tablet_schema(), *out);
    }
  }

  // Runs over the decoded block columns: the run's end is found by
  // comparing key and ts columns in place, its rows go out a stretch at a
  // time (Emit), and the rows landed on are counted into `scanned_` once
  // per call.
  Status AppendRun(RunState* run, RunOutput out) override {
    uint64_t landed = 0;
    RunRows(run, out, &landed);
    if (scanned_ != nullptr && landed > 0) {
      scanned_->fetch_add(landed, std::memory_order_relaxed);
    }
    if (valid_) block_.KeyAt(row_idx_, key_.data());
    return status_;
  }

 private:
  // Where a run step landed.
  enum class Landed { kRow, kPastStop, kEnd };
  void Fail(Status s) {
    status_ = std::move(s);
    valid_ = false;
  }

  // All block loads funnel through here so the projection's skipped-chunk
  // accounting covers every path (seek, advance).
  Status LoadBlockAt(size_t idx) {
    LT_RETURN_IF_ERROR(reader_->ReadBlock(idx, &block_, trace_));
    block_idx_ = idx;
    if (skipped_per_block_ > 0 && block_.columnar()) {
      if (reader_->stats_) {
        reader_->stats_->column_chunks_skipped.fetch_add(
            skipped_per_block_, std::memory_order_relaxed);
      }
      if (trace_) trace_->column_chunks_skipped += skipped_per_block_;
    }
    return Status::OK();
  }

  // Positions at the first row in scan direction within the key bounds.
  void Seek() {
    const size_t nblocks = reader_->num_blocks();
    if (nblocks == 0) return;
    if (direction_ == Direction::kAscending) {
      row_idx_ = 0;
      if (!min_key_) {
        Status s = LoadBlockAt(0);
        if (!s.ok()) return Fail(s);
      } else {
        block_idx_ = reader_->SeekBlock(min_key_->prefix, min_key_->inclusive);
        if (block_idx_ >= nblocks) return;
        Status s = LoadBlockAt(block_idx_);
        if (!s.ok()) return Fail(s);
        size_t idx;
        s = block_.SeekFirst(min_key_->prefix, min_key_->inclusive, &idx);
        if (!s.ok()) return Fail(s);
        row_idx_ = idx;
        // The index guarantees the block's *last* key satisfies the bound,
        // so idx < num_rows always; be defensive anyway.
        if (row_idx_ >= block_.num_rows()) return;
      }
    } else {
      // Descending: find the position one past the last qualifying row,
      // then step back.
      size_t end_block, end_row;
      if (max_key_) {
        // First row with compare > 0 (inclusive bound) or >= 0 (exclusive).
        bool or_equal_for_end = !max_key_->inclusive;
        end_block = reader_->SeekBlock(max_key_->prefix, or_equal_for_end);
        if (end_block >= nblocks) {
          end_block = nblocks - 1;
          Status s = LoadBlockAt(end_block);
          if (!s.ok()) return Fail(s);
          end_row = block_.num_rows();
        } else {
          Status s = LoadBlockAt(end_block);
          if (!s.ok()) return Fail(s);
          size_t idx;
          s = block_.SeekFirst(max_key_->prefix, or_equal_for_end, &idx);
          if (!s.ok()) return Fail(s);
          end_row = idx;
        }
      } else {
        end_block = nblocks - 1;
        Status s = LoadBlockAt(end_block);
        if (!s.ok()) return Fail(s);
        end_row = block_.num_rows();
      }
      // Step back one row, possibly into the previous block.
      if (end_row == 0) {
        if (block_idx_ == 0) return;  // Nothing before the bound.
        Status s = LoadBlockAt(block_idx_ - 1);
        if (!s.ok()) return Fail(s);
        if (block_.num_rows() == 0) return Fail(Status::Corruption("empty block"));
        row_idx_ = block_.num_rows() - 1;
      } else {
        row_idx_ = end_row - 1;
      }
    }
    LoadCurrentRow();
  }

  // Positions on (block_idx_, row_idx_): counts it as scanned, applies the
  // trailing key bound and reads its key cells.
  void LoadCurrentRow() {
    if (!PrepareRow()) return;
    if (scanned_) scanned_->fetch_add(1, std::memory_order_relaxed);
    if (PastTrailing(row_idx_)) {
      valid_ = false;
      return;
    }
    block_.KeyAt(row_idx_, key_.data());
    valid_ = true;
  }

  // A block's needed columns are ensured and validated once, on the first
  // row visited in it — a seek that only binary-searches a block never
  // decodes its value chunks. False (the cursor failed) on error.
  bool PrepareRow() {
    if (!block_.prepared()) {
      Status s = block_.Prepare();
      if (!s.ok()) {
        Fail(s);
        return false;
      }
    }
    if (row_idx_ >= block_.num_rows()) {
      Fail(Status::Corruption("empty block"));
      return false;
    }
    return true;
  }

  bool PastTrailing(size_t i) const {
    if (!trailing_) return false;
    int c = block_.CompareKeyAt(i, trailing_cells_.data(),
                                trailing_cells_.size());
    return direction_ == Direction::kAscending
               ? (trailing_->inclusive ? c > 0 : c >= 0)
               : (trailing_->inclusive ? c < 0 : c <= 0);
  }

  bool PastStop(const RunState& run, size_t i) const {
    if (run.stop == nullptr) return false;
    int c = block_.CompareKeyAt(i, run.stop, key_.size());
    return direction_ == Direction::kAscending ? c > 0 : c < 0;
  }

  // Moves to the next row position in scan direction, loading the next
  // block when this one ends. False at the end of the tablet or on a
  // failed load; the cursor is then invalid.
  bool StepPosition() {
    if (direction_ == Direction::kAscending) {
      row_idx_++;
      if (row_idx_ >= block_.num_rows()) {
        if (block_idx_ + 1 >= reader_->num_blocks()) {
          valid_ = false;
          return false;
        }
        Status s = LoadBlockAt(block_idx_ + 1);
        if (!s.ok()) {
          Fail(s);
          return false;
        }
        row_idx_ = 0;
      }
    } else if (row_idx_ > 0) {
      row_idx_--;
    } else {
      if (block_idx_ == 0) {
        valid_ = false;
        return false;
      }
      Status s = LoadBlockAt(block_idx_ - 1);
      if (!s.ok()) {
        Fail(s);
        return false;
      }
      if (block_.num_rows() == 0) {
        Fail(Status::Corruption("empty block"));
        return false;
      }
      row_idx_ = block_.num_rows() - 1;
    }
    return true;
  }

  void Advance() {
    if (StepPosition()) LoadCurrentRow();
  }

  // Advance for a run: the landed row counts into `*landed` and the run's
  // scanned, and a row past the run's stop key ends the run but not the
  // cursor.
  Landed RunStep(RunState* run, uint64_t* landed) {
    if (!StepPosition() || !PrepareRow()) return Landed::kEnd;
    if (scanned_ != nullptr) {
      ++*landed;
      ++run->scanned;
    }
    if (PastTrailing(row_idx_)) {
      valid_ = false;
      return Landed::kEnd;
    }
    return PastStop(*run, row_idx_) ? Landed::kPastStop : Landed::kRow;
  }

  // Row index `i` moved `n` rows in direction `step`.
  static ptrdiff_t Offset(size_t i, size_t n, ptrdiff_t step) {
    return static_cast<ptrdiff_t>(i) + static_cast<ptrdiff_t>(n) * step;
  }

  // True if row `i` of the block can join a run going on from the row
  // before it (in scan direction): it exists, and lies inside the trailing
  // bound, before the stop key, and inside or outside the ts range as
  // `in_range` says.
  bool Continues(const RunState& run, ptrdiff_t i, const int64_t* ts,
                 bool in_range) const {
    return i >= 0 && static_cast<size_t>(i) < block_.num_rows() &&
           run.filter->TsInRange(ts[i]) == in_range && !PastTrailing(i) &&
           !PastStop(run, i);
  }

  // The stretch's one output step: `n` rows from row `i` in scan
  // direction go to `out`. Returns how many went: a chunk's byte target
  // can end the stretch early; a writer takes all of them or fails the
  // cursor with its error.
  size_t Emit(size_t i, size_t n, const RunState& run, RunOutput out) {
    const bool descending = direction_ == Direction::kDescending;
    if (out.writer == nullptr) {
      return block_.AppendRows(i, n, descending, appended_enc_,
                               run.byte_target, out.bytes, &offsets_);
    }
    Status s = descending ? Status::InvalidArgument(
                                "a tablet writer takes ascending runs")
                          : out.writer->AddRows(block_, i, n,
                                                appended_enc_.size());
    if (!s.ok()) Fail(s);
    return n;
  }

  // The run loop: the rules of RunState, applied a stretch of rows at a
  // time. A stretch stays inside one block, so the rows after its first
  // are each landed on with one count; the step off a stretch goes through
  // RunStep, which crosses blocks and ends the cursor or the run.
  void RunRows(RunState* run, RunOutput out, uint64_t* landed) {
    if (!valid_) {
      run->end = RunEnd::kExhausted;
      return;
    }
    Landed at = Landed::kRow;
    if (run->on_row) {
      run->on_row = false;
      at = RunStep(run, landed);
    }
    const bool descending = direction_ == Direction::kDescending;
    const ptrdiff_t step = descending ? -1 : 1;
    const size_t ts_col = key_.size() - 1;
    const uint64_t counted = scanned_ != nullptr ? 1 : 0;
    while (at == Landed::kRow) {
      const size_t i = row_idx_;
      const int64_t* ts = block_.KeyInts(ts_col);
      if (!run->filter->TsInRange(ts[i])) {
        // Skip filtered rows; the chunk yields when its allowance is spent.
        size_t n = 1;
        while (n < run->filter_left &&
               Continues(*run, Offset(i, n, step), ts, false)) {
          n++;
        }
        row_idx_ = static_cast<size_t>(Offset(i, n - 1, step));
        *landed += (n - 1) * counted;
        run->scanned += (n - 1) * counted;
        run->filter_left -= n - 1;
        at = RunStep(run, landed);
        if (--run->filter_left == 0) {
          run->end = RunEnd::kYield;
          return;
        }
        continue;
      }
      if (run->limit_left == 0) {
        run->end = RunEnd::kLimit;
        return;
      }
      // Hand on matching rows: at most the chunk's rows, the query's limit,
      // and the rows until the scan cap ends the chunk on one (saturating:
      // a merge's run has no cap).
      const uint64_t scan_left =
          run->scanned >= run->scan_cap ? 0 : run->scan_cap - run->scanned;
      const uint64_t scan_rows =
          scan_left == RunState::kNoLimit ? scan_left : scan_left + 1;
      const uint64_t most =
          std::min<uint64_t>({run->max_rows, run->limit_left, scan_rows});
      size_t n = 1;
      while (n < most &&
             Continues(*run, Offset(i, n, step), ts, true)) {
        n++;
      }
      n = Emit(i, n, *run, out);
      if (!status_.ok()) {
        run->end = RunEnd::kExhausted;
        return;
      }
      row_idx_ = static_cast<size_t>(Offset(i, n - 1, step));
      *landed += (n - 1) * counted;
      run->scanned += (n - 1) * counted;
      run->rows += n;
      run->max_rows -= n;
      run->limit_left -= n;
      if (run->ChunkEnds(out.size())) {
        run->on_row = true;
        run->end = RunEnd::kFull;
        return;
      }
      run->filter_left = run->scan_cap - run->scanned;
      at = RunStep(run, landed);
    }
    run->end = at == Landed::kPastStop ? RunEnd::kStop : RunEnd::kExhausted;
  }

  std::shared_ptr<const TabletReader> reader_;
  const Schema* current_schema_;
  std::atomic<uint64_t>* scanned_;
  QueryTrace* trace_;
  Direction direction_;
  std::optional<KeyBound> min_key_, max_key_;
  KeyOrder order_;
  const KeyBound* trailing_ = nullptr;  // Points into min_key_/max_key_.
  std::vector<KeyCell> trailing_cells_;
  bool needs_translation_ = false;
  std::string appended_enc_;  // Encoded defaults of appended columns.
  // Projection: per-tablet-column decode flags (empty = decode all), and
  // how many chunks each columnar block visit skips.
  std::vector<char> needed_;
  uint64_t skipped_per_block_ = 0;

  BlockReader block_;
  std::vector<size_t> offsets_;  // AppendRows scratch.
  size_t block_idx_ = 0;
  size_t row_idx_ = 0;
  std::vector<KeyCell> key_;
  bool valid_ = false;
  Status status_;
};

Status TabletReader::Open(Env* env, const std::string& fname,
                          std::shared_ptr<TabletReader>* out,
                          std::shared_ptr<Cache> block_cache,
                          TableStats* stats) {
  std::shared_ptr<TabletReader> reader(new TabletReader());
  reader->env_ = env;
  reader->fname_ = fname;
  reader->block_cache_ = std::move(block_cache);
  if (reader->block_cache_) reader->cache_id_ = reader->block_cache_->NewId();
  reader->stats_ = stats;
  if (!env->FileExists(fname)) return Status::NotFound(fname);
  *out = std::move(reader);
  return Status::OK();
}

Status TabletReader::Load() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  return LoadLocked();
}

Status TabletReader::LoadLocked() const {
  if (loaded_) return load_status_;
  TabletReader* self = const_cast<TabletReader*>(this);
  Status s = env_->NewRandomAccessFile(fname_, &self->file_);
  if (s.ok()) s = self->LoadFooter(fname_);
  // A loaded footer and an unusable tablet are final; any other failure
  // (a transient read error) is retried by the next Load.
  if (s.ok() || Unusable(s)) {
    loaded_ = true;
    load_status_ = s;
  }
  return s;
}

Status TabletReader::LoadFooter(const std::string& fname) {
  // A retried load starts over from what a failed one left behind.
  index_.clear();
  has_bloom_ = false;
  uint64_t file_size;
  LT_RETURN_IF_ERROR(file_->Size(&file_size));
  if (file_size < kTabletTrailerSize) {
    return Status::Corruption(fname + ": too small to be a tablet");
  }

  // Trailer read: one seek on a cold tablet.
  char trailer_buf[kTabletTrailerSize];
  Slice trailer;
  LT_RETURN_IF_ERROR(file_->Read(file_size - kTabletTrailerSize,
                                 kTabletTrailerSize, &trailer, trailer_buf));
  if (trailer.size() != kTabletTrailerSize) {
    return Status::Corruption(fname + ": truncated trailer");
  }
  Slice in = trailer;
  uint32_t footer_crc;
  uint64_t footer_size, footer_offset, magic;
  GetFixed32(&in, &footer_crc);
  GetFixed64(&in, &footer_size);
  GetFixed64(&in, &footer_offset);
  GetFixed64(&in, &magic);
  if (magic == kTabletMagicV2) {
    format_version_ = 1;
  } else if (magic == kTabletMagicV3) {
    format_version_ = 2;
  } else if (magic == kTabletMagic) {
    // Format 0 (no per-block CRCs in the index) is no longer read; an older
    // build must merge such tablets away before an upgrade.
    return Status::Corruption(fname +
                              ": tablet format 0 is no longer readable");
  } else {
    return Status::Corruption(fname + ": bad magic");
  }
  uint64_t footer_end = file_size - kTabletTrailerSize;
  if (footer_offset > footer_end) {
    return Status::Corruption(fname + ": bad footer offset");
  }

  // Footer read: the second seek.
  size_t stored_len = static_cast<size_t>(footer_end - footer_offset);
  std::string stored_buf(stored_len, '\0');
  Slice stored;
  LT_RETURN_IF_ERROR(
      file_->Read(footer_offset, stored_len, &stored, stored_buf.data()));
  if (stored.size() != stored_len) {
    return Status::Corruption(fname + ": truncated footer");
  }
  if (crc32c::Unmask(footer_crc) !=
      crc32c::Value(stored.data(), stored.size())) {
    return Status::Corruption(fname + ": footer checksum mismatch");
  }
  std::string footer;
  if (format_version_ == 2) {
    // A marker byte says whether the body is lzmini or raw (the store-raw
    // fallback for incompressible footers).
    if (stored.empty()) return Status::Corruption(fname + ": empty footer");
    uint8_t marker = static_cast<uint8_t>(stored[0]);
    Slice body(stored.data() + 1, stored.size() - 1);
    if (marker == 1) {
      LT_RETURN_IF_ERROR(lzmini::Decompress(body, &footer));
    } else if (marker == 0) {
      footer.assign(body.data(), body.size());
    } else {
      return Status::Corruption(fname + ": bad footer marker");
    }
  } else {
    LT_RETURN_IF_ERROR(lzmini::Decompress(stored, &footer));
  }
  if (footer.size() != footer_size) {
    return Status::Corruption(fname + ": footer size mismatch");
  }

  Slice f(footer);
  LT_RETURN_IF_ERROR(Schema::DecodeFrom(&f, &schema_));
  uint64_t nblocks;
  if (!GetVarint64(&f, &nblocks) || nblocks > (1ull << 32)) {
    return Status::Corruption(fname + ": bad block count");
  }
  index_.reserve(nblocks);
  for (uint64_t i = 0; i < nblocks; i++) {
    IndexEntry e;
    uint64_t offset;
    uint32_t stored32, payload32, rows32;
    Slice key_enc;
    if (!GetVarint64(&f, &offset) || !GetVarint32(&f, &stored32) ||
        !GetVarint32(&f, &payload32) || !GetVarint32(&f, &rows32) ||
        !GetLengthPrefixedSlice(&f, &key_enc)) {
      return Status::Corruption(fname + ": bad index entry");
    }
    e.offset = offset;
    e.stored_len = stored32;
    e.payload_len = payload32;
    e.row_count = rows32;
    if (!GetFixed32(&f, &e.crc)) {
      return Status::Corruption(fname + ": bad index entry crc");
    }
    Slice key_in = key_enc;
    LT_RETURN_IF_ERROR(DecodeKey(&key_in, schema_, &e.last_key));
    index_.push_back(std::move(e));
  }
  uint64_t zz_min, zz_max;
  if (!GetVarint64(&f, &zz_min) || !GetVarint64(&f, &zz_max) ||
      !GetVarint64(&f, &row_count_)) {
    return Status::Corruption(fname + ": bad footer stats");
  }
  min_ts_ = ZigZagDecode(zz_min);
  max_ts_ = ZigZagDecode(zz_max);
  Slice min_key_enc, max_key_enc, bloom_enc;
  if (!GetLengthPrefixedSlice(&f, &min_key_enc) ||
      !GetLengthPrefixedSlice(&f, &max_key_enc) ||
      !GetLengthPrefixedSlice(&f, &bloom_enc)) {
    return Status::Corruption(fname + ": bad footer keys");
  }
  if (row_count_ > 0) {
    Slice kin = min_key_enc;
    LT_RETURN_IF_ERROR(DecodeKey(&kin, schema_, &min_key_));
    kin = max_key_enc;
    LT_RETURN_IF_ERROR(DecodeKey(&kin, schema_, &max_key_));
  }
  if (!bloom_enc.empty()) {
    LT_RETURN_IF_ERROR(BloomFilter::Parse(bloom_enc, &bloom_));
    has_bloom_ = true;
  }
  return Status::OK();
}

namespace {

void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  delete static_cast<BlockContents*>(value);
}

// Pins a cache entry for as long as any BlockReader (or copy) references the
// contents: the aliasing shared_ptr's deleter releases the handle, which
// keeps the entry alive even if the LRU evicts it meanwhile.
std::shared_ptr<const BlockContents> PinCached(std::shared_ptr<Cache> cache,
                                               Cache::Handle* handle) {
  auto* contents = static_cast<const BlockContents*>(cache->Value(handle));
  return std::shared_ptr<const BlockContents>(
      contents, [c = std::move(cache), handle](const BlockContents*) {
        c->Release(handle);
      });
}

}  // namespace

Status TabletReader::ReadBlock(size_t i, BlockReader* out,
                               QueryTrace* trace) const {
  if (trace) trace->blocks_read++;
  // Cache key: (per-reader id, block index), both fixed64 so keys from
  // different tablets sharing the DB-wide cache can never collide.
  std::string cache_key;
  if (block_cache_) {
    PutFixed64(&cache_key, cache_id_);
    PutFixed64(&cache_key, static_cast<uint64_t>(i));
    Timestamp lookup_start = stats_ ? MonotonicMicros() : 0;
    Cache::Handle* h = block_cache_->Lookup(cache_key);
    if (stats_) {
      stats_->cache_lookup_micros.Record(
          static_cast<uint64_t>(MonotonicMicros() - lookup_start));
    }
    if (h != nullptr) {
      if (stats_) {
        stats_->block_cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      if (trace) trace->cache_hits++;
      out->Reset(&schema_, PinCached(block_cache_, h), stats_);
      return Status::OK();
    }
  }
  if (stats_) {
    stats_->block_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  Timestamp read_start = stats_ ? MonotonicMicros() : 0;

  const IndexEntry& e = index_[i];
  std::string buf(e.stored_len, '\0');
  Slice stored;
  LT_RETURN_IF_ERROR(file_->Read(e.offset, e.stored_len, &stored, buf.data()));
  if (stored.size() != e.stored_len) {
    return Status::Corruption(fname_ + ": truncated block read");
  }
  // The index carries the expected CRC of the stored bytes in the (itself
  // checksummed) footer, so a flipped bit is caught before any
  // decompression or row decoding runs. It covers the whole stored frame,
  // the frame's own inner CRC included, so that one is not checked again.
  if (crc32c::Unmask(e.crc) != crc32c::Value(stored.data(), stored.size())) {
    return Status::Corruption(fname_ + ": block checksum mismatch");
  }
  auto contents = std::make_unique<BlockContents>();
  if (format_version_ == 2) {
    if (stored.size() != kBlockCrcBytes + size_t{e.payload_len}) {
      return Status::Corruption(fname_ + ": block payload size mismatch");
    }
    // The image is parsed out of the frame as read: the contents keep buf.
    if (stored.data() != buf.data()) buf.assign(stored.data(), stored.size());
    LT_RETURN_IF_ERROR(BlockContents::ParseColumnar(
        std::move(buf), contents.get(), kBlockCrcBytes));
    // Cross-check the (CRC-protected) chunk directory against the
    // (checksummed) footer index and the tablet schema before any chunk
    // decodes trust its row count.
    if (contents->num_columns() != schema_.num_columns()) {
      return Status::Corruption(fname_ + ": block chunk count mismatch");
    }
  } else {
    std::string payload;
    LT_RETURN_IF_ERROR(LoadBlock(stored, &payload));
    if (payload.size() != e.payload_len) {
      return Status::Corruption(fname_ + ": block payload size mismatch");
    }
    LT_RETURN_IF_ERROR(
        BlockContents::Parse(schema_, std::move(payload), contents.get()));
  }
  if (contents->num_rows() != e.row_count) {
    return Status::Corruption(fname_ + ": block row count mismatch");
  }
  // Only verified, fully parsed blocks reach this point, so a corrupt block
  // is never inserted: every re-read hits the Env and fails the CRC again.
  if (block_cache_) {
    size_t charge = contents->ApproximateMemoryUsage();
    Cache::Handle* h = block_cache_->Insert(cache_key, contents.release(),
                                            charge, &DeleteCachedBlock);
    out->Reset(&schema_, PinCached(block_cache_, h), stats_);
  } else {
    out->Reset(&schema_, std::shared_ptr<const BlockContents>(
                             contents.release()), stats_);
  }
  if (stats_) {
    stats_->block_read_micros.Record(
        static_cast<uint64_t>(MonotonicMicros() - read_start));
  }
  return Status::OK();
}

size_t TabletReader::SeekBlock(const Key& prefix, bool or_equal) const {
  // First block whose last key satisfies compare >= 0 (or > 0): all earlier
  // blocks end before the bound, so the target row cannot be in them.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    int c = schema_.CompareKeyToPrefix(index_[mid].last_key, prefix);
    bool before = or_equal ? c < 0 : c <= 0;
    if (before) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool TabletReader::MayContainPrefix(const Key& prefix) const {
  if (!has_bloom_) return true;
  std::string enc;
  EncodeKey(&enc, schema_, prefix);
  return bloom_.MayContain(enc);
}

Status TabletReader::NewCursor(const QueryBounds& bounds,
                               const Schema* current_schema,
                               std::atomic<uint64_t>* scanned,
                               std::unique_ptr<Cursor>* out,
                               QueryTrace* trace) {
  LT_RETURN_IF_ERROR(Load());
  auto cursor = std::make_unique<TabletCursor>(shared_from_this(), bounds,
                                               current_schema, scanned, trace);
  Status s = cursor->status();
  if (!s.ok()) return s;
  *out = std::move(cursor);
  return Status::OK();
}

}  // namespace lt
