#include "core/tablet_writer.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/lzmini.h"

namespace lt {

namespace {

// Points the byte cells among `cells` (one per key column of `schema`) at
// their bytes in `key`, the key's encoding, where cell c ends at ends[c].
void PointCellsInto(const Schema& schema, const std::string& key,
                    const uint32_t* ends, KeyCell* cells) {
  for (size_t c = 0; c < schema.num_key_columns(); c++) {
    const ColumnType t = schema.columns()[c].type;
    if (t == ColumnType::kString || t == ColumnType::kBlob) {
      const size_t n = cells[c].s.size();
      cells[c].s = Slice(key.data() + ends[c] - n, n);
    }
  }
}

}  // namespace

TabletWriter::TabletWriter(Env* env, std::string fname, const Schema* schema,
                           TabletWriterOptions options)
    : env_(env),
      fname_(std::move(fname)),
      schema_(schema),
      opts_(options),
      block_(schema),
      bloom_(options.bloom_bits_per_key > 0 ? options.bloom_bits_per_key : 1),
      order_(*schema),
      cells_(schema->num_key_columns()),
      ends_(schema->num_key_columns()),
      last_cells_(schema->num_key_columns()),
      last_ends_(schema->num_key_columns()) {
  open_status_ = env_->NewWritableFile(fname_, &file_);
}

Status TabletWriter::Add(const Row& row) {
  LT_RETURN_IF_ERROR(open_status_);
  if (!schema_->RowMatches(row)) {
    return Status::InvalidArgument("row does not match tablet schema");
  }
  row_buf_.clear();
  EncodeRow(&row_buf_, *schema_, row);
  return Add(Slice(row_buf_));
}

Status TabletWriter::Add(const Slice& row) {
  LT_RETURN_IF_ERROR(open_status_);
  Slice in = row;
  if (!ParseRow(&in, *schema_, cells_.data(), ends_.data()).ok() ||
      !in.empty()) {
    return Status::InvalidArgument("row does not match tablet schema");
  }
  LT_RETURN_IF_ERROR(AddKey(Slice(row.data(), ends_[cells_.size() - 1])));
  block_.Add(row);
  if (block_.data_bytes() >= opts_.block_bytes) {
    LT_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status TabletWriter::AddRows(const BlockReader& block, size_t first,
                             size_t count, size_t tail) {
  LT_RETURN_IF_ERROR(open_status_);
  block.RowLengths(first, count, /*descending=*/false, tail, &lengths_);
  // Rows [begin, k) are accounted but not yet in the block builder; they
  // go in as one column range when the block is cut or the stretch ends.
  size_t begin = 0, bytes = 0, k = 0;
  Status s;
  for (; k < count; k++) {
    block.KeyAt(first + k, cells_.data());
    key_buf_.clear();
    EncodeKeyCells(*schema_, cells_.data(), &key_buf_, ends_.data());
    s = AddKey(Slice(key_buf_));
    if (!s.ok()) break;
    bytes += lengths_[k];
    if (block_.data_bytes() + bytes >= opts_.block_bytes) {
      block_.AddRows(block, first + begin, k + 1 - begin, bytes);
      begin = k + 1;
      bytes = 0;
      LT_RETURN_IF_ERROR(FlushBlock());
    }
  }
  if (k > begin) block_.AddRows(block, first + begin, k - begin, bytes);
  return s;
}

Status TabletWriter::AddMerged(std::vector<std::unique_ptr<Cursor>> inputs,
                               Timestamp min_ts) {
  LT_RETURN_IF_ERROR(open_status_);
  MergingCursor merged(schema_, std::move(inputs), Direction::kAscending);
  QueryBounds live;  // The TTL cutoff is the run's ts filter.
  live.min_ts = min_ts;
  RunState run;  // No chunk limits: the run ends when the rows do.
  run.filter = &live;
  return merged.AppendRun(&run, RunOutput{.writer = this});
}

Status TabletWriter::AddKey(const Slice& key) {
  const size_t nkey = cells_.size();
  if (rows_added_ > 0 &&
      order_.Compare(last_cells_.data(), cells_.data(), nkey) >= 0) {
    return Status::InvalidArgument("rows not in strictly ascending key order");
  }

  if (opts_.bloom_bits_per_key > 0) {
    // Every proper prefix of the key (for §3.4.5 latest-row queries) plus
    // the full key (for §3.4.4 duplicate checks), each a byte prefix of the
    // key's encoding. Rows arrive sorted, so leading prefixes usually
    // repeat the last row's: those are counted, not hashed again
    // (encodings are canonical, so equal bytes are equal cells).
    bool repeat = rows_added_ > 0;
    for (size_t i = 0; i + 1 < nkey; i++) {
      const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
      repeat = repeat && ends_[i] == last_ends_[i] &&
               memcmp(key.data() + begin, last_key_.data() + begin,
                      ends_[i] - begin) == 0;
      if (repeat) {
        bloom_.AddRepeat();
      } else {
        bloom_.Add(Slice(key.data(), ends_[i]));
      }
    }
    bloom_.Add(key);
  }

  Timestamp ts = cells_[nkey - 1].i;
  if (rows_added_ == 0) {
    min_ts_ = max_ts_ = ts;
    min_key_.assign(key.data(), key.size());
  } else {
    if (ts < min_ts_) min_ts_ = ts;
    if (ts > max_ts_) max_ts_ = ts;
  }
  last_key_.assign(key.data(), key.size());
  last_cells_ = cells_;
  PointCellsInto(*schema_, last_key_, ends_.data(), last_cells_.data());
  last_ends_ = ends_;
  rows_added_++;
  return Status::OK();
}

Status TabletWriter::FlushBlock() {
  if (block_.empty()) return Status::OK();
  IndexEntry entry;
  entry.last_key = last_key_;
  entry.offset = file_offset_;
  entry.row_count = static_cast<uint32_t>(block_.num_rows());
  std::string payload = block_.Finish();
  entry.payload_len = static_cast<uint32_t>(payload.size());
  // The chunks of the columnar image are already individually compressed,
  // so the frame skips a whole-block pass.
  std::string stored = StoreBlockV2(payload);
  entry.stored_len = static_cast<uint32_t>(stored.size());
  entry.crc = crc32c::Mask(crc32c::Value(stored.data(), stored.size()));
  LT_CRASH_POINT("tablet_writer:block_append");
  LT_RETURN_IF_ERROR(file_->Append(stored));
  file_offset_ += stored.size();
  index_.push_back(std::move(entry));
  return Status::OK();
}

Status TabletWriter::Finish(TabletMeta* meta) {
  LT_RETURN_IF_ERROR(open_status_);
  if (finished_) return Status::InvalidArgument("Finish called twice");
  finished_ = true;
  LT_RETURN_IF_ERROR(FlushBlock());

  // Assemble the footer payload.
  std::string footer;
  schema_->EncodeTo(&footer);
  PutVarint64(&footer, index_.size());
  for (const IndexEntry& e : index_) {
    PutVarint64(&footer, e.offset);
    PutVarint32(&footer, e.stored_len);
    PutVarint32(&footer, e.payload_len);
    PutVarint32(&footer, e.row_count);
    PutLengthPrefixedSlice(&footer, e.last_key);
    // The block's masked CRC travels in the (checksummed) footer, so reads
    // verify blocks against the index, not just the block's own frame.
    PutFixed32(&footer, e.crc);
  }
  PutVarint64(&footer, ZigZagEncode(min_ts_));
  PutVarint64(&footer, ZigZagEncode(max_ts_));
  PutVarint64(&footer, rows_added_);
  PutLengthPrefixedSlice(&footer, min_key_);
  PutLengthPrefixedSlice(&footer, last_key_);
  if (opts_.bloom_bits_per_key > 0 && rows_added_ > 0) {
    PutLengthPrefixedSlice(&footer, bloom_.Finish());
  } else {
    PutLengthPrefixedSlice(&footer, Slice());
  }

  std::string compressed;
  lzmini::Compress(footer, &compressed);
  std::string stored_footer;
  uint64_t footer_bytes_raw = 0, footer_bytes_compressed = 0;
  // Store-raw fallback: a leading marker byte says whether the payload is
  // lzmini (1) or the raw footer (0), so incompressible footers do not pay
  // the compressor's expansion. The trailer CRC covers marker + body.
  if (compressed.size() < footer.size()) {
    stored_footer.push_back('\x01');
    stored_footer += compressed;
    footer_bytes_compressed = compressed.size();
  } else {
    stored_footer.push_back('\x00');
    stored_footer += footer;
    footer_bytes_raw = footer.size();
  }
  const uint64_t footer_offset = file_offset_;
  LT_CRASH_POINT("tablet_writer:footer");
  LT_RETURN_IF_ERROR(file_->Append(stored_footer));
  file_offset_ += stored_footer.size();

  std::string trailer;
  PutFixed32(&trailer, crc32c::Mask(crc32c::Value(stored_footer.data(),
                                                  stored_footer.size())));
  PutFixed64(&trailer, footer.size());
  PutFixed64(&trailer, footer_offset);
  PutFixed64(&trailer, kTabletMagicV3);
  LT_CRASH_POINT("tablet_writer:trailer");
  LT_RETURN_IF_ERROR(file_->Append(trailer));
  file_offset_ += trailer.size();

  LT_CRASH_POINT("tablet_writer:sync");
  if (opts_.sync) LT_RETURN_IF_ERROR(file_->Sync());
  LT_CRASH_POINT("tablet_writer:close");
  LT_RETURN_IF_ERROR(file_->Close());

  if (opts_.stats) {
    opts_.stats->block_bytes_raw.fetch_add(
        block_.bytes_raw() + footer_bytes_raw, std::memory_order_relaxed);
    opts_.stats->block_bytes_compressed.fetch_add(
        block_.bytes_compressed() + footer_bytes_compressed,
        std::memory_order_relaxed);
  }

  meta->filename = fname_;
  meta->min_ts = min_ts_;
  meta->max_ts = max_ts_;
  meta->file_bytes = file_offset_;
  meta->row_count = rows_added_;
  meta->schema_version = schema_->version();
  return Status::OK();
}

void TabletWriter::Abandon() {
  file_.reset();
  env_->RemoveFile(fname_);
}

}  // namespace lt
