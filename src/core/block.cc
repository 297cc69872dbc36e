#include "core/block.h"

#include <cassert>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"

namespace lt {

namespace {

// Defensive caps for directory fields. Real blocks hold ~64 kB of row data,
// so both are far above anything a writer produces; they exist to bound
// allocations when a fuzzer (or a disk) hands ParseColumnar garbage.
constexpr uint32_t kMaxBlockRows = 1u << 22;
constexpr uint32_t kMaxBlockColumns = 1u << 12;
constexpr uint32_t kMaxChunkRawLen = 1u << 26;

ColumnValues::Arm ArmFor(ColumnType t) {
  switch (t) {
    case ColumnType::kInt32:
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      return ColumnValues::Arm::kInt;
    case ColumnType::kDouble:
      return ColumnValues::Arm::kDouble;
    case ColumnType::kString:
    case ColumnType::kBlob:
      return ColumnValues::Arm::kBytes;
  }
  return ColumnValues::Arm::kNone;
}

// Row i of a validated key column as a cell: key columns are integers or
// bytes, never doubles.
KeyCell KeyCellAt(const ColumnValues& col, size_t i) {
  KeyCell cell;
  if (col.arm == ColumnValues::Arm::kBytes) {
    cell.s = Slice(col.strs[i]);
  } else {
    cell.i = col.ints[i];
  }
  return cell;
}

// Appends `n` copies of a decoded cell to its column; `v` matches the
// column's arm.
void AppendCell(const Value& v, ColumnValues* col, size_t n = 1) {
  switch (col->arm) {
    case ColumnValues::Arm::kInt:
      col->ints.insert(col->ints.end(), n, v.AsInt());
      break;
    case ColumnValues::Arm::kDouble:
      col->dbls.insert(col->dbls.end(), n, v.dbl());
      break;
    case ColumnValues::Arm::kBytes:
      col->strs.insert(col->strs.end(), n, v.bytes());
      break;
    case ColumnValues::Arm::kNone:
      break;
  }
}

// Appends `src`'s values [first, first + count) onto `dst`, of the same arm.
void AppendRange(const ColumnValues& src, size_t first, size_t count,
                 ColumnValues* dst) {
  switch (src.arm) {
    case ColumnValues::Arm::kInt: {
      auto b = src.ints.begin() + static_cast<ptrdiff_t>(first);
      dst->ints.insert(dst->ints.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
    case ColumnValues::Arm::kDouble: {
      auto b = src.dbls.begin() + static_cast<ptrdiff_t>(first);
      dst->dbls.insert(dst->dbls.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
    case ColumnValues::Arm::kBytes: {
      auto b = src.strs.begin() + static_cast<ptrdiff_t>(first);
      dst->strs.insert(dst->strs.end(), b, b + static_cast<ptrdiff_t>(count));
      break;
    }
    case ColumnValues::Arm::kNone:
      break;
  }
}

// Decodes the cell at the front of `in` (well-formed, the column's type)
// onto its column. Integers of every width are zigzag varints.
void AppendEncodedCell(Slice* in, ColumnValues* col) {
  switch (col->arm) {
    case ColumnValues::Arm::kInt: {
      uint64_t u = 0;
      GetVarint64(in, &u);
      col->ints.push_back(ZigZagDecode(u));
      break;
    }
    case ColumnValues::Arm::kDouble: {
      uint64_t bits = 0;
      GetFixed64(in, &bits);
      double d;
      memcpy(&d, &bits, sizeof(d));
      col->dbls.push_back(d);
      break;
    }
    case ColumnValues::Arm::kBytes: {
      Slice s;
      GetLengthPrefixedSlice(in, &s);
      col->strs.emplace_back(s.data(), s.size());
      break;
    }
    case ColumnValues::Arm::kNone:
      break;
  }
}

// BlockReader::RowLengths over a prepared reader's columns and projected
// defaults. A helper, not a call, in AppendRows: the scan's hot loop.
void ComputeRowLengths(const std::vector<const ColumnValues*>& cols,
                       const std::vector<std::string>& defaults, size_t first,
                       size_t count, bool descending, size_t tail,
                       std::vector<size_t>* lengths) {
  const ptrdiff_t step = descending ? -1 : 1;
  size_t fixed = tail;
  for (size_t c = 0; c < cols.size(); c++) {
    if (cols[c] == nullptr) {
      fixed += defaults[c].size();
    } else if (cols[c]->arm == ColumnValues::Arm::kDouble) {
      fixed += 8;
    }
  }
  lengths->assign(count, fixed);
  size_t* len = lengths->data();
  for (const ColumnValues* col : cols) {
    if (col == nullptr) continue;
    if (col->arm == ColumnValues::Arm::kInt) {
      const int64_t* v = col->ints.data() + first;
      for (size_t k = 0; k < count; k++) {
        len[k] += VarintLength(ZigZagEncode(v[static_cast<ptrdiff_t>(k) * step]));
      }
    } else if (col->arm == ColumnValues::Arm::kBytes) {
      const std::string* v = col->strs.data() + first;
      for (size_t k = 0; k < count; k++) {
        const size_t n = v[static_cast<ptrdiff_t>(k) * step].size();
        len[k] += VarintLength(n) + n;
      }
    }
  }
}

}  // namespace

void BlockBuilder::InitColumns() {
  cols_.resize(schema_->num_columns());
  for (size_t c = 0; c < cols_.size(); c++) {
    cols_[c].arm = ArmFor(schema_->columns()[c].type);
  }
}

void BlockBuilder::Add(const Slice& row) {
  if (cols_.empty()) InitColumns();
  num_rows_++;
  data_bytes_ += row.size();
  Slice in = row;
  for (ColumnValues& col : cols_) AppendEncodedCell(&in, &col);
}

void BlockBuilder::AddRows(const BlockReader& block, size_t first,
                           size_t count, size_t bytes) {
  if (cols_.empty()) InitColumns();
  num_rows_ += count;
  data_bytes_ += bytes;
  const size_t copied = block.AppendColumns(first, count, cols_.data());
  for (size_t c = copied; c < cols_.size(); c++) {
    AppendCell(schema_->columns()[c].default_value, &cols_[c], count);
  }
}

void BlockBuilder::Add(const Row& row) {
  row_buf_.clear();
  EncodeRow(&row_buf_, *schema_, row);
  Add(Slice(row_buf_));
}

std::string BlockBuilder::Finish() {
  const size_t ncols = cols_.size();
  std::vector<std::string> stored(ncols);
  std::vector<uint8_t> encodings(ncols), markers(ncols);
  std::vector<uint32_t> raw_lens(ncols);
  for (size_t c = 0; c < ncols; c++) {
    std::string chunk;
    switch (cols_[c].arm) {
      case ColumnValues::Arm::kInt: {
        ChunkEncoding enc = ChooseIntEncoding(cols_[c].ints);
        EncodeIntChunk(cols_[c].ints, enc, &chunk);
        encodings[c] = static_cast<uint8_t>(enc);
        break;
      }
      case ColumnValues::Arm::kDouble:
        EncodeDoubleChunk(cols_[c].dbls, &chunk);
        encodings[c] = static_cast<uint8_t>(ChunkEncoding::kXor);
        break;
      case ColumnValues::Arm::kBytes: {
        ChunkEncoding enc = ChooseBytesEncoding(cols_[c].strs);
        EncodeBytesChunk(cols_[c].strs, enc, &chunk);
        encodings[c] = static_cast<uint8_t>(enc);
        break;
      }
      case ColumnValues::Arm::kNone:
        encodings[c] = static_cast<uint8_t>(ChunkEncoding::kZigZag);
        break;
    }
    raw_lens[c] = static_cast<uint32_t>(chunk.size());
    std::string compressed;
    lzmini::Compress(chunk, &compressed);
    if (compressed.size() < chunk.size()) {
      markers[c] = 1;
      bytes_compressed_ += compressed.size();
      stored[c] = std::move(compressed);
    } else {
      markers[c] = 0;
      bytes_raw_ += chunk.size();
      stored[c] = std::move(chunk);
    }
  }

  std::string image;
  PutVarint32(&image, static_cast<uint32_t>(num_rows_));
  PutVarint32(&image, static_cast<uint32_t>(ncols));
  for (size_t c = 0; c < ncols; c++) {
    image.push_back(static_cast<char>(encodings[c]));
    image.push_back(static_cast<char>(markers[c]));
    PutVarint32(&image, static_cast<uint32_t>(stored[c].size()));
    PutVarint32(&image, raw_lens[c]);
  }
  for (size_t c = 0; c < ncols; c++) image += stored[c];

  for (ColumnValues& col : cols_) {  // Keep the capacity for the next block.
    col.ints.clear();
    col.dbls.clear();
    col.strs.clear();
  }
  num_rows_ = 0;
  data_bytes_ = 0;
  return image;
}

Status BlockContents::Parse(const Schema& schema, std::string in,
                            BlockContents* out) {
  if (in.size() < 4) return Status::Corruption("block too small");
  uint32_t count = DecodeFixed32(in.data() + in.size() - 4);
  uint64_t trailer = 4ull + 4ull * count;
  if (trailer > in.size()) {
    return Status::Corruption("block row count exceeds payload");
  }
  const size_t data_end = in.size() - trailer;
  const char* offsets = in.data() + data_end;
  const size_t ncols = schema.num_columns();
  auto lazy = std::make_unique<LazyCol[]>(ncols);
  for (size_t c = 0; c < ncols; c++) {
    ColumnValues& col = lazy[c].values;
    col.arm = ArmFor(schema.columns()[c].type);
    switch (col.arm) {
      case ColumnValues::Arm::kInt: col.ints.reserve(count); break;
      case ColumnValues::Arm::kDouble: col.dbls.reserve(count); break;
      case ColumnValues::Arm::kBytes: col.strs.reserve(count); break;
      case ColumnValues::Arm::kNone: break;
    }
  }
  // Transpose: each row's cells, in schema order, onto the column ends.
  for (uint32_t i = 0; i < count; i++) {
    uint32_t start = DecodeFixed32(offsets + 4ull * i);
    uint32_t end = i + 1 < count ? DecodeFixed32(offsets + 4ull * (i + 1))
                                 : static_cast<uint32_t>(data_end);
    if (start > end || end > data_end) {
      return Status::Corruption("block offsets not monotone");
    }
    Slice row(in.data() + start, end - start);
    for (size_t c = 0; c < ncols; c++) {
      Value v;
      LT_RETURN_IF_ERROR(DecodeValue(&row, schema.columns()[c].type, &v));
      AppendCell(v, &lazy[c].values);
    }
  }
  size_t mem = sizeof(*out) + ncols * sizeof(LazyCol);
  for (size_t c = 0; c < ncols; c++) {
    lazy[c].state.store(1, std::memory_order_relaxed);
    mem += lazy[c].values.ApproximateMemoryUsage();
  }
  out->rows_ = count;
  out->columns_ = static_cast<uint32_t>(ncols);
  out->lazy_ = std::move(lazy);
  out->approx_mem_ = mem;
  return Status::OK();
}

Status BlockContents::ParseColumnar(std::string image, BlockContents* out) {
  Slice in(image);
  uint32_t nrows, ncols;
  if (!GetVarint32(&in, &nrows) || !GetVarint32(&in, &ncols)) {
    return Status::Corruption("columnar block header truncated");
  }
  if (nrows > kMaxBlockRows || ncols > kMaxBlockColumns) {
    return Status::Corruption("columnar block header out of range");
  }
  std::vector<ChunkRef> chunks;
  chunks.reserve(ncols);
  uint64_t total_stored = 0;
  size_t decoded_bound = 0;  // Upper bound on fully materialized columns.
  for (uint32_t c = 0; c < ncols; c++) {
    if (in.size() < 2) return Status::Corruption("chunk directory truncated");
    ChunkRef ref;
    ref.encoding = static_cast<uint8_t>(in[0]);
    ref.compression = static_cast<uint8_t>(in[1]);
    in.remove_prefix(2);
    if (!IsValidChunkEncoding(ref.encoding)) {
      return Status::Corruption("unknown chunk encoding");
    }
    if (ref.compression > 1) {
      return Status::Corruption("unknown chunk compression marker");
    }
    if (!GetVarint32(&in, &ref.stored_len) ||
        !GetVarint32(&in, &ref.raw_len)) {
      return Status::Corruption("chunk directory truncated");
    }
    if (ref.raw_len > kMaxChunkRawLen || ref.stored_len > kMaxChunkRawLen) {
      return Status::Corruption("chunk length out of range");
    }
    if (ref.compression == 0 && ref.stored_len != ref.raw_len) {
      return Status::Corruption("raw chunk length mismatch");
    }
    total_stored += ref.stored_len;
    decoded_bound += ref.raw_len + 8ull * nrows +
                     (ref.encoding >= static_cast<uint8_t>(ChunkEncoding::kDict)
                          ? sizeof(std::string) * static_cast<size_t>(nrows)
                          : 0);
    chunks.push_back(ref);
  }
  if (total_stored != in.size()) {
    return Status::Corruption("chunk bytes do not cover block image");
  }
  // Assign offsets relative to the image start now that the directory size
  // is known.
  uint32_t offset = static_cast<uint32_t>(in.data() - image.data());
  for (ChunkRef& ref : chunks) {
    ref.offset = offset;
    offset += ref.stored_len;
  }
  out->payload = std::move(image);
  out->columnar = true;
  out->rows_ = nrows;
  out->columns_ = ncols;
  out->chunks = std::move(chunks);
  out->lazy_ = std::make_unique<LazyCol[]>(ncols);
  out->approx_mem_ = sizeof(*out) + out->payload.capacity() +
                     out->chunks.capacity() * sizeof(ChunkRef) +
                     ncols * sizeof(LazyCol) + decoded_bound;
  return Status::OK();
}

Status BlockContents::EnsureColumn(size_t c, bool* did_decode) const {
  if (did_decode) *did_decode = false;
  if (c >= columns_) return Status::InvalidArgument("no such block column");
  LazyCol& lc = lazy_[c];
  int state = lc.state.load(std::memory_order_acquire);
  if (state == 1) return Status::OK();
  if (state == 2) return lc.error;

  std::lock_guard<std::mutex> lock(decode_mu_);
  state = lc.state.load(std::memory_order_relaxed);
  if (state == 1) return Status::OK();
  if (state == 2) return lc.error;

  const ChunkRef& ref = chunks[c];
  Slice raw(payload.data() + ref.offset, ref.stored_len);
  std::string scratch;
  Status s;
  if (ref.compression == 1) {
    s = lzmini::Decompress(raw, &scratch);
    if (s.ok() && scratch.size() != ref.raw_len) {
      s = Status::Corruption("chunk raw length mismatch");
    }
    raw = Slice(scratch);
  }
  if (s.ok()) {
    s = DecodeChunk(raw, static_cast<ChunkEncoding>(ref.encoding),
                    rows_, &lc.values);
  }
  if (s.ok()) {
    if (did_decode) *did_decode = true;
    lc.state.store(1, std::memory_order_release);
    return s;
  }
  lc.error = s;
  lc.state.store(2, std::memory_order_release);
  return s;
}

Status BlockReader::ParseColumnar(const Schema* schema, std::string image,
                                  BlockReader* out) {
  auto contents = std::make_shared<BlockContents>();
  LT_RETURN_IF_ERROR(
      BlockContents::ParseColumnar(std::move(image), contents.get()));
  out->Reset(schema, std::move(contents));
  return Status::OK();
}

Status BlockReader::EnsureColumn(size_t c) const {
  bool did_decode = false;
  LT_RETURN_IF_ERROR(contents_->EnsureColumn(c, &did_decode));
  if (did_decode && stats_) {
    stats_->column_chunks_decoded.fetch_add(1, std::memory_order_relaxed);
  }
  const ColumnValues& col = contents_->column(c);
  if (col.size() != contents_->num_rows()) {
    return Status::Corruption("chunk row count mismatch");
  }
  const ColumnType type = schema_->columns()[c].type;
  if (col.arm != ArmFor(type)) {
    return Status::Corruption("chunk encoding does not match column type");
  }
  if (type == ColumnType::kInt32) {
    for (int64_t v : col.ints) {
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::Corruption("int32 cell out of range");
      }
    }
  }
  return Status::OK();
}

Status BlockReader::Prepare() {
  const size_t ncols = schema_->num_columns();
  if (!contents_ || contents_->num_columns() != ncols) {
    return Status::Corruption("chunk count does not match schema");
  }
  // The hint applies to columnar blocks only: row-wise blocks were decoded
  // whole at Parse, and keep serving their real cells.
  const bool project = needed_ != nullptr && contents_->columnar;
  cols_.assign(ncols, nullptr);
  defaults_.assign(ncols, std::string());
  for (size_t c = 0; c < ncols; c++) {
    if (project && !(*needed_)[c]) {
      const Column& def = schema_->columns()[c];
      EncodeValue(&defaults_[c], def.default_value, def.type);
      continue;
    }
    LT_RETURN_IF_ERROR(EnsureColumn(c));
    cols_[c] = &contents_->column(c);
  }
  prepared_ = true;
  return Status::OK();
}

void BlockReader::KeyAt(size_t i, KeyCell* out) const {
  assert(prepared_ && i < num_rows());
  for (size_t c = 0; c < schema_->num_key_columns(); c++) {
    out[c] = KeyCellAt(*cols_[c], i);
  }
}

void BlockReader::AppendEncodedAt(size_t i, std::string* dst) const {
  assert(prepared_ && i < num_rows());
  for (size_t c = 0; c < cols_.size(); c++) {
    const ColumnValues* col = cols_[c];
    if (col == nullptr) {
      dst->append(defaults_[c]);
      continue;
    }
    // Prepare matched every arm to its declared type, so each arm encodes
    // exactly as EncodeValue would (int32 and int64 share zigzag varints).
    switch (col->arm) {
      case ColumnValues::Arm::kInt:
        PutVarint64(dst, ZigZagEncode(col->ints[i]));
        break;
      case ColumnValues::Arm::kDouble: {
        uint64_t bits;
        __builtin_memcpy(&bits, &col->dbls[i], 8);
        PutFixed64(dst, bits);
        break;
      }
      case ColumnValues::Arm::kBytes:
        PutLengthPrefixedSlice(dst, col->strs[i]);
        break;
      case ColumnValues::Arm::kNone:
        break;
    }
  }
}

void BlockReader::RowLengths(size_t first, size_t count, bool descending,
                             size_t tail, std::vector<size_t>* lengths) const {
  assert(prepared_ && count > 0 &&
         (descending ? first + 1 >= count : first + count <= num_rows()));
  ComputeRowLengths(cols_, defaults_, first, count, descending, tail, lengths);
}

size_t BlockReader::AppendRows(size_t first, size_t count, bool descending,
                               const Slice& tail, size_t byte_target,
                               std::string* dst,
                               std::vector<size_t>* offsets) const {
  assert(prepared_ && count > 0 &&
         (descending ? first + 1 >= count : first + count <= num_rows()));
  const ptrdiff_t step = descending ? -1 : 1;
  // Pass 1, column by column: each row's encoded length.
  ComputeRowLengths(cols_, defaults_, first, count, descending, tail.size(),
                    offsets);
  size_t* len = offsets->data();
  // The rows that fit; lengths become start offsets.
  size_t end = dst->size();
  size_t n = 0;
  while (n < count) {
    const size_t row_len = len[n];
    len[n++] = end;
    end += row_len;
    if (end >= byte_target) break;
  }
  dst->resize(end);
  char* const base = dst->data();
  // Pass 2, column by column: each cell at its row's write offset.
  for (size_t c = 0; c < cols_.size(); c++) {
    const ColumnValues* col = cols_[c];
    if (col == nullptr) {
      const std::string& d = defaults_[c];
      for (size_t k = 0; k < n; k++) {
        memcpy(base + len[k], d.data(), d.size());
        len[k] += d.size();
      }
      continue;
    }
    // Prepare matched every arm to its declared type, so each arm encodes
    // exactly as EncodeValue would (int32 and int64 share zigzag varints).
    switch (col->arm) {
      case ColumnValues::Arm::kInt: {
        const int64_t* v = col->ints.data() + first;
        for (size_t k = 0; k < n; k++) {
          char* p = base + len[k];
          len[k] = EncodeVarint64(p, ZigZagEncode(v[static_cast<ptrdiff_t>(k) * step])) - base;
        }
        break;
      }
      case ColumnValues::Arm::kDouble: {
        const double* v = col->dbls.data() + first;
        for (size_t k = 0; k < n; k++) {
          uint64_t bits;
          memcpy(&bits, &v[static_cast<ptrdiff_t>(k) * step], 8);
          EncodeFixed64(base + len[k], bits);
          len[k] += 8;
        }
        break;
      }
      case ColumnValues::Arm::kBytes: {
        const std::string* v = col->strs.data() + first;
        for (size_t k = 0; k < n; k++) {
          const std::string& cell = v[static_cast<ptrdiff_t>(k) * step];
          char* p = EncodeVarint64(base + len[k], cell.size());
          memcpy(p, cell.data(), cell.size());
          len[k] = p + cell.size() - base;
        }
        break;
      }
      case ColumnValues::Arm::kNone:
        break;
    }
  }
  if (!tail.empty()) {
    for (size_t k = 0; k < n; k++) memcpy(base + len[k], tail.data(), tail.size());
  }
  return n;
}

size_t BlockReader::AppendColumns(size_t first, size_t count,
                                  ColumnValues* cols) const {
  assert(prepared_ && first + count <= num_rows());
  for (size_t c = 0; c < cols_.size(); c++) {
    if (cols_[c] == nullptr) {
      AppendCell(schema_->columns()[c].default_value, &cols[c], count);
    } else {
      AppendRange(*cols_[c], first, count, &cols[c]);
    }
  }
  return cols_.size();
}

void BlockReader::RowAt(size_t i, Row* out) const {
  assert(prepared_ && i < num_rows());
  out->clear();
  out->reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); c++) {
    const ColumnValues* col = cols_[c];
    const Column& def = schema_->columns()[c];
    if (col == nullptr) {
      out->push_back(def.default_value);
      continue;
    }
    switch (def.type) {
      case ColumnType::kInt32:
        out->push_back(Value::Int32(static_cast<int32_t>(col->ints[i])));
        break;
      case ColumnType::kInt64:
        out->push_back(Value::Int64(col->ints[i]));
        break;
      case ColumnType::kTimestamp:
        out->push_back(Value::Ts(col->ints[i]));
        break;
      case ColumnType::kDouble:
        out->push_back(Value::Double(col->dbls[i]));
        break;
      case ColumnType::kString:
        out->push_back(Value::String(col->strs[i]));
        break;
      case ColumnType::kBlob:
        out->push_back(Value::Blob(col->strs[i]));
        break;
    }
  }
}

Status BlockReader::SeekFirst(const Key& prefix, bool or_equal,
                              size_t* index) const {
  if (!contents_ || contents_->num_columns() != schema_->num_columns()) {
    return Status::Corruption("chunk count does not match schema");
  }
  KeyOrder order(*schema_);
  std::vector<KeyCell> bound;
  order.CellsOf(prefix, &bound);
  // Only the compared key columns are ensured — a binary search touches no
  // value chunks.
  std::vector<const ColumnValues*> keys(bound.size());
  for (size_t c = 0; c < bound.size(); c++) {
    LT_RETURN_IF_ERROR(EnsureColumn(c));
    keys[c] = &contents_->column(c);
  }
  std::vector<KeyCell> row(bound.size());
  size_t lo = 0, hi = num_rows();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    for (size_t c = 0; c < keys.size(); c++) row[c] = KeyCellAt(*keys[c], mid);
    int cmp = order.Compare(row.data(), bound.data(), bound.size());
    bool before = or_equal ? cmp < 0 : cmp <= 0;
    if (before) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *index = lo;
  return Status::OK();
}

std::string StoreBlockV2(const std::string& image) {
  std::string out;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(image.data(), image.size())));
  out += image;
  return out;
}

Status LoadBlockV2(const Slice& stored, std::string* image) {
  if (stored.size() < 4) return Status::Corruption("block frame too small");
  image->assign(stored.data() + 4, stored.size() - 4);
  return Status::OK();
}

Status LoadBlock(const Slice& stored, std::string* payload) {
  if (stored.size() < 4) return Status::Corruption("block frame too small");
  payload->clear();
  return lzmini::Decompress(Slice(stored.data() + 4, stored.size() - 4),
                            payload);
}

}  // namespace lt
