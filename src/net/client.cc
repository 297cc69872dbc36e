#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/row_codec.h"
#include "util/coding.h"

namespace lt {

using wire::ErrCode;
using wire::MsgType;

Status Client::Connect(const std::string& host, uint16_t port,
                       std::unique_ptr<Client>* out) {
  return Connect(host, port, ClientOptions(), out);
}

Status Client::Connect(const std::string& host, uint16_t port,
                       const ClientOptions& options,
                       std::unique_ptr<Client>* out) {
  std::unique_ptr<Client> client(new Client(options));
  client->host_ = host;
  client->port_ = port;
  LT_RETURN_IF_ERROR(client->Ping());
  *out = std::move(client);
  return Status::OK();
}

Client::Client(const ClientOptions& options)
    : opts_(options),
      transport_(options.transport ? options.transport
                                   : net::Transport::Tcp()),
      retry_clock_(options.clock ? options.clock : SystemClock::Instance()),
      rng_(options.backoff_seed) {}

Status Client::EnsureConnectedLocked() {
  if (conn_) return Status::OK();
  std::unique_ptr<net::Connection> conn;
  LT_RETURN_IF_ERROR(
      transport_->Connect(host_, port_, opts_.connect_timeout_ms, &conn));
  conn->set_read_timeout_ms(opts_.read_timeout_ms);
  conn->set_write_timeout_ms(opts_.write_timeout_ms);
  conn_ = std::move(conn);
  connect_count_.fetch_add(1, std::memory_order_relaxed);
  return BindTenantLocked();
}

Status Client::BindTenantLocked() {
  if (opts_.network_id == 0) return Status::OK();
  std::string req;
  PutVarint64(&req, static_cast<uint64_t>(opts_.network_id));
  MsgType type;
  std::string body;
  Status s = RoundTrip(MsgType::kSetTenant, req, &type, &body);
  if (!s.ok()) return s;
  // kError here means a pre-tenant server: it has no quotas to attribute
  // to, so the binding is moot — carry on unbound rather than failing
  // every connect against an older peer.
  return Status::OK();
}

void Client::Backoff(int attempt) {
  int64_t delay = opts_.backoff_initial_ms;
  for (int i = 0; i < attempt && delay < opts_.backoff_max_ms; i++) {
    delay *= 2;
  }
  delay = std::min<int64_t>(delay, opts_.backoff_max_ms);
  if (delay <= 0) return;
  {
    // Uniform jitter in [delay/2, delay] decorrelates clients retrying
    // against a recovering server. rng_ is guarded by mu_; the sleep
    // itself happens unlocked.
    std::lock_guard<std::mutex> lock(mu_);
    delay = delay / 2 + static_cast<int64_t>(rng_.Uniform(
                            static_cast<uint64_t>(delay / 2 + 1)));
  }
  if (opts_.backoff_sleep) {
    opts_.backoff_sleep(delay);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

bool Client::IsConnectionError(const Status& s) {
  return s.IsNetworkError() || s.IsUnavailable() || s.IsDeadlineExceeded();
}

template <typename Fn>
Status Client::WithRetries(Fn&& fn) {
  // The total deadline caps the whole logical request — every attempt and
  // every backoff sleep — so a caller with an end-to-end budget is not held
  // for max_retries * (timeout + backoff).
  const Timestamp deadline =
      opts_.total_deadline_ms > 0
          ? retry_clock_->Now() + opts_.total_deadline_ms * 1000
          : 0;
  Status s;
  for (int attempt = 0;; attempt++) {
    {
      // mu_ covers one whole attempt (connect + round trip) but is
      // released before the backoff sleep — otherwise one failing request
      // would stall every other thread's call on this Client for up to
      // max_retries * (timeout + backoff).
      std::lock_guard<std::mutex> lock(mu_);
      s = EnsureConnectedLocked();
      if (s.ok()) {
        s = fn();
        if (s.ok() || !IsConnectionError(s)) return s;
        // The connection may be desynced (half-read frame) — drop it so
        // the next attempt starts from a clean handshake.
        conn_.reset();
      } else if (!IsConnectionError(s)) {
        return s;
      }
    }
    if (attempt >= opts_.max_retries) return s;
    if (deadline != 0 && retry_clock_->Now() >= deadline) return s;
    Backoff(attempt);
  }
}

Status Client::ReadFrame(MsgType* type, std::string* body) {
  char len_buf[4];
  LT_RETURN_IF_ERROR(conn_->ReadAll(len_buf, 4));
  uint32_t len = DecodeFixed32(len_buf);
  if (len == 0 || len > wire::kMaxFrameBytes) {
    return Status::NetworkError("bad frame length");
  }
  // The type byte, then the body straight into the caller's buffer.
  char type_byte;
  body->resize(len - 1);
  Status s = conn_->ReadAll(&type_byte, 1);
  if (s.ok()) s = conn_->ReadAll(body->data(), len - 1);
  if (!s.ok()) {
    // A close after the header is a torn frame, not a clean goodbye.
    if (s.IsUnavailable()) {
      return Status::NetworkError("connection closed mid-frame");
    }
    return s;
  }
  *type = static_cast<MsgType>(type_byte);
  return Status::OK();
}

Status Client::ErrorFromBody(Slice body) {
  if (body.empty()) return Status::NetworkError("malformed error frame");
  ErrCode code = static_cast<ErrCode>(body[0]);
  body.remove_prefix(1);
  Slice message;
  GetLengthPrefixedSlice(&body, &message);
  return wire::StatusForCode(code, message.ToString());
}

Status Client::DecodeQueryChunk(Slice body, const Schema& schema,
                                uint8_t* flags, std::vector<Row>* rows) {
  if (body.empty()) return Status::Corruption("bad chunk");
  *flags = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  uint32_t version, count;
  if (!GetVarint32(&body, &version) || !GetVarint32(&body, &count)) {
    return Status::Corruption("bad chunk");
  }
  if (version != schema.version()) {
    return Status::Aborted("schema changed mid-query");
  }
  // Every row takes at least one byte: a larger count is corrupt, and is
  // caught before it can size the row vector.
  if (count > body.size()) {
    return Status::Corruption("chunk row count exceeds its bytes");
  }
  if (rows->capacity() - rows->size() < count) {
    rows->reserve(std::max(rows->size() + count, 2 * rows->capacity()));
  }
  const std::vector<Column>& columns = schema.columns();
  const size_t num_columns = columns.size();
  const char* p = body.data();
  const char* const limit = p + body.size();
  // Decodes the cell at p into `cell` in place; null p on a malformed cell.
  auto decode = [&](ColumnType type, Value* cell) -> const char* {
    uint64_t u;
    switch (type) {
      case ColumnType::kInt32: {
        const char* q = DecodeVarint64(p, limit, &u);
        if (q == nullptr) return nullptr;
        const int64_t v = ZigZagDecode(u);
        if (v < INT32_MIN || v > INT32_MAX) return nullptr;
        *cell = Value::Int32(static_cast<int32_t>(v));
        return q;
      }
      case ColumnType::kInt64:
      case ColumnType::kTimestamp: {
        const char* q = DecodeVarint64(p, limit, &u);
        if (q == nullptr) return nullptr;
        *cell = Value::Int64(ZigZagDecode(u));
        return q;
      }
      case ColumnType::kDouble: {
        if (limit - p < 8) return nullptr;
        const uint64_t bits = DecodeFixed64(p);
        double d;
        __builtin_memcpy(&d, &bits, 8);
        *cell = Value::Double(d);
        return p + 8;
      }
      case ColumnType::kString:
      case ColumnType::kBlob: {
        const char* q = DecodeVarint64(p, limit, &u);
        if (q == nullptr || u > static_cast<uint64_t>(limit - q)) {
          return nullptr;
        }
        std::string bytes(q, u);
        *cell = type == ColumnType::kString ? Value::String(std::move(bytes))
                                            : Value::Blob(std::move(bytes));
        return q + u;
      }
    }
    return nullptr;
  };
  for (uint32_t r = 0; r < count; r++) {
    Row& row = rows->emplace_back(num_columns);
    for (size_t c = 0; c < num_columns; c++) {
      p = decode(columns[c].type, &row[c]);
      if (p == nullptr) {
        rows->pop_back();
        return Status::Corruption("bad cell in chunk row");
      }
    }
  }
  if (p != limit) return Status::Corruption("chunk trailing bytes");
  return Status::OK();
}

Status Client::RoundTrip(MsgType type, const std::string& body,
                         MsgType* resp_type, std::string* resp_body) {
  return RoundTripFrame(wire::Frame(type, body), resp_type, resp_body);
}

Status Client::RoundTripFrame(const std::string& frame, MsgType* resp_type,
                              std::string* resp_body) {
  LT_RETURN_IF_ERROR(EnsureConnectedLocked());
  Status s = conn_->WriteAll(frame.data(), frame.size());
  if (s.ok()) s = ReadFrame(resp_type, resp_body);
  if (!s.ok()) conn_.reset();
  return s;
}

Status Client::PingLocked() {
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kPing, "", &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  if (type != MsgType::kOk) return Status::NetworkError("bad ping response");
  return Status::OK();
}

Status Client::Ping() {
  return WithRetries([&] { return PingLocked(); });
}

Status Client::Ping(int deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!conn_) {
    std::unique_ptr<net::Connection> conn;
    LT_RETURN_IF_ERROR(transport_->Connect(host_, port_, deadline_ms, &conn));
    conn->set_read_timeout_ms(opts_.read_timeout_ms);
    conn->set_write_timeout_ms(opts_.write_timeout_ms);
    conn_ = std::move(conn);
    connect_count_.fetch_add(1, std::memory_order_relaxed);
    LT_RETURN_IF_ERROR(BindTenantLocked());
  }
  conn_->set_read_timeout_ms(deadline_ms);
  conn_->set_write_timeout_ms(deadline_ms);
  Status s = PingLocked();
  if (conn_) {
    // RoundTrip resets conn_ on failure, so a surviving connection is the
    // one whose deadlines we tightened — restore them.
    conn_->set_read_timeout_ms(opts_.read_timeout_ms);
    conn_->set_write_timeout_ms(opts_.write_timeout_ms);
  }
  return s;
}

Status Client::Call(MsgType type, const std::string& body,
                    MsgType* resp_type, std::string* resp_body) {
  std::lock_guard<std::mutex> lock(mu_);
  return RoundTrip(type, body, resp_type, resp_body);
}

Status Client::CallStream(
    MsgType type, const std::string& body,
    const std::function<Status(MsgType, Slice, bool*)>& on_frame) {
  std::lock_guard<std::mutex> lock(mu_);
  LT_RETURN_IF_ERROR(EnsureConnectedLocked());
  std::string frame = wire::Frame(type, body);
  Status s = conn_->WriteAll(frame.data(), frame.size());
  while (s.ok()) {
    MsgType rt;
    std::string rb;
    s = ReadFrame(&rt, &rb);
    if (!s.ok()) break;
    bool done = false;
    Status cb = on_frame(rt, Slice(rb), &done);
    if (!cb.ok()) {
      // Aborting mid-stream leaves undrained frames on the wire; the
      // connection is desynced, so drop it.
      conn_.reset();
      return cb;
    }
    if (done) return Status::OK();
  }
  conn_.reset();
  return s;
}

Status Client::ListTables(std::vector<std::string>* names) {
  return WithRetries([&] {
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kListTables, "", &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    if (type != MsgType::kTableList) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    uint32_t count;
    if (!GetVarint32(&in, &count)) return Status::Corruption("bad table list");
    names->clear();
    for (uint32_t i = 0; i < count; i++) {
      Slice name;
      if (!GetLengthPrefixedSlice(&in, &name)) {
        return Status::Corruption("bad table list");
      }
      names->push_back(name.ToString());
    }
    return Status::OK();
  });
}

Status Client::CreateTable(const std::string& table, const Schema& schema,
                           Timestamp ttl) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  schema.EncodeTo(&req);
  PutVarint64(&req, static_cast<uint64_t>(ttl));
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kCreateTable, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  return Status::OK();
}

Status Client::DropTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  schema_cache_.erase(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kDropTable, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  return Status::OK();
}

Status Client::GetTableInfo(const std::string& table, Schema* schema,
                            Timestamp* ttl) {
  return WithRetries([&] {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kGetTable, req, &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    if (type != MsgType::kTableInfo) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    LT_RETURN_IF_ERROR(Schema::DecodeFrom(&in, schema));
    uint64_t ttl_u;
    if (!GetVarint64(&in, &ttl_u)) return Status::Corruption("bad table info");
    if (ttl != nullptr) *ttl = static_cast<Timestamp>(ttl_u);
    schema_cache_[table] = std::make_shared<const Schema>(*schema);
    return Status::OK();
  });
}

Result<std::shared_ptr<const Schema>> Client::SchemaLocked(
    const std::string& table) {
  auto it = schema_cache_.find(table);
  if (it != schema_cache_.end()) return it->second;
  // Inline fetch (mu_ held): mirror GetTableInfo's body.
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kGetTable, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  if (type != MsgType::kTableInfo) {
    return Status::NetworkError("unexpected response");
  }
  Slice in(body);
  Schema schema;
  LT_RETURN_IF_ERROR(Schema::DecodeFrom(&in, &schema));
  auto shared = std::make_shared<const Schema>(std::move(schema));
  schema_cache_[table] = shared;
  return shared;
}

Result<std::shared_ptr<const Schema>> Client::TableSchema(
    const std::string& table) {
  std::shared_ptr<const Schema> schema;
  Status s = WithRetries([&]() -> Status {
    auto r = SchemaLocked(table);
    if (!r.ok()) return r.status();
    schema = std::move(*r);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return schema;
}

void Client::InvalidateSchema(const std::string& table) {
  schema_cache_.erase(table);
}

Status Client::Insert(const std::string& table, const std::vector<Row>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int attempt = 0; attempt < 2; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string& frame = insert_frame_;
    wire::StartFrame(&frame, MsgType::kInsert);
    PutLengthPrefixedSlice(&frame, table);
    PutVarint32(&frame, schema->version());
    PutVarint32(&frame, static_cast<uint32_t>(rows.size()));
    for (const Row& row : rows) {
      if (!schema->RowMatches(row)) {
        return Status::InvalidArgument("row does not match table schema");
      }
      EncodeRow(&frame, *schema, row);
    }
    wire::FinishFrame(&frame);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTripFrame(frame, &type, &body));
    if (type == MsgType::kOk) return Status::OK();
    if (type != MsgType::kError) {
      return Status::NetworkError("unexpected response");
    }
    if (!body.empty() &&
        static_cast<ErrCode>(body[0]) == ErrCode::kSchemaChanged &&
        attempt == 0) {
      InvalidateSchema(table);
      continue;  // Refetch and retry once.
    }
    return ErrorFromBody(body);
  }
  return Status::Aborted("schema changed repeatedly");
}

Status Client::Query(const std::string& table, const QueryBounds& bounds,
                     QueryResult* result) {
  return WithRetries([&] { return QueryLocked(table, bounds, result); });
}

Status Client::QueryLocked(const std::string& table, const QueryBounds& bounds,
                           QueryResult* result) {
  result->rows.clear();
  result->more_available = false;
  for (int attempt = 0; attempt < 2; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema->version());
    wire::EncodeBounds(&req, *schema, bounds);

    std::string frame = wire::Frame(MsgType::kQuery, req);
    LT_RETURN_IF_ERROR(conn_->WriteAll(frame.data(), frame.size()));

    result->rows.clear();
    bool schema_changed = false;
    std::string body;  // Reused by every chunk.
    while (true) {
      MsgType type;
      LT_RETURN_IF_ERROR(ReadFrame(&type, &body));
      if (type == MsgType::kError) {
        if (!body.empty() &&
            static_cast<ErrCode>(body[0]) == ErrCode::kSchemaChanged &&
            attempt == 0) {
          schema_changed = true;
          break;
        }
        return ErrorFromBody(body);
      }
      if (type != MsgType::kQueryChunk) {
        return Status::NetworkError("unexpected response");
      }
      uint8_t flags;
      LT_RETURN_IF_ERROR(
          DecodeQueryChunk(Slice(body), *schema, &flags, &result->rows));
      if (flags & wire::kChunkFinal) {
        result->more_available = flags & wire::kChunkMoreAvailable;
        return Status::OK();
      }
    }
    if (schema_changed) {
      InvalidateSchema(table);
      continue;
    }
  }
  return Status::Aborted("schema changed repeatedly");
}

Status Client::QueryPage(const std::string& table, QueryBounds* bounds,
                         QueryResult* result) {
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      TableSchema(table));
  LT_RETURN_IF_ERROR(Query(table, *bounds, result));
  if (result->more_available && !result->rows.empty()) {
    bounds->StartAfter(schema->KeyOf(result->rows.back()));
  }
  return Status::OK();
}

Status Client::QueryAll(const std::string& table, const QueryBounds& bounds,
                        std::vector<Row>* rows) {
  rows->clear();
  LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                      TableSchema(table));
  return QueryAllPages(*schema, bounds, rows,
                       [&](const QueryBounds& page, QueryResult* result) {
                         return Query(table, page, result);
                       });
}

Status Client::LatestRow(const std::string& table, const Key& prefix,
                         Row* row, bool* found) {
  return WithRetries(
      [&] { return LatestRowLocked(table, prefix, row, found); });
}

Status Client::LatestRowLocked(const std::string& table, const Key& prefix,
                               Row* row, bool* found) {
  *found = false;
  for (int attempt = 0; attempt < 2; attempt++) {
    LT_ASSIGN_OR_RETURN(std::shared_ptr<const Schema> schema,
                        SchemaLocked(table));
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema->version());
    wire::EncodeKeyPrefix(&req, *schema, prefix);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kLatestRow, req, &type, &body));
    if (type == MsgType::kError) {
      if (!body.empty() &&
          static_cast<ErrCode>(body[0]) == ErrCode::kSchemaChanged &&
          attempt == 0) {
        InvalidateSchema(table);
        continue;
      }
      return ErrorFromBody(body);
    }
    if (type != MsgType::kRowResult) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    if (in.empty()) return Status::Corruption("bad row result");
    bool has_row = in[0] != 0;
    in.remove_prefix(1);
    uint32_t version;
    if (!GetVarint32(&in, &version)) return Status::Corruption("bad row result");
    if (version != schema->version()) {
      InvalidateSchema(table);
      if (attempt == 0) continue;
      return Status::Aborted("schema changed repeatedly");
    }
    if (has_row) LT_RETURN_IF_ERROR(DecodeRow(&in, *schema, row));
    *found = has_row;
    return Status::OK();
  }
  return Status::Aborted("schema changed repeatedly");
}

Status Client::FlushThrough(const std::string& table, Timestamp ts) {
  // Idempotent: flushing through the same timestamp twice is a no-op.
  return WithRetries([&] {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint64(&req, ZigZagEncode(ts));
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kFlushThrough, req, &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    return Status::OK();
  });
}

Status Client::AppendColumn(const std::string& table, const Column& column) {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateSchema(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutLengthPrefixedSlice(&req, column.name);
  req.push_back(static_cast<char>(column.type));
  EncodeValue(&req, column.default_value, column.type);
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kAppendColumn, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  return Status::OK();
}

Status Client::WidenColumn(const std::string& table,
                           const std::string& column) {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateSchema(table);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutLengthPrefixedSlice(&req, column);
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kWidenColumn, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  return Status::OK();
}

Status Client::SetTtl(const std::string& table, Timestamp ttl) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string req;
  PutLengthPrefixedSlice(&req, table);
  PutVarint64(&req, static_cast<uint64_t>(ttl));
  MsgType type;
  std::string body;
  LT_RETURN_IF_ERROR(RoundTrip(MsgType::kSetTtl, req, &type, &body));
  if (type == MsgType::kError) return ErrorFromBody(body);
  return Status::OK();
}

Status Client::Stats(const std::string& table, ServerStats* stats) {
  return WithRetries([&] {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    MsgType type;
    std::string body;
    LT_RETURN_IF_ERROR(RoundTrip(MsgType::kStatsV2, req, &type, &body));
    if (type == MsgType::kError) return ErrorFromBody(body);
    if (type != MsgType::kStatsV2Result) {
      return Status::NetworkError("unexpected response");
    }
    Slice in(body);
    uint32_t count;
    if (!GetVarint32(&in, &count)) {
      return Status::Corruption("bad stats reply");
    }
    stats->counters.clear();
    stats->histograms.clear();
    for (uint32_t i = 0; i < count; i++) {
      Slice name;
      uint64_t value;
      if (!GetLengthPrefixedSlice(&in, &name) || !GetVarint64(&in, &value)) {
        return Status::Corruption("bad stats reply");
      }
      stats->counters[name.ToString()] = value;
    }
    uint32_t nhist;
    if (!GetVarint32(&in, &nhist)) {
      return Status::Corruption("bad stats reply");
    }
    for (uint32_t i = 0; i < nhist; i++) {
      Slice name;
      HistogramQuantiles q;
      if (!GetLengthPrefixedSlice(&in, &name) ||
          !GetVarint64(&in, &q.count) || !GetVarint64(&in, &q.p50) ||
          !GetVarint64(&in, &q.p90) || !GetVarint64(&in, &q.p99) ||
          !GetVarint64(&in, &q.p999) || !GetVarint64(&in, &q.max)) {
        return Status::Corruption("bad stats reply");
      }
      stats->histograms[name.ToString()] = q;
    }
    return Status::OK();
  });
}

}  // namespace lt
