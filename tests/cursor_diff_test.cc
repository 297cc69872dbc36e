// Differential test for the read path: rows come out of the cursor stack
// in place (key cells, AppendEncoded, MaterializeRow), so every surface that
// reads them must still agree with a brute-force reference model. Random
// schemas — int32/int64/string/blob key columns, double and blob values,
// non-zero defaults — hold rows in tablets (including tablets written
// before a column was widened or appended) and in memtablets. Random queries (projection, direction, key-prefix and ts
// bounds, limits) run with the block cache off and on, through Table::Query
// and through raw kQuery frames over SimTransport, whose kQueryChunk bodies
// must be exactly the model rows' EncodeRow bytes. The server is a primary
// ReplicaAgent's, and each query goes again as a kRoutedQuery, whose frames
// must be the direct query's, frame for frame. A second pass repeats the
// queries after maintenance merges the mixed-schema tablets. The committed
// format-1 tablet (tests/data) gets the same checks, beside format-2
// tablets, across a widen and an append.
//
// Streamed chunks: QueryStream::NextChunk fills each chunk a run at a time
// (merge runs, tablet runs over block columns). Every query also checks
// that chunking, call by call — row bytes, row count, final and
// more-available flags, rows scanned — against a model that chunks the
// one-row stream (QueryStream::Next) by the chunk rules, under several
// row caps, byte targets and scan caps, the tiny ones included; and the
// server's kQueryChunk frames, one by one, against the same model under
// the server's own rules.
//
// The fail-closed cases install tablets whose footer schema lies about a
// column: an int32 column holding an out-of-range cell in a later block,
// and a double column whose chunk holds integers. Both must surface
// Corruption through the streaming encode path, emitting only the rows
// before the bad block.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "cluster/agent.h"
#include "core/db.h"
#include "core/row_codec.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/sim_transport.h"
#include "tests/v1_fixture.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"
#include "util/random.h"

namespace lt {
namespace {

using sim::SimTransport;
using sim::SimTransportOptions;
using wire::MsgType;

constexpr uint16_t kPort = 7821;
constexpr char kTable[] = "diff";
// The shard group and epoch the server's agent is primary of.
constexpr uint32_t kGroup = 3;
constexpr uint64_t kEpoch = 5;

// The server's chunk rules (server.cc): rows per chunk, scan cap, and the
// byte target for a query budget.
constexpr size_t kServerChunkRows = 512;
constexpr uint64_t kServerScanCap = 16384;
size_t ServerChunkTarget(size_t budget) {
  return std::min<size_t>(64 * 1024, std::max<size_t>(1024, budget / 4));
}

// ---- Random schemas and cells. ----

Value RandomCell(Random* rnd, ColumnType t) {
  static const char* const kStrings[] = {"", "a", "ab", "abc", "b", "ba",
                                         "sw3.sjc", "zz"};
  // Blobs compare as unsigned bytes: NUL, 0x7f and 0xff order matters.
  static const std::string kBlobs[] = {"", std::string(1, '\0'),
                                       std::string("\0\x01", 2), "\x7f\xff",
                                       "\xff", std::string("\xff\0", 2)};
  switch (t) {
    case ColumnType::kInt32:
      switch (rnd->Uniform(6)) {
        case 0: return Value::Int32(INT32_MIN);
        case 1: return Value::Int32(INT32_MAX);
        default: return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-3, 3)));
      }
    case ColumnType::kInt64:
      return rnd->Bernoulli(0.1) ? Value::Int64(INT64_MIN + rnd->UniformRange(0, 5))
                                 : Value::Int64(rnd->UniformRange(-3, 3));
    case ColumnType::kTimestamp:
      return Value::Ts(rnd->UniformRange(0, 1000));
    case ColumnType::kDouble:
      switch (rnd->Uniform(4)) {
        case 0: return Value::Double(-0.0);
        case 1: return Value::Double(1e300);
        default: return Value::Double(rnd->UniformRange(-50, 50) / 8.0);
      }
    case ColumnType::kString:
      return Value::String(kStrings[rnd->Uniform(8)]);
    case ColumnType::kBlob:
      if (rnd->Bernoulli(0.3)) return Value::Blob(rnd->Bytes(rnd->Uniform(24)));
      return Value::Blob(kBlobs[rnd->Uniform(6)]);
  }
  return Value();
}

// Key columns: 1–3 of int32/int64/string/blob, then ts. Values: an int32
// "w" (widened later), a double, a blob, and up to two more of any type,
// shuffled; some columns carry non-zero defaults.
Schema RandomSchema(Random* rnd) {
  static const ColumnType kKeyTypes[] = {ColumnType::kInt32, ColumnType::kInt64,
                                         ColumnType::kString, ColumnType::kBlob};
  static const ColumnType kValueTypes[] = {
      ColumnType::kInt32, ColumnType::kInt64, ColumnType::kDouble,
      ColumnType::kString, ColumnType::kBlob, ColumnType::kTimestamp};
  std::vector<Column> cols;
  const size_t nkeys = 1 + rnd->Uniform(3);
  for (size_t i = 0; i < nkeys; i++) {
    cols.emplace_back("k" + std::to_string(i), kKeyTypes[rnd->Uniform(4)]);
  }
  cols.emplace_back("ts", ColumnType::kTimestamp);
  std::vector<Column> values = {
      Column("w", ColumnType::kInt32, Value::Int32(-1)),
      Column("d", ColumnType::kDouble, Value::Double(2.5)),
      Column("b", ColumnType::kBlob)};
  const size_t extra = rnd->Uniform(3);
  for (size_t i = 0; i < extra; i++) {
    ColumnType t = kValueTypes[rnd->Uniform(6)];
    values.emplace_back("v" + std::to_string(i), t, RandomCell(rnd, t));
  }
  for (size_t i = values.size(); i > 1; i--) {
    std::swap(values[i - 1], values[rnd->Uniform(i)]);
  }
  for (Column& c : values) cols.push_back(std::move(c));
  return Schema(std::move(cols), nkeys + 1);
}

// ---- The reference model. ----

class Model {
 public:
  explicit Model(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// A fresh row under the current schema whose key is not yet taken.
  Row NewRow(Random* rnd, Timestamp base) {
    while (true) {
      Row row;
      for (const Column& c : schema_.columns()) row.push_back(RandomCell(rnd, c.type));
      row[schema_.ts_index()] = Value::Ts(base + rnd->UniformRange(0, 2000) * 1000);
      std::string key;
      EncodeKey(&key, schema_, schema_.KeyOf(row));
      if (keys_.insert(key).second) return row;
    }
  }

  void Add(const std::vector<Row>& rows) {
    for (const Row& row : rows) {
      std::string key;
      EncodeKey(&key, schema_, schema_.KeyOf(row));
      keys_.insert(key);
    }
    rows_.insert(rows_.end(), rows.begin(), rows.end());
    std::sort(rows_.begin(), rows_.end(), [this](const Row& a, const Row& b) {
      return schema_.CompareKeys(a, b) < 0;
    });
  }

  // Evolution, applied to the stored rows independently of the engine's
  // translation code.
  void Widen(const std::string& name) {
    const int c = schema_.FindColumn(name);
    schema_ = schema_.WithWidenedColumn(name).value();
    for (Row& row : rows_) row[c] = Value::Int64(row[c].i32());
  }
  void Append(const Column& column) {
    schema_ = schema_.WithAppendedColumn(column).value();
    for (Row& row : rows_) row.push_back(column.default_value);
  }

  std::vector<Row> Query(const QueryBounds& b, bool* more) const {
    std::vector<Row> out;
    for (const Row& row : rows_) {
      if (b.Matches(schema_, row)) out.push_back(row);
    }
    if (b.direction == Direction::kDescending) std::reverse(out.begin(), out.end());
    *more = b.limit > 0 && out.size() > b.limit;
    if (*more) out.resize(b.limit);
    return out;
  }

 private:
  Schema schema_;
  std::vector<Row> rows_;  // Ascending by key.
  std::set<std::string> keys_;
};

std::string EncodeAll(const Schema& schema, const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) EncodeRow(&out, schema, row);
  return out;
}

// Random bounds over rows whose timestamps lie in [base, base + 2000 s].
QueryBounds RandomBounds(Random* rnd, const Model& model, Timestamp base) {
  const Schema& s = model.schema();
  auto prefix = [&] {
    Key k;
    const size_t n = rnd->Uniform(s.num_key_columns() + 1);
    if (!model.rows().empty() && rnd->Bernoulli(0.8)) {
      const Row& row = model.rows()[rnd->Uniform(model.rows().size())];
      k.assign(row.begin(), row.begin() + n);
    } else {
      for (size_t c = 0; c < n; c++) k.push_back(RandomCell(rnd, s.columns()[c].type));
    }
    return KeyBound{std::move(k), rnd->Bernoulli(0.7)};
  };
  QueryBounds b;
  switch (rnd->Uniform(5)) {
    case 0: break;
    case 1: b.min_key = prefix(); break;
    case 2: b.max_key = prefix(); break;
    case 3: b.min_key = prefix(); b.max_key = prefix(); break;
    case 4: b.min_key = b.max_key = prefix(); break;
  }
  if (rnd->Bernoulli(0.4)) {
    b.min_ts = base + rnd->UniformRange(0, 2000) * 1000;
    b.max_ts = b.min_ts + rnd->UniformRange(0, 1500) * 1000;
    b.min_ts_inclusive = rnd->Bernoulli(0.5);
    b.max_ts_inclusive = rnd->Bernoulli(0.5);
  }
  b.direction = rnd->Bernoulli(0.5) ? Direction::kAscending : Direction::kDescending;
  if (rnd->Bernoulli(0.4)) b.limit = 1 + rnd->Uniform(40);
  if (rnd->Bernoulli(0.4)) {
    for (uint32_t c = 0; c < s.num_columns(); c++) {
      if (rnd->Bernoulli(0.4)) b.projection.push_back(c);
    }
  }
  return b;
}

// ---- The fixture: a DB on MemEnv, served over SimTransport. ----

// Members are public: the checks below are free functions over the fixture.
class CursorDiffTest : public ::testing::Test {
 public:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  }

  void TearDown() override { StopServer(); }

  DbOptions Options(uint64_t cache_bytes) {
    DbOptions opts;
    opts.background_maintenance = false;
    opts.block_cache_bytes = cache_bytes;
    opts.table_defaults.block_bytes = 512;
    opts.table_defaults.merge.min_tablet_age = 0;
    opts.table_defaults.merge.rollover_delay_frac = 0;
    return opts;
  }

  void OpenDb(const DbOptions& opts) {
    StopServer();
    db_.reset();
    ASSERT_TRUE(DB::Open(&env_, clock_, root_, opts, &db_).ok());
  }

  /// Serves the DB from a ReplicaAgent made primary of group kGroup, so
  /// raw kQuery and kRoutedQuery frames reach one server. A nonzero
  /// `conn_buffer_bytes` bounds the transport's pipes, so streams park on
  /// backpressure and resume as the reader drains.
  void StartServer(size_t query_budget_bytes, size_t conn_buffer_bytes = 0) {
    SimTransportOptions topts;
    topts.clock = clock_;
    topts.conn_buffer_bytes = conn_buffer_bytes;
    transport_ = std::make_unique<SimTransport>(topts);
    cluster::AgentOptions aopts;
    aopts.port = kPort;
    aopts.transport = transport_.get();
    aopts.server.clock = clock_;
    aopts.server.poll_interval_ms = 5;
    aopts.server.query_budget_bytes = query_budget_bytes;
    chunk_target_ = ServerChunkTarget(query_budget_bytes);
    agent_ = std::make_unique<cluster::ReplicaAgent>(db_.get(), aopts);
    ASSERT_TRUE(agent_->Start().ok());
    ClientOptions copts;
    copts.transport = transport_.get();
    copts.clock = clock_;
    copts.max_retries = 0;
    ASSERT_TRUE(Client::Connect("sim", kPort, copts, &client_).ok());
    std::string assign;
    PutVarint32(&assign, kGroup);
    PutVarint64(&assign, kEpoch);
    assign.push_back(static_cast<char>(cluster::ReplicaAgent::Role::kPrimary));
    PutLengthPrefixedSlice(&assign, "peer");
    PutVarint32(&assign, kPort + 1);
    MsgType rt;
    std::string rb;
    ASSERT_TRUE(client_->Call(MsgType::kAssignShard, assign, &rt, &rb).ok());
    ASSERT_EQ(rt, MsgType::kOk);
    ASSERT_TRUE(transport_->Connect("sim", kPort, 1000, &raw_).ok());
    raw_->set_read_timeout_ms(5000);
    raw_->set_write_timeout_ms(5000);
  }

  void StopServer() {
    client_.reset();
    raw_.reset();
    agent_.reset();
  }

  Status ReadFrame(MsgType* type, std::string* body) {
    char len_buf[4];
    LT_RETURN_IF_ERROR(raw_->ReadAll(len_buf, 4));
    const uint32_t len = DecodeFixed32(len_buf);
    if (len == 0 || len > wire::kMaxFrameBytes) {
      return Status::NetworkError("bad frame length");
    }
    std::string payload(len, '\0');
    LT_RETURN_IF_ERROR(raw_->ReadAll(payload.data(), len));
    *type = static_cast<MsgType>(payload[0]);
    body->assign(payload, 1, payload.size() - 1);
    return Status::OK();
  }

  /// Sends one raw kQuery (`routed`: wrapped in a kRoutedQuery for the
  /// agent's group and epoch) and collects the row bytes of every
  /// kQueryChunk until the final chunk (OK) or an error frame (its
  /// status); `chunks` (optional) receives each chunk's row count and row
  /// bytes, and frames_ every frame's body.
  Status WireQuery(const std::string& table, const Schema& schema,
                   const QueryBounds& bounds, std::string* rows, uint64_t* count,
                   bool* more,
                   std::vector<std::pair<uint32_t, std::string>>* chunks = nullptr,
                   bool routed = false) {
    rows->clear();
    *count = 0;
    *more = false;
    if (chunks != nullptr) chunks->clear();
    frames_.clear();
    std::string req;
    if (routed) {
      PutVarint32(&req, kGroup);
      PutVarint64(&req, kEpoch);
      req.push_back(static_cast<char>(MsgType::kQuery));
    }
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema.version());
    wire::EncodeBounds(&req, schema, bounds);
    const std::string f =
        wire::Frame(routed ? MsgType::kRoutedQuery : MsgType::kQuery, req);
    LT_RETURN_IF_ERROR(raw_->WriteAll(f.data(), f.size()));
    while (true) {
      MsgType type = MsgType::kError;
      std::string body;
      LT_RETURN_IF_ERROR(ReadFrame(&type, &body));
      frames_.push_back(static_cast<char>(type) + body);
      if (type == MsgType::kError) return Client::ErrorFromBody(Slice(body));
      if (type != MsgType::kQueryChunk) return Status::Corruption("unexpected frame");
      Slice in(body);
      if (in.empty()) return Status::Corruption("empty chunk");
      const uint8_t flags = static_cast<uint8_t>(in[0]);
      in.remove_prefix(1);
      uint32_t version, n;
      if (!GetVarint32(&in, &version) || !GetVarint32(&in, &n)) {
        return Status::Corruption("bad chunk header");
      }
      EXPECT_EQ(version, schema.version());
      *count += n;
      rows->append(in.data(), in.size());
      if (chunks != nullptr) chunks->emplace_back(n, in.ToString());
      if (flags & wire::kChunkFinal) {
        *more = (flags & wire::kChunkMoreAvailable) != 0;
        return Status::OK();
      }
    }
  }

  MemEnv env_;
  std::string root_ = "/db";
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<cluster::ReplicaAgent> agent_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<net::Connection> raw_;
  size_t chunk_target_ = 0;  // The running server's chunk byte target.
  std::vector<std::string> frames_;  // The last WireQuery's frame bodies.
};

// ---- Chunks: runs against the one-row loop. ----

struct ChunkRules {
  size_t max_rows;
  size_t target_bytes;
  uint64_t scan_cap;
};

struct Chunk {
  std::string bytes;
  uint32_t rows = 0;
  bool final = false;
  bool more = false;
  uint64_t scanned = 0;  // The stream's rows scanned after the chunk.
  bool ok = true;
};

// The model: one chunk by the chunk rules, over the one-row stream —
// rows until the row cap or byte target, the scan cap re-checked before
// each row, the rest of it handed to Next as its yield budget.
Chunk OneRowChunk(QueryStream* qs, const ChunkRules& r) {
  Chunk c;
  const uint64_t start = qs->rows_scanned();
  while (c.rows < r.max_rows && c.bytes.size() < r.target_bytes) {
    const uint64_t here = qs->rows_scanned() - start;
    if (here >= r.scan_cap) break;
    bool have = false, exhausted = false;
    c.ok = qs->Next(r.scan_cap - here, &have, &exhausted).ok();
    if (!c.ok) break;
    if (!have) {
      c.final = exhausted;
      break;
    }
    qs->AppendEncoded(&c.bytes);
    c.rows++;
  }
  c.more = qs->more_available();
  c.scanned = qs->rows_scanned();
  return c;
}

Chunk RunChunk(QueryStream* qs, const ChunkRules& r) {
  Chunk c;
  c.ok = qs->NextChunk(r.max_rows, r.target_bytes, r.scan_cap, &c.bytes,
                       &c.rows, &c.final)
             .ok();
  c.more = qs->more_available();
  c.scanned = qs->rows_scanned();
  return c;
}

// The model's chunks for a whole query (the server's sequence: chunks
// with rows, and the final one).
std::vector<Chunk> ModelChunks(Table* table, const QueryBounds& b,
                               const ChunkRules& r) {
  std::vector<Chunk> out;
  std::unique_ptr<QueryStream> qs;
  EXPECT_TRUE(table->NewQueryStream(b, &qs).ok());
  if (qs == nullptr) return out;
  while (true) {
    Chunk c = OneRowChunk(qs.get(), r);
    if (!c.ok) break;
    const bool final = c.final;
    if (c.rows > 0 || final) out.push_back(std::move(c));
    if (final) break;
  }
  return out;
}

// Every NextChunk call against the model's chunk from the same position.
void CheckChunks(Table* table, const QueryBounds& b, const ChunkRules& r,
                 const std::string& what) {
  std::unique_ptr<QueryStream> model, runs;
  ASSERT_TRUE(table->NewQueryStream(b, &model).ok()) << what;
  ASSERT_TRUE(table->NewQueryStream(b, &runs).ok()) << what;
  for (int i = 0;; i++) {
    ASSERT_LT(i, 1000000) << what;
    const Chunk want = OneRowChunk(model.get(), r);
    const Chunk got = RunChunk(runs.get(), r);
    const std::string at = what + " chunk " + std::to_string(i);
    ASSERT_EQ(got.ok, want.ok) << at;
    ASSERT_EQ(got.rows, want.rows) << at;
    ASSERT_TRUE(got.bytes == want.bytes) << at << ": row bytes differ";
    ASSERT_EQ(got.final, want.final) << at;
    ASSERT_EQ(got.more, want.more) << at;
    ASSERT_EQ(got.scanned, want.scanned) << at;
    if (!want.ok || want.final) break;
  }
  ASSERT_EQ(runs->rows_returned(), model->rows_returned()) << what;
}

// Chunk rules from the server's down to one row, one byte and one scanned
// row per chunk, plus a random set.
void CheckChunkRules(Table* table, const QueryBounds& b, Random* rnd,
                     const std::string& what) {
  const ChunkRules rules[] = {
      {kServerChunkRows, 64 * 1024, kServerScanCap},
      {kServerChunkRows, 1024, kServerScanCap},
      {1, 1, 1},
      {3, 1 << 20, 2},
      {1 << 20, 60, 7},
      {1 + rnd->Uniform(40), 1 + rnd->Uniform(400), 1 + rnd->Uniform(60)}};
  for (const ChunkRules& r : rules) {
    CheckChunks(table, b, r,
                what + " rules " + std::to_string(r.max_rows) + "/" +
                    std::to_string(r.target_bytes) + "/" +
                    std::to_string(r.scan_cap));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// One query through every surface, checked against the model.
void CheckQuery(CursorDiffTest* t, Table* table, const Model& model,
                const QueryBounds& b, const std::string& what) {
  const Schema& s = model.schema();
  bool want_more;
  const std::vector<Row> want = model.Query(b, &want_more);

  QueryResult got;
  Status st = table->Query(b, &got);
  ASSERT_TRUE(st.ok()) << what << " " << st.ToString();
  ASSERT_EQ(got.rows.size(), want.size()) << what;
  EXPECT_EQ(got.more_available, want_more) << what;
  std::vector<char> projected(s.num_columns(), b.projection.empty());
  for (size_t c = 0; c < s.num_key_columns(); c++) projected[c] = 1;
  for (uint32_t c : b.projection) projected[c] = 1;
  for (size_t i = 0; i < want.size(); i++) {
    ASSERT_EQ(got.rows[i].size(), s.num_columns()) << what;
    for (size_t c = 0; c < s.num_columns(); c++) {
      const Value& g = got.rows[i][c];
      ASSERT_TRUE(g.MatchesType(s.columns()[c].type)) << what << " col " << c;
      // Cells outside a projection may carry the column default instead
      // (columnar tablets skip their chunks); everything else is exact.
      if (projected[c] || !(g == s.columns()[c].default_value)) {
        ASSERT_TRUE(g == want[i][c])
            << what << " row " << i << " col " << c << ": "
            << g.ToString(s.columns()[c].type) << " vs "
            << want[i][c].ToString(s.columns()[c].type);
      }
    }
  }
  Random rules_rnd(std::hash<std::string>()(what));
  CheckChunkRules(table, b, &rules_rnd, what);
  if (::testing::Test::HasFatalFailure()) return;
  if (!b.projection.empty()) return;  // The wire carries no projection.
  EXPECT_EQ(EncodeAll(s, got.rows), EncodeAll(s, want)) << what;

  std::string bytes;
  uint64_t count;
  bool more;
  std::vector<std::pair<uint32_t, std::string>> chunks;
  st = t->WireQuery(kTable, s, b, &bytes, &count, &more, &chunks);
  ASSERT_TRUE(st.ok()) << what << " " << st.ToString();
  EXPECT_EQ(count, want.size()) << what;
  EXPECT_EQ(more, want_more) << what;
  EXPECT_TRUE(bytes == EncodeAll(s, want)) << what << ": wire bytes differ";
  const std::vector<Chunk> model_chunks = ModelChunks(
      table, b, {kServerChunkRows, t->chunk_target_, kServerScanCap});
  ASSERT_EQ(chunks.size(), model_chunks.size()) << what;
  for (size_t i = 0; i < chunks.size(); i++) {
    EXPECT_EQ(chunks[i].first, model_chunks[i].rows) << what << " frame " << i;
    EXPECT_TRUE(chunks[i].second == model_chunks[i].bytes)
        << what << " frame " << i << ": chunk body differs";
  }
  const std::vector<std::string> direct = t->frames_;
  st = t->WireQuery(kTable, s, b, &bytes, &count, &more, nullptr,
                    /*routed=*/true);
  ASSERT_TRUE(st.ok()) << what << " routed " << st.ToString();
  EXPECT_TRUE(t->frames_ == direct) << what << ": routed frames differ";

  QueryResult client_result;
  st = t->client_->Query(kTable, b, &client_result);
  ASSERT_TRUE(st.ok()) << what << " " << st.ToString();
  EXPECT_EQ(client_result.more_available, want_more) << what;
  EXPECT_TRUE(EncodeAll(s, client_result.rows) == EncodeAll(s, want))
      << what << ": client rows differ";
}

void RunDifferential(CursorDiffTest* t, uint64_t seed, uint64_t cache_bytes) {
  Random rnd(seed);
  t->root_ = "/db" + std::to_string(seed);
  Model model(RandomSchema(&rnd));
  const Timestamp base = t->clock_->Now() - 3 * kMicrosPerHour;
  auto insert = [&](Table* table, int n) {
    std::vector<Row> batch;
    for (int i = 0; i < n; i++) batch.push_back(model.NewRow(&rnd, base));
    ASSERT_TRUE(table->InsertBatch(batch).ok());
    model.Add(batch);
  };

  // Three flushed tablets under the original schema.
  t->OpenDb(t->Options(cache_bytes));
  ASSERT_TRUE(t->db_->CreateTable(kTable, model.schema()).ok());
  std::shared_ptr<Table> table = t->db_->GetTable(kTable);
  for (int i = 0; i < 3; i++) {
    insert(table.get(), 150 + static_cast<int>(rnd.Uniform(150)));
    ASSERT_TRUE(table->FlushAll().ok());
  }
  // A tablet from before the widen, one from before the append, then rows
  // left in memtablets.
  ASSERT_TRUE(table->WidenColumn("w").ok());
  model.Widen("w");
  insert(table.get(), 150);
  ASSERT_TRUE(table->FlushAll().ok());
  static const Column kAppended[] = {
      Column("x", ColumnType::kString, Value::String("dflt")),
      Column("x", ColumnType::kInt64, Value::Int64(7)),
      Column("x", ColumnType::kDouble, Value::Double(-1.5)),
      Column("x", ColumnType::kBlob, Value::Blob(std::string("\0\1", 2)))};
  const Column& appended = kAppended[rnd.Uniform(4)];
  ASSERT_TRUE(table->AppendColumn(appended).ok());
  model.Append(appended);
  insert(table.get(), 200);
  ASSERT_TRUE(table->FlushAll().ok());
  insert(table.get(), 200);
  ASSERT_EQ(table->schema()->version(), model.schema().version());
  ASSERT_GE(table->NumDiskTablets(), 5u);

  // A tiny stream budget splits results into many small chunks, and
  // bounded pipes make those streams park and resume.
  const bool tiny = rnd.Bernoulli(0.5);
  t->StartServer(tiny ? 2048 : 4 << 20, tiny ? 1024 : 0);
  for (int pass = 0; pass < 2; pass++) {
    for (int q = 0; q < 80; q++) {
      QueryBounds b = RandomBounds(&rnd, model, base);
      CheckQuery(t, table.get(), model, b,
                 "seed " + std::to_string(seed) + " pass " +
                     std::to_string(pass) + " query " + std::to_string(q));
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Second pass: maintenance merges the mixed-schema tablets (merge
    // rewrites materialize rows).
    for (int i = 0; i < 10; i++) ASSERT_TRUE(t->db_->MaintainNow().ok());
  }
  EXPECT_GE(table->stats().merges.load(), 1u);
  if (tiny) {
    EXPECT_GT(t->agent_->server()->metrics().GetCounter(
                  "server.stream_pauses")->Value(), 0);
  }
}

TEST_F(CursorDiffTest, RandomSchemasMatchModelCacheOff) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    SCOPED_TRACE(seed);
    RunDifferential(this, seed, 0);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CursorDiffTest, RandomSchemasMatchModelCacheOn) {
  for (uint64_t seed = 101; seed <= 106; seed++) {
    SCOPED_TRACE(seed);
    // Small enough that scans evict and re-read blocks.
    RunDifferential(this, seed, 32 << 10);
    if (HasFatalFailure()) return;
  }
}

// ---- The committed format-1 tablet against the model. ----

// The fixture installed beside format-2 flushes of random rows over the
// same key space, then its int32 value column widened and a column
// appended, with rows left in memtablets: every surface must match the
// model, and again after maintenance merges the fixture into format 2. A
// tiny stream budget over bounded pipes makes the streams park and resume.
TEST_F(CursorDiffTest, V1FixtureMatchesModel) {
  Random rnd(301);
  root_ = "/fixture";
  OpenDb(Options(0));
  Model model(testutil::V1FixtureSchema());
  ASSERT_TRUE(db_->CreateTable(kTable, model.schema()).ok());
  std::shared_ptr<Table> table = db_->GetTable(kTable);
  std::string fixture;
  ASSERT_TRUE(testutil::ReadV1Fixture(&fixture).ok());
  ASSERT_TRUE(
      table->InstallTablet(testutil::V1FixtureMeta("000900.tab"), fixture)
          .ok());
  model.Add(testutil::V1FixtureRows());
  const Timestamp base = testutil::kV1FixtureBaseTs;
  auto insert = [&](int n) {
    std::vector<Row> batch;
    for (int i = 0; i < n; i++) batch.push_back(model.NewRow(&rnd, base));
    ASSERT_TRUE(table->InsertBatch(batch).ok());
    model.Add(batch);
  };
  insert(150);
  ASSERT_TRUE(table->FlushAll().ok());
  ASSERT_TRUE(table->WidenColumn("flags").ok());
  model.Widen("flags");
  insert(150);
  ASSERT_TRUE(table->FlushAll().ok());
  const Column appended("x", ColumnType::kString, Value::String("dflt"));
  ASSERT_TRUE(table->AppendColumn(appended).ok());
  model.Append(appended);
  insert(100);
  ASSERT_EQ(table->NumDiskTablets(), 3u);

  StartServer(2048, 1024);
  for (int pass = 0; pass < 2; pass++) {
    for (int q = 0; q < 60; q++) {
      QueryBounds b = RandomBounds(&rnd, model, base);
      CheckQuery(this, table.get(), model, b,
                 "pass " + std::to_string(pass) + " query " +
                     std::to_string(q));
      if (HasFatalFailure()) return;
    }
    for (int i = 0; i < 10; i++) ASSERT_TRUE(db_->MaintainNow().ok());
  }
  EXPECT_GE(table->stats().merges.load(), 1u);
  EXPECT_GT(agent_->server()->metrics().GetCounter("server.stream_pauses")
                ->Value(), 0);
}

// ---- Memtablets alone: arena cursors against the model. ----

// The rows a stream yields from here on, encoded under `schema`.
std::string Drain(QueryStream* qs, const Schema& schema, size_t max_rows) {
  std::string out;
  Row row;
  for (size_t n = 0; n < max_rows; n++) {
    bool have_row = false, exhausted = false;
    Status s = qs->Next(0, &have_row, &exhausted);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok() || exhausted) break;
    qs->MaterializeRow(&row);
    EncodeRow(&out, schema, row);
  }
  return out;
}

// Every row in memtablets — several at once, two periods filling side by
// side and many tablets sealed by size — queried in both directions with
// prefix bounds and limits through every surface. Then streams opened
// before further inserts, and read across them, must not see those rows.
void RunMemTabletDifferential(CursorDiffTest* t, uint64_t seed) {
  Random rnd(seed);
  t->root_ = "/mem" + std::to_string(seed);
  Model model(RandomSchema(&rnd));
  DbOptions opts = t->Options(0);
  opts.table_defaults.flush_bytes = 16 << 10;
  t->OpenDb(opts);
  ASSERT_TRUE(t->db_->CreateTable(kTable, model.schema()).ok());
  std::shared_ptr<Table> table = t->db_->GetTable(kTable);
  // Rows straddle the day boundary at now: yesterday's day bin and today's
  // first 4-hour bin fill at once (§3.4.3).
  const Timestamp base = t->clock_->Now() - 1000 * kMicrosPerSecond;
  auto insert = [&](int n) {
    std::vector<Row> batch;
    for (int i = 0; i < n; i++) batch.push_back(model.NewRow(&rnd, base));
    ASSERT_TRUE(table->InsertBatch(batch).ok());
    model.Add(batch);
  };
  for (int i = 0; i < 30; i++) insert(1 + static_cast<int>(rnd.Uniform(80)));
  ASSERT_EQ(table->NumDiskTablets(), 0u);
  ASSERT_GE(table->NumMemTablets(), 3u);

  t->StartServer(rnd.Bernoulli(0.5) ? 2048 : 4 << 20);
  for (int q = 0; q < 80; q++) {
    QueryBounds b = RandomBounds(&rnd, model, base);
    CheckQuery(t, table.get(), model, b,
               "seed " + std::to_string(seed) + " query " + std::to_string(q));
    if (::testing::Test::HasFatalFailure()) return;
  }

  for (int q = 0; q < 20; q++) {
    QueryBounds b = RandomBounds(&rnd, model, base);
    b.projection.clear();
    bool more;
    const std::string want = EncodeAll(model.schema(), model.Query(b, &more));
    std::unique_ptr<QueryStream> qs;
    ASSERT_TRUE(table->NewQueryStream(b, &qs).ok());
    std::string got = Drain(qs.get(), model.schema(), rnd.Uniform(20));
    insert(1 + static_cast<int>(rnd.Uniform(40)));
    got += Drain(qs.get(), model.schema(), SIZE_MAX);
    EXPECT_TRUE(got == want) << "seed " << seed << " stream " << q
                             << ": saw rows inserted after it opened";
  }
}

TEST_F(CursorDiffTest, MemTabletsAloneMatchModel) {
  for (uint64_t seed = 201; seed <= 206; seed++) {
    SCOPED_TRACE(seed);
    RunMemTabletDifferential(this, seed);
    if (HasFatalFailure()) return;
  }
}

// ---- Fail closed: cells the declared column type cannot hold. ----

// Rewrites a format-2 tablet's footer so it declares `to` instead of the
// `from` schema it was written under. Blocks and index are untouched.
void RewriteFooterSchema(Env* env, const std::string& path, const Schema& from,
                         const Schema& to, uint64_t* file_bytes) {
  std::string data;
  ASSERT_TRUE(ReadFileToString(env, path, &data).ok());
  Slice trailer(data.data() + data.size() - kTabletTrailerSize, kTabletTrailerSize);
  uint32_t crc;
  uint64_t footer_size, footer_offset, magic;
  GetFixed32(&trailer, &crc);
  GetFixed64(&trailer, &footer_size);
  GetFixed64(&trailer, &footer_offset);
  GetFixed64(&trailer, &magic);
  ASSERT_EQ(magic, kTabletMagicV3);
  Slice stored(data.data() + footer_offset,
               data.size() - kTabletTrailerSize - footer_offset);
  std::string footer;
  if (stored[0] == 1) {
    ASSERT_TRUE(lzmini::Decompress(Slice(stored.data() + 1, stored.size() - 1),
                                   &footer).ok());
  } else {
    footer.assign(stored.data() + 1, stored.size() - 1);
  }
  std::string from_enc, to_enc;
  from.EncodeTo(&from_enc);
  to.EncodeTo(&to_enc);
  ASSERT_EQ(footer.compare(0, from_enc.size(), from_enc), 0);
  footer = to_enc + footer.substr(from_enc.size());
  std::string out = data.substr(0, footer_offset);
  const std::string new_stored = std::string(1, '\0') + footer;  // Raw.
  out += new_stored;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(new_stored.data(), new_stored.size())));
  PutFixed64(&out, footer.size());
  PutFixed64(&out, footer_offset);
  PutFixed64(&out, magic);
  ASSERT_TRUE(WriteStringToFile(env, out, path, true).ok());
  *file_bytes = out.size();
}

Schema BadCellSchema(ColumnType v, ColumnType d) {
  return Schema({Column("k", ColumnType::kInt64), Column("ts", ColumnType::kTimestamp),
                 Column("v", v), Column("d", d)},
                2);
}

// Writes `rows` as a format-2 tablet under `written`, relabels it as
// `declared`, and installs it into `table` (created with `declared`).
void InstallRelabeled(CursorDiffTest* t, const std::string& table_name,
                      const Schema& written, const Schema& declared,
                      const std::vector<Row>& rows) {
  ASSERT_TRUE(t->db_->CreateTable(table_name, declared).ok());
  const std::string tmp = "/scratch.tab";
  TabletWriterOptions wopts;
  wopts.block_bytes = 128;
  TabletWriter writer(&t->env_, tmp, &written, wopts);
  for (const Row& row : rows) ASSERT_TRUE(writer.Add(row).ok());
  TabletMeta meta;
  ASSERT_TRUE(writer.Finish(&meta).ok());
  RewriteFooterSchema(&t->env_, tmp, written, declared, &meta.file_bytes);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(&t->env_, tmp, &bytes).ok());
  meta.filename = "000900.tab";
  ASSERT_TRUE(t->db_->GetTable(table_name)->InstallTablet(meta, bytes).ok());
}

TEST_F(CursorDiffTest, CellsOutsideDeclaredTypeFailClosed) {
  OpenDb(Options(0));
  const Timestamp ts = clock_->Now() - kMicrosPerHour;

  // int32 out of range: "v" was written as int64; rows from 150 on hold
  // 2^40 + i, which land in later blocks than the first rows.
  const Schema wide = BadCellSchema(ColumnType::kInt64, ColumnType::kDouble);
  const Schema narrow = BadCellSchema(ColumnType::kInt32, ColumnType::kDouble);
  std::vector<Row> rows, expect;
  for (int i = 0; i < 200; i++) {
    const int64_t v = i < 150 ? i : (int64_t{1} << 40) + i;
    rows.push_back({Value::Int64(i), Value::Ts(ts), Value::Int64(v), Value::Double(0.5)});
    expect.push_back({Value::Int64(i), Value::Ts(ts),
                      Value::Int32(static_cast<int32_t>(i)), Value::Double(0.5)});
  }
  InstallRelabeled(this, "int32", wide, narrow, rows);
  // Arm mismatch: "d" is declared double but its chunk holds integers.
  const Schema ints = BadCellSchema(ColumnType::kInt32, ColumnType::kInt64);
  std::vector<Row> arm_rows;
  for (int i = 0; i < 20; i++) {
    arm_rows.push_back({Value::Int64(i), Value::Ts(ts), Value::Int32(i), Value::Int64(i)});
  }
  InstallRelabeled(this, "arm", ints, narrow, arm_rows);

  for (const char* name : {"int32", "arm"}) {
    SCOPED_TRACE(name);
    std::shared_ptr<Table> table = db_->GetTable(name);
    QueryResult result;
    Status s = table->Query(QueryBounds{}, &result);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();

    // The streaming encode path emits rows up to the bad block, each
    // exactly right, then fails.
    std::unique_ptr<QueryStream> qs;
    s = table->NewQueryStream(QueryBounds{}, &qs);
    std::string encoded;
    size_t n = 0;
    bool have = false, exhausted = false;
    while (s.ok() && !exhausted) {
      s = qs->Next(0, &have, &exhausted);
      if (s.ok() && have) {
        qs->AppendEncoded(&encoded);
        n++;
      }
    }
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_LE(n, 150u);
    if (std::string(name) == "int32") {
      EXPECT_GT(n, 0u);
      EXPECT_EQ(encoded, EncodeAll(narrow, std::vector<Row>(expect.begin(),
                                                            expect.begin() + n)));
    } else {
      EXPECT_EQ(n, 0u);
    }
  }

  // Over the wire: chunks carry only good rows, then a Corruption error. A
  // small stream budget makes the good rows span several chunks.
  StartServer(2048);
  std::string bytes;
  uint64_t count;
  bool more;
  Status s = WireQuery("int32", narrow, QueryBounds{}, &bytes, &count, &more);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GT(count, 0u);
  EXPECT_LE(count, 150u);
  EXPECT_EQ(bytes, EncodeAll(narrow, std::vector<Row>(expect.begin(),
                                                      expect.begin() + count)));
  // Routed, the same frames and the same error.
  const std::vector<std::string> direct = frames_;
  Status routed = WireQuery("int32", narrow, QueryBounds{}, &bytes, &count,
                            &more, nullptr, /*routed=*/true);
  EXPECT_EQ(routed.ToString(), s.ToString());
  EXPECT_TRUE(frames_ == direct) << "routed frames differ";
  s = WireQuery("arm", narrow, QueryBounds{}, &bytes, &count, &more);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace lt
