// Tests for the SQL surface: lexing, parsing, the bounding-box planner,
// projections, streaming GROUP BY aggregation, and both backends (embedded
// and over the wire).
#include <gtest/gtest.h>

#include "env/mem_env.h"
#include "net/server.h"
#include "sql/executor.h"
#include "sql/lexer.h"
#include "tests/test_util.h"

namespace lt {
namespace sql {
namespace {

// ----- Lexer. -----

TEST(LexerTest, TokenKinds) {
  std::vector<Token> toks;
  ASSERT_TRUE(
      Tokenize("SELECT a, -42 3.5 'it''s' x'0aff' >= != ;", &toks).ok());
  ASSERT_EQ(toks.size(), 12u);  // Including kEnd.
  EXPECT_TRUE(toks[0].Is("select"));
  EXPECT_TRUE(toks[1].Is("A"));
  EXPECT_TRUE(toks[2].IsSymbol(","));
  EXPECT_TRUE(toks[3].IsSymbol("-"));
  EXPECT_EQ(toks[4].int_value, 42);
  EXPECT_DOUBLE_EQ(toks[5].float_value, 3.5);
  EXPECT_EQ(toks[6].text, "it's");
  EXPECT_EQ(toks[7].text, std::string("\x0a\xff", 2));
  EXPECT_TRUE(toks[8].IsSymbol(">="));
  EXPECT_TRUE(toks[9].IsSymbol("!="));
  EXPECT_TRUE(toks[10].IsSymbol(";"));
  EXPECT_EQ(toks[11].type, TokenType::kEnd);
}

TEST(LexerTest, CommentsSkipped) {
  std::vector<Token> toks;
  ASSERT_TRUE(Tokenize("SELECT -- the whole row\n *", &toks).ok());
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(toks[1].IsSymbol("*"));
}

TEST(LexerTest, Errors) {
  std::vector<Token> toks;
  EXPECT_FALSE(Tokenize("'unterminated", &toks).ok());
  EXPECT_FALSE(Tokenize("x'0g'", &toks).ok());
  EXPECT_FALSE(Tokenize("@", &toks).ok());
}

// ----- Parser. -----

TEST(ParserTest, CreateTable) {
  auto result = Parse(
      "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
      "bytes INT64 DEFAULT -1, rate DOUBLE, "
      "PRIMARY KEY (network, device, ts)) WITH TTL 30d");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& stmt = std::get<CreateTableStmt>(*result);
  EXPECT_EQ(stmt.table, "usage");
  EXPECT_EQ(stmt.columns.size(), 5u);
  EXPECT_EQ(stmt.key_names, (std::vector<std::string>{"network", "device", "ts"}));
  EXPECT_EQ(stmt.ttl, 30 * kMicrosPerDay);
  EXPECT_EQ(stmt.columns[3].default_value.i64(), -1);
}

TEST(ParserTest, InsertMultiRow) {
  auto result = Parse(
      "INSERT INTO t (a, ts, note) VALUES (1, NOW(), 'x'), (2, NOW() - "
      "60000000, 'y')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& stmt = std::get<InsertStmt>(*result);
  EXPECT_EQ(stmt.rows.size(), 2u);
  EXPECT_EQ(stmt.rows[1][1].kind, Literal::Kind::kNow);
  EXPECT_EQ(stmt.rows[1][1].now_offset, -60000000);
}

TEST(ParserTest, SelectFull) {
  auto result = Parse(
      "SELECT device, SUM(bytes), COUNT(*) FROM usage "
      "WHERE network = 5 AND ts >= 100 AND ts < 200 AND bytes != 0 "
      "GROUP BY device ORDER BY KEY DESC LIMIT 10;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& stmt = std::get<SelectStmt>(*result);
  EXPECT_EQ(stmt.items.size(), 3u);
  EXPECT_EQ(stmt.items[1].func, AggFunc::kSum);
  EXPECT_TRUE(stmt.items[2].star);
  EXPECT_EQ(stmt.where.size(), 4u);
  EXPECT_EQ(stmt.group_by, std::vector<std::string>{"device"});
  EXPECT_TRUE(stmt.order_descending);
  EXPECT_EQ(stmt.limit, 10u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (ts TIMESTAMP)").ok());  // No PK.
  EXPECT_FALSE(Parse("INSERT INTO t VALUES").ok());
  EXPECT_FALSE(Parse("DELETE FROM t").ok());  // Unsupported verb.
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE a ~ 3").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t extra").ok());
}

// ----- Executor over the embedded backend. -----

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(200 * kMicrosPerWeek);
    DbOptions opts;
    opts.background_maintenance = false;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/sqldb", opts, &db_).ok());
    backend_ = std::make_unique<DbBackend>(db_.get());
    session_ = std::make_unique<SqlSession>(backend_.get());
  }

  ResultSet Exec(const std::string& stmt) {
    auto result = session_->Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << " -> " << result.status().ToString();
    return result.ok() ? *result : ResultSet{};
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<DbBackend> backend_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlExecTest, CreateInsertSelect) {
  Exec(
      "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
      "bytes INT64, PRIMARY KEY (network, device, ts))");
  Exec("INSERT INTO usage VALUES (1, 1, 100, 500), (1, 2, 100, 700)");
  ResultSet rs = Exec("SELECT * FROM usage");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.columns.size(), 4u);
  EXPECT_EQ(rs.rows[1][3].i64(), 700);
}

TEST_F(SqlExecTest, ColumnsReorderedSoKeyLeads) {
  // Declared value-first; the schema must still lead with the key.
  Exec(
      "CREATE TABLE t (value STRING, ts TIMESTAMP, id INT64, "
      "PRIMARY KEY (id, ts))");
  auto schema = backend_->GetSchema("t");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->columns()[0].name, "id");
  EXPECT_EQ((*schema)->columns()[1].name, "ts");
  EXPECT_EQ((*schema)->columns()[2].name, "value");
}

TEST_F(SqlExecTest, WhereBecomesBoundingBox) {
  Exec(
      "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
      "bytes INT64, PRIMARY KEY (network, device, ts))");
  std::string values;
  for (int net = 0; net < 3; net++) {
    for (int dev = 0; dev < 4; dev++) {
      for (int m = 0; m < 5; m++) {
        if (!values.empty()) values += ", ";
        values += "(" + std::to_string(net) + "," + std::to_string(dev) + "," +
                  std::to_string(1000 + m) + "," + std::to_string(m) + ")";
      }
    }
  }
  Exec("INSERT INTO usage VALUES " + values);
  // The Figure 1 rectangle: network 1, a device range, a time range.
  ResultSet rs = Exec(
      "SELECT device, ts, bytes FROM usage WHERE network = 1 AND "
      "device >= 1 AND device <= 2 AND ts > 1000 AND ts <= 1003");
  ASSERT_EQ(rs.rows.size(), 2u * 3u);
  for (const Row& r : rs.rows) {
    EXPECT_GE(r[0].i64(), 1);
    EXPECT_LE(r[0].i64(), 2);
    EXPECT_GT(r[1].AsInt(), 1000);
    EXPECT_LE(r[1].AsInt(), 1003);
  }
}

TEST_F(SqlExecTest, CombinedTsConditionsKeepTheTightestBound) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m VALUES (1, 10, 0), (1, 20, 0), (1, 30, 0)");
  // The box holds each ts condition exactly, so a tighter endpoint must
  // replace both its value and its inclusive flag, in either order.
  struct Case {
    const char* a;
    const char* b;
    std::vector<int64_t> want;
  };
  const Case cases[] = {{"ts > 10", "ts >= 20", {20, 30}},
                        {"ts < 30", "ts <= 20", {10, 20}},
                        {"ts > 10", "ts = 20", {20}}};
  for (const Case& c : cases) {
    for (bool swap : {false, true}) {
      const std::string where = swap ? std::string(c.b) + " AND " + c.a
                                     : std::string(c.a) + " AND " + c.b;
      ResultSet rs = Exec("SELECT ts FROM m WHERE " + where);
      std::vector<int64_t> got;
      for (const Row& r : rs.rows) got.push_back(r[0].AsInt());
      EXPECT_EQ(got, c.want) << where;
    }
  }
}

TEST_F(SqlExecTest, NonKeyFilterApplied) {
  Exec(
      "CREATE TABLE usage (network INT64, ts TIMESTAMP, bytes INT64, "
      "PRIMARY KEY (network, ts))");
  Exec("INSERT INTO usage VALUES (1, 1, 10), (1, 2, 20), (1, 3, 10)");
  ResultSet rs = Exec("SELECT ts FROM usage WHERE bytes != 10");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 2);
}

TEST_F(SqlExecTest, GroupByStreamsInKeyOrder) {
  // §3.1's example: sum of bytes per device for one network.
  Exec(
      "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
      "bytes INT64, PRIMARY KEY (network, device, ts))");
  std::string values;
  for (int dev = 0; dev < 3; dev++) {
    for (int m = 0; m < 4; m++) {
      if (!values.empty()) values += ", ";
      values += "(7," + std::to_string(dev) + "," + std::to_string(100 + m) +
                "," + std::to_string((dev + 1) * 10) + ")";
    }
  }
  Exec("INSERT INTO usage VALUES " + values);
  ResultSet rs = Exec(
      "SELECT network, device, SUM(bytes), COUNT(*), AVG(bytes) FROM usage "
      "WHERE network = 7 GROUP BY network, device");
  ASSERT_EQ(rs.rows.size(), 3u);
  for (int dev = 0; dev < 3; dev++) {
    EXPECT_EQ(rs.rows[dev][1].i64(), dev);
    EXPECT_EQ(rs.rows[dev][2].i64(), (dev + 1) * 10 * 4);
    EXPECT_EQ(rs.rows[dev][3].i64(), 4);
    EXPECT_DOUBLE_EQ(rs.rows[dev][4].dbl(), (dev + 1) * 10.0);
  }
}

TEST_F(SqlExecTest, GlobalAggregatesWithoutGroupBy) {
  Exec(
      "CREATE TABLE m (id INT64, ts TIMESTAMP, v DOUBLE, "
      "PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m VALUES (1, 1, 1.5), (1, 2, 2.5), (2, 1, 4.0)");
  ResultSet rs = Exec("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM m");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].i64(), 3);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].dbl(), 8.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].dbl(), 1.5);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].dbl(), 4.0);
  EXPECT_NEAR(rs.rows[0][4].dbl(), 8.0 / 3, 1e-9);
}

TEST_F(SqlExecTest, EmptyAggregateEmitsZeroRow) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (id, ts))");
  ResultSet rs = Exec("SELECT COUNT(*) FROM m");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].i64(), 0);
  // Grouped aggregates over nothing emit nothing.
  rs = Exec("SELECT id, COUNT(*) FROM m GROUP BY id");
  EXPECT_TRUE(rs.rows.empty());
}

TEST_F(SqlExecTest, EmptyMinMaxTakeTheColumnType) {
  // No NULLs: MIN/MAX over no rows give the column type's default, so the
  // result set still renders by its declared types.
  Exec(
      "CREATE TABLE m (id INT64, ts TIMESTAMP, s STRING, d DOUBLE, n INT32, "
      "PRIMARY KEY (id, ts))");
  ResultSet rs = Exec("SELECT MIN(s), MAX(d), MIN(n) FROM m");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].bytes(), "");
  EXPECT_EQ(rs.rows[0][1].dbl(), 0.0);
  EXPECT_EQ(rs.rows[0][2].i32(), 0);
  EXPECT_NE(rs.ToString().find("'' | 0 | 0"), std::string::npos);
}

TEST_F(SqlExecTest, OrderByKeyDescAndLimit) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m VALUES (1,1,1), (2,1,2), (3,1,3), (4,1,4)");
  ResultSet rs = Exec("SELECT id FROM m ORDER BY KEY DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].i64(), 4);
  EXPECT_EQ(rs.rows[1][0].i64(), 3);
}

TEST_F(SqlExecTest, NowAndOmittedTimestamp) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m (id, v) VALUES (1, 10)");  // ts omitted -> now.
  Exec("INSERT INTO m VALUES (2, NOW() - 1000000, 20)");
  ResultSet rs = Exec("SELECT id, ts FROM m");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), clock_->Now());
  EXPECT_EQ(rs.rows[1][1].AsInt(), clock_->Now() - 1000000);
  // NOW() in WHERE.
  rs = Exec("SELECT id FROM m WHERE ts >= NOW() - 500000");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].i64(), 1);
}

TEST_F(SqlExecTest, DefaultsAndPartialColumnLists) {
  Exec(
      "CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64 DEFAULT -1, "
      "label STRING DEFAULT 'none', PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m (id, ts) VALUES (1, 100)");
  ResultSet rs = Exec("SELECT v, label FROM m");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].i64(), -1);
  EXPECT_EQ(rs.rows[0][1].bytes(), "none");
  // Omitting a non-ts key column is an error.
  EXPECT_FALSE(session_->Execute("INSERT INTO m (ts, v) VALUES (5, 1)").ok());
}

TEST_F(SqlExecTest, DropTable) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, PRIMARY KEY (id, ts))");
  Exec("DROP TABLE m");
  EXPECT_FALSE(session_->Execute("SELECT * FROM m").ok());
}

TEST_F(SqlExecTest, SemanticErrors) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v INT64, PRIMARY KEY (id, ts))");
  EXPECT_FALSE(session_->Execute("SELECT nope FROM m").ok());
  EXPECT_FALSE(session_->Execute("SELECT id, SUM(v) FROM m").ok());
  EXPECT_FALSE(session_->Execute("SELECT v, COUNT(*) FROM m GROUP BY v").ok());
  EXPECT_FALSE(
      session_->Execute("INSERT INTO m VALUES (1, 'text', 2)").ok());
  EXPECT_FALSE(session_->Execute("SELECT * FROM missing").ok());
  // Duplicate primary key maps through.
  Exec("INSERT INTO m VALUES (1, 5, 0)");
  EXPECT_TRUE(
      session_->Execute("INSERT INTO m VALUES (1, 5, 9)").status().IsAlreadyExists());
}

TEST_F(SqlExecTest, TtlDurationsByUnit) {
  Exec("CREATE TABLE a (id INT64, ts TIMESTAMP, PRIMARY KEY (id, ts)) WITH TTL 90s");
  Exec("CREATE TABLE b (id INT64, ts TIMESTAMP, PRIMARY KEY (id, ts)) WITH TTL 2w");
  EXPECT_EQ(db_->GetTable("a")->ttl(), 90 * kMicrosPerSecond);
  EXPECT_EQ(db_->GetTable("b")->ttl(), 2 * kMicrosPerWeek);
}

TEST_F(SqlExecTest, ResultSetToStringRenders) {
  Exec("CREATE TABLE m (id INT64, ts TIMESTAMP, v STRING, PRIMARY KEY (id, ts))");
  Exec("INSERT INTO m VALUES (1, 2, 'hello')");
  std::string rendered = Exec("SELECT * FROM m").ToString();
  EXPECT_NE(rendered.find("id | ts | v"), std::string::npos);
  EXPECT_NE(rendered.find("'hello'"), std::string::npos);
}

TEST_F(SqlExecTest, SelectPopulatesQueryTrace) {
  Exec(
      "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
      "bytes INT64, PRIMARY KEY (network, device, ts))");
  for (int i = 0; i < 20; i++) {
    Exec("INSERT INTO usage VALUES (1, " + std::to_string(i) + ", " +
         std::to_string(100 + i) + ", " + std::to_string(i) + ")");
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  // Embedded backend: the engine-side trace rides up through QueryAll.
  ResultSet rs = Exec("SELECT * FROM usage WHERE bytes >= 10");
  ASSERT_EQ(rs.rows.size(), 10u);
  EXPECT_EQ(rs.trace.rows_scanned, 20u);   // Engine scanned everything...
  EXPECT_EQ(rs.trace.rows_returned, 10u);  // ...executor filtered to 10.
  EXPECT_GE(rs.trace.tablets_considered, 1u);
  EXPECT_GE(rs.trace.blocks_read, 1u);
  EXPECT_GE(rs.trace.elapsed_micros, 0);

  // Aggregation reports the emitted rows, not the scanned ones.
  ResultSet agg = Exec("SELECT COUNT(*) FROM usage");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.trace.rows_returned, 1u);
  EXPECT_EQ(agg.trace.rows_scanned, 20u);

  // Non-SELECT statements leave the trace untouched.
  ResultSet ins = Exec("INSERT INTO usage VALUES (2, 0, 100, 0)");
  EXPECT_EQ(ins.trace.rows_scanned, 0u);
  EXPECT_EQ(ins.trace.elapsed_micros, 0);
}

// ----- The same SQL, over the wire (the paper's adaptor topology). -----

TEST(SqlOverWireTest, EndToEnd) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(300 * kMicrosPerWeek);
  DbOptions opts;
  opts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/wire", opts, &db).ok());
  LittleTableServer server(db.get(), 0);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &client).ok());
  ClientBackend backend(client.get(), clock);
  SqlSession session(&backend);

  auto exec = [&](const std::string& stmt) {
    auto result = session.Execute(stmt);
    EXPECT_TRUE(result.ok()) << stmt << " -> " << result.status().ToString();
    return result.ok() ? *result : ResultSet{};
  };

  exec(
      "CREATE TABLE events (name STRING, ts TIMESTAMP, payload BLOB, "
      "PRIMARY KEY (name, ts)) WITH TTL 52w");
  // Timestamps must be within the 52-week TTL of the simulated "now".
  exec("INSERT INTO events VALUES ('assoc', NOW() - 300, x'0102'), "
       "('assoc', NOW() - 100, x'0304'), ('dhcp', NOW() - 200, x'ff')");
  ResultSet rs = exec("SELECT name, COUNT(*) FROM events GROUP BY name");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].bytes(), "assoc");
  EXPECT_EQ(rs.rows[0][1].i64(), 2);
  EXPECT_EQ(rs.rows[1][0].bytes(), "dhcp");

  rs = exec(
      "SELECT payload FROM events WHERE name = 'assoc' AND ts > NOW() - 200");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].bytes(), std::string("\x03\x04", 2));

  server.Stop();
}

}  // namespace
}  // namespace sql
}  // namespace lt
