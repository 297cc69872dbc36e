// Differential test for the SQL surface: random SELECTs run through
// SqlSession over both backends — DbBackend on the embedded DB, and
// ClientBackend through a loopback server on the same DB — and each answer
// must equal a brute-force evaluation of the statement over a
// std::vector<Row> model of the table.
//
// Tables: seeded random schemas with one or two int64/int32/string key
// columns before ts and one to three int64/int32/double/string values. The
// rows go in three rounds: the first two are flushed to tablets, the last
// stays in memtablets, and every round revisits the same devices, so scans
// merge tablets with memtablets. A small row cap (§3.5) makes every
// backend page through QueryAllPages.
//
// Statements: plain projections (`*`, column lists with repeats) or
// aggregates (COUNT(*), COUNT, SUM, AVG, MIN, MAX) with GROUP BY over a
// leading key run; WHERE conjunctions with =, !=, <, <=, >, >= on key, ts
// and value columns, often several on ts; ORDER BY KEY DESC; LIMIT. The
// model filters rows one condition at a time, so it holds no bounding-box
// planning of its own to share a mistake with the executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "env/mem_env.h"
#include "net/server.h"
#include "sql/executor.h"
#include "util/random.h"

namespace lt {
namespace sql {
namespace {

constexpr Timestamp kBaseTs = 300 * kMicrosPerWeek;
// Polls 20 minutes apart over 12 hours: three 4-hour time bins.
constexpr int kPolls = 36;
constexpr Timestamp kPollGap = 20 * 60 * kMicrosPerSecond;

const char* const kStrings[] = {"", "a", "ab", "b", "sw3", "zz"};

Value RandomCell(Random* rnd, ColumnType t) {
  switch (t) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-4, 4)));
    case ColumnType::kInt64:
      return Value::Int64(rnd->UniformRange(-1000, 1000));
    case ColumnType::kTimestamp:
      return Value::Ts(kBaseTs +
                       rnd->UniformRange(-1, kPolls) * kPollGap +
                       (rnd->Bernoulli(0.2) ? rnd->UniformRange(-1, 1) : 0));
    case ColumnType::kDouble:
      return Value::Double(static_cast<double>(rnd->UniformRange(-400, 400)) /
                           4.0);
    case ColumnType::kString:
    case ColumnType::kBlob:
      return Value::String(kStrings[rnd->Uniform(6)]);
  }
  return Value();
}

// A key-column cell: small domains, so groups hold several rows.
Value RandomKeyCell(Random* rnd, ColumnType t) {
  switch (t) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-2, 2)));
    case ColumnType::kInt64:
      return Value::Int64(rnd->UniformRange(-2, 2));
    default:
      return Value::String(kStrings[rnd->Uniform(6)]);
  }
}

// The SQL literal for `v` as a cell of type `t`.
std::string Literal(const Value& v, ColumnType t) {
  char buf[64];
  switch (t) {
    case ColumnType::kDouble:
      snprintf(buf, sizeof(buf), "%.2f", v.dbl());
      return buf;
    case ColumnType::kString:
    case ColumnType::kBlob:
      return "'" + v.bytes() + "'";
    default:
      return std::to_string(v.AsInt());
  }
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_i32() != b.is_i32() || a.is_i64() != b.is_i64() ||
      a.is_double() != b.is_double() || a.is_bytes() != b.is_bytes()) {
    return false;
  }
  return a.Compare(b) == 0;
}

std::string Render(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); i++) {
    if (i) out += ", ";
    const Value& v = row[i];
    if (v.is_bytes()) out += "'" + v.bytes() + "'";
    else if (v.is_double()) out += std::to_string(v.dbl());
    else out += (v.is_i32() ? "i32:" : "") + std::to_string(v.AsInt());
  }
  return out + ")";
}

// Key columns: one or two of int64/int32/string, then ts. Values: one to
// three of int64/int32/double/string.
Schema RandomSchema(Random* rnd) {
  static const ColumnType kKeyTypes[] = {ColumnType::kInt64, ColumnType::kInt32,
                                         ColumnType::kString};
  static const ColumnType kValueTypes[] = {
      ColumnType::kInt64, ColumnType::kInt32, ColumnType::kDouble,
      ColumnType::kString};
  std::vector<Column> cols;
  const size_t nkeys = 1 + rnd->Uniform(2);
  for (size_t i = 0; i < nkeys; i++) {
    cols.emplace_back("k" + std::to_string(i), kKeyTypes[rnd->Uniform(3)]);
  }
  cols.emplace_back("ts", ColumnType::kTimestamp);
  const size_t nvalues = 1 + rnd->Uniform(3);
  for (size_t i = 0; i < nvalues; i++) {
    cols.emplace_back("v" + std::to_string(i), kValueTypes[rnd->Uniform(4)]);
  }
  return Schema(std::move(cols), nkeys + 1);
}

// ---- The model. ----

struct Cond {
  size_t column;
  CompareOp op;
  Value value;
};

struct Item {
  AggFunc func = AggFunc::kNone;
  int column = -1;  // -1: `*` (plain) or COUNT(*).
};

struct Query {
  std::string sql;
  std::vector<Item> items;
  std::vector<Cond> conds;
  size_t group_by = 0;  // Leading key columns grouped on.
  bool aggregate = false;
  bool descending = false;
  uint64_t limit = 0;
};

bool Passes(const Row& row, const std::vector<Cond>& conds) {
  for (const Cond& c : conds) {
    const int cmp = row[c.column].Compare(c.value);
    bool ok = false;
    switch (c.op) {
      case CompareOp::kEq: ok = cmp == 0; break;
      case CompareOp::kNe: ok = cmp != 0; break;
      case CompareOp::kLt: ok = cmp < 0; break;
      case CompareOp::kLe: ok = cmp <= 0; break;
      case CompareOp::kGt: ok = cmp > 0; break;
      case CompareOp::kGe: ok = cmp >= 0; break;
    }
    if (!ok) return false;
  }
  return true;
}

// One aggregate over `rows` (one group, in scan order).
Value Aggregate(const Schema& schema, const Item& item,
                const std::vector<const Row*>& rows) {
  if (item.func == AggFunc::kCount) {
    return Value::Int64(static_cast<int64_t>(rows.size()));
  }
  const ColumnType t = schema.columns()[item.column].type;
  if (item.func == AggFunc::kMin || item.func == AggFunc::kMax) {
    if (rows.empty()) return DefaultValueFor(t);
    const Value* best = &(*rows[0])[item.column];
    for (const Row* r : rows) {
      const int cmp = (*r)[item.column].Compare(*best);
      if (item.func == AggFunc::kMin ? cmp < 0 : cmp > 0) {
        best = &(*r)[item.column];
      }
    }
    return *best;
  }
  int64_t int_sum = 0;
  double dbl_sum = 0;
  for (const Row* r : rows) {
    if (t == ColumnType::kDouble) dbl_sum += (*r)[item.column].dbl();
    else int_sum += (*r)[item.column].AsInt();
  }
  const double total =
      t == ColumnType::kDouble ? dbl_sum : static_cast<double>(int_sum);
  if (item.func == AggFunc::kAvg) {
    return Value::Double(rows.empty() ? 0.0 : total / rows.size());
  }
  return t == ColumnType::kDouble ? Value::Double(dbl_sum)
                                  : Value::Int64(int_sum);
}

// The statement's answer over the key-sorted `model`.
std::vector<Row> Evaluate(const Schema& schema, const std::vector<Row>& model,
                          const Query& q) {
  std::vector<const Row*> scan;
  for (const Row& row : model) {
    if (Passes(row, q.conds)) scan.push_back(&row);
  }
  if (q.descending) std::reverse(scan.begin(), scan.end());
  std::vector<Row> out;
  if (!q.aggregate) {
    for (const Row* row : scan) {
      if (q.limit > 0 && out.size() == q.limit) break;
      Row projected;
      for (const Item& item : q.items) {
        if (item.column >= 0) {
          projected.push_back((*row)[item.column]);
        } else {
          projected.insert(projected.end(), row->begin(), row->end());
        }
      }
      out.push_back(std::move(projected));
    }
    return out;
  }
  // Groups: runs of rows equal on the first `group_by` columns.
  std::vector<std::vector<const Row*>> groups;
  for (const Row* row : scan) {
    bool same = !groups.empty();
    for (size_t c = 0; same && c < q.group_by; c++) {
      same = (*row)[c].Compare((*groups.back().front())[c]) == 0;
    }
    if (same) groups.back().push_back(row);
    else groups.push_back({row});
  }
  if (q.group_by == 0 && groups.empty()) groups.emplace_back();
  for (const std::vector<const Row*>& group : groups) {
    if (q.limit > 0 && out.size() == q.limit) break;
    Row result;
    for (const Item& item : q.items) {
      result.push_back(item.func == AggFunc::kNone
                           ? (*group.front())[item.column]
                           : Aggregate(schema, item, group));
    }
    out.push_back(std::move(result));
  }
  return out;
}

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* FuncText(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kNone: break;
  }
  return "";
}

// A random SELECT and its model form.
Query RandomQuery(Random* rnd, const std::string& table, const Schema& schema,
                  const std::vector<Row>& model) {
  const std::vector<Column>& cols = schema.columns();
  const size_t nkeys = schema.num_key_columns();
  const size_t ts = schema.ts_index();
  Query q;
  q.aggregate = rnd->Bernoulli(0.6);
  std::string items;
  auto add_item = [&](const std::string& text) {
    items += (items.empty() ? "" : ", ") + text;
  };
  if (q.aggregate) {
    q.group_by = rnd->Uniform(nkeys + 1);
    // Group columns, some of them, in any order and possibly repeated.
    for (size_t c = 0; c < q.group_by; c++) {
      if (rnd->Bernoulli(0.7)) {
        q.items.push_back({AggFunc::kNone, static_cast<int>(c)});
      }
    }
    if (!q.items.empty() && rnd->Bernoulli(0.2)) q.items.push_back(q.items[0]);
    const size_t naggs = 1 + rnd->Uniform(4);
    for (size_t i = 0; i < naggs; i++) {
      static const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,
                                       AggFunc::kMin, AggFunc::kMax,
                                       AggFunc::kAvg};
      Item item{kFuncs[rnd->Uniform(5)], static_cast<int>(
                                             rnd->Uniform(cols.size()))};
      const ColumnType t = cols[item.column].type;
      if ((item.func == AggFunc::kSum || item.func == AggFunc::kAvg) &&
          t == ColumnType::kString) {
        item.func = AggFunc::kMax;
      }
      if (item.func == AggFunc::kCount && rnd->Bernoulli(0.5)) {
        item.column = -1;
      }
      q.items.push_back(item);
    }
    for (size_t i = q.items.size(); i > 1; i--) {
      std::swap(q.items[i - 1], q.items[rnd->Uniform(i)]);
    }
    for (const Item& item : q.items) {
      if (item.func == AggFunc::kNone) {
        add_item(cols[item.column].name);
      } else {
        add_item(std::string(FuncText(item.func)) + "(" +
                 (item.column < 0 ? "*" : cols[item.column].name) + ")");
      }
    }
  } else {
    const size_t nitems = 1 + rnd->Uniform(4);
    for (size_t i = 0; i < nitems; i++) {
      Item item;
      if (!rnd->Bernoulli(0.25)) {
        item.column = static_cast<int>(rnd->Uniform(cols.size()));
      }
      q.items.push_back(item);
      add_item(item.column < 0 ? "*" : cols[item.column].name);
    }
  }

  // WHERE: key, value and (often several) ts conditions. Literals are
  // drawn from the table's own cells half the time, so equalities hit.
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  std::string where;
  const size_t nconds = rnd->Uniform(5);
  for (size_t i = 0; i < nconds; i++) {
    size_t column;
    switch (rnd->Uniform(3)) {
      case 0: column = ts; break;
      case 1: column = rnd->Uniform(nkeys); break;
      default: column = rnd->Uniform(cols.size()); break;
    }
    const ColumnType t = cols[column].type;
    Cond c{column, kOps[rnd->Uniform(6)], Value()};
    if (!model.empty() && rnd->Bernoulli(0.5)) {
      c.value = model[rnd->Uniform(model.size())][column];
    } else {
      c.value = column < nkeys - 1 ? RandomKeyCell(rnd, t) : RandomCell(rnd, t);
    }
    where += std::string(where.empty() ? " WHERE " : " AND ") +
             cols[column].name + " " + OpText(c.op) + " " + Literal(c.value, t);
    q.conds.push_back(std::move(c));
  }
  q.descending = rnd->Bernoulli(0.3);
  if (rnd->Bernoulli(0.3)) q.limit = 1 + rnd->Uniform(12);

  q.sql = "SELECT " + items + " FROM " + table + where;
  if (q.aggregate && q.group_by > 0) {
    q.sql += " GROUP BY ";
    for (size_t c = 0; c < q.group_by; c++) {
      q.sql += (c ? ", " : "") + cols[c].name;
    }
  }
  if (q.descending) q.sql += " ORDER BY KEY DESC";
  if (q.limit > 0) q.sql += " LIMIT " + std::to_string(q.limit);
  return q;
}

// ---- The harness. ----

class SqlDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(kBaseTs + kPolls * kPollGap);
    DbOptions opts;
    opts.background_maintenance = false;
    // A row cap well under every table's size: each statement pages.
    opts.table_defaults.server_row_limit = 37;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/sqldiff", opts, &db_).ok());
    server_ = std::make_unique<LittleTableServer>(db_.get(), 0);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(Client::Connect("127.0.0.1", server_->port(), &client_).ok());
    db_backend_ = std::make_unique<DbBackend>(db_.get());
    client_backend_ = std::make_unique<ClientBackend>(client_.get(), clock_);
  }

  void TearDown() override {
    client_.reset();
    if (server_) server_->Stop();
  }

  // Fills a fresh table with `schema`'s random rows in three rounds (two
  // flushed, one left in memtablets) and returns them key-sorted.
  std::vector<Row> Load(Random* rnd, const std::string& table,
                        const Schema& schema) {
    EXPECT_TRUE(db_backend_->CreateTable(table, schema, 0).ok());
    const size_t nkeys = schema.num_key_columns();
    std::vector<Key> series;
    for (int i = 0, n = 3 + static_cast<int>(rnd->Uniform(10)); i < n; i++) {
      Key prefix;
      for (size_t c = 0; c + 1 < nkeys; c++) {
        prefix.push_back(RandomKeyCell(rnd, schema.columns()[c].type));
      }
      series.push_back(std::move(prefix));
    }
    std::vector<Row> model;
    for (int round = 0; round < 3; round++) {
      std::vector<Row> batch;
      for (const Key& prefix : series) {
        for (int p = round; p < kPolls; p += 3) {
          if (rnd->Bernoulli(0.3)) continue;
          Row row = prefix;
          row.push_back(Value::Ts(kBaseTs + p * kPollGap));
          for (size_t c = nkeys; c < schema.num_columns(); c++) {
            row.push_back(RandomCell(rnd, schema.columns()[c].type));
          }
          // Two series may share a prefix: keep each key once.
          const bool dup = std::any_of(
              model.begin(), model.end(), [&](const Row& r) {
                return schema.CompareKeys(r, row) == 0;
              });
          if (dup) continue;
          model.push_back(row);
          batch.push_back(std::move(row));
        }
      }
      EXPECT_TRUE(db_backend_->Insert(table, batch).ok());
      if (round < 2) {
        EXPECT_TRUE(
            db_backend_->FlushThrough(table, kBaseTs + kPolls * kPollGap)
                .ok());
      }
    }
    std::sort(model.begin(), model.end(), [&](const Row& a, const Row& b) {
      return schema.CompareKeys(a, b) < 0;
    });
    return model;
  }

  // Runs `q` through `backend` and compares it with the model's answer.
  void Check(SqlBackend* backend, const char* name, const Query& q,
             const std::vector<Row>& want) {
    SqlSession session(backend);
    Result<ResultSet> got = session.Execute(q.sql);
    ASSERT_TRUE(got.ok()) << name << ": " << q.sql << " -> "
                          << got.status().ToString();
    const std::vector<Row>& rows = got->rows;
    bool same = rows.size() == want.size();
    for (size_t i = 0; same && i < rows.size(); i++) {
      same = rows[i].size() == want[i].size();
      for (size_t c = 0; same && c < rows[i].size(); c++) {
        same = SameValue(rows[i][c], want[i][c]);
      }
    }
    if (!same) {
      std::string diff;
      for (size_t i = 0; i < std::max(rows.size(), want.size()); i++) {
        diff += "\n  got " + (i < rows.size() ? Render(rows[i]) : "-") +
                "  want " + (i < want.size() ? Render(want[i]) : "-");
      }
      FAIL() << name << ": " << q.sql << diff;
    }
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<DbBackend> db_backend_;
  std::unique_ptr<ClientBackend> client_backend_;
};

TEST_F(SqlDiffTest, RandomSelectsMatchTheModel) {
  // Coverage: the generator must not drift into empty answers.
  int queries = 0, nonempty = 0, multi_group = 0;
  for (uint64_t seed = 1; seed <= 12; seed++) {
    // A table per seed: a client's cached schema never meets a table
    // recreated under the same name.
    const std::string table = "diff" + std::to_string(seed);
    Random rnd(seed * 7919);
    const Schema schema = RandomSchema(&rnd);
    const std::vector<Row> model = Load(&rnd, table, schema);
    if (HasFailure()) return;
    for (int i = 0; i < 150; i++) {
      const Query q = RandomQuery(&rnd, table, schema, model);
      const std::vector<Row> want = Evaluate(schema, model, q);
      queries++;
      nonempty += !want.empty();
      multi_group += q.aggregate && q.group_by > 0 && want.size() > 1;
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(i));
      Check(db_backend_.get(), "embedded", q, want);
      Check(client_backend_.get(), "client", q, want);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(nonempty, queries / 2);
  EXPECT_GT(multi_group, queries / 10);
}

// The dashboard's statement shape (§4): per-device sums over a time window
// of one network, against sums computed from the model.
TEST_F(SqlDiffTest, PerDeviceSumsMatchTheModel) {
  const Schema schema({Column("network", ColumnType::kInt64),
                       Column("device", ColumnType::kInt64),
                       Column("ts", ColumnType::kTimestamp),
                       Column("rx", ColumnType::kInt64),
                       Column("tx", ColumnType::kInt64)},
                      3);
  Random rnd(42);
  const std::vector<Row> model = Load(&rnd, "usage", schema);
  ASSERT_FALSE(HasFailure());
  for (int i = 0; i < 40; i++) {
    const Value network = RandomKeyCell(&rnd, ColumnType::kInt64);
    const Value from = RandomCell(&rnd, ColumnType::kTimestamp);
    Query q;
    q.aggregate = true;
    q.group_by = 2;
    q.items = {{AggFunc::kNone, 0},
               {AggFunc::kNone, 1},
               {AggFunc::kSum, 3},
               {AggFunc::kCount, -1}};
    q.conds = {{0, CompareOp::kEq, network}, {2, CompareOp::kGe, from}};
    q.sql = "SELECT network, device, SUM(rx), COUNT(*) FROM usage "
            "WHERE network = " + std::to_string(network.AsInt()) +
            " AND ts >= " + std::to_string(from.AsInt()) +
            " GROUP BY network, device";
    const std::vector<Row> want = Evaluate(schema, model, q);
    Check(db_backend_.get(), "embedded", q, want);
    Check(client_backend_.get(), "client", q, want);
    ASSERT_FALSE(HasFailure());
  }
}

}  // namespace
}  // namespace sql
}  // namespace lt
