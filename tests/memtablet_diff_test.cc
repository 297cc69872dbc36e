// The memtablet against a std::set model, over seeded random insert
// sequences. Its series tails (the newest row of each key prefix) let a row
// newer than its series skip the skiplist searches in InsertEncoded and
// ContainsKey; every answer must still be the model's. A sequence mixes
// rows newer than their series (the tail path), rows of new series,
// out-of-order rows and exact duplicates, over key prefixes of each key
// type, two-column prefixes, and a ts-only key (one series). Thousands of
// inserts per run give nodes of every height, so the tail path links both
// height-1 nodes (no search) and taller ones (a search for the upper
// levels). The sanitizer CI job runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/memtablet.h"
#include "core/row_codec.h"
#include "util/random.h"

namespace lt {
namespace {

struct KeyLess {
  const Schema* schema;
  bool operator()(const Row& a, const Row& b) const {
    return schema->CompareKeys(a, b) < 0;
  }
};

// A schema whose key is `prefix` then ts, with one int64 value column.
Schema PrefixSchema(const std::vector<ColumnType>& prefix) {
  std::vector<Column> cols;
  for (size_t c = 0; c < prefix.size(); c++) {
    cols.emplace_back("k" + std::to_string(c), prefix[c]);
  }
  cols.emplace_back("ts", ColumnType::kTimestamp);
  cols.emplace_back("v", ColumnType::kInt64);
  return Schema(std::move(cols), prefix.size() + 1);
}

// A random cell of `type`: small pools so series share leading cells, with
// the extremes, empty and multi-word strings, and high and zero bytes.
Value RandomCell(Random* rnd, ColumnType type) {
  switch (type) {
    case ColumnType::kInt32: {
      static const int32_t kEdge[] = {std::numeric_limits<int32_t>::min(), -1,
                                      0, std::numeric_limits<int32_t>::max()};
      if (rnd->Uniform(8) == 0) return Value::Int32(kEdge[rnd->Uniform(4)]);
      return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-50, 50)));
    }
    case ColumnType::kInt64: {
      static const int64_t kEdge[] = {std::numeric_limits<int64_t>::min(), -1,
                                      0, std::numeric_limits<int64_t>::max()};
      if (rnd->Uniform(8) == 0) return Value::Int64(kEdge[rnd->Uniform(4)]);
      return Value::Int64(rnd->UniformRange(-50, 50) * 1000003);
    }
    default: {
      std::string s;
      const size_t len = rnd->Uniform(10) == 0 ? 0 : rnd->Uniform(20);
      for (size_t i = 0; i < len; i++) {
        // Few distinct bytes, so strings share prefixes and differ late.
        static const char kBytes[] = {'a', 'b', '\0', '\xff', '\x80'};
        s.push_back(kBytes[rnd->Uniform(sizeof(kBytes))]);
      }
      return type == ColumnType::kString ? Value::String(s) : Value::Blob(s);
    }
  }
}

class MemTabletDiff {
 public:
  explicit MemTabletDiff(const Schema& schema)
      : schema_(std::make_shared<const Schema>(schema)),
        order_(*schema_),
        mt_(std::make_shared<MemTablet>(1, schema_, Period{0, kMicrosPerDay},
                                        0)),
        model_(KeyLess{schema_.get()}) {}

  // Checks ContainsKey against the model, then inserts and checks the
  // answer and that the key is then present.
  void Insert(const Row& row) {
    const bool present = model_.count(row) > 0;
    ASSERT_EQ(Contains(row), present) << Describe(row);
    std::string enc;
    EncodeRow(&enc, *schema_, row);
    ASSERT_EQ(mt_->InsertEncoded(enc), !present) << Describe(row);
    if (!present) model_.insert(row);
    ASSERT_TRUE(Contains(row)) << Describe(row);
  }

  bool Contains(const Row& row) const {
    std::vector<KeyCell> cells;
    const Key key = schema_->KeyOf(row);
    order_.CellsOf(key, &cells);
    return mt_->ContainsKey(cells.data());
  }

  // Every row, in both directions, and the row count and timespan.
  void CheckScan() const {
    ASSERT_EQ(mt_->num_rows(), model_.size());
    std::vector<Row> want(model_.begin(), model_.end());
    if (!want.empty()) {
      Timestamp lo = want[0][schema_->ts_index()].i64(), hi = lo;
      for (const Row& r : want) {
        lo = std::min(lo, r[schema_->ts_index()].i64());
        hi = std::max(hi, r[schema_->ts_index()].i64());
      }
      EXPECT_EQ(mt_->min_ts(), lo);
      EXPECT_EQ(mt_->max_ts(), hi);
    }
    for (Direction d : {Direction::kAscending, Direction::kDescending}) {
      QueryBounds bounds;
      bounds.direction = d;
      std::vector<Row> got;
      MemTabletCursor c(mt_, bounds, SIZE_MAX, schema_.get(), nullptr);
      for (; c.Valid(); c.Next()) c.MaterializeRow(&got.emplace_back());
      if (d == Direction::kDescending) std::reverse(got.begin(), got.end());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(got[i], want[i]) << "row " << i << ": " << Describe(got[i])
                                   << " vs " << Describe(want[i]);
      }
    }
  }

  std::string Describe(const Row& row) const {
    std::string out = "(";
    for (size_t c = 0; c < row.size(); c++) {
      if (c > 0) out += ", ";
      out += row[c].ToString(schema_->columns()[c].type);
    }
    return out + ")";
  }

  const std::set<Row, KeyLess>& model() const { return model_; }

 private:
  std::shared_ptr<const Schema> schema_;
  KeyOrder order_;
  std::shared_ptr<MemTablet> mt_;
  std::set<Row, KeyLess> model_;
};

// One seeded sequence of `ops` inserts over up to `max_series` series.
void RunSequence(const std::vector<ColumnType>& prefix, uint64_t seed,
                 int ops, size_t max_series) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  MemTabletDiff diff(PrefixSchema(prefix));
  Random rnd(seed);
  struct Series {
    std::vector<Value> prefix;
    Timestamp newest;
  };
  std::vector<Series> series;
  auto row_of = [&](const Series& s, Timestamp ts, int64_t v) {
    Row row = s.prefix;
    row.push_back(Value::Ts(ts));
    row.push_back(Value::Int64(v));
    return row;
  };
  for (int op = 0; op < ops; op++) {
    const uint64_t pick = rnd.Uniform(100);
    Row row;
    if (series.empty() || (pick < 8 && series.size() < max_series)) {
      // A row of a series that may be new (or may, by chance, exist).
      Series s{{}, 0};
      for (ColumnType t : prefix) s.prefix.push_back(RandomCell(&rnd, t));
      s.newest = static_cast<Timestamp>(rnd.Uniform(1000000));
      row = row_of(s, s.newest, op);
      series.push_back(s);
    } else {
      Series& s = series[rnd.Uniform(series.size())];
      if (pick < 75) {
        // Newer than the series' newest row: the tail path.
        s.newest += 1 + static_cast<Timestamp>(rnd.Uniform(3));
        row = row_of(s, s.newest, op);
      } else if (pick < 90) {
        // Out of order: at or before the newest row (may be a duplicate).
        const uint64_t ts = rnd.Uniform(static_cast<uint64_t>(s.newest) + 1);
        row = row_of(s, static_cast<Timestamp>(ts), op);
      } else if (!diff.model().empty()) {
        // An exact duplicate of a stored row, with a different value.
        auto it = diff.model().begin();
        std::advance(it, rnd.Uniform(diff.model().size()));
        row = *it;
        row.back() = Value::Int64(-op);
      } else {
        continue;
      }
    }
    diff.Insert(row);
    if (testing::Test::HasFatalFailure()) return;
    if (rnd.Uniform(3) == 0) {
      // A lookup alone, of a key just past a series' newest row (two
      // entries may share a prefix, so the key may exist all the same).
      const Series& s = series[rnd.Uniform(series.size())];
      const Row probe = row_of(s, s.newest + 1, 0);
      ASSERT_EQ(diff.Contains(probe), diff.model().count(probe) > 0);
    }
    if (op % 997 == 0) {
      diff.CheckScan();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  diff.CheckScan();
}

TEST(MemTabletDiffTest, Int64Prefix) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    RunSequence({ColumnType::kInt64}, seed, 4000, 300);
  }
}

TEST(MemTabletDiffTest, Int32Prefix) {
  for (uint64_t seed = 11; seed <= 16; seed++) {
    RunSequence({ColumnType::kInt32}, seed, 4000, 300);
  }
}

TEST(MemTabletDiffTest, StringPrefix) {
  for (uint64_t seed = 21; seed <= 26; seed++) {
    RunSequence({ColumnType::kString}, seed, 4000, 300);
  }
}

TEST(MemTabletDiffTest, BlobPrefix) {
  for (uint64_t seed = 31; seed <= 36; seed++) {
    RunSequence({ColumnType::kBlob}, seed, 4000, 300);
  }
}

TEST(MemTabletDiffTest, TwoColumnPrefixes) {
  // The paper's (network, device, ts) shape and mixed byte/integer cells.
  RunSequence({ColumnType::kInt64, ColumnType::kInt64}, 41, 6000, 2000);
  RunSequence({ColumnType::kString, ColumnType::kInt32}, 42, 6000, 2000);
  RunSequence({ColumnType::kInt64, ColumnType::kBlob}, 43, 6000, 2000);
}

TEST(MemTabletDiffTest, TsOnlyKeyIsOneSeries) {
  for (uint64_t seed = 51; seed <= 54; seed++) {
    RunSequence({}, seed, 4000, 1);
  }
}

TEST(MemTabletDiffTest, ManySeriesGrowTheTailTable) {
  // Each series gets a row or two: the tail table grows many times while
  // every earlier series must still find its tail.
  MemTabletDiff diff(PrefixSchema({ColumnType::kInt64}));
  for (int round = 0; round < 2; round++) {
    for (int64_t dev = 0; dev < 5000; dev++) {
      diff.Insert({Value::Int64(dev * 7919 % 5003), Value::Ts(100 + round),
                   Value::Int64(dev)});
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  diff.CheckScan();
}

}  // namespace
}  // namespace lt
