// Tests for the in-memory tablet: ordered inserts, duplicate rejection,
// bounded cursors, watermarks, and size/timespan accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/memtablet.h"
#include "core/row_codec.h"
#include "tests/test_util.h"

namespace lt {
namespace {

using testutil::EventRow;
using testutil::EventSchema;
using testutil::UsageRow;
using testutil::UsageSchema;

class MemTabletTest : public ::testing::Test {
 protected:
  MemTabletTest()
      : schema_(std::make_shared<const Schema>(UsageSchema())),
        mt_(std::make_shared<MemTablet>(1, schema_, Period{0, kMicrosPerDay},
                                        0)) {}

  // The rows a cursor over `bounds` yields, in its scan order.
  std::vector<Row> Rows(const QueryBounds& bounds,
                        size_t watermark = SIZE_MAX) {
    std::vector<Row> rows;
    MemTabletCursor c(mt_, bounds, watermark, schema_.get(), nullptr);
    for (; c.Valid(); c.Next()) c.MaterializeRow(&rows.emplace_back());
    return rows;
  }

  bool Contains(const Row& row) {
    std::vector<KeyCell> cells;
    KeyOrder(*schema_).CellsOf(schema_->KeyOf(row), &cells);
    return mt_->ContainsKey(cells.data());
  }

  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<MemTablet> mt_;
};

TEST_F(MemTabletTest, InsertAndSnapshotOrdered) {
  ASSERT_TRUE(mt_->Insert(UsageRow(2, 1, 100, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 9, 200, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 2, 300, 0, 0)));
  std::vector<Row> rows = Rows(QueryBounds{});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].i64(), 1);
  EXPECT_EQ(rows[0][1].i64(), 2);
  EXPECT_EQ(rows[1][1].i64(), 9);
  EXPECT_EQ(rows[2][0].i64(), 2);
}

TEST_F(MemTabletTest, DuplicateKeyRejected) {
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 1, 100, 5, 0)));
  EXPECT_FALSE(mt_->Insert(UsageRow(1, 1, 100, 99, 1)));  // Same full key.
  EXPECT_TRUE(mt_->Insert(UsageRow(1, 1, 101, 99, 1)));   // Different ts.
  EXPECT_EQ(mt_->num_rows(), 2u);
}

TEST_F(MemTabletTest, ContainsKey) {
  ASSERT_TRUE(mt_->Insert(UsageRow(3, 4, 500, 0, 0)));
  EXPECT_TRUE(Contains(UsageRow(3, 4, 500, 123, 9.0)));
  EXPECT_FALSE(Contains(UsageRow(3, 4, 501, 0, 0)));
}

TEST_F(MemTabletTest, TimespanTracksMinMax) {
  mt_->Insert(UsageRow(1, 1, 500, 0, 0));
  EXPECT_EQ(mt_->min_ts(), 500);
  EXPECT_EQ(mt_->max_ts(), 500);
  mt_->Insert(UsageRow(1, 2, 100, 0, 0));
  mt_->Insert(UsageRow(1, 3, 900, 0, 0));
  EXPECT_EQ(mt_->min_ts(), 100);
  EXPECT_EQ(mt_->max_ts(), 900);
}

TEST_F(MemTabletTest, ApproximateBytesGrows) {
  size_t before = mt_->ApproximateBytes();
  mt_->Insert(UsageRow(1, 1, 1, 1, 1.0));
  size_t one = mt_->ApproximateBytes();
  EXPECT_GT(one, before);
  for (int i = 2; i <= 100; i++) mt_->Insert(UsageRow(1, i, 1, 1, 1.0));
  EXPECT_GT(mt_->ApproximateBytes(), one * 50);
}

TEST_F(MemTabletTest, SealChargeIsTheDecodedRowFootprint) {
  // The charge is the row's footprint as Values: the vector, one Value per
  // column, and each byte cell's std::string capacity — the inline
  // capacity for short cells, the length for longer ones.
  auto events = std::make_shared<const Schema>(EventSchema());
  MemTablet mt(2, events, Period{0, kMicrosPerDay}, 0);
  const size_t inline_cap = std::string().capacity();
  const size_t fixed = sizeof(Row) + 3 * sizeof(Value);
  ASSERT_TRUE(mt.Insert(EventRow("a", 1, "")));
  EXPECT_EQ(mt.ApproximateBytes(), fixed + 2 * inline_cap);
  const std::string long_name(inline_cap + 9, 'n');
  const std::string long_blob(inline_cap + 40, 'b');
  ASSERT_TRUE(mt.Insert(EventRow(long_name, 2, long_blob)));
  EXPECT_EQ(mt.ApproximateBytes(), 2 * fixed + 2 * inline_cap +
                                       long_name.size() + long_blob.size());
}

TEST_F(MemTabletTest, MalformedEncodingRejected) {
  std::string enc;
  EncodeRow(&enc, *schema_, UsageRow(1, 2, 3, 4, 5.0));
  EXPECT_FALSE(mt_->InsertEncoded(Slice(enc.data(), enc.size() - 1)));
  EXPECT_FALSE(mt_->InsertEncoded(enc + "x"));  // Trailing bytes.
  // A non-canonical varint (0 as two bytes) would make equal keys differ
  // in their bytes.
  std::string padded = std::string("\x82\x00", 2) + enc.substr(1);
  EXPECT_FALSE(mt_->InsertEncoded(padded));
  EXPECT_EQ(mt_->num_rows(), 0u);
  EXPECT_TRUE(mt_->InsertEncoded(enc));
}

TEST_F(MemTabletTest, SnapshotRespectsKeyBounds) {
  for (int net = 0; net < 5; net++) {
    for (int dev = 0; dev < 10; dev++) {
      ASSERT_TRUE(mt_->Insert(UsageRow(net, dev, 100 + dev, 0, 0)));
    }
  }
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(2)});
  std::vector<Row> rows = Rows(b);
  ASSERT_EQ(rows.size(), 10u);
  for (const Row& r : rows) EXPECT_EQ(r[0].i64(), 2);

  // Exclusive min bound.
  QueryBounds b2;
  b2.min_key = KeyBound{{Value::Int64(2), Value::Int64(4)}, false};
  b2.max_key = KeyBound{{Value::Int64(2)}, true};
  rows = Rows(b2);
  ASSERT_EQ(rows.size(), 5u);  // Devices 5..9.
  EXPECT_EQ(rows.front()[1].i64(), 5);

  // Exclusive max bound.
  QueryBounds b3;
  b3.min_key = KeyBound{{Value::Int64(3)}, true};
  b3.max_key = KeyBound{{Value::Int64(3), Value::Int64(2)}, false};
  rows = Rows(b3);
  ASSERT_EQ(rows.size(), 2u);  // Devices 0, 1.

  // The same bounds descending: the same rows, reversed.
  for (QueryBounds bounds : {b, b2, b3}) {
    std::vector<Row> up = Rows(bounds);
    bounds.direction = Direction::kDescending;
    std::vector<Row> down = Rows(bounds);
    std::reverse(down.begin(), down.end());
    ASSERT_EQ(down.size(), up.size());
    for (size_t i = 0; i < up.size(); i++) {
      EXPECT_EQ(schema_->CompareKeys(up[i], down[i]), 0);
    }
  }
}

TEST_F(MemTabletTest, SnapshotIgnoresTimestampDimension) {
  // The cursor filters keys only; ts filtering happens downstream (§3.2).
  mt_->Insert(UsageRow(1, 1, 100, 0, 0));
  mt_->Insert(UsageRow(1, 2, 999999, 0, 0));
  QueryBounds b;
  b.min_ts = 500;
  EXPECT_EQ(Rows(b).size(), 2u);
}

TEST_F(MemTabletTest, CursorSeesOnlyRowsBelowItsWatermark) {
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 5, 10, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 1, 10, 0, 0)));
  const size_t watermark = mt_->num_rows();
  MemTabletCursor before(mt_, QueryBounds{}, watermark, schema_.get(), nullptr);
  // Inserted after the watermark: before, between and after the two rows.
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 0, 10, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 3, 10, 0, 0)));
  ASSERT_TRUE(mt_->Insert(UsageRow(1, 9, 10, 0, 0)));
  std::vector<int64_t> devices;
  for (; before.Valid(); before.Next()) devices.push_back(before.key()[1].i);
  EXPECT_EQ(devices, (std::vector<int64_t>{1, 5}));
  QueryBounds down;
  down.direction = Direction::kDescending;
  std::vector<Row> rows = Rows(down, watermark);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].i64(), 5);
  EXPECT_EQ(Rows(QueryBounds{}).size(), 5u);
}

TEST_F(MemTabletTest, SealMakesReadOnlyFlag) {
  EXPECT_FALSE(mt_->sealed());
  mt_->Seal();
  EXPECT_TRUE(mt_->sealed());
}

TEST_F(MemTabletTest, MaxKeyRow) {
  mt_->Insert(UsageRow(1, 5, 10, 0, 0));
  mt_->Insert(UsageRow(4, 0, 5, 0, 0));
  mt_->Insert(UsageRow(2, 9, 20, 0, 0));
  QueryBounds down;
  down.direction = Direction::kDescending;
  EXPECT_EQ(Rows(down).front()[0].i64(), 4);
}

TEST_F(MemTabletTest, AllRowsAscending) {
  for (int i = 100; i > 0; i--) {
    ASSERT_TRUE(mt_->Insert(UsageRow(1, i, 50, 0, 0)));
  }
  std::vector<Row> rows = Rows(QueryBounds{});
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(schema_->CompareKeys(rows[i - 1], rows[i]), 0);
  }
}

}  // namespace
}  // namespace lt
