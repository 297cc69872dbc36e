// Tests for the cursor layer: VectorCursor boundary behavior (the signed
// position invariant) and the MergingCursor tournament heap against a
// brute-force sorted merge over randomized child partitions.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cursor.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

std::vector<Row> Drain(Cursor* c) {
  std::vector<Row> rows;
  while (c->Valid()) {
    c->MaterializeRow(&rows.emplace_back());
    EXPECT_TRUE(c->Next().ok());
  }
  EXPECT_TRUE(c->status().ok());
  return rows;
}

TEST(VectorCursorTest, EmptyVectorAscendingInvalid) {
  Schema s = UsageSchema();
  VectorCursor c(&s, {}, Direction::kAscending);
  EXPECT_FALSE(c.Valid());
  // Next on an exhausted cursor is a harmless no-op, repeatedly.
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(VectorCursorTest, EmptyVectorDescendingInvalid) {
  // Regression: descending over an empty vector starts at pos = -1; a
  // size_t position would wrap to 2^64-1 and read out of bounds.
  Schema s = UsageSchema();
  VectorCursor c(&s, {}, Direction::kDescending);
  EXPECT_FALSE(c.Valid());
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(VectorCursorTest, DescendingIteratesInReverse) {
  Schema s = UsageSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 5; i++) rows.push_back(UsageRow(1, i, 100 + i, 0, 0));
  VectorCursor c(&s, std::move(rows), Direction::kDescending);
  std::vector<Row> got = Drain(&c);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(got[i][1].i64(), 4 - i);
  }
  // Exhausted cursors stay exhausted; Next cannot resurrect them by
  // wrapping the position back into range.
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(c.Next().ok());
    EXPECT_FALSE(c.Valid());
  }
}

TEST(MergingCursorTest, EmptyChildrenSetIsInvalid) {
  Schema s = UsageSchema();
  MergingCursor m(&s, {}, Direction::kAscending);
  EXPECT_FALSE(m.Valid());
  EXPECT_TRUE(m.status().ok());
}

TEST(MergingCursorTest, AllChildrenEmpty) {
  Schema s = UsageSchema();
  std::vector<std::unique_ptr<Cursor>> children;
  for (int i = 0; i < 4; i++) {
    children.push_back(
        std::make_unique<VectorCursor>(&s, std::vector<Row>{}, Direction::kAscending));
  }
  MergingCursor m(&s, std::move(children), Direction::kAscending);
  EXPECT_FALSE(m.Valid());
  EXPECT_TRUE(m.status().ok());
}

// Randomized differential test: deal n distinct keys across k children,
// merge, and compare against the sorted whole. Exercises heap sizes well
// past the handful-of-tablets case, in both directions.
TEST(MergingCursorTest, RandomizedMergeMatchesSort) {
  Schema s = UsageSchema();
  Random rnd(42);
  for (int round = 0; round < 20; round++) {
    const int n = 1 + static_cast<int>(rnd.Uniform(400));
    const int k = 1 + static_cast<int>(rnd.Uniform(17));
    const Direction dir =
        round % 2 == 0 ? Direction::kAscending : Direction::kDescending;

    std::vector<std::vector<Row>> parts(k);
    std::vector<int> devices;
    for (int d = 0; d < n; d++) devices.push_back(d);
    // Unique keys (LittleTable enforces uniqueness at insert): each device
    // number lands in exactly one child.
    for (int d : devices) {
      parts[rnd.Uniform(k)].push_back(UsageRow(d / 50, d % 50, 1000 + d, d, 0));
    }

    std::vector<std::unique_ptr<Cursor>> children;
    for (auto& p : parts) {
      // VectorCursor takes ascending-sorted rows and iterates them in
      // `dir` itself.
      children.push_back(std::make_unique<VectorCursor>(&s, std::move(p), dir));
    }
    MergingCursor m(&s, std::move(children), dir);
    std::vector<Row> got = Drain(&m);

    ASSERT_EQ(got.size(), static_cast<size_t>(n)) << "round=" << round;
    for (int i = 0; i + 1 < n; i++) {
      int cmp = s.CompareKeys(got[i], got[i + 1]);
      if (dir == Direction::kDescending) cmp = -cmp;
      EXPECT_LT(cmp, 0) << "round=" << round << " i=" << i;
    }
  }
}

TEST(MergingCursorTest, SingleChildPassThrough) {
  Schema s = UsageSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 10; i++) rows.push_back(UsageRow(1, i, 100, 0, 0));
  std::vector<std::unique_ptr<Cursor>> children;
  children.push_back(
      std::make_unique<VectorCursor>(&s, std::move(rows), Direction::kAscending));
  MergingCursor m(&s, std::move(children), Direction::kAscending);
  std::vector<Row> got = Drain(&m);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; i++) EXPECT_EQ(got[i][1].i64(), i);
}

}  // namespace
}  // namespace lt
