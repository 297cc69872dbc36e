// Tests for the Table engine: inserts, 2-D bounded queries, TTL aging,
// uniqueness fast paths, flush-dependency durability, merging, latest-row
// queries, schema evolution, limits/pagination, and crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/db.h"
#include "core/descriptor.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "tests/test_util.h"
#include "tests/v1_fixture.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/logger.h"
#include "util/random.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    ResetOptions();
    Recreate();
  }

  void ResetOptions() {
    opts_ = TableOptions();
    opts_.merge.min_tablet_age = 0;
    opts_.merge.rollover_delay_frac = 0;
  }

  void Recreate(const Schema& schema = UsageSchema()) {
    table_.reset();
    Table::Destroy(&env_, "/db/usage");
    ASSERT_TRUE(Table::Create(&env_, clock_, "/db/usage", "usage", schema,
                              opts_, &table_)
                    .ok());
  }

  void Reopen() {
    table_.reset();
    ASSERT_TRUE(
        Table::Open(&env_, clock_, "/db/usage", opts_, &table_).ok());
  }

  Timestamp Now() const { return clock_->Now(); }

  Status Insert(int64_t net, int64_t dev, Timestamp ts, int64_t bytes = 0) {
    return table_->InsertBatch({UsageRow(net, dev, ts, bytes, 0.0)});
  }

  std::vector<Row> Query(const QueryBounds& b) {
    QueryResult result;
    Status s = table_->Query(b, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return result.rows;
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  TableOptions opts_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertAndQueryFromMemory) {
  ASSERT_TRUE(Insert(1, 1, Now(), 10).ok());
  ASSERT_TRUE(Insert(1, 2, Now() + 1, 20).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][3].i64(), 10);
  EXPECT_EQ(rows[1][3].i64(), 20);
}

TEST_F(TableTest, QueryAfterFlushAndMixedMemoryDisk) {
  ASSERT_TRUE(Insert(1, 1, Now(), 10).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->NumMemTablets(), 0u);
  ASSERT_TRUE(Insert(1, 2, Now() + 1, 20).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].i64(), 1);
  EXPECT_EQ(rows[1][1].i64(), 2);
}

TEST_F(TableTest, TwoDimensionalBoundingBox) {
  // The Figure 1 rectangle: key range x time range.
  Timestamp t0 = Now();
  for (int net = 0; net < 4; net++) {
    for (int dev = 0; dev < 4; dev++) {
      for (int m = 0; m < 10; m++) {
        ASSERT_TRUE(Insert(net, dev, t0 + m * kMicrosPerMinute, m).ok());
      }
    }
  }
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(2)});
  b.min_ts = t0 + 3 * kMicrosPerMinute;
  b.max_ts = t0 + 6 * kMicrosPerMinute;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 4u * 4u);  // 4 devices x minutes 3..6.
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].i64(), 2);
    EXPECT_GE(r[2].AsInt(), b.min_ts);
    EXPECT_LE(r[2].AsInt(), b.max_ts);
  }
}

TEST_F(TableTest, ExclusiveTimestampBounds) {
  Timestamp t0 = Now();
  for (int m = 0; m < 5; m++) ASSERT_TRUE(Insert(1, 1, t0 + m, m).ok());
  QueryBounds b;
  b.min_ts = t0 + 1;
  b.min_ts_inclusive = false;
  b.max_ts = t0 + 3;
  b.max_ts_inclusive = false;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2].AsInt(), t0 + 2);
}

TEST_F(TableTest, DescendingQuery) {
  Timestamp t0 = Now();
  for (int dev = 0; dev < 10; dev++) ASSERT_TRUE(Insert(1, dev, t0, dev).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  for (int dev = 10; dev < 20; dev++) ASSERT_TRUE(Insert(1, dev, t0, dev).ok());
  QueryBounds b;
  b.direction = Direction::kDescending;
  std::vector<Row> rows = Query(b);
  ASSERT_EQ(rows.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(rows[i][1].i64(), 19 - i);
}

TEST_F(TableTest, LimitAndMoreAvailable) {
  Timestamp t0 = Now();
  for (int dev = 0; dev < 100; dev++) ASSERT_TRUE(Insert(1, dev, t0).ok());
  QueryBounds b;
  b.limit = 30;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result).ok());
  EXPECT_EQ(result.rows.size(), 30u);
  EXPECT_TRUE(result.more_available);
  // Continuation from the last key, exclusive (§3.5).
  QueryBounds cont = b;
  cont.min_key =
      KeyBound{UsageSchema().KeyOf(result.rows.back()), /*inclusive=*/false};
  QueryResult page2;
  ASSERT_TRUE(table_->Query(cont, &page2).ok());
  EXPECT_EQ(page2.rows.size(), 30u);
  EXPECT_EQ(page2.rows.front()[1].i64(), 30);
  // Exact-limit final page: no more_available.
  QueryBounds exact;
  exact.limit = 100;
  QueryResult all;
  ASSERT_TRUE(table_->Query(exact, &all).ok());
  EXPECT_EQ(all.rows.size(), 100u);
  EXPECT_FALSE(all.more_available);
}

TEST_F(TableTest, ServerRowLimitCapsResults) {
  opts_.server_row_limit = 10;
  Recreate();
  for (int dev = 0; dev < 25; dev++) ASSERT_TRUE(Insert(1, dev, Now()).ok());
  QueryResult result;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &result).ok());
  EXPECT_EQ(result.rows.size(), 10u);
  EXPECT_TRUE(result.more_available);
}

TEST_F(TableTest, DuplicateKeyRejectedEverywhere) {
  Timestamp t = Now();
  ASSERT_TRUE(Insert(1, 1, t).ok());
  // Duplicate while in memory.
  EXPECT_TRUE(Insert(1, 1, t).IsAlreadyExists());
  ASSERT_TRUE(table_->FlushAll().ok());
  // Duplicate against disk (slow path).
  EXPECT_TRUE(Insert(1, 1, t).IsAlreadyExists());
  EXPECT_EQ(table_->stats().duplicates_rejected.load(), 2u);
  // Batch with an internal duplicate is rejected atomically.
  Status s = table_->InsertBatch(
      {UsageRow(2, 2, t + 5, 0, 0), UsageRow(2, 2, t + 5, 1, 1)});
  EXPECT_TRUE(s.IsAlreadyExists());
  EXPECT_TRUE(Query(QueryBounds::ForPrefix({Value::Int64(2)})).empty());
}

TEST_F(TableTest, UniquenessFastPathAccounting) {
  Timestamp t = Now();
  // Ascending timestamps: newest-ts fast path.
  ASSERT_TRUE(Insert(1, 1, t).ok());
  ASSERT_TRUE(Insert(1, 1, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_newest_ts.load(), 2u);
  ASSERT_TRUE(table_->FlushAll().ok());
  // Same timestamp, larger key: max-key fast path.
  ASSERT_TRUE(Insert(5, 1, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_max_key.load(), 1u);
  ASSERT_TRUE(table_->FlushAll().ok());
  // Same timestamp, key below the tablet max: point-query slow path.
  ASSERT_TRUE(Insert(0, 0, t + 1).ok());
  EXPECT_EQ(table_->stats().unique_by_point_query.load(), 1u);
}

TEST_F(TableTest, TtlFiltersAndReclaims) {
  opts_.ttl = kMicrosPerDay;
  Recreate();
  Timestamp t0 = Now();
  ASSERT_TRUE(Insert(1, 1, t0 - 2 * kMicrosPerHour, 1).ok());  // Old-ish.
  ASSERT_TRUE(Insert(1, 2, t0, 2).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
  // Advance past the first row's TTL: filtered from queries.
  clock_->Advance(kMicrosPerDay - kMicrosPerHour);
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].i64(), 2);
  // Advance until everything expired; maintenance reclaims whole tablets.
  clock_->Advance(2 * kMicrosPerDay);
  EXPECT_TRUE(Query(QueryBounds{}).empty());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 0u);
  EXPECT_GE(table_->stats().tablets_expired.load(), 1u);
}

TEST_F(TableTest, SizeTriggeredSealAndFlushViaMaintain) {
  opts_.flush_bytes = 16 * 1024;  // Tiny flush threshold.
  Recreate();
  Timestamp t = Now();
  std::vector<Row> batch;
  for (int i = 0; i < 2000; i++) batch.push_back(UsageRow(1, i, t + i, i, 0));
  ASSERT_TRUE(table_->InsertBatch(batch).ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_GE(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 2000u);
}

TEST_F(TableTest, AgeTriggeredFlush) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 0u);  // Too young.
  clock_->Advance(11 * kMicrosPerMinute);
  ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->NumMemTablets(), 0u);
}

TEST_F(TableTest, OutOfOrderInsertsBinIntoSeparatePeriods) {
  Timestamp now = Now();
  // A device reconnecting after a long outage delivers old events (§3.4.3).
  ASSERT_TRUE(Insert(1, 1, now).ok());
  ASSERT_TRUE(Insert(1, 2, now - 3 * kMicrosPerDay).ok());
  ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerWeek).ok());
  EXPECT_EQ(table_->NumMemTablets(), 3u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 3u);
}

TEST_F(TableTest, FlushDependencyClosureFlushedTogether) {
  Timestamp now = Now();
  // Interleave inserts across two periods: A(old), B(now), A(old).
  ASSERT_TRUE(Insert(1, 1, now - 3 * kMicrosPerDay).ok());  // Tablet A.
  ASSERT_TRUE(Insert(1, 2, now).ok());                      // Tablet B, edge A->B.
  ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerDay + 1).ok());  // A, edge B->A.
  EXPECT_EQ(table_->NumMemTablets(), 2u);
  // Flushing either one must flush both (cycle).
  ASSERT_TRUE(table_->FlushThrough(now - kMicrosPerDay).ok());
  EXPECT_EQ(table_->NumMemTablets(), 0u);
  EXPECT_EQ(table_->NumDiskTablets(), 2u);
}

TEST_F(TableTest, PartialFlushFailureNeverCommitsAcrossDependencyCycle) {
  // Regression: alternating inserts across period tablets create an edge
  // from an OLDER tablet id to a NEWER one (here a full cycle), so the
  // flush's id-ordered prefix is not dependency-closed on its own. A write
  // failure mid-flush must never durably commit a tablet whose
  // must-flush-first dependency was requeued — otherwise a crash keeps a
  // later-inserted row while losing an earlier one. Sweep the failure
  // across every write of the flush.
  for (int n = 1; n <= 40; n++) {
    SCOPED_TRACE("failing write #" + std::to_string(n));
    ResetOptions();
    Recreate();
    Timestamp now = Now();
    ASSERT_TRUE(Insert(1, 1, now - 3 * kMicrosPerDay).ok());  // Tablet A.
    ASSERT_TRUE(Insert(1, 2, now).ok());                      // B, edge B<-A.
    ASSERT_TRUE(Insert(1, 3, now - 3 * kMicrosPerDay + 1).ok());  // A, B->A.
    env_.FailNthWrite(n);
    Status s = table_->FlushAll();  // May fail; rows must stay served.
    env_.FailNthWrite(0);           // Disarm if the flush outran the sweep.
    EXPECT_EQ(Query(QueryBounds{}).size(), 3u);
    env_.DropUnsynced();
    Reopen();
    std::set<int64_t> alive;
    for (const Row& r : Query(QueryBounds{})) alive.insert(r[1].i64());
    // Prefix property (§3.1): device id == insertion order, so survivors
    // must be exactly {1..max}; all three once the flush succeeded.
    int64_t max_alive = 0;
    for (int64_t d : alive) max_alive = std::max(max_alive, d);
    EXPECT_EQ(static_cast<int64_t>(alive.size()), max_alive);
    if (s.ok()) {
      EXPECT_EQ(alive.size(), 3u);
    }
  }
}

TEST_F(TableTest, CrashLosesUnflushedButKeepsPrefix) {
  Timestamp now = Now();
  ASSERT_TRUE(Insert(1, 1, now, 1).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(Insert(1, 2, now + 1, 2).ok());  // Never flushed.
  env_.DropUnsynced();
  Reopen();
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].i64(), 1);
  // The table keeps accepting inserts after recovery.
  ASSERT_TRUE(Insert(1, 2, now + 1, 2).ok());
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
}

TEST_F(TableTest, CrashDurabilityIsInsertionPrefixPerTable) {
  // §3.1: "if it retains a particular row after a crash, it will also
  // retain all rows that were inserted into the same table prior to that
  // row" — exercised across interleaved periods, where the dependency
  // graph does the work.
  Timestamp now = Now();
  std::vector<Row> inserted;
  Random r(17);
  for (int i = 0; i < 200; i++) {
    Timestamp ts;
    switch (r.Uniform(3)) {
      case 0: ts = now + i; break;                           // Current 4h bin.
      case 1: ts = now - 2 * kMicrosPerDay + i; break;       // Day bin.
      default: ts = now - 2 * kMicrosPerWeek + i; break;     // Week bin.
    }
    Row row = UsageRow(1, i, ts, i, 0);
    ASSERT_TRUE(table_->InsertBatch({row}).ok());
    inserted.push_back(row);
    if (i == 60) ASSERT_TRUE(table_->FlushThrough(now - kMicrosPerDay).ok());
    if (i == 120) ASSERT_TRUE(table_->FlushAll().ok());
  }
  env_.DropUnsynced();
  Reopen();
  std::vector<Row> survived = Query(QueryBounds{});
  // Identify survivors by device id (== insertion order here).
  std::set<int64_t> alive;
  for (const Row& row : survived) alive.insert(row[1].i64());
  // Prefix property: if row i survived, every j < i survived.
  int64_t max_alive = -1;
  for (int64_t d : alive) max_alive = std::max(max_alive, d);
  EXPECT_EQ(static_cast<int64_t>(alive.size()), max_alive + 1);
  // The explicit FlushAll at i==120 makes at least rows 0..120 durable.
  EXPECT_GE(max_alive, 120);
}

TEST_F(TableTest, MergeReducesTabletCountPreservesRows) {
  opts_.merge.max_merged_bytes = 1ull << 30;
  Recreate();
  Timestamp t0 = Now() - 10 * kMicrosPerWeek;  // One deep-past week bin.
  for (int flush = 0; flush < 8; flush++) {
    std::vector<Row> batch;
    for (int i = 0; i < 100; i++) {
      batch.push_back(UsageRow(flush, i, t0 + flush * 1000 + i, i, 0));
    }
    ASSERT_TRUE(table_->InsertBatch(batch).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  EXPECT_EQ(table_->NumDiskTablets(), 8u);
  // Iterate maintenance until merging reaches a fixpoint.
  for (int i = 0; i < 20; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_LT(table_->NumDiskTablets(), 8u);
  EXPECT_GE(table_->stats().merges.load(), 1u);
  std::vector<Row> rows = Query(QueryBounds{});
  EXPECT_EQ(rows.size(), 800u);
  for (size_t i = 1; i < rows.size(); i++) {
    EXPECT_LT(UsageSchema().CompareKeys(rows[i - 1], rows[i]), 0);
  }
}

TEST_F(TableTest, MergeSurvivesReopen) {
  Timestamp t0 = Now() - 10 * kMicrosPerWeek;
  for (int flush = 0; flush < 4; flush++) {
    ASSERT_TRUE(Insert(flush, 0, t0 + flush, flush).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  for (int i = 0; i < 10; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  size_t tablets = table_->NumDiskTablets();
  Reopen();
  EXPECT_EQ(table_->NumDiskTablets(), tablets);
  EXPECT_EQ(Query(QueryBounds{}).size(), 4u);
}

TEST_F(TableTest, LatestRowForPrefixBasic) {
  Timestamp t0 = Now();
  for (int m = 0; m < 10; m++) {
    ASSERT_TRUE(Insert(1, 1, t0 + m * kMicrosPerMinute, m).ok());
    ASSERT_TRUE(Insert(1, 2, t0 + m * kMicrosPerMinute, 100 + m).ok());
  }
  ASSERT_TRUE(table_->FlushAll().ok());
  Row row;
  bool found = false;
  // Full prefix (network, device).
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(1), Value::Int64(1)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 9);
  // Shorter prefix (network): latest across both devices.
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[2].AsInt(), t0 + 9 * kMicrosPerMinute);
  // Missing prefix.
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(42)}, &row, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(TableTest, LatestRowSearchesArbitrarilyFarBack) {
  Timestamp now = Now();
  // Device 7 last reported three weeks ago; newer tablets hold other
  // devices (the §4.2 EventsGrabber scenario).
  ASSERT_TRUE(Insert(1, 7, now - 3 * kMicrosPerWeek, 777).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  for (int w = 2; w >= 0; w--) {
    ASSERT_TRUE(Insert(1, 8, now - w * kMicrosPerWeek + 1, w).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
  }
  Row row;
  bool found = false;
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(1), Value::Int64(7)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 777);
  // Bloom filters should have skipped the non-matching newer tablets.
  EXPECT_GE(table_->stats().bloom_tablet_skips.load(), 1u);
}

TEST_F(TableTest, LatestRowSeesUnflushedData) {
  Timestamp now = Now();
  ASSERT_TRUE(Insert(3, 3, now - kMicrosPerDay, 1).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(Insert(3, 3, now, 2).ok());  // Still in memory.
  Row row;
  bool found = false;
  ASSERT_TRUE(table_
                  ->LatestRowForPrefix({Value::Int64(3), Value::Int64(3)},
                                       &row, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 2);
}

TEST_F(TableTest, LatestRowRespectsTtl) {
  opts_.ttl = kMicrosPerDay;
  Recreate();
  ASSERT_TRUE(Insert(1, 1, Now(), 5).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  clock_->Advance(2 * kMicrosPerDay);
  Row row;
  bool found = true;
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(TableTest, SchemaEvolutionAcrossFlushedData) {
  Timestamp t = Now();
  ASSERT_TRUE(Insert(1, 1, t, 11).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(table_
                  ->AppendColumn(Column("packets", ColumnType::kInt64,
                                        Value::Int64(-1)))
                  .ok());
  // New rows carry the new column; old rows read back with the default.
  Row new_row = UsageRow(1, 2, t + 1, 22, 0);
  new_row.push_back(Value::Int64(500));
  ASSERT_TRUE(table_->InsertBatch({new_row}).ok());
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 6u);
  EXPECT_EQ(rows[0][5].i64(), -1);   // Old row: default.
  EXPECT_EQ(rows[1][5].i64(), 500);  // New row: stored value.
  // Evolution survives reopen (flush first: reopening drops memtablets).
  ASSERT_TRUE(table_->FlushAll().ok());
  Reopen();
  EXPECT_EQ(table_->schema()->num_columns(), 6u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 2u);
}

TEST_F(TableTest, WidenColumnAcrossFlushedData) {
  Schema narrow({Column("k", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("n", ColumnType::kInt32)},
                2);
  std::unique_ptr<Table> t;
  ASSERT_TRUE(Table::Create(&env_, clock_, "/db/narrow", "narrow", narrow,
                            opts_, &t)
                  .ok());
  ASSERT_TRUE(
      t->InsertBatch({{Value::Int64(1), Value::Ts(Now()), Value::Int32(7)}})
          .ok());
  ASSERT_TRUE(t->FlushAll().ok());
  ASSERT_TRUE(t->WidenColumn("n").ok());
  Row wide = {Value::Int64(2), Value::Ts(Now() + 1), Value::Int64(1LL << 40)};
  ASSERT_TRUE(t->InsertBatch({wide}).ok());
  QueryResult result;
  ASSERT_TRUE(t->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][2].i64(), 7);
  EXPECT_EQ(result.rows[1][2].i64(), 1LL << 40);
}

TEST_F(TableTest, SetTtlPersists) {
  ASSERT_TRUE(table_->SetTtl(3 * kMicrosPerWeek).ok());
  Reopen();
  EXPECT_EQ(table_->ttl(), 3 * kMicrosPerWeek);
}

TEST_F(TableTest, InsertRejectsSchemaViolations) {
  EXPECT_TRUE(table_->InsertBatch({{Value::Int64(1)}}).IsInvalidArgument());
  Row wrong_type = {Value::String("x"), Value::Int64(1), Value::Ts(1),
                    Value::Int64(0), Value::Double(0)};
  EXPECT_TRUE(table_->InsertBatch({wrong_type}).IsInvalidArgument());
}

TEST_F(TableTest, ScanStatsTrackEfficiencyRatio) {
  // Insert two interleaved device series in one tablet; querying a narrow
  // time slice scans rows outside it (Figure 9's numerator).
  Timestamp t0 = Now();
  for (int m = 0; m < 100; m++) ASSERT_TRUE(Insert(1, 1, t0 + m, m).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryBounds b = QueryBounds::ForPrefix({Value::Int64(1), Value::Int64(1)});
  b.min_ts = t0 + 90;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result).ok());
  EXPECT_EQ(result.rows.size(), 10u);
  EXPECT_GT(result.rows_scanned, result.rows.size());
  EXPECT_EQ(table_->stats().rows_returned.load(), 10u);
}

TEST_F(TableTest, EmptyTableQueries) {
  EXPECT_TRUE(Query(QueryBounds{}).empty());
  Row row;
  bool found = true;
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_TRUE(table_->MaintainNow().ok());
}

TEST_F(TableTest, CreateRejectsInvalidSchemaAndDuplicates) {
  std::unique_ptr<Table> t;
  Schema bad({Column("x", ColumnType::kInt64)}, 1);
  EXPECT_FALSE(
      Table::Create(&env_, clock_, "/db/bad", "bad", bad, opts_, &t).ok());
  EXPECT_TRUE(Table::Create(&env_, clock_, "/db/usage", "usage",
                            UsageSchema(), opts_, &t)
                  .IsAlreadyExists());
}

TEST_F(TableTest, OrphanTabletFilesRemovedOnOpen) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  // Simulate a crash that left a stray tablet and temp descriptor.
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/usage/999999.tab", true).ok());
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/usage/DESC.tmp", true).ok());
  Reopen();
  EXPECT_FALSE(env_.FileExists("/db/usage/999999.tab"));
  EXPECT_FALSE(env_.FileExists("/db/usage/DESC.tmp"));
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
}

TEST_F(TableTest, BackpressureFlushesInline) {
  opts_.flush_bytes = 4 * 1024;
  opts_.max_unflushed_tablets = 2;
  Recreate();
  Timestamp t = Now();
  for (int batch = 0; batch < 20; batch++) {
    std::vector<Row> rows;
    for (int i = 0; i < 200; i++) {
      rows.push_back(UsageRow(batch, i, t + batch * 1000 + i, i, 0));
    }
    ASSERT_TRUE(table_->InsertBatch(rows).ok());
  }
  // The backlog cap forces flushes during inserts.
  EXPECT_GE(table_->stats().flushes.load(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 4000u);
}

TEST_F(TableTest, ConcurrentInsertsAndQueries) {
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    Timestamp t = Now();
    for (int i = 0; i < 3000; i++) {
      if (!table_->InsertBatch({UsageRow(1, i, t + i, i, 0)}).ok()) {
        errors++;
        break;
      }
      if (i % 500 == 0 && !table_->FlushAll().ok()) errors++;
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      QueryResult result;
      if (!table_->Query(QueryBounds{}, &result).ok()) {
        errors++;
        break;
      }
      // Rows always arrive in strictly ascending key order.
      for (size_t i = 1; i < result.rows.size(); i++) {
        if (UsageSchema().CompareKeys(result.rows[i - 1], result.rows[i]) >= 0) {
          errors++;
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(Query(QueryBounds{}).size(), 3000u);
}

TEST_F(TableTest, GroupCommitMatchesSerialDurableState) {
  // The same batches inserted serially and through 8 concurrent threads
  // (where InsertBatch coalesces them into commit groups) must produce
  // identical durable state.
  constexpr int kThreads = 8;
  constexpr int kBatchesPerThread = 25;
  constexpr int kRowsPerBatch = 20;
  const Timestamp t0 = Now();
  auto batch_rows = [&](int thread, int batch) {
    std::vector<Row> rows;
    for (int r = 0; r < kRowsPerBatch; r++) {
      rows.push_back(
          UsageRow(thread, batch * kRowsPerBatch + r, t0 + r, batch, 0.5));
    }
    return rows;
  };

  std::unique_ptr<Table> serial;
  ASSERT_TRUE(Table::Create(&env_, clock_, "/db/serial", "serial",
                            UsageSchema(), opts_, &serial)
                  .ok());
  for (int th = 0; th < kThreads; th++) {
    for (int b = 0; b < kBatchesPerThread; b++) {
      ASSERT_TRUE(serial->InsertBatch(batch_rows(th, b)).ok());
    }
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; th++) {
    threads.emplace_back([&, th] {
      for (int b = 0; b < kBatchesPerThread; b++) {
        if (!table_->InsertBatch(batch_rows(th, b)).ok()) errors++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  ASSERT_TRUE(serial->FlushAll().ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  QueryResult expect, got;
  ASSERT_TRUE(serial->Query(QueryBounds{}, &expect).ok());
  ASSERT_TRUE(table_->Query(QueryBounds{}, &got).ok());
  const size_t total = kThreads * kBatchesPerThread * kRowsPerBatch;
  ASSERT_EQ(expect.rows.size(), total);
  ASSERT_EQ(got.rows.size(), total);
  // Both scans return key order, so rows must match pairwise.
  const Schema schema = UsageSchema();
  for (size_t i = 0; i < total; i++) {
    EXPECT_EQ(schema.CompareKeys(expect.rows[i], got.rows[i]), 0) << i;
  }

  const TableStats& stats = table_->stats();
  EXPECT_EQ(stats.insert_batches.load(),
            static_cast<uint64_t>(kThreads * kBatchesPerThread));
  EXPECT_EQ(stats.rows_inserted.load(), total);
  // Every batch committed inside some group; groups never exceed batches.
  EXPECT_GE(stats.insert_groups.load(), 1u);
  EXPECT_LE(stats.insert_groups.load(), stats.insert_batches.load());
  EXPECT_EQ(stats.insert_micros.Count(),
            static_cast<uint64_t>(kThreads * kBatchesPerThread));
}

// An Env whose random-access reads and/or tablet-file writes block while
// their gate is closed; lets tests park an operation at a chosen I/O with
// no reliance on scheduler timing — a group-commit leader inside its
// critical section (on a uniqueness point query), or a flush or merge
// inside its tablet write.
class GateEnv final : public Env {
 public:
  enum Gate : int { kReads = 1, kTabletWrites = 2 };

  explicit GateEnv(Env* base) : base_(base) {}

  void CloseGate(int gates = kReads) {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = gates;
  }
  /// Opens every gate. Each write parked at the gate then returns
  /// `parked_writes` instead of writing (OK lets it through); later writes
  /// are unaffected.
  void OpenGate(Status parked_writes = Status::OK()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = 0;
      parked_writes_ = std::move(parked_writes);
    }
    cv_.notify_all();
  }
  void WaitForBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0; });
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    LT_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &file));
    result->reset(new GatedFile(std::move(file), this));
    return Status::OK();
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    LT_RETURN_IF_ERROR(base_->NewWritableFile(fname, result));
    if (fname.ends_with(".tab")) {
      result->reset(new GatedWritableFile(std::move(*result), this));
    }
    return Status::OK();
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status GetChildren(const std::string& dirname,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dirname, result);
  }

 private:
  // Blocks while `gate` is closed. Returns what the caller should do: OK to
  // proceed, or (for a parked write) the status OpenGate handed out.
  Status Pass(Gate gate) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!(closed_ & gate)) return Status::OK();
    waiting_++;
    cv_.notify_all();
    cv_.wait(lock, [this, gate] { return !(closed_ & gate); });
    waiting_--;
    return gate == kTabletWrites ? parked_writes_ : Status::OK();
  }

  class GatedFile final : public RandomAccessFile {
   public:
    GatedFile(std::unique_ptr<RandomAccessFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      env_->Pass(kReads);
      return base_->Read(offset, n, result, scratch);
    }
    Status Size(uint64_t* size) const override { return base_->Size(size); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    GateEnv* const env_;
  };

  class GatedWritableFile final : public WritableFile {
   public:
    GatedWritableFile(std::unique_ptr<WritableFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(const Slice& data) override {
      LT_RETURN_IF_ERROR(env_->Pass(kTabletWrites));
      return base_->Append(data);
    }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    GateEnv* const env_;
  };

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  int closed_ = 0;
  int waiting_ = 0;
  Status parked_writes_;
};

TEST_F(TableTest, GroupCommitCoalescesQueuedBatches) {
  // Deterministic coalescing proof (wall-clock benches can't show it on a
  // single-core box): park a leader inside its commit critical section on
  // a gated disk read, queue six more batches behind it, release — the six
  // must commit as ONE group.
  MemEnv mem;
  GateEnv env(&mem);
  TableOptions opts = opts_;
  opts.bloom_bits_per_key = 0;  // Force uniqueness point queries to disk.
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&env, clock_, "/db/gated", "gated", UsageSchema(),
                            opts, &table)
                  .ok());
  const Timestamp t0 = Now();
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 5, t0, 0, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());

  // Key below the tablet's max at the tablet's exact timestamp: no fast
  // path applies, so uniqueness needs a point query through the gate.
  env.CloseGate();
  std::thread leader(
      [&] { EXPECT_TRUE(table->InsertBatch({UsageRow(1, 3, t0, 0, 0.0)}).ok()); });
  env.WaitForBlocked();

  constexpr int kFollowers = 6;
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; i++) {
    followers.emplace_back([&, i] {
      // Fresh timestamps take the newest-ts fast path: no disk, no gate.
      EXPECT_TRUE(
          table->InsertBatch({UsageRow(2, i, t0 + 1000 + i, 0, 0.0)}).ok());
    });
  }
  // Wait until every follower is queued behind the parked leader.
  while (table->PendingInserts() < 1 + kFollowers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  env.OpenGate();
  leader.join();
  for (std::thread& t : followers) t.join();

  // Three critical sections total: the setup insert, the parked leader,
  // and one coalesced group carrying all six followers.
  EXPECT_EQ(table->stats().insert_batches.load(), 8u);
  EXPECT_EQ(table->stats().insert_groups.load(), 3u);
  QueryResult all;
  ASSERT_TRUE(table->Query(QueryBounds{}, &all).ok());
  EXPECT_EQ(all.rows.size(), 8u);
}

TEST_F(TableTest, GroupCommitKeepsBatchesAtomicUnderContention) {
  // Concurrent batches all containing the same contested key: exactly one
  // wins; every loser is rejected whole (none of its other rows land),
  // even when batches commit inside a shared group.
  constexpr int kThreads = 8;
  const Timestamp t0 = Now();
  std::atomic<int> successes{0};
  std::atomic<int> winner{-1};
  std::atomic<int> bad_status{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; th++) {
    threads.emplace_back([&, th] {
      std::vector<Row> rows;
      rows.push_back(UsageRow(1, 100 + th, t0, th, 0.0));  // Unique per thread.
      rows.push_back(UsageRow(2, 5, t0, th, 0.0));         // Contested.
      Status s = table_->InsertBatch(rows);
      if (s.ok()) {
        successes++;
        winner = th;
      } else if (!s.IsAlreadyExists()) {
        bad_status++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(bad_status.load(), 0);

  std::vector<Row> rows = Query(QueryBounds{});
  // One contested row plus the single winner's unique row — losers left
  // nothing behind.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(table_->stats().duplicates_rejected.load(),
            static_cast<uint64_t>(kThreads - 1));
}

// ----- Read view: flush and merge install against concurrent readers. -----

class ReadViewTest : public TableTest {
 protected:
  void SetUp() override {
    TableTest::SetUp();
    ASSERT_TRUE(Table::Create(&gate_, clock_, "/db/gated", "gated",
                              UsageSchema(), opts_, &gated_)
                    .ok());
  }

  std::vector<Row> QueryGated() {
    QueryResult result;
    Status s = gated_->Query(QueryBounds{}, &result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return result.rows;
  }

  // The timestamp of network 1's device `dev`'s latest row; -1 if none.
  Timestamp LatestGated(int64_t dev) {
    Row row;
    bool found = false;
    Status s = gated_->LatestRowForPrefix({Value::Int64(1), Value::Int64(dev)},
                                          &row, &found);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return found ? row[2].AsInt() : -1;
  }

  MemEnv mem_;
  GateEnv gate_{&mem_};
  std::unique_ptr<Table> gated_;
};

TEST_F(ReadViewTest, ParkedFlushKeepsRowsVisibleToEveryReader) {
  // §3.1: an acknowledged row is visible to queries, latest-row lookups
  // and the uniqueness check. A flush takes its memtablets out of the
  // insert path before it writes their tablet; parked inside that write,
  // the rows must still be served from memory.
  const Timestamp t0 = Now();
  ASSERT_TRUE(gated_
                  ->InsertBatch({UsageRow(1, 1, t0, 10, 0.0),
                                 UsageRow(1, 2, t0 + 1, 20, 0.0)})
                  .ok());
  gate_.CloseGate(GateEnv::kTabletWrites);
  Status flush;
  std::thread flusher([&] { flush = gated_->FlushAll(); });
  gate_.WaitForBlocked();

  EXPECT_EQ(QueryGated().size(), 2u);
  EXPECT_EQ(LatestGated(1), t0);
  EXPECT_EQ(LatestGated(2), t0 + 1);
  // Not newer than every row, so no fast path can accept it blind.
  EXPECT_TRUE(gated_->InsertBatch({UsageRow(1, 1, t0, 99, 0.0)})
                  .IsAlreadyExists());

  gate_.OpenGate();
  flusher.join();
  ASSERT_TRUE(flush.ok()) << flush.ToString();
  EXPECT_EQ(gated_->NumMemTablets(), 0u);
  EXPECT_EQ(gated_->NumDiskTablets(), 1u);
  EXPECT_EQ(QueryGated().size(), 2u);  // Once each, from the tablet.
}

TEST_F(ReadViewTest, ParkedMergeKeepsEveryRowVisibleOnce) {
  // A merge installs its output and retires its inputs in one critical
  // section: parked in its output write, and after, each row is served
  // exactly once.
  const Timestamp t0 = Now() - 10 * kMicrosPerWeek;  // One deep-past bin.
  for (int dev = 0; dev < 4; dev++) {
    ASSERT_TRUE(
        gated_->InsertBatch({UsageRow(1, dev, t0 + dev, dev, 0.0)}).ok());
    ASSERT_TRUE(gated_->FlushAll().ok());
  }
  ASSERT_EQ(gated_->NumDiskTablets(), 4u);
  auto expect_each_once = [&] {
    std::vector<Row> rows = QueryGated();
    ASSERT_EQ(rows.size(), 4u);
    for (int dev = 0; dev < 4; dev++) {
      EXPECT_EQ(rows[dev][1].i64(), dev);
      EXPECT_EQ(LatestGated(dev), t0 + dev);
    }
  };

  gate_.CloseGate(GateEnv::kTabletWrites);
  Status merge;
  std::thread merger([&] { merge = gated_->MaintainNow(); });
  gate_.WaitForBlocked();
  expect_each_once();
  gate_.OpenGate();
  merger.join();
  ASSERT_TRUE(merge.ok()) << merge.ToString();
  EXPECT_EQ(gated_->stats().merges.load(), 1u);
  EXPECT_LT(gated_->NumDiskTablets(), 4u);
  expect_each_once();
}

TEST_F(ReadViewTest, FlushThroughWaitsOutAFailedInFlightFlush) {
  // §4.1.2: FlushThrough(t) returning OK promises every row with ts <= t
  // is durable. A concurrent flush already holding those rows may still
  // fail; FlushThrough must not trust it.
  const Timestamp t0 = Now();
  std::vector<Row> batch;
  for (int dev = 0; dev < 10; dev++) {
    batch.push_back(UsageRow(1, dev, t0 + dev, dev, 0.0));
  }
  ASSERT_TRUE(gated_->InsertBatch(batch).ok());
  gate_.CloseGate(GateEnv::kTabletWrites);
  Status first;
  std::thread flusher([&] { first = gated_->FlushAll(); });
  gate_.WaitForBlocked();
  Status through;
  std::thread waiter([&] { through = gated_->FlushThrough(t0 + 9); });
  // The sleep only lets FlushThrough look for its rows while the first
  // flush holds them, which is when the bug it guards against shows; a
  // correct FlushThrough is durable however the two interleave.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate_.OpenGate(Status::IOError("injected tablet write failure"));
  flusher.join();
  waiter.join();
  EXPECT_TRUE(first.IsIOError()) << first.ToString();
  ASSERT_TRUE(through.ok()) << through.ToString();

  gated_.reset();
  mem_.DropUnsynced();
  ASSERT_TRUE(Table::Open(&gate_, clock_, "/db/gated", opts_, &gated_).ok());
  EXPECT_EQ(QueryGated().size(), 10u);
}

// ----- Corruption recovery: quarantine and fail-closed behavior. -----

class CorruptionRecoveryTest : public TableTest {
 protected:
  // Two single-row disk tablets; returns their file paths.
  std::vector<std::string> TwoTablets() {
    Timestamp t0 = Now();
    EXPECT_TRUE(Insert(1, 1, t0, 10).ok());
    EXPECT_TRUE(table_->FlushAll().ok());
    EXPECT_TRUE(Insert(1, 2, t0 + 1, 20).ok());
    EXPECT_TRUE(table_->FlushAll().ok());
    EXPECT_EQ(table_->NumDiskTablets(), 2u);
    std::vector<std::string> paths;
    for (const TabletMeta& m : table_->DiskTablets()) {
      paths.push_back("/db/usage/" + m.filename);
    }
    return paths;
  }

  void SmashTrailer(const std::string& path) {
    uint64_t size = 0;
    ASSERT_TRUE(env_.GetFileSize(path, &size).ok());
    ASSERT_TRUE(env_.CorruptFile(path, size - 1).ok());
  }
};

TEST_F(CorruptionRecoveryTest, QueryQuarantinesCorruptTabletAndServesRest) {
  std::vector<std::string> paths = TwoTablets();
  SmashTrailer(paths[0]);
  Reopen();  // Lazy footers: open succeeds without touching the damage.
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 1u);  // The intact tablet's row, not garbage.
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_FALSE(env_.FileExists(paths[0]));
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
  // The drop is persisted and the .corrupt file survives orphan cleanup.
  Reopen();
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
}

TEST_F(CorruptionRecoveryTest, LatestRowQuarantinesCorruptTabletAndServesRest) {
  std::vector<std::string> paths = TwoTablets();
  // The newer tablet: the newest-first search must load it to get past it.
  SmashTrailer(paths[1]);
  Reopen();
  Row row;
  bool found = false;
  ASSERT_TRUE(
      table_->LatestRowForPrefix({Value::Int64(1)}, &row, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(row[3].i64(), 10);  // The intact tablet's row.
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[1] + ".corrupt"));
}

TEST_F(CorruptionRecoveryTest, UniquenessCheckQuarantinesCorruptTabletAndServesRest) {
  std::vector<std::string> paths = TwoTablets();
  SmashTrailer(paths[0]);
  Reopen();
  // Inside the corrupt tablet's timespan and older than the newest row:
  // the uniqueness check must open that tablet.
  const Timestamp t0 = table_->DiskTablets()[0].min_ts;
  ASSERT_TRUE(Insert(1, 0, t0, 30).ok());
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
  std::vector<Row> rows = Query(QueryBounds{});
  ASSERT_EQ(rows.size(), 2u);  // The new row and the intact tablet's.
  EXPECT_EQ(rows[0][3].i64(), 30);
  EXPECT_EQ(rows[1][3].i64(), 20);
}

TEST_F(CorruptionRecoveryTest, MissingTabletFileQuarantinedAtOpen) {
  std::vector<std::string> paths = TwoTablets();
  ASSERT_TRUE(env_.RemoveFile(paths[1]).ok());
  Reopen();  // The reader can't even open; quarantined immediately.
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(Query(QueryBounds{}).size(), 1u);
}

TEST_F(CorruptionRecoveryTest, VerifyOpenQuarantinesEagerly) {
  std::vector<std::string> paths = TwoTablets();
  SmashTrailer(paths[0]);
  opts_.verify_open = true;
  Reopen();
  // Quarantined during Open, before any query touches the table.
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_TRUE(env_.FileExists(paths[0] + ".corrupt"));
}

TEST_F(CorruptionRecoveryTest, BlockCorruptionFailsClosedNeverWrongRows) {
  Timestamp t0 = Now();
  std::vector<Row> batch;
  for (int d = 0; d < 1000; d++) {
    batch.push_back(UsageRow(d / 100, d % 100, t0 + d, d, 0.0));
  }
  ASSERT_TRUE(table_->InsertBatch(batch).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  ASSERT_EQ(table_->NumDiskTablets(), 1u);
  const std::string path = "/db/usage/" + table_->DiskTablets()[0].filename;
  ASSERT_TRUE(env_.CorruptFile(path, 100).ok());  // Inside the first block.
  Reopen();
  QueryResult result;
  Status s = table_->Query(QueryBounds{}, &result);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // The footer is intact, so the tablet stays (only its blocks are bad):
  // the query fails closed instead of returning wrong rows.
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 0u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
}

// ----- DB-level recovery and lifecycle. -----

class DbTest : public ::testing::Test {
 protected:
  DbTest() : clock_(std::make_shared<SimClock>(100 * kMicrosPerWeek)) {
    opts_.background_maintenance = false;
  }

  Status OpenDb() { return DB::Open(&env_, clock_, "/db", opts_, &db_); }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  DbOptions opts_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, RejectsDotOnlyTableNames) {
  ASSERT_TRUE(OpenDb().ok());
  // "." and ".." double as directory names and would alias or escape the
  // database root.
  EXPECT_TRUE(db_->CreateTable(".", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("..", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("...", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("a/b", UsageSchema()).IsInvalidArgument());
  EXPECT_TRUE(db_->CreateTable("", UsageSchema()).IsInvalidArgument());
  // Dots inside an otherwise normal name stay legal.
  EXPECT_TRUE(db_->CreateTable("v1.usage", UsageSchema()).ok());
}

TEST_F(DbTest, CloseFlushesBufferedRows) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("usage", UsageSchema()).ok());
  std::shared_ptr<Table> table = db_->GetTable("usage");
  ASSERT_TRUE(
      table->InsertBatch({UsageRow(1, 1, clock_->Now(), 42, 0.0)}).ok());
  EXPECT_EQ(table->NumDiskTablets(), 0u);  // Still buffered in memory.
  ASSERT_TRUE(db_->Close().ok());
  EXPECT_EQ(table->NumDiskTablets(), 1u);  // Close flushed it.
  ASSERT_TRUE(db_->Close().ok());          // Idempotent.
  db_.reset();                             // ~DB after Close already ran.

  ASSERT_TRUE(OpenDb().ok());
  table = db_->GetTable("usage");
  ASSERT_NE(table, nullptr);
  QueryResult result;
  ASSERT_TRUE(table->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][3].i64(), 42);
}

TEST_F(DbTest, OpenSkipsUnreadableTable) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("good", UsageSchema()).ok());
  ASSERT_TRUE(db_->CreateTable("bad", UsageSchema()).ok());
  ASSERT_TRUE(
      db_->GetTable("good")->InsertBatch({UsageRow(1, 1, clock_->Now(), 7, 0.0)})
          .ok());
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  // Destroy the bad table's descriptor.
  ASSERT_TRUE(WriteStringToFile(&env_, "garbage", "/db/bad/DESC", false).ok());

  ASSERT_TRUE(OpenDb().ok());  // Still opens.
  std::vector<std::string> names = db_->ListTables();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "good");
  QueryResult result;
  ASSERT_TRUE(db_->GetTable("good")->Query(QueryBounds{}, &result).ok());
  EXPECT_EQ(result.rows.size(), 1u);
}

TEST_F(DbTest, OpenServesRemainingTabletsWhenOneIsCorrupt) {
  ASSERT_TRUE(OpenDb().ok());
  ASSERT_TRUE(db_->CreateTable("usage", UsageSchema()).ok());
  std::shared_ptr<Table> table = db_->GetTable("usage");
  Timestamp t0 = clock_->Now();
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 1, t0, 10, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 2, t0 + 1, 20, 0.0)}).ok());
  ASSERT_TRUE(table->FlushAll().ok());
  ASSERT_EQ(table->NumDiskTablets(), 2u);
  const std::string victim =
      "/db/usage/" + table->DiskTablets()[0].filename;
  table.reset();
  db_.reset();
  uint64_t size = 0;
  ASSERT_TRUE(env_.GetFileSize(victim, &size).ok());
  ASSERT_TRUE(env_.CorruptFile(victim, size - 1).ok());  // Trailer magic.

  ASSERT_TRUE(OpenDb().ok());
  table = db_->GetTable("usage");
  ASSERT_NE(table, nullptr);
  QueryResult result;
  ASSERT_TRUE(table->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);  // Survivor served; corrupt one dropped.
  EXPECT_EQ(result.rows[0][3].i64(), 20);
  EXPECT_EQ(table->stats().tablets_quarantined.load(), 1u);
  EXPECT_TRUE(env_.FileExists(victim + ".corrupt"));
}

// ----- Observability. -----

TEST_F(TableTest, WriteAmplificationSentinels) {
  // Nothing written yet: every byte (vacuously) written once.
  EXPECT_DOUBLE_EQ(table_->stats().WriteAmplification(), 1.0);
  // Merge bytes with no observed flush (reopened table, reset stats): the
  // denominator is unknown — +inf, not a silent 0.
  table_->stats().bytes_merge_written.fetch_add(1000);
  EXPECT_TRUE(std::isinf(table_->stats().WriteAmplification()));
  EXPECT_GT(table_->stats().WriteAmplification(), 0.0);
  // With both observed, the usual (flushed + merged) / flushed ratio.
  table_->stats().bytes_flushed.fetch_add(500);
  EXPECT_DOUBLE_EQ(table_->stats().WriteAmplification(), 3.0);
}

TEST_F(TableTest, OperationLatencyHistogramsRecord) {
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  ASSERT_TRUE(Insert(1, 2, Now() + 1).ok());
  ASSERT_TRUE(Insert(1, 3, Now() + 2).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  Query(QueryBounds{});
  Query(QueryBounds{});

  TableStats& stats = table_->stats();
  EXPECT_EQ(stats.insert_micros.Count(), 3u);  // One per InsertBatch.
  EXPECT_EQ(stats.query_micros.Count(), 2u);
  EXPECT_GE(stats.flush_micros.Count(), 1u);
  // Sub-microsecond operations clamp to 1 µs, so quantiles stay nonzero.
  EXPECT_GE(stats.insert_micros.Snapshot().P50(), 1u);
  EXPECT_GE(stats.query_micros.Snapshot().P99(), 1u);
}

TEST_F(TableTest, QueryTracePopulated) {
  Timestamp t0 = Now();
  for (int i = 0; i < 100; i++) ASSERT_TRUE(Insert(1, i, t0 + i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  clock_->Advance(kMicrosPerWeek);
  Timestamp t1 = Now();
  for (int i = 0; i < 50; i++) ASSERT_TRUE(Insert(2, i, t1 + i).ok());

  // Full scan: the disk tablet is considered (mem tablets are snapshotted,
  // not counted), all rows scanned, disk blocks read.
  QueryTrace trace;
  QueryResult result;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &result, &trace).ok());
  EXPECT_EQ(trace.tablets_considered, 1u);
  EXPECT_EQ(trace.TabletsPruned(), 0u);
  EXPECT_EQ(trace.rows_scanned, 150u);
  EXPECT_EQ(trace.rows_returned, 150u);
  EXPECT_GE(trace.blocks_read, 1u);
  EXPECT_GE(trace.elapsed_micros, 0);

  // Time-bounded scan: the disk tablet's range ends before min_ts, so it is
  // pruned by timestamp without being opened.
  QueryBounds recent;
  recent.min_ts = t1;
  QueryTrace pruned;
  QueryResult recent_result;
  ASSERT_TRUE(table_->Query(recent, &recent_result, &pruned).ok());
  EXPECT_EQ(recent_result.rows.size(), 50u);
  EXPECT_GE(pruned.tablets_pruned_time, 1u);
  EXPECT_EQ(pruned.blocks_read, 0u);

  // A second query into the same trace accumulates (pagination pattern).
  ASSERT_TRUE(table_->Query(recent, &recent_result, &pruned).ok());
  EXPECT_EQ(pruned.rows_returned, 100u);
}

// ---- Block format v2: mixed-version tables, projection pushdown. ----

// Rows for format-2 tablets beside the committed format-1 tablet: one per
// fixture (site, host, dev), at a device one past the fixture's, so their
// keys interleave with the fixture's and never collide. `half` 0 or 1
// picks every other one.
std::vector<Row> FixtureNeighbourRows(int half) {
  std::vector<Row> out;
  const std::vector<Row> fixture = testutil::V1FixtureRows();
  for (size_t i = 0; i < fixture.size(); i += 5) {
    if (static_cast<int>(i / 5) % 2 != half) continue;
    Row row = fixture[i];
    row[2] = Value::Int64(row[2].i64() + 1);
    row[6] = Value::Int64(-row[6].i64());
    out.push_back(std::move(row));
  }
  return out;
}

// The formats of the table's tablets, by opening each file directly.
std::vector<uint32_t> TabletVersions(Env* env, const std::string& dir) {
  std::vector<uint32_t> versions;
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".tab") continue;
    std::shared_ptr<TabletReader> r;
    EXPECT_TRUE(TabletReader::Open(env, dir + "/" + name, &r).ok());
    EXPECT_TRUE(r->Load().ok());
    versions.push_back(r->format_version());
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

// A table holding the committed format-1 tablet beside format-2 flushes
// serves queries across both formats, and merging rewrites every row at
// format 2 — the upgrade path needs no offline tool.
TEST_F(TableTest, MixedFormatVersionTabletsServeAndMergeToLatest) {
  const Schema schema = testutil::V1FixtureSchema();
  opts_.merge.max_merged_bytes = 1ull << 30;
  Recreate(schema);
  std::string fixture;
  ASSERT_TRUE(testutil::ReadV1Fixture(&fixture).ok());
  ASSERT_TRUE(
      table_->InstallTablet(testutil::V1FixtureMeta("000900.tab"), fixture)
          .ok());
  std::vector<Row> model = testutil::V1FixtureRows();
  for (int half = 0; half < 2; half++) {
    const std::vector<Row> rows = FixtureNeighbourRows(half);
    ASSERT_TRUE(table_->InsertBatch(rows).ok());
    ASSERT_TRUE(table_->FlushAll().ok());
    model.insert(model.end(), rows.begin(), rows.end());
  }
  std::sort(model.begin(), model.end(), [&](const Row& a, const Row& b) {
    return schema.CompareKeys(a, b) < 0;
  });
  EXPECT_EQ(TabletVersions(&env_, "/db/usage"),
            (std::vector<uint32_t>{1, 2, 2}));

  // Whole-table, key-bounded and limited descending queries, each drawing
  // rows from both formats.
  auto check = [&](const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(Query(QueryBounds{}) == model);
    QueryBounds site0;
    site0.min_key = site0.max_key = KeyBound{{Value::Int32(0)}, true};
    QueryBounds down;
    down.direction = Direction::kDescending;
    down.min_key = KeyBound{{Value::Int32(0), Value::String("h1")}, false};
    down.limit = 50;
    for (const QueryBounds& b : {site0, down}) {
      std::vector<Row> want;
      for (const Row& row : model) {
        if (b.Matches(schema, row)) want.push_back(row);
      }
      if (b.direction == Direction::kDescending) {
        std::reverse(want.begin(), want.end());
      }
      if (b.limit > 0 && want.size() > b.limit) want.resize(b.limit);
      ASSERT_GT(want.size(), 0u);
      EXPECT_TRUE(Query(b) == want);
    }
  };
  check("before merge");

  // Merge the mixed inputs: the output is format 2 and keeps every row.
  for (int i = 0; i < 20; i++) ASSERT_TRUE(table_->MaintainNow().ok());
  EXPECT_GE(table_->stats().merges.load(), 1u);
  for (uint32_t v : TabletVersions(&env_, "/db/usage")) {
    EXPECT_EQ(v, kTabletFormatLatest);
  }
  check("after merge");

  // And the merged table survives a reopen at default options.
  ResetOptions();
  Reopen();
  check("after reopen");
}

// A format-0 tablet (no longer read) is quarantined like any unusable one:
// the table serves the rest and counts the drop.
TEST_F(TableTest, Format0TabletIsQuarantined) {
  Recreate(testutil::V1FixtureSchema());
  const std::vector<Row> rows = FixtureNeighbourRows(0);
  ASSERT_TRUE(table_->InsertBatch(rows).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  std::string fixture;
  ASSERT_TRUE(testutil::ReadV1Fixture(&fixture).ok());
  ASSERT_TRUE(
      table_->InstallTablet(testutil::V1FixtureMeta("000900.tab"), fixture)
          .ok());
  ASSERT_TRUE(WriteStringToFile(&env_, testutil::AsFormat0(fixture),
                                "/db/usage/000900.tab", true)
                  .ok());
  Reopen();  // Fresh readers: the footer loads on the next query.
  EXPECT_TRUE(Query(QueryBounds{}) == rows);
  EXPECT_EQ(table_->stats().tablets_quarantined.load(), 1u);
  EXPECT_EQ(table_->NumDiskTablets(), 1u);
  EXPECT_TRUE(env_.FileExists("/db/usage/000900.tab.corrupt"));
}

// Paging a memtablet-only table: each page's snapshot copies rows in scan
// direction and stops after limit + 1 rows inside the ts bounds, so a page
// scans about `limit` rows rather than the whole remaining memtablet tail —
// and the pages still add up to the unlimited query, in both directions.
TEST_F(TableTest, MemTabletPagesScanOnlyTheirLimit) {
  const Schema schema({Column("device", ColumnType::kInt64),
                       Column("ts", ColumnType::kTimestamp),
                       Column("v", ColumnType::kInt64)},
                      2);
  TableOptions opts = opts_;
  opts.flush_bytes = 1ull << 40;  // Everything stays in memtablets.
  opts.server_row_limit = 0;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&env_, clock_, "/db/paged", "paged", schema, opts,
                            &table)
                  .ok());
  // Eight rows per device; slots 3 and 7 sit an hour past the queried ts
  // range, so each device sorts as six in-range rows then two out of range.
  constexpr int kRows = 200000;
  const Timestamp t0 = Now() - 2 * kMicrosPerHour;
  std::vector<Row> batch;
  for (int i = 0; i < kRows; i++) {
    const int slot = i % 8;
    const Timestamp ts =
        t0 + slot * 1000 + (slot % 4 == 3 ? kMicrosPerHour : 0);
    batch.push_back({Value::Int64(i / 8), Value::Ts(ts), Value::Int64(i)});
    if (batch.size() == 10000) {
      ASSERT_TRUE(table->InsertBatch(batch).ok());
      batch.clear();
    }
  }
  ASSERT_EQ(table->NumDiskTablets(), 0u);
  std::vector<char> in_range;  // Per row, in ascending key order.
  for (int d = 0; d < kRows / 8; d++) {
    for (char f : {1, 1, 1, 1, 1, 1, 0, 0}) in_range.push_back(f);
  }

  QueryBounds all;
  all.min_ts = t0;
  all.max_ts = t0 + 10000;
  for (Direction dir : {Direction::kAscending, Direction::kDescending}) {
    SCOPED_TRACE(dir == Direction::kAscending ? "ascending" : "descending");
    all.direction = dir;
    QueryResult whole;
    ASSERT_TRUE(table->Query(all, &whole).ok());
    ASSERT_EQ(whole.rows.size(), size_t{kRows} / 8 * 6);
    std::vector<char> flags = in_range;
    if (dir == Direction::kDescending) std::reverse(flags.begin(), flags.end());

    constexpr uint64_t kLimit = 64 * 1024;
    QueryBounds page = all;
    page.limit = kLimit;
    std::vector<Row> paged;
    size_t pos = 0;  // Scan-order index of the page's first row.
    while (true) {
      QueryResult r;
      ASSERT_TRUE(table->Query(page, &r).ok());
      // The out-of-range rows a page may step over: those before its
      // limit + 1'th in-range row.
      uint64_t seen = 0, skipped = 0;
      size_t next = pos;
      for (size_t i = pos; i < flags.size() && seen <= kLimit; i++) {
        if (flags[i]) {
          if (++seen == kLimit) next = i + 1;
        } else {
          skipped++;
        }
      }
      EXPECT_LE(r.rows_scanned, kLimit + 1 + skipped);
      paged.insert(paged.end(), r.rows.begin(), r.rows.end());
      if (!r.more_available) break;
      ASSERT_EQ(r.rows.size(), kLimit);
      pos = next;
      KeyBound after{schema.KeyOf(r.rows.back()), false};
      if (dir == Direction::kAscending) {
        page.min_key = after;
      } else {
        page.max_key = after;
      }
    }
    ASSERT_EQ(paged.size(), whole.rows.size());
    for (size_t i = 0; i < paged.size(); i++) {
      ASSERT_EQ(schema.CompareKeys(paged[i], whole.rows[i]), 0) << i;
      ASSERT_EQ(paged[i][2].i64(), whole.rows[i][2].i64()) << i;
    }
  }
}

// The acceptance check for lazy materialization: a projected query over
// flushed (columnar) tablets decodes zero chunks for unreferenced columns.
TEST_F(TableTest, ProjectedQueryDecodesOnlyReferencedChunks) {
  Timestamp t0 = Now();
  for (int i = 0; i < 200; i++) ASSERT_TRUE(Insert(1, i, t0 + i, i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());

  QueryBounds b;
  b.projection = {3};  // bytes. Keys decode regardless; rate must not.
  QueryTrace trace;
  QueryResult result;
  ASSERT_TRUE(table_->Query(b, &result, &trace).ok());
  ASSERT_EQ(result.rows.size(), 200u);
  EXPECT_EQ(result.rows[7][3].i64(), 7);
  EXPECT_EQ(result.rows[7][4].dbl(), 0.0);  // Unprojected -> default.
  const uint64_t skipped = table_->stats().column_chunks_skipped.load();
  const uint64_t decoded = table_->stats().column_chunks_decoded.load();
  EXPECT_GE(skipped, 1u);
  EXPECT_EQ(trace.column_chunks_skipped, skipped);
  // 5-column schema, 1 unreferenced: exactly 4 decodes per skip.
  EXPECT_EQ(decoded, 4 * skipped);

  // An unprojected query decodes the remaining chunks and skips nothing.
  QueryResult full;
  ASSERT_TRUE(table_->Query(QueryBounds{}, &full).ok());
  EXPECT_EQ(full.rows[7][4].dbl(), 0.0);  // rate was inserted as 0.0.
  EXPECT_EQ(table_->stats().column_chunks_skipped.load(), skipped);
  EXPECT_GT(table_->stats().column_chunks_decoded.load(), decoded);

  // Out-of-range projection indices are rejected up front.
  QueryBounds bad;
  bad.projection = {99};
  QueryResult ignored;
  EXPECT_TRUE(table_->Query(bad, &ignored).IsInvalidArgument());
}

TEST_F(TableTest, SlowQueryLogEmitsOneStructuredLine) {
  auto sink = std::make_shared<CaptureLogSink>();
  opts_.logger = std::make_shared<Logger>(LogLevel::kDebug, sink);
  opts_.slow_query_micros = 1;  // Everything is slow.
  Recreate();
  // Enough work that the query measurably takes >= 1 µs on any machine.
  for (int i = 0; i < 500; i++) ASSERT_TRUE(Insert(1, i, Now() + i, i).ok());
  ASSERT_TRUE(table_->FlushAll().ok());
  Query(QueryBounds{});

  auto slow_lines = [&] {
    std::vector<std::string> out;
    for (const std::string& line : sink->lines()) {
      if (line.find(" event=slow_query") != std::string::npos)
        out.push_back(line);
    }
    return out;
  };
  std::vector<std::string> slow = slow_lines();
  ASSERT_EQ(slow.size(), 1u);  // Exactly one line per slow query.
  const std::string& line = slow[0];
  EXPECT_NE(line.find(" table=\"usage\""), std::string::npos) << line;
  EXPECT_NE(line.find(" elapsed_us="), std::string::npos) << line;
  EXPECT_NE(line.find(" rows_scanned=500"), std::string::npos) << line;
  EXPECT_NE(line.find(" rows_returned=500"), std::string::npos) << line;
  EXPECT_NE(line.find(" tablets_considered=1"), std::string::npos) << line;
  EXPECT_NE(line.find(" tablets_pruned=0"), std::string::npos) << line;
  EXPECT_NE(line.find(" blocks_read="), std::string::npos) << line;
  EXPECT_NE(line.find(" cache_hits="), std::string::npos) << line;

  Query(QueryBounds{});
  EXPECT_EQ(slow_lines().size(), 2u);
}

TEST_F(TableTest, SlowQueryLogOffByDefault) {
  auto sink = std::make_shared<CaptureLogSink>();
  opts_.logger = std::make_shared<Logger>(LogLevel::kDebug, sink);
  ASSERT_EQ(opts_.slow_query_micros, 0);  // Default: disabled.
  Recreate();
  ASSERT_TRUE(Insert(1, 1, Now()).ok());
  Query(QueryBounds{});
  for (const std::string& line : sink->lines()) {
    EXPECT_EQ(line.find("slow_query"), std::string::npos) << line;
  }
}


// ---- Tablet bytes: the write path's output, pinned. ----

// A deterministic workload over every column type — int32, int64, double,
// string and blob cells, strings both inside and beyond std::string's
// inline capacity — flushed with a small flush_bytes (so memtablets seal by
// size) and small blocks, then merged. Every tablet
// file's length and CRC32C is pinned: a moved block boundary, seal point,
// Bloom bit or cell byte fails this test.
std::vector<std::string> PinnedTabletFiles() {
  MemEnv env;
  // Rows span the day boundary: two periods fill at once (§3.4.3).
  auto clock =
      std::make_shared<SimClock>(100 * kMicrosPerWeek + 3 * kMicrosPerHour);
  TableOptions opts;
  opts.flush_bytes = 256 << 10;
  opts.block_bytes = 2048;
  opts.merge.min_tablet_age = 0;
  opts.merge.rollover_delay_frac = 0;
  const Schema schema({Column("site", ColumnType::kInt32),
                       Column("host", ColumnType::kString),
                       Column("dev", ColumnType::kInt64),
                       Column("ts", ColumnType::kTimestamp),
                       Column("load", ColumnType::kDouble),
                       Column("payload", ColumnType::kBlob),
                       Column("count", ColumnType::kInt64),
                       Column("flags", ColumnType::kInt32)},
                      /*num_key_columns=*/4);
  std::unique_ptr<Table> table;
  EXPECT_TRUE(
      Table::Create(&env, clock, "/pin", "pin", schema, opts, &table).ok());
  if (!table) return {};

  Random rnd(20170514);
  std::vector<std::string> hosts;
  for (int h = 0; h < 8; h++) {
    hosts.push_back(h % 3 == 0 ? "host-with-a-long-name-" + std::to_string(h)
                               : "h" + std::to_string(h));
  }
  const Timestamp start = clock->Now() - 6 * kMicrosPerHour;
  for (int poll = 0; poll < 60; poll++) {
    std::vector<Row> batch;
    for (int site = 0; site < 3; site++) {
      for (int h = 0; h < 8; h++) {
        for (int dev = 0; dev < 4; dev++) {
          const Timestamp ts = start + poll * 5 * kMicrosPerMinute +
                               static_cast<Timestamp>(rnd.Uniform(1000));
          batch.push_back(
              {Value::Int32(site - 1), Value::String(hosts[h]),
               Value::Int64(dev * 1000003 - 2000000), Value::Ts(ts),
               Value::Double(static_cast<double>(rnd.Uniform(1 << 20)) / 7),
               Value::Blob(std::string(rnd.Uniform(40), 'a' + poll % 26)),
               Value::Int64(rnd.UniformRange(-1000000000, 1000000000)),
               Value::Int32(static_cast<int32_t>(rnd.Uniform(4)))});
        }
      }
    }
    // Not key order: the memtablet sorts.
    for (size_t i = batch.size(); i > 1; i--) {
      std::swap(batch[i - 1], batch[rnd.Uniform(i)]);
    }
    for (size_t i = 0; i < batch.size(); i += 64) {
      std::vector<Row> part(batch.begin() + i,
                            batch.begin() + std::min(batch.size(), i + 64));
      EXPECT_TRUE(table->InsertBatch(part).ok());
    }
  }
  std::vector<std::string> out;
  auto record = [&](const std::string& phase) {
    std::vector<std::string> names;
    EXPECT_TRUE(env.GetChildren("/pin", &names).ok());
    std::sort(names.begin(), names.end());
    for (const std::string& n : names) {
      if (n.size() < 4 || n.substr(n.size() - 4) != ".tab") continue;
      std::string data;
      EXPECT_TRUE(ReadFileToString(&env, "/pin/" + n, &data).ok());
      char line[96];
      snprintf(line, sizeof(line), "%s %s %zu %08x", phase.c_str(), n.c_str(),
               data.size(), crc32c::Value(data.data(), data.size()));
      out.push_back(line);
    }
  };
  EXPECT_TRUE(table->FlushAll().ok());
  record("flush");
  clock->Advance(kMicrosPerMinute);
  for (int i = 0; i < 16 && table->HasMaintenanceWork(); i++) {
    EXPECT_TRUE(table->MaintainNow().ok());
  }
  EXPECT_GE(table->stats().merges.load(), 1u);
  record("merge");
  return out;
}

// ----- Descriptor decoding fails closed. -----

// The column_codec_test bounds-fuzz matrix over TableDescriptor::Decode:
// every truncation, every single-bit flip and seeded random garbage must
// fail without touching the output. Bodies re-sealed with a valid
// checksum reach the parser behind it: every truncation and trailing
// garbage must still fail, a lying tablet count must fail before it sizes
// anything, and a flipped bit may decode (a name byte is still a name) but
// must never crash or half-fill the output.
TEST(DescriptorTest, DecodeFuzzFailsClosed) {
  TableDescriptor d;
  d.table_name = "usage";
  d.schema = testutil::V1FixtureSchema();
  d.ttl = 7 * kMicrosPerDay;
  d.next_file_seq = 300;
  for (int i = 0; i < 3; i++) {
    TabletMeta m;
    m.filename = "00000" + std::to_string(i) + ".tab";
    m.min_ts = -1000 + i;
    m.max_ts = 1ll << 50;
    m.file_bytes = 4096 * (i + 1);
    m.row_count = 300;
    m.flushed_at = 123456789;
    m.schema_version = 1;
    d.tablets.push_back(m);
  }
  const std::string enc = d.Encode();
  {
    TableDescriptor out;
    ASSERT_TRUE(TableDescriptor::Decode(enc, &out).ok());
    EXPECT_EQ(out.Encode(), enc);
  }

  TableDescriptor sentinel;
  sentinel.table_name = "sentinel";
  sentinel.schema = testutil::UsageSchema();
  sentinel.tablets.resize(1);
  const std::string sentinel_enc = sentinel.Encode();
  // Decodes `data` over a copy of the sentinel: false if it decoded; on
  // failure the copy must be untouched.
  auto decodes = [&](const std::string& data, const std::string& what) {
    TableDescriptor out = sentinel;
    if (TableDescriptor::Decode(data, &out).ok()) return true;
    EXPECT_EQ(out.Encode(), sentinel_enc) << what;
    return false;
  };
  auto seal = [](std::string body) {
    PutFixed32(&body, crc32c::Mask(crc32c::Value(body.data(), body.size())));
    return body;
  };
  const std::string body = enc.substr(0, enc.size() - 4);

  for (size_t len = 0; len < enc.size(); len++) {
    EXPECT_FALSE(decodes(enc.substr(0, len), "truncated to " + std::to_string(len)));
  }
  for (size_t len = 0; len < body.size(); len++) {
    EXPECT_FALSE(decodes(seal(body.substr(0, len)),
                         "body resealed at " + std::to_string(len)));
  }
  EXPECT_FALSE(decodes(seal(body + '\0'), "trailing byte"));
  for (size_t pos = 0; pos < enc.size(); pos++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string bad = enc;
      bad[pos] ^= static_cast<char>(1u << bit);
      const std::string where =
          "pos=" + std::to_string(pos) + " bit=" + std::to_string(bit);
      EXPECT_FALSE(decodes(bad, where));
      if (pos < body.size()) {
        decodes(seal(bad.substr(0, body.size())), "resealed " + where);
      }
    }
  }
  {
    // A body that claims 2^60 tablets and holds none.
    TableDescriptor empty = d;
    empty.tablets.clear();
    std::string head = empty.Encode();
    head.resize(head.size() - 5);  // Drops the CRC and the count of 0.
    PutVarint64(&head, 1ull << 60);
    EXPECT_FALSE(decodes(seal(head), "tablet count 2^60"));
  }
  Random rnd(20261019);
  for (int i = 0; i < 3000; i++) {
    std::string garbage = rnd.Bytes(rnd.Uniform(120));
    EXPECT_FALSE(decodes(garbage, "garbage #" + std::to_string(i)));
    // Garbage behind the real magic and name, re-sealed.
    decodes(seal(body.substr(0, 14) + garbage), "sealed garbage");
  }
}

TEST(TabletBytesTest, FlushAndMergeOutputIsPinned) {
  // Recorded from the Row-based write path (std::set memtablet, flush and
  // merge through TabletWriter::Add(const Row&)).
  const std::vector<std::string> expected = {
      "flush 000001.tab 21505 e4f105f6",
      "flush 000002.tab 21455 f51a6a0c",
      "flush 000003.tab 21538 3e9450e6",
      "flush 000004.tab 21552 86822ae1",
      "flush 000005.tab 21567 33f5b92c",
      "flush 000006.tab 1625 52441090",
      "flush 000007.tab 21412 a6aff588",
      "flush 000008.tab 21461 06335c15",
      "flush 000009.tab 21471 d4d4636e",
      "flush 000010.tab 8369 da317df1",
      "merge 000011.tab 104820 749eec64",
      "merge 000012.tab 70526 6a47bde6",
  };
  EXPECT_EQ(PinnedTabletFiles(), expected);
}

}  // namespace
}  // namespace lt
