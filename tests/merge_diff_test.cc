// Differential test for the merge's write path. TabletWriter::AddMerged
// runs a MergingCursor a run at a time and each tablet cursor hands its
// stretches to the writer as decoded block columns, so no row is encoded
// between the input blocks and the output block. The reference is the
// row-at-a-time merge every merge ran before: step the MergingCursor one
// row at a time and add each row's AppendEncoded bytes with
// TabletWriter::Add(const Slice&). Both read the same input tablets, so
// their output files must be byte-identical, for
//   - random schemas: int32/int64/string/blob key columns, int32, int64,
//     double, string and blob values, non-zero defaults;
//   - inputs written under older schema versions, before an int32 column
//     was widened and before a column was appended;
//   - the committed format-1 tablet as one input, beside format-2 ones;
//   - tiny and odd output block sizes, so block cuts fall inside runs;
//   - TTL cutoffs that drop nothing, each group's earliest rows, whole
//     groups in the middle of key order, or every row (no output).
// A bit flipped in an input block must fail a Table's merge as before:
// the inputs stay live and no output file is left behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "core/cursor.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "tests/test_util.h"
#include "tests/v1_fixture.h"
#include "util/coding.h"
#include "util/random.h"

namespace lt {
namespace {

// ---- Random schemas, keys and rows. ----

Value RandomCell(Random* rnd, ColumnType t) {
  static const char* const kStrings[] = {"", "a", "ab", "b",
                                         "host-with-a-long-name", "zz"};
  switch (t) {
    case ColumnType::kInt32:
      switch (rnd->Uniform(6)) {
        case 0: return Value::Int32(INT32_MIN);
        case 1: return Value::Int32(INT32_MAX);
        default: return Value::Int32(static_cast<int32_t>(rnd->UniformRange(-300, 300)));
      }
    case ColumnType::kInt64:
      return rnd->Bernoulli(0.1) ? Value::Int64(INT64_MIN + rnd->UniformRange(0, 5))
                                 : Value::Int64(rnd->UniformRange(-100000, 100000));
    case ColumnType::kTimestamp:
      return Value::Ts(rnd->UniformRange(0, 1000));
    case ColumnType::kDouble:
      return rnd->Bernoulli(0.2) ? Value::Double(-0.0)
                                 : Value::Double(rnd->UniformRange(-500, 500) / 8.0);
    case ColumnType::kString:
      return Value::String(kStrings[rnd->Uniform(6)]);
    case ColumnType::kBlob:
      return Value::Blob(rnd->Bytes(rnd->Uniform(30)));
  }
  return Value();
}

// Key columns: 1-3 of int32/int64/string/blob, then ts. Values: an int32
// "w" (widened later), then 0-3 of any value type, some with non-zero
// defaults.
Schema RandomSchema(Random* rnd) {
  static const ColumnType kKeyTypes[] = {ColumnType::kInt32, ColumnType::kInt64,
                                         ColumnType::kString, ColumnType::kBlob};
  static const ColumnType kValueTypes[] = {ColumnType::kInt32, ColumnType::kInt64,
                                           ColumnType::kDouble, ColumnType::kString,
                                           ColumnType::kBlob};
  std::vector<Column> cols;
  const size_t nkeys = 1 + rnd->Uniform(3);
  for (size_t i = 0; i < nkeys; i++) {
    cols.emplace_back("k" + std::to_string(i), kKeyTypes[rnd->Uniform(4)]);
  }
  cols.emplace_back("ts", ColumnType::kTimestamp);
  cols.emplace_back("w", ColumnType::kInt32, Value::Int32(-1));
  const size_t extra = rnd->Uniform(4);
  for (size_t i = 0; i < extra; i++) {
    const ColumnType t = kValueTypes[rnd->Uniform(5)];
    cols.emplace_back("v" + std::to_string(i), t, RandomCell(rnd, t));
  }
  return Schema(std::move(cols), nkeys + 1);
}

// Distinct full keys in groups that share their leading key cells. Each
// group's timestamps start at their own random base, so a ts cutoff drops
// each group's earliest rows and whole groups scattered through key order.
std::vector<Key> RandomKeys(const Schema& schema, Random* rnd) {
  const size_t lead = schema.num_key_columns() - 1;
  std::vector<Key> keys;
  const size_t groups = 2 + rnd->Uniform(12);
  for (size_t g = 0; g < groups; g++) {
    Key prefix;
    for (size_t c = 0; c < lead; c++) {
      prefix.push_back(RandomCell(rnd, schema.columns()[c].type));
    }
    const Timestamp base = rnd->UniformRange(0, 5000);
    const size_t n = 1 + rnd->Uniform(60);
    for (size_t k = 0; k < n; k++) {
      Key key = prefix;
      key.push_back(Value::Ts(base + static_cast<Timestamp>(3 * k + rnd->Uniform(3))));
      keys.push_back(std::move(key));
    }
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    return schema.CompareKeys(a, b) < 0;
  });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [&](const Key& a, const Key& b) {
                           return schema.CompareKeys(a, b) == 0;
                         }),
             keys.end());
  return keys;
}

// `key` completed with random values under `schema`.
Row RowOf(const Schema& schema, const Key& key, Random* rnd) {
  Row row = key;
  for (size_t c = key.size(); c < schema.num_columns(); c++) {
    row.push_back(RandomCell(rnd, schema.columns()[c].type));
  }
  return row;
}

// ---- The two merges. ----

Status WriteTablet(Env* env, const std::string& fname, const Schema& schema,
                   const std::vector<Row>& rows, size_t block_bytes) {
  TabletWriterOptions o;
  o.block_bytes = block_bytes;
  o.sync = false;
  TabletWriter w(env, fname, &schema, o);
  for (const Row& row : rows) LT_RETURN_IF_ERROR(w.Add(row));
  TabletMeta meta;
  return w.Finish(&meta);
}

// A merge input: a tablet, or rows under the merge's schema served by a
// VectorCursor, which hands a writer its rows through the one-row loop.
struct Input {
  std::shared_ptr<TabletReader> reader;
  std::vector<Row> rows;
};

std::vector<std::unique_ptr<Cursor>> Cursors(const std::vector<Input>& inputs,
                                             const Schema* schema) {
  std::vector<std::unique_ptr<Cursor>> cursors;
  for (const Input& in : inputs) {
    std::unique_ptr<Cursor> c;
    if (in.reader == nullptr) {
      c = std::make_unique<VectorCursor>(schema, in.rows, Direction::kAscending);
    } else {
      EXPECT_TRUE(in.reader->NewCursor(QueryBounds(), schema, nullptr, &c).ok());
    }
    cursors.push_back(std::move(c));
  }
  return cursors;
}

struct Output {
  Status status;
  uint64_t rows = 0;
  std::string bytes;  // The finished file.
};

Output Finished(Env* env, const std::string& fname, TabletWriter* w, Status s) {
  Output out;
  out.rows = w->rows_added();
  TabletMeta meta;
  if (s.ok()) s = w->Finish(&meta);
  if (s.ok()) s = ReadFileToString(env, fname, &out.bytes);
  out.status = s;
  return out;
}

// The merge under test: runs of decoded block columns.
Output RunMerge(Env* env, const std::vector<Input>& inputs,
                const Schema* schema, Timestamp cutoff,
                const TabletWriterOptions& o) {
  TabletWriter w(env, "/run.tab", schema, o);
  Status s = w.AddMerged(Cursors(inputs, schema), cutoff);
  return Finished(env, "/run.tab", &w, s);
}

// The reference: one row at a time, through each row's encoding.
Output RowMerge(Env* env, const std::vector<Input>& inputs,
                const Schema* schema, Timestamp cutoff,
                const TabletWriterOptions& o) {
  TabletWriter w(env, "/row.tab", schema, o);
  MergingCursor merged(schema, Cursors(inputs, schema), Direction::kAscending);
  std::string row;
  Status s;
  while (s.ok() && merged.Valid()) {
    if (merged.ts() >= cutoff) {
      row.clear();
      merged.AppendEncoded(&row);
      s = w.Add(Slice(row));
    }
    if (s.ok()) s = merged.Next();
  }
  return Finished(env, "/row.tab", &w, s);
}

// Output block sizes: one row per block, odd sizes that cut inside runs,
// and the default.
constexpr size_t kBlockBytes[] = {1, 7, 61, 333, 4096, 64 * 1024};

// Merges `inputs` both ways under `schema` for every output block size and
// each cutoff, requiring identical files; `live(cutoff)` is the number of
// rows at or past the cutoff.
void ExpectSameMerges(Env* env, const std::vector<Input>& inputs,
                      const Schema& schema,
                      const std::vector<Timestamp>& cutoffs,
                      const std::function<uint64_t(Timestamp)>& live,
                      Random* rnd) {
  for (size_t block_bytes : kBlockBytes) {
    for (Timestamp cutoff : cutoffs) {
      TabletWriterOptions o;
      o.block_bytes = block_bytes;
      o.bloom_bits_per_key = rnd->Bernoulli(0.2) ? 0 : 10;
      o.sync = false;
      SCOPED_TRACE("block_bytes=" + std::to_string(block_bytes) +
                   " cutoff=" + std::to_string(cutoff) +
                   " bloom=" + std::to_string(o.bloom_bits_per_key));
      const Output run = RunMerge(env, inputs, &schema, cutoff, o);
      const Output ref = RowMerge(env, inputs, &schema, cutoff, o);
      ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_EQ(run.rows, live(cutoff));
      EXPECT_EQ(run.rows, ref.rows);
      EXPECT_TRUE(run.bytes == ref.bytes)
          << "run " << run.bytes.size() << " bytes, reference "
          << ref.bytes.size() << " bytes";
    }
  }
}

// Cutoffs over `ts`: none dropped, a quarter, half, every row, and one at
// random.
std::vector<Timestamp> CutoffsOf(std::vector<Timestamp> ts, Random* rnd) {
  std::sort(ts.begin(), ts.end());
  return {std::numeric_limits<Timestamp>::min(), ts[ts.size() / 4],
          ts[ts.size() / 2], ts.back() + 1,
          ts[rnd->Uniform(ts.size())]};
}

TEST(MergeDiffTest, RandomSchemasAndVersionsMatchRowAtATime) {
  for (uint64_t seed = 1; seed <= 40; seed++) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Random rnd(seed);
    // Three versions: as created, with "w" widened, with a column appended.
    const Schema v1 = RandomSchema(&rnd);
    Result<Schema> widened = v1.WithWidenedColumn("w");
    ASSERT_TRUE(widened.ok());
    const Schema v2 = widened.value();
    const ColumnType added_type =
        static_cast<ColumnType>(1 + rnd.Uniform(6));
    Result<Schema> appended = v2.WithAppendedColumn(
        Column("added", added_type, RandomCell(&rnd, added_type)));
    ASSERT_TRUE(appended.ok());
    const Schema v3 = appended.value();
    const Schema* versions[] = {&v1, &v2, &v3};

    // Keys dealt to 1-5 inputs at random, so the merge interleaves them;
    // each input is a tablet written under a random version or, now and
    // then, rows under the newest.
    const std::vector<Key> keys = RandomKeys(v1, &rnd);
    const size_t ninputs = 1 + rnd.Uniform(5);
    std::vector<std::vector<Key>> dealt(ninputs);
    for (const Key& key : keys) dealt[rnd.Uniform(ninputs)].push_back(key);
    MemEnv env;
    std::vector<Input> inputs;
    for (size_t i = 0; i < ninputs; i++) {
      if (dealt[i].empty()) continue;
      const bool as_rows = rnd.Bernoulli(0.15);
      const Schema& schema = as_rows ? v3 : *versions[rnd.Uniform(3)];
      Input in;
      for (const Key& key : dealt[i]) in.rows.push_back(RowOf(schema, key, &rnd));
      if (!as_rows) {
        const std::string fname = "/in" + std::to_string(i) + ".tab";
        ASSERT_TRUE(WriteTablet(&env, fname, schema, in.rows,
                                64 + rnd.Uniform(4096))
                        .ok());
        ASSERT_TRUE(TabletReader::Open(&env, fname, &in.reader).ok());
        ASSERT_TRUE(in.reader->Load().ok());
      }
      inputs.push_back(std::move(in));
    }

    std::vector<Timestamp> ts;
    for (const Key& key : keys) ts.push_back(key.back().AsInt());
    auto live = [&](Timestamp cutoff) {
      return static_cast<uint64_t>(std::count_if(
          ts.begin(), ts.end(), [&](Timestamp t) { return t >= cutoff; }));
    };
    ExpectSameMerges(&env, inputs, v3, CutoffsOf(ts, &rnd), live, &rnd);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MergeDiffTest, V1FixtureAsOneInputMatchesRowAtATime) {
  std::string fixture;
  ASSERT_TRUE(testutil::ReadV1Fixture(&fixture).ok());
  MemEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, fixture, "/v1.tab", false).ok());
  const Schema v1 = testutil::V1FixtureSchema();
  const std::vector<Row> fixture_rows = testutil::V1FixtureRows();

  // Format-2 inputs under the fixture's schema: later polls of the
  // fixture's own devices (each device's runs alternate between inputs)
  // and hosts that sort between the fixture's.
  Random rnd(20261019);
  std::vector<Row> later, between;
  for (const Row& r : fixture_rows) {
    if (rnd.Bernoulli(0.5)) {
      Row row = r;
      row[3] = Value::Ts(r[3].i64() + 2 * kMicrosPerSecond);
      later.push_back(std::move(row));
    }
    if (rnd.Bernoulli(0.3)) {
      Row row = r;
      row[1] = Value::String(r[1].bytes() + "+");
      between.push_back(std::move(row));
    }
  }
  auto by_key = [&](const Row& a, const Row& b) {
    return v1.CompareKeys(a, b) < 0;
  };
  std::sort(later.begin(), later.end(), by_key);
  std::sort(between.begin(), between.end(), by_key);
  ASSERT_TRUE(WriteTablet(&env, "/later.tab", v1, later, 300).ok());
  ASSERT_TRUE(WriteTablet(&env, "/between.tab", v1, between, 1000).ok());

  std::vector<Input> inputs;
  for (const char* fname : {"/v1.tab", "/later.tab", "/between.tab"}) {
    Input in;
    ASSERT_TRUE(TabletReader::Open(&env, fname, &in.reader).ok());
    ASSERT_TRUE(in.reader->Load().ok());
    inputs.push_back(std::move(in));
  }
  ASSERT_EQ(inputs[0].reader->format_version(), 1u);

  std::vector<Timestamp> ts;
  for (const std::vector<Row>& rows : {fixture_rows, later, between}) {
    for (const Row& r : rows) ts.push_back(r[3].i64());
  }
  auto live = [&](Timestamp cutoff) {
    return static_cast<uint64_t>(std::count_if(
        ts.begin(), ts.end(), [&](Timestamp t) { return t >= cutoff; }));
  };
  // Merged as written, and after "flags" is widened and a column appended.
  Result<Schema> widened = v1.WithWidenedColumn("flags");
  ASSERT_TRUE(widened.ok());
  Result<Schema> appended = widened.value().WithAppendedColumn(
      Column("note", ColumnType::kString, Value::String("n/a")));
  ASSERT_TRUE(appended.ok());
  const Schema& evolved = appended.value();
  for (const Schema* schema : {&v1, &evolved}) {
    SCOPED_TRACE("schema version " + std::to_string(schema->version()));
    ExpectSameMerges(&env, inputs, *schema, CutoffsOf(ts, &rnd), live, &rnd);
  }
}

// ---- A corrupt input block fails the merge; nothing is lost. ----

TEST(MergeDiffTest, CorruptInputBlockFailsMergeAndKeepsInputs) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  TableOptions opts;
  opts.block_bytes = 512;
  opts.merge.min_tablet_age = 0;
  opts.merge.rollover_delay_frac = 0;
  opts.merge.max_merged_bytes = 1ull << 30;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&env, clock, "/db/usage", "usage",
                            testutil::UsageSchema(), opts, &table)
                  .ok());
  const Timestamp t0 = clock->Now() - 10 * kMicrosPerWeek;
  for (int flush = 0; flush < 3; flush++) {
    std::vector<Row> batch;
    for (int i = 0; i < 400; i++) {
      batch.push_back(testutil::UsageRow(i % 7, i, t0 + flush * 1000 + i, i, 0.5));
    }
    ASSERT_TRUE(table->InsertBatch(batch).ok());
    ASSERT_TRUE(table->FlushAll().ok());
  }
  const std::vector<TabletMeta> before = table->DiskTablets();
  ASSERT_EQ(before.size(), 3u);
  std::vector<std::string> files_before;
  ASSERT_TRUE(env.GetChildren("/db/usage", &files_before).ok());
  std::sort(files_before.begin(), files_before.end());

  // One bit three quarters into the second tablet's blocks (the trailer
  // holds the footer's offset, where they end): inside a block past its
  // first, so opening a cursor succeeds and the merge fails mid-way (a
  // damaged first block quarantines the tablet instead).
  const std::string victim = "/db/usage/" + before[1].filename;
  std::string file;
  ASSERT_TRUE(ReadFileToString(&env, victim, &file).ok());
  const uint64_t offset =
      DecodeFixed64(file.data() + file.size() - 16) * 3 / 4;
  ASSERT_TRUE(env.CorruptFile(victim, offset, 0x10).ok());
  {
    std::shared_ptr<TabletReader> reader;
    ASSERT_TRUE(TabletReader::Open(&env, victim, &reader).ok());
    std::unique_ptr<Cursor> c;
    ASSERT_TRUE(reader->NewCursor(QueryBounds(), &reader->tablet_schema(),
                                  nullptr, &c)
                    .ok());
    while (c->Valid()) c->Next();
    ASSERT_TRUE(c->status().IsCorruption()) << "flip missed the blocks";
  }

  Status s = table->MaintainNow();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(table->stats().merge_failures.load(), 1u);
  EXPECT_EQ(table->stats().merges.load(), 0u);
  EXPECT_EQ(table->stats().tablets_quarantined.load(), 0u);
  std::vector<std::string> names_before, names_after;
  for (const TabletMeta& m : before) names_before.push_back(m.filename);
  for (const TabletMeta& m : table->DiskTablets()) {
    names_after.push_back(m.filename);
  }
  EXPECT_EQ(names_after, names_before);
  std::vector<std::string> files_after;
  ASSERT_TRUE(env.GetChildren("/db/usage", &files_after).ok());
  std::sort(files_after.begin(), files_after.end());
  EXPECT_EQ(files_after, files_before);  // No output file left behind.

  // Mended, the next attempt after the backoff merges every row.
  ASSERT_TRUE(env.CorruptFile(victim, offset, 0x10).ok());
  clock->Advance(kMicrosPerHour);
  ASSERT_TRUE(table->MaintainNow().ok());
  EXPECT_EQ(table->stats().merges.load(), 1u);
  QueryResult result;
  ASSERT_TRUE(table->Query(QueryBounds(), &result).ok());
  EXPECT_EQ(result.rows.size(), 1200u);
}

}  // namespace
}  // namespace lt
