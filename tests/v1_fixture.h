// The committed format-1 tablet (tests/data/v1_fixture.tab) and the seeded
// rows it holds. Tablet format 1 — row-wise blocks, whole-block lzmini, a
// CRC per stored block in the index — is still read but no longer written,
// so this file is the only v1 tablet the tests have. It was written once by
// a TabletWriter at format 1 with 512-byte blocks and the default Bloom
// filter, from V1FixtureRows(); the tests regenerate the same rows as their
// model, and the pinned length and CRC32C catch any change to the file.
//
// The tests find it through LT_V1_FIXTURE, a compile definition holding its
// absolute path (tests/CMakeLists.txt), so a test binary runs from any
// working directory.
#ifndef LITTLETABLE_TESTS_V1_FIXTURE_H_
#define LITTLETABLE_TESTS_V1_FIXTURE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tablet_meta.h"
#include "core/tablet_writer.h"
#include "env/env.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace lt {
namespace testutil {

constexpr char kV1FixturePath[] = LT_V1_FIXTURE;
constexpr size_t kV1FixtureRows = 300;
constexpr uint64_t kV1FixtureBytes = 18076;
constexpr uint32_t kV1FixtureCrc = 0x316c5d4bu;
/// Every fixture row's ts lies in [base, base + 2 s).
constexpr Timestamp kV1FixtureBaseTs = 90 * kMicrosPerWeek;

/// Four key columns — int32, string, int64, ts — then double, blob, int64
/// and int32 values: every column type, as in the pinned-bytes workload.
inline Schema V1FixtureSchema() {
  return Schema({Column("site", ColumnType::kInt32),
                 Column("host", ColumnType::kString),
                 Column("dev", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("load", ColumnType::kDouble),
                 Column("payload", ColumnType::kBlob),
                 Column("count", ColumnType::kInt64),
                 Column("flags", ColumnType::kInt32)},
                /*num_key_columns=*/4);
}

/// The fixture's rows, ascending by key: three sites by five hosts (names
/// inside and beyond std::string's inline capacity) by four devices by
/// five timestamps. Values cover extreme int32s, signed wide int64s, and
/// blobs with NUL and high bytes.
inline std::vector<Row> V1FixtureRows() {
  const Schema schema = V1FixtureSchema();
  Random rnd(20260806);
  const std::vector<std::string> hosts = {
      "a", "h1", "host-with-a-long-name-2", "sw3.sjc", "zz"};
  std::vector<Row> rows;
  for (int site = -1; site <= 1; site++) {
    for (const std::string& host : hosts) {
      for (int dev = 0; dev < 4; dev++) {
        for (int k = 0; k < 5; k++) {
          const Timestamp ts = kV1FixtureBaseTs + k * 400 * 1000 +
                               static_cast<Timestamp>(rnd.Uniform(400)) * 1000;
          int32_t flags = static_cast<int32_t>(rnd.UniformRange(-3, 3));
          if (rnd.Bernoulli(0.1)) flags = rnd.Bernoulli(0.5) ? INT32_MIN : INT32_MAX;
          rows.push_back(
              {Value::Int32(site), Value::String(host),
               Value::Int64(dev * 1000003 - 2000000), Value::Ts(ts),
               Value::Double(static_cast<double>(rnd.Uniform(1 << 20)) / 7),
               Value::Blob(rnd.Bytes(rnd.Uniform(40))),
               Value::Int64(rnd.UniformRange(-1000000000, 1000000000)),
               Value::Int32(flags)});
        }
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return schema.CompareKeys(a, b) < 0;
  });
  return rows;
}

/// The fixture's bytes, failing unless they match the pinned length and
/// CRC32C.
inline Status ReadV1Fixture(std::string* data) {
  LT_RETURN_IF_ERROR(ReadFileToString(Env::Default(), kV1FixturePath, data));
  if (data->size() != kV1FixtureBytes ||
      crc32c::Value(data->data(), data->size()) != kV1FixtureCrc) {
    return Status::Corruption("v1 fixture differs from its pinned bytes");
  }
  return Status::OK();
}

/// What a table descriptor records for the fixture installed as `filename`.
inline TabletMeta V1FixtureMeta(const std::string& filename) {
  const std::vector<Row> rows = V1FixtureRows();
  const size_t ts = V1FixtureSchema().ts_index();
  TabletMeta meta;
  meta.filename = filename;
  meta.min_ts = meta.max_ts = rows[0][ts].i64();
  for (const Row& row : rows) {
    meta.min_ts = std::min(meta.min_ts, row[ts].i64());
    meta.max_ts = std::max(meta.max_ts, row[ts].i64());
  }
  meta.file_bytes = kV1FixtureBytes;
  meta.row_count = rows.size();
  meta.schema_version = V1FixtureSchema().version();
  return meta;
}

/// A format-0 tablet: the fixture with its trailer magic swapped for
/// format 0's. The trailer CRC covers only the stored footer, so every
/// other byte stays valid.
inline std::string AsFormat0(std::string tablet) {
  EncodeFixed64(tablet.data() + tablet.size() - 8, kTabletMagic);
  return tablet;
}

}  // namespace testutil
}  // namespace lt

#endif  // LITTLETABLE_TESTS_V1_FIXTURE_H_
