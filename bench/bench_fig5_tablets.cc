// Figure 5 reproduction: query throughput vs. number of tablets.
//
// Paper (§5.1.5): a 2 GB table of 128-byte rows split into 1..128 tablets;
// a single reader scans the whole table. Because every tablet spans the
// whole key space, the merge cursor interleaves block reads across tablets
// and the disk arm seeks between them. With the default 128 kB readahead,
// throughput levels off around 24 MB/s (the paper credits the drive's
// internal cache for beating the naive 12-13 MB/s estimate); with 1 MB
// readahead it levels off around 40 MB/s. This effect is the motivation for
// merging tablets (§3.4.1).
//
// Scaled default: 128 MB table. Throughput counts simulated disk time plus
// CPU time.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"

namespace lt {
namespace bench {
namespace {

// Builds `tablets` on-disk tablets, each spanning the whole key space, and
// returns the table.
std::shared_ptr<Table> BuildTable(BenchEnv* env, size_t total_bytes,
                                  int tablets) {
  TableOptions topts;
  topts.flush_bytes = 1ull << 40;                 // Never size-seal.
  topts.merge.min_tablet_age = 1ull << 40;        // Never merge.
  Status s = env->db()->CreateTable("t", MicroSchema(), &topts);
  if (!s.ok()) abort();
  auto table = env->db()->GetTable("t");

  Random rng(99);
  const size_t row_bytes = 128;
  const size_t rows_total = total_bytes / row_bytes;
  const size_t rows_per_tablet = rows_total / tablets;
  uint64_t key = 0;
  for (int t = 0; t < tablets; t++) {
    std::vector<Row> batch;
    Timestamp now = env->clock()->Now();
    for (size_t i = 0; i < rows_per_tablet; i++) {
      // Interleave keys across tablets: tablet t holds keys = t (mod
      // tablets), so a full scan's merge cursor alternates between all
      // tablets (every tablet covers the whole key range).
      uint64_t k = (static_cast<uint64_t>(i) * tablets + t) << 8;
      batch.push_back(MicroRow(&rng, k, now + static_cast<Timestamp>(key),
                               row_bytes));
      key++;
    }
    if (!table->InsertBatch(batch).ok()) abort();
    if (!table->FlushAll().ok()) abort();
    env->AdvanceClock(kMicrosPerSecond);
  }
  return table;
}

// Scan throughput and on-disk footprint for the paper's usage schema
// (Figure 1): regular timestamps, monotone counters, slowly moving rates —
// the shape the v2 per-column encodings target. Returns rows/s through a
// cold full scan; *disk_bytes gets the total tablet footprint.
double UsageScan(size_t rows, int tablets, uint64_t* disk_bytes) {
  BenchEnv env;
  Schema usage({Column("network", ColumnType::kInt64),
                Column("device", ColumnType::kInt64),
                Column("ts", ColumnType::kTimestamp),
                Column("bytes", ColumnType::kInt64),
                Column("rate", ColumnType::kDouble)},
               3);
  TableOptions topts;
  topts.flush_bytes = 1ull << 40;
  topts.merge.min_tablet_age = 1ull << 40;
  if (!env.db()->CreateTable("usage", usage, &topts).ok()) abort();
  auto table = env.db()->GetTable("usage");

  Random rng(55);
  const size_t rows_per_tablet = rows / tablets;
  int64_t ctr = 0;
  for (int t = 0; t < tablets; t++) {
    std::vector<Row> batch;
    for (size_t i = 0; i < rows_per_tablet; i++) {
      // Tablet t holds devices = t (mod tablets): every tablet spans the
      // key space, as in the MicroSchema phases above.
      uint64_t device = i * tablets + t;
      ctr += static_cast<int64_t>(rng.Uniform(1500));
      batch.push_back(
          {Value::Int64(static_cast<int64_t>(device / 10000)),
           Value::Int64(static_cast<int64_t>(device % 10000)),
           Value::Ts(1700000000000000LL + static_cast<int64_t>(t) * 20000000),
           Value::Int64(ctr),
           Value::Double(98.5 + static_cast<double>(rng.Uniform(64)) * 0.125)});
    }
    if (!table->InsertBatch(batch).ok()) abort();
    if (!table->FlushAll().ok()) abort();
    env.AdvanceClock(kMicrosPerSecond);
  }

  *disk_bytes = 0;
  std::vector<std::string> children;
  if (!env.disk()->GetChildren("/bench/usage", &children).ok()) abort();
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".tab") continue;
    uint64_t bytes = 0;
    if (!env.disk()->GetFileSize("/bench/usage/" + name, &bytes).ok()) abort();
    *disk_bytes += bytes;
  }

  env.ClearCaches();
  env.StartTimer();
  uint64_t rows_read = 0;
  QueryBounds page;
  while (true) {
    QueryResult result;
    if (!table->Query(page, &result).ok()) abort();
    rows_read += result.rows.size();
    if (!result.more_available) break;
    page.min_key =
        KeyBound{usage.KeyOf(result.rows.back()), /*inclusive=*/false};
  }
  int64_t micros = env.StopTimerMicros();
  return static_cast<double>(rows_read) / (static_cast<double>(micros) / 1e6);
}

}  // namespace
}  // namespace bench
}  // namespace lt

int main(int argc, char** argv) {
  using namespace lt;
  using namespace lt::bench;
  size_t total_bytes = 128u << 20;  // Scaled from the paper's 2 GB.
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--full") == 0) total_bytes = 2048u << 20;
  }

  PrintHeader("Figure 5", "Query throughput vs. number of tablets");
  printf("%-10s %-22s %-22s\n", "tablets", "128kB readahead MB/s",
         "1MB readahead MB/s");

  for (int tablets : {1, 2, 4, 8, 16, 32, 64, 128}) {
    double results[2];
    for (int mode = 0; mode < 2; mode++) {
      BenchEnv env;
      env.disk()->SetReadahead(mode == 0 ? 128u * 1024 : 1u << 20);
      auto table = BuildTable(&env, total_bytes, tablets);
      env.ClearCaches();

      env.StartTimer();
      QueryBounds all;
      all.limit = 0;
      uint64_t rows_read = 0;
      // Paginate through the full scan (server row cap applies per page).
      QueryBounds page = all;
      while (true) {
        QueryResult result;
        if (!table->Query(page, &result).ok()) abort();
        rows_read += result.rows.size();
        if (!result.more_available) break;
        page.min_key = KeyBound{MicroSchema().KeyOf(result.rows.back()),
                                /*inclusive=*/false};
      }
      int64_t micros = env.StopTimerMicros();
      double mb = static_cast<double>(rows_read) * 128 / 1e6;
      results[mode] = mb / (static_cast<double>(micros) / 1e6);
      if (!env.db()->DropTable("t").ok()) abort();
    }
    printf("%-10d %-22.1f %-22.1f\n", tablets, results[0], results[1]);
  }

  // The same simulated spindle streaming the paper's usage schema: v2's
  // per-column encodings shrink the tablets, so the full scan moves fewer
  // disk bytes per row.
  printf("\n[format v2] usage-schema scan, 8 tablets\n");
  printf("%-10s %-14s %-14s %-14s\n", "rows", "bytes", "B/row", "row/s");
  const size_t usage_rows = 400000;
  uint64_t bytes;
  double rps = UsageScan(usage_rows, 8, &bytes);
  printf("%-10zu %-14llu %-14.2f %-14.0f\n", usage_rows,
         (unsigned long long)bytes,
         static_cast<double>(bytes) / static_cast<double>(usage_rows), rps);
  return 0;
}
