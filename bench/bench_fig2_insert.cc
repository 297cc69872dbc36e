// Figure 2 reproduction: insert throughput vs. batch size and row size.
//
// Paper (§5.1.2): a single client inserts 500 MB into one table. The solid
// line fixes 128-byte rows and varies the per-command batch size from 256 B
// to 1 MB — throughput rises as per-command overhead amortizes. The dashed
// line fixes 64 kB batches and varies the row size from 32 B to 32 kB —
// throughput rises from ~12% of peak disk rate (32 B rows) to ~63% (4 kB)
// as per-row costs amortize.
//
// Timestamps are the current time (the common Dashboard pattern) and
// payloads are xorshift-random, defeating block compression, exactly as the
// paper's setup describes. Elapsed time includes flushing everything to the
// simulated disk.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"

namespace lt {
namespace bench {
namespace {

// Inserts ~total_bytes over the wire (one command per batch, like the
// paper's client) into a fresh table; returns MB/s. Per-command overhead —
// framing, a round trip, schema-versioned encoding — is what makes small
// batches slow (the solid line).
double RunInsert(size_t row_bytes, size_t batch_bytes, size_t total_bytes) {
  BenchEnv env;
  LittleTableServer server(env.db(), 0);
  if (!server.Start().ok()) abort();
  std::unique_ptr<Client> client;
  if (!Client::Connect("127.0.0.1", server.port(), &client).ok()) abort();

  TableOptions topts;
  topts.merge.min_tablet_age = 90 * kMicrosPerSecond;
  Status s = env.db()->CreateTable("t", MicroSchema(), &topts);
  if (!s.ok()) abort();
  Random rng(42);

  size_t rows_per_batch = batch_bytes / row_bytes;
  if (rows_per_batch == 0) rows_per_batch = 1;

  env.StartTimer();
  size_t sent = 0;
  uint64_t key = 0;
  while (sent < total_bytes) {
    std::vector<Row> batch;
    batch.reserve(rows_per_batch);
    Timestamp now = env.clock()->Now();
    for (size_t i = 0; i < rows_per_batch; i++) {
      batch.push_back(MicroRow(&rng, key, now + static_cast<Timestamp>(key), row_bytes));
      key++;
    }
    Status st = client->Insert("t", batch);
    if (!st.ok()) {
      fprintf(stderr, "insert: %s\n", st.ToString().c_str());
      abort();
    }
    sent += rows_per_batch * row_bytes;
  }
  Status fs = env.db()->GetTable("t")->FlushAll();
  if (!fs.ok()) abort();
  int64_t micros = env.StopTimerMicros();
  double mb = static_cast<double>(sent) / 1e6;
  double result = mb / (static_cast<double>(micros) / 1e6);
  server.Stop();
  return result;
}

// On-disk bytes after inserting `rows` paper-schema (Figure 1) usage rows
// and flushing. The usage shape — regular timestamps, monotone counters,
// slowly moving rates — is where the v2 per-column encodings pay;
// MicroSchema's incompressible padding is not.
uint64_t UsageTableDiskBytes(size_t rows) {
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
  Random rng(2);
  std::vector<Row> batch;
  int64_t ctr = 0;
  for (size_t i = 0; i < rows; i++) {
    ctr += static_cast<int64_t>(rng.Uniform(1500));
    batch.push_back(
        {Value::Int64(static_cast<int64_t>(i / 5000)),
         Value::Int64(static_cast<int64_t>((i / 50) % 100)),
         Value::Ts(1700000000000000LL + static_cast<int64_t>(i % 50) * 20000000),
         Value::Int64(ctr),
         Value::Double(98.5 + static_cast<double>(rng.Uniform(64)) * 0.125)});
    if (batch.size() == 4096 || i + 1 == rows) {
      if (!table->InsertBatch(batch).ok()) abort();
      batch.clear();
    }
  }
  if (!table->FlushAll().ok()) abort();
  uint64_t total = 0;
  std::vector<std::string> children;
  if (!env.disk()->GetChildren("/bench/usage", &children).ok()) abort();
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".tab") continue;
    uint64_t bytes = 0;
    if (!env.disk()->GetFileSize("/bench/usage/" + name, &bytes).ok()) abort();
    total += bytes;
  }
  return total;
}

}  // namespace
}  // namespace bench
}  // namespace lt

int main(int argc, char** argv) {
  using namespace lt::bench;
  size_t total = 16u << 20;  // Scaled from the paper's 500 MB.
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--full") == 0) total = 128u << 20;
  }

  PrintHeader("Figure 2", "Insert throughput vs. batch size and row size");

  printf("\n[solid line] 128-byte rows, varying batch size\n");
  printf("%-12s %-14s\n", "batch", "insert MB/s");
  for (size_t batch = 256; batch <= (1u << 20); batch *= 4) {
    double mbps = RunInsert(128, batch, total);
    printf("%-12zu %-14.1f\n", batch, mbps);
  }

  printf("\n[dashed line] 64 kB batches, varying row size\n");
  printf("%-12s %-14s %-18s\n", "row bytes", "insert MB/s", "%% of disk peak");
  for (size_t row = 32; row <= 32u * 1024; row *= 4) {
    double mbps = RunInsert(row, 64 * 1024, total);
    printf("%-12zu %-14.1f %-18.1f\n", row, mbps,
           100.0 * mbps / (kDiskBytesPerSec / 1e6));
  }

  printf("\n[format v2] on-disk tablet bytes, paper usage schema\n");
  const size_t usage_rows = 200000;
  const uint64_t bytes = UsageTableDiskBytes(usage_rows);
  printf("%-10s %-14s %-8s\n", "rows", "bytes", "B/row");
  printf("%-10zu %-14llu %-8.2f\n", usage_rows, (unsigned long long)bytes,
         static_cast<double>(bytes) / static_cast<double>(usage_rows));
  return 0;
}
