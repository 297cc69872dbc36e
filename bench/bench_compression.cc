// Block format v2 benchmark: bytes/row and compression ratio per encoding
// across the Figure-8 row shapes, plus a projected-scan (2-of-N columns)
// vs. full-scan throughput sweep.
//
// Three levels of measurement:
//
//   [chunks]   each column encoding against its natural column shape —
//              bytes/value before and after per-chunk lzmini, vs. the raw
//              fixed-width cost. This is where delta-of-delta earns its
//              ~1 byte/row on regularly sampled timestamps (§3.2's "one
//              row per device per 20 s").
//   [tablets]  whole v2 (columnar) tablets for three Figure-8 table
//              archetypes: counter tables, event logs keyed by hierarchical
//              hostnames, and incompressible sketch blobs. Reported as
//              on-disk bytes/row and the ratio to the same rows at format
//              v1 (row-wise + whole-block lzmini), whose byte counts are
//              constants recorded with the last commit that wrote v1.
//              Sketches land near 1.0x by design: the store-raw fallback
//              refuses to pay for expansion.
//   [scans]    full-table scans vs. 2-projected-column scans over wide
//              rows on the simulated spindle, sweeping the value-column
//              count. Lazy materialization decodes only referenced chunks
//              (table.column_chunks_decoded/skipped prove it), so the gap
//              widens with row width.
//
// `--smoke` runs a seconds-scale version of all three and exits nonzero if
// the core invariants fail (v2 smaller than v1 on the counter shape,
// projection skipping chunks); CI runs it as a tier-1 sanity step.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "core/column_codec.h"
#include "core/tablet_writer.h"
#include "env/mem_env.h"
#include "util/lzmini.h"

namespace lt {
namespace bench {
namespace {

bool smoke = false;
int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "SMOKE FAIL: %s\n", what);
    failures++;
  }
}

// ---- [chunks] one encoding per natural column shape. ----

struct ChunkReport {
  const char* shape;
  const char* encoding;
  double raw_bpv;        // Fixed-width or length-prefixed cost.
  double encoded_bpv;    // After the column encoding.
  double stored_bpv;     // After per-chunk lzmini (or raw fallback).
};

ChunkReport ReportInts(const char* shape, const std::vector<int64_t>& v) {
  ChunkEncoding enc = ChooseIntEncoding(v);
  std::string chunk;
  EncodeIntChunk(v, enc, &chunk);
  std::string packed;
  lzmini::Compress(chunk, &packed);
  size_t stored = packed.size() < chunk.size() ? packed.size() : chunk.size();
  return {shape, enc == ChunkEncoding::kDeltaDelta ? "delta-delta" : "zigzag",
          8.0, static_cast<double>(chunk.size()) / v.size(),
          static_cast<double>(stored) / v.size()};
}

ChunkReport ReportDoubles(const char* shape, const std::vector<double>& v) {
  std::string chunk;
  EncodeDoubleChunk(v, &chunk);
  std::string packed;
  lzmini::Compress(chunk, &packed);
  size_t stored = packed.size() < chunk.size() ? packed.size() : chunk.size();
  return {shape, "xor", 8.0, static_cast<double>(chunk.size()) / v.size(),
          static_cast<double>(stored) / v.size()};
}

ChunkReport ReportBytes(const char* shape, const std::vector<std::string>& v) {
  ChunkEncoding enc = ChooseBytesEncoding(v);
  std::string chunk;
  EncodeBytesChunk(v, enc, &chunk);
  std::string packed;
  lzmini::Compress(chunk, &packed);
  size_t stored = packed.size() < chunk.size() ? packed.size() : chunk.size();
  size_t raw = 0;
  for (const std::string& s : v) raw += 1 + s.size();
  return {shape, enc == ChunkEncoding::kDict ? "dict+front" : "plain",
          static_cast<double>(raw) / v.size(),
          static_cast<double>(chunk.size()) / v.size(),
          static_cast<double>(stored) / v.size()};
}

void RunChunks() {
  const size_t n = smoke ? 512 : 8192;
  Random rng(8);
  std::vector<int64_t> regular_ts, counters, random_ints;
  std::vector<double> gauges;
  std::vector<std::string> hostnames, blobs;
  int64_t counter = 1 << 20;
  for (size_t i = 0; i < n; i++) {
    regular_ts.push_back(1700000000000000LL +
                         static_cast<int64_t>(i) * 20000000);
    counter += static_cast<int64_t>(rng.Uniform(1500));  // Monotone usage.
    counters.push_back(counter);
    random_ints.push_back(static_cast<int64_t>(rng.Next()));
    gauges.push_back(98.5 + static_cast<double>(rng.Uniform(64)) * 0.125);
    hostnames.push_back("sw" + std::to_string(rng.Uniform(24)) +
                        ".sjc.example.com");
    blobs.push_back(rng.Bytes(64));
  }

  printf("\n[chunks] bytes/value per encoding (%zu values per chunk)\n", n);
  printf("%-22s %-12s %-10s %-12s %-12s %-8s\n", "column shape", "encoding",
         "raw B/v", "encoded B/v", "stored B/v", "ratio");
  ChunkReport reports[] = {
      ReportInts("regular ts (20s)", regular_ts),
      ReportInts("monotone counter", counters),
      ReportInts("random int64", random_ints),
      ReportDoubles("gauge double", gauges),
      ReportBytes("hostname string", hostnames),
      ReportBytes("random blob 64B", blobs),
  };
  for (const ChunkReport& r : reports) {
    printf("%-22s %-12s %-10.2f %-12.2f %-12.2f %-8.1f\n", r.shape,
           r.encoding, r.raw_bpv, r.encoded_bpv, r.stored_bpv,
           r.raw_bpv / r.stored_bpv);
  }
  Check(reports[0].stored_bpv < 1.5, "regular ts should be ~1 byte/value");
  Check(reports[4].stored_bpv < reports[4].raw_bpv / 2,
        "hostnames should dictionary-compress 2x+");
}

// ---- [tablets] whole-tablet bytes/row at v2 vs v1, Figure-8 shapes. ----

uint64_t WriteTablet(Env* env, const Schema& schema,
                     const std::vector<Row>& rows) {
  TabletWriter writer(env, "/shape.tab", &schema, TabletWriterOptions{});
  for (const Row& row : rows) {
    if (!writer.Add(row).ok()) abort();
  }
  TabletMeta meta;
  if (!writer.Finish(&meta).ok()) abort();
  uint64_t bytes = 0;
  if (!env->GetFileSize("/shape.tab", &bytes).ok()) abort();
  return bytes;
}

void RunTablets() {
  const size_t n = smoke ? 2000 : 100000;
  Random rng(88);

  // Counter table: the paper's usage schema (Figure 1) — one row per
  // device per 20 s, monotone byte counters, slowly moving rates.
  Schema usage({Column("network", ColumnType::kInt64),
                Column("device", ColumnType::kInt64),
                Column("ts", ColumnType::kTimestamp),
                Column("bytes", ColumnType::kInt64),
                Column("rate", ColumnType::kDouble)},
               3);
  std::vector<Row> usage_rows;
  int64_t bytes_ctr = 0;
  for (size_t i = 0; i < n; i++) {
    bytes_ctr += static_cast<int64_t>(rng.Uniform(1500));
    usage_rows.push_back(
        {Value::Int64(static_cast<int64_t>(i / 5000)),
         Value::Int64(static_cast<int64_t>((i / 50) % 100)),
         Value::Ts(1700000000000000LL + static_cast<int64_t>(i % 50) * 20000000),
         Value::Int64(bytes_ctr),
         Value::Double(98.5 + static_cast<double>(rng.Uniform(64)) * 0.125)});
  }

  // Event log: hierarchical hostname key, modest semi-structured payload.
  Schema events({Column("host", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("code", ColumnType::kInt64),
                 Column("msg", ColumnType::kBlob)},
                2);
  std::vector<Row> event_rows;
  for (size_t i = 0; i < n; i++) {
    // Zero-padded so hosts sort in insertion order (the tablet writer
    // requires strictly ascending keys).
    char hostbuf[40];
    snprintf(hostbuf, sizeof(hostbuf), "ap-%05zu.den.example.com", i / 200);
    std::string host = hostbuf;
    event_rows.push_back(
        {Value::String(std::move(host)),
         Value::Ts(1700000000000000LL + static_cast<int64_t>(i) * 1000000),
         Value::Int64(static_cast<int64_t>(rng.Uniform(16))),
         Value::Blob("assoc client=" + std::to_string(rng.Uniform(4096)) +
                     " band=5GHz rssi=-" + std::to_string(40 + rng.Uniform(40)))});
  }

  // Sketch table: incompressible probabilistic-set blobs (Figure 8's tail).
  Schema sketches({Column("id", ColumnType::kInt64),
                   Column("ts", ColumnType::kTimestamp),
                   Column("hll", ColumnType::kBlob)},
                  2);
  std::vector<Row> sketch_rows;
  for (size_t i = 0; i < n / 20; i++) {
    sketch_rows.push_back(
        {Value::Int64(static_cast<int64_t>(i)),
         Value::Ts(1700000000000000LL + static_cast<int64_t>(i) * 1000000),
         Value::Blob(rng.Bytes(1400))});
  }

  // The format-1 tablet bytes of each shape's rows, at smoke and at full
  // size. The rows are deterministic (Random(88)), so these are exact;
  // commit f8fa325, the last that wrote format 1, reproduces them.
  struct Shape {
    const char* name;
    const Schema* schema;
    const std::vector<Row>* rows;
    uint64_t v1_smoke, v1_full;
  } shapes[] = {{"usage counters", &usage, &usage_rows, 39329, 1964912},
                {"event log", &events, &event_rows, 50559, 2518052},
                {"hll sketches", &sketches, &sketch_rows, 142290, 7111877}};

  printf("\n[tablets] on-disk bytes/row, format v1 (recorded) vs v2\n");
  printf("%-18s %-8s %-14s %-14s %-14s %-8s\n", "table shape", "rows",
         "v1 bytes", "v2 bytes", "v2 B/row", "v1/v2");
  for (const Shape& shape : shapes) {
    MemEnv env;
    uint64_t v1 = smoke ? shape.v1_smoke : shape.v1_full;
    uint64_t v2 = WriteTablet(&env, *shape.schema, *shape.rows);
    double ratio = static_cast<double>(v1) / static_cast<double>(v2);
    printf("%-18s %-8zu %-14llu %-14llu %-14.1f %-8.2f\n", shape.name,
           shape.rows->size(), (unsigned long long)v1, (unsigned long long)v2,
           static_cast<double>(v2) / shape.rows->size(), ratio);
    if (strcmp(shape.name, "usage counters") == 0) {
      Check(ratio >= 2.0, "v2 should be >= 2x smaller on the usage schema");
    }
    if (strcmp(shape.name, "hll sketches") == 0) {
      Check(ratio > 0.95, "store-raw fallback must not pay for expansion");
    }
  }
}

// ---- [scans] projected 2-of-N vs full scan on the simulated spindle. ----

void RunScans() {
  const size_t rows = smoke ? 4000 : 200000;
  printf("\n[scans] full vs 2-projected-column scan, %zu rows\n", rows);
  printf("%-10s %-12s %-12s %-8s %-16s %-16s\n", "val cols", "full row/s",
         "proj row/s", "gain", "chunks decoded", "chunks skipped");

  for (int value_cols : {4, 8, 16}) {
    BenchEnv env;
    std::vector<Column> cols = {Column("device", ColumnType::kInt64),
                                Column("ts", ColumnType::kTimestamp)};
    for (int c = 0; c < value_cols; c++) {
      cols.emplace_back("v" + std::to_string(c), c % 2 == 0
                                                     ? ColumnType::kInt64
                                                     : ColumnType::kDouble);
    }
    Schema schema(cols, 2);
    TableOptions topts;
    topts.flush_bytes = 1ull << 40;
    topts.merge.min_tablet_age = 1ull << 40;
    if (!env.db()->CreateTable("wide", schema, &topts).ok()) abort();
    auto table = env.db()->GetTable("wide");

    Random rng(7);
    std::vector<Row> batch;
    Timestamp now = env.clock()->Now();
    for (size_t i = 0; i < rows; i++) {
      Row row = {Value::Int64(static_cast<int64_t>(i / 1000)),
                 Value::Ts(now + static_cast<Timestamp>(i))};
      for (int c = 0; c < value_cols; c++) {
        if (c % 2 == 0) {
          row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(1u << 20))));
        } else {
          row.push_back(Value::Double(rng.NextDouble() * 100));
        }
      }
      batch.push_back(std::move(row));
      if (batch.size() == 4096 || i + 1 == rows) {
        if (!table->InsertBatch(batch).ok()) abort();
        batch.clear();
      }
    }
    if (!table->FlushAll().ok()) abort();
    table.reset();

    // Each scan runs against a reopened DB with cold block and disk
    // caches, so full and projected pay the same disk and parse costs and
    // differ only in chunk decodes.
    auto scan = [&](bool project, uint64_t* decoded,
                    uint64_t* skipped) -> double {
      if (!env.ReopenDb().ok()) abort();
      auto t = env.db()->GetTable("wide");
      env.ClearCaches();
      env.StartTimer();
      QueryBounds page;
      if (project) page.projection = {2, 3};  // 2 of N value columns.
      uint64_t rows_read = 0;
      while (true) {
        QueryResult result;
        if (!t->Query(page, &result).ok()) abort();
        rows_read += result.rows.size();
        if (!result.more_available) break;
        page.min_key = KeyBound{schema.KeyOf(result.rows.back()),
                                /*inclusive=*/false};
      }
      int64_t micros = env.StopTimerMicros();
      if (rows_read != rows) abort();
      *decoded = t->stats().column_chunks_decoded.load();
      *skipped = t->stats().column_chunks_skipped.load();
      return static_cast<double>(rows_read) /
             (static_cast<double>(micros) / 1e6);
    };

    uint64_t full_decoded, full_skipped, decoded, skipped;
    double full = scan(false, &full_decoded, &full_skipped);
    double projected = scan(true, &decoded, &skipped);

    printf("%-10d %-12.0f %-12.0f %-8.2f %-16llu %-16llu\n", value_cols, full,
           projected, projected / full, (unsigned long long)decoded,
           (unsigned long long)skipped);
    Check(skipped > 0, "projected scan must skip unreferenced chunks");
    // Disk time is identical (same blocks stream off the spindle); the
    // projected gain is the skipped decode work, so allow scheduling noise
    // in smoke runs but catch gross regressions.
    Check(projected >= 0.8 * full,
          "projected scan should not be slower than full scan");
    Check(full_skipped == 0, "full scan must not skip chunks");
  }
}

}  // namespace
}  // namespace bench
}  // namespace lt

int main(int argc, char** argv) {
  using namespace lt;
  using namespace lt::bench;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintHeader("Compression",
              "Per-column encodings: footprint and projected-scan gains");
  RunChunks();
  RunTablets();
  RunScans();
  if (smoke) {
    if (failures) {
      fprintf(stderr, "\nSMOKE: %d invariant(s) failed\n", failures);
      return 1;
    }
    printf("\nSMOKE OK\n");
  }
  return 0;
}
