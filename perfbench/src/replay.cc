#include "replay.h"

#include <algorithm>

#include "core/column_codec.h"
#include "core/memtablet.h"
#include "core/row_codec.h"
#include "core/table.h"
#include "core/tablet_reader.h"
#include "util/crc32c.h"
#include "util/lzmini.h"

namespace perfbench {

using lt::Status;

namespace {

// Each timed replay repeats its input until at least this much time has
// passed, so a rate is never read off a sub-millisecond interval. Like every
// timing of the benchmark, replay times are scaled to the reference host
// speed (probe.h).
constexpr int64_t kMinReplayNanos = 100 * 1000 * 1000;
constexpr int kReplayBatches = 240;
constexpr size_t kBlockRows = 3600;  // ~64 kB of encoded usage rows.

// Keeps the checksum replay's result observable.
volatile uint32_t g_sink = 0;

double Rate(double amount, int64_t nanos) {
  return nanos > 0 ? amount / (static_cast<double>(nanos) / 1e9) : 0;
}

// The first kReplayBatches batches of the workload's insert stream.
std::vector<std::vector<Row>> ReplayBatches(const Fleet& f) {
  std::vector<std::vector<Row>> batches;
  for (int64_t p = 0; static_cast<int>(batches.size()) < kReplayBatches; p++) {
    for (int g = 0; g < f.groups() &&
                    static_cast<int>(batches.size()) < kReplayBatches;
         g++) {
      batches.push_back(f.Batch(g, p));
    }
  }
  return batches;
}

void ReplayInserts(const Fleet& f, const std::vector<std::vector<Row>>& batches,
                   Accounting* acct, MetricMap* out) {
  lt::MemEnv env;
  auto clock = std::make_shared<lt::SimClock>(f.PollTime(0));
  std::unique_ptr<lt::Table> table;
  Status s = lt::Table::Create(&env, clock, "/replay", "replay", UsageSchema(),
                               lt::TableOptions(), &table);
  acct->Op(s);
  Samples lat;
  for (const std::vector<Row>& b : batches) {
    if (!s.ok()) break;
    int64_t t0 = NowNanos();
    s = table->InsertBatch(b);
    lat.Add(AtReferenceSpeed(NowNanos() - t0));
  }
  acct->Op(s);
  (*out)["core.insert_batch_us"] = Metric{lat.QuantileMicros(0.5), "us"};

  auto schema = std::make_shared<const lt::Schema>(UsageSchema());
  uint64_t rows = 0;
  int64_t nanos = 0;
  while (nanos < kMinReplayNanos) {
    lt::MemTablet mt(1, schema, lt::PeriodFor(f.PollTime(0), f.PollTime(0)),
                     f.PollTime(0));
    int64_t t0 = NowNanos();
    for (const std::vector<Row>& b : batches) {
      for (const Row& r : b) mt.Insert(r);
    }
    nanos += AtReferenceSpeed(NowNanos() - t0);
    rows += mt.num_rows();
  }
  (*out)["core.memtablet_insert_ns_per_row"] =
      Metric{static_cast<double>(nanos) / static_cast<double>(rows), "ns"};

  // Row codec: the same rows through EncodeRow then DecodeRow.
  const lt::Schema& sch = *schema;
  uint64_t bytes = 0;
  nanos = 0;
  while (nanos < kMinReplayNanos) {
    std::string buf;
    int64_t t0 = NowNanos();
    for (const std::vector<Row>& b : batches) {
      for (const Row& r : b) lt::EncodeRow(&buf, sch, r);
    }
    lt::Slice in(buf);
    Row row;
    while (!in.empty()) {
      s = lt::DecodeRow(&in, sch, &row);
      if (!s.ok()) break;
    }
    nanos += AtReferenceSpeed(NowNanos() - t0);
    bytes += buf.size();
    if (!s.ok()) {
      acct->Op(s);
      break;
    }
  }
  (*out)["net.row_codec_mb_per_s"] =
      Metric{Rate(static_cast<double>(bytes) / 1e6, nanos), "MB/s"};
}

void ReplayQueries(lt::Table* table, const std::vector<lt::QueryBounds>& bounds,
                   Accounting* acct, MetricMap* out) {
  Samples lat;
  for (const lt::QueryBounds& b : bounds) {
    lt::QueryResult r;
    int64_t t0 = NowNanos();
    Status s = table->Query(b, &r);
    lat.Add(AtReferenceSpeed(NowNanos() - t0));
    if (!s.ok()) {
      acct->Op(s);
      break;
    }
  }
  (*out)["core.query_us"] = Metric{lat.QuantileMicros(0.5), "us"};
}

// Full cursors over every on-disk tablet, uncached: block read, CRC,
// decompress, chunk decode and row materialization per tablet, then the
// same tablets through one N-way MergingCursor.
void ReplayCursors(Stack* st, lt::Table* table, Accounting* acct,
                   MetricMap* out) {
  const lt::Schema schema = UsageSchema();
  std::vector<std::string> paths;
  for (const lt::TabletMeta& m : table->DiskTablets()) {
    paths.push_back(table->dir() + "/" + m.filename);
  }
  auto open_all = [&](std::vector<std::shared_ptr<lt::TabletReader>>* readers,
                      std::vector<std::unique_ptr<lt::Cursor>>* cursors) {
    for (const std::string& p : paths) {
      std::shared_ptr<lt::TabletReader> r;
      Status s = lt::TabletReader::Open(st->mem(), p, &r);
      std::unique_ptr<lt::Cursor> c;
      if (s.ok()) s = r->NewCursor(lt::QueryBounds(), &schema, nullptr, &c);
      if (!s.ok()) {
        acct->Op(s);
        return false;
      }
      readers->push_back(std::move(r));
      cursors->push_back(std::move(c));
    }
    return true;
  };
  auto drain = [&](lt::Cursor* c, uint64_t* rows) {
    for (; c->Valid(); (*rows)++) {
      if (!c->Next().ok()) break;
    }
    if (!c->status().ok()) acct->Op(c->status());
  };

  uint64_t rows = 0;
  int64_t nanos = 0;
  {
    std::vector<std::shared_ptr<lt::TabletReader>> readers;
    std::vector<std::unique_ptr<lt::Cursor>> cursors;
    int64_t t0 = NowNanos();
    if (open_all(&readers, &cursors)) {
      for (auto& c : cursors) drain(c.get(), &rows);
    }
    nanos = AtReferenceSpeed(NowNanos() - t0);
  }
  (*out)["core.tablet_scan_rows_per_s"] =
      Metric{Rate(static_cast<double>(rows), nanos), "rows/s"};

  rows = 0;
  {
    std::vector<std::shared_ptr<lt::TabletReader>> readers;
    std::vector<std::unique_ptr<lt::Cursor>> cursors;
    int64_t t0 = NowNanos();
    if (open_all(&readers, &cursors)) {
      lt::MergingCursor merged(&schema, std::move(cursors),
                               lt::Direction::kAscending);
      drain(&merged, &rows);
    }
    nanos = AtReferenceSpeed(NowNanos() - t0);
  }
  (*out)["core.merge_cursor_rows_per_s"] =
      Metric{Rate(static_cast<double>(rows), nanos), "rows/s"};

  // CRC32C over the stored tablet bytes.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::string data;
    Status s = lt::ReadFileToString(st->mem(), p, &data);
    if (!s.ok()) {
      acct->Op(s);
      return;
    }
    files.push_back(std::move(data));
  }
  uint64_t bytes = 0;
  uint32_t crc = 0;
  nanos = 0;
  while (!files.empty() && nanos < kMinReplayNanos) {
    int64_t t0 = NowNanos();
    for (const std::string& d : files) crc ^= lt::crc32c::Value(d.data(), d.size());
    nanos += AtReferenceSpeed(NowNanos() - t0);
    for (const std::string& d : files) bytes += d.size();
  }
  g_sink = crc;
  (*out)["util.crc32c_mb_per_s"] =
      Metric{Rate(static_cast<double>(bytes) / 1e6, nanos), "MB/s"};
}

// lzmini over the column chunks a columnar tablet writer would compress
// for these rows: each ~64 kB block of rows in key order, one int chunk per
// column, encoded with the writer's own chooser.
void ReplayLz(const Fleet& f, Accounting* acct, MetricMap* out) {
  std::vector<std::string> chunks;
  std::vector<std::vector<int64_t>> cols(5);
  auto finish_block = [&] {
    for (auto& col : cols) {
      if (col.empty()) continue;
      std::string chunk;
      lt::EncodeIntChunk(col, lt::ChooseIntEncoding(col), &chunk);
      chunks.push_back(std::move(chunk));
      col.clear();
    }
  };
  const int64_t polls = 64;
  for (int i = 0; i < std::min(f.devices(), 2048); i++) {
    for (int64_t p = 0; p < polls; p++) {
      cols[0].push_back(f.NetworkId(i));
      cols[1].push_back(f.DeviceId(i));
      cols[2].push_back(f.PollTime(p));
      cols[3].push_back(f.Rx(i, p));
      cols[4].push_back(f.Tx(i, p));
      if (cols[0].size() == kBlockRows) finish_block();
    }
  }
  finish_block();

  uint64_t raw = 0;
  int64_t compress_nanos = 0, decompress_nanos = 0;
  while (compress_nanos < kMinReplayNanos || decompress_nanos < kMinReplayNanos) {
    std::vector<std::string> packed(chunks.size());
    int64_t t0 = NowNanos();
    for (size_t k = 0; k < chunks.size(); k++) {
      lt::lzmini::Compress(chunks[k], &packed[k]);
    }
    int64_t t1 = NowNanos();
    for (size_t k = 0; k < chunks.size(); k++) {
      std::string back;
      Status s = lt::lzmini::Decompress(packed[k], &back);
      if (!s.ok() || back.size() != chunks[k].size()) {
        acct->Wrong("lzmini replay did not round-trip");
        return;
      }
    }
    compress_nanos += AtReferenceSpeed(t1 - t0);
    decompress_nanos += AtReferenceSpeed(NowNanos() - t1);
    for (const std::string& c : chunks) raw += c.size();
  }
  (*out)["util.lzmini_compress_mb_per_s"] =
      Metric{Rate(static_cast<double>(raw) / 1e6, compress_nanos), "MB/s"};
  (*out)["util.lzmini_decompress_mb_per_s"] =
      Metric{Rate(static_cast<double>(raw) / 1e6, decompress_nanos), "MB/s"};
}

}  // namespace

void ReplayLayers(const Fleet& fleet, Stack* stack,
                  const std::vector<lt::QueryBounds>& bounds,
                  Accounting* acct, MetricMap* layer) {
  ReplayInserts(fleet, ReplayBatches(fleet), acct, layer);
  std::shared_ptr<lt::Table> table = stack->table();
  ReplayQueries(table.get(), bounds, acct, layer);
  ReplayCursors(stack, table.get(), acct, layer);
  ReplayLz(fleet, acct, layer);
}

}  // namespace perfbench
