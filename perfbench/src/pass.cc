#include "pass.h"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <fstream>
#include <thread>

#include "replay.h"
#include "sql/executor.h"
#include "util/random.h"

namespace perfbench {

using lt::QueryBounds;
using lt::QueryResult;
using lt::Status;

namespace {

// Client-side window of every dashboard-style query: the last hour.
constexpr Timestamp kWindow = lt::kMicrosPerHour;
constexpr uint64_t kPointLimit = 512;
// Check-phase queries run in rounds (6) rather than one burst.
constexpr int kCheckRounds = 6;
// cold_scan runs one round per second of run time, a fixed amount of work:
// at --seconds 5, 1000 device queries and inserts, so the p99 of the half
// recorded on the fastest host has five samples beyond it. Its inserts go to
// a side table, so the scanned one stays as set up.
constexpr int kColdPointsPerScan = 200;
constexpr int kColdSqlPerScan = 5;
constexpr const char* kSideTable = "side";
constexpr int kColdInsertsPerScan = 200;
// ingest: 2 closed-loop connections; a fixed number of poll rounds per
// second of run time, so the data written — and with it the flush and
// merge cycles — is the same on every run of one length.
constexpr int kIngestConnections = 2;
constexpr int64_t kIngestRoundsPerSecond = 45;
// Both connections meet every this many poll rounds (256 batches) for one
// maintenance pass: flush what has aged past 10 simulated minutes or sealed
// at 16 MB, then at most one merge.
constexpr int64_t kIngestMaintainRounds = 32;
// At each meeting, before the maintenance pass and with both connections
// idle, a measured read probe: a scan of the last hour, then device queries
// and SQL sums on it. Ingest's read metrics are then sampled across the
// whole window.
constexpr int kProbePoints = 120;
constexpr int kProbeSqls = 6;
// dashboard runs in this many slices; between two, with the writer idle,
// measured scans of the preloaded history.
constexpr int kDashboardSlices = 10;
constexpr int kDashboardScansPerSlice = 1;
// dashboard: open-loop writer rate and query mix. No flush runs during its
// timed window: Table::FlushSet takes a memtablet out of sealed_ before its
// tablet is installed, so a query concurrent with a flush can miss those
// rows, and the model check would (rightly) fail the run. Writes seal
// memtablets by size only; the check phase flushes once writers stop.
constexpr int kWriterBatchesPerSecond = 100;
constexpr double kPointShare = 0.9;
constexpr int kQueryConnections = 2;
// Bounded so a traced run's replay stays short.
constexpr size_t kKeptBounds = 500;

int64_t FirstPollAtOrAfter(const Fleet& f, Timestamp t) {
  if (t <= f.t0) return 0;
  return (t - f.t0 + f.interval - 1) / f.interval;
}

// Batches among the writer's first `batches` that went to `group`: the
// writer sends batch s to group s % groups.
int64_t WriterGroupCount(int64_t batches, int group, int groups) {
  return batches > group ? (batches - 1 - group) / groups + 1 : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The SQL session's storage backend: the remote ClientBackend, with a child
// span around each QueryAll so the SQL layer's self time is the statement's
// span minus its fetches.
class TimedBackend final : public lt::sql::SqlBackend {
 public:
  TimedBackend(lt::Client* client, std::shared_ptr<lt::Clock> clock)
      : inner_(client, std::move(clock)) {}

  void SetParent(SpanRecorder* spans, uint64_t request, int64_t parent) {
    spans_ = spans;
    request_ = request;
    parent_ = parent;
  }
  /// Nanoseconds spent in QueryAll since the last call.
  int64_t TakeFetchNanos() {
    int64_t v = fetch_nanos_;
    fetch_nanos_ = 0;
    return v;
  }

  lt::Result<std::shared_ptr<const lt::Schema>> GetSchema(
      const std::string& table) override {
    return inner_.GetSchema(table);
  }
  Status CreateTable(const std::string& table, const lt::Schema& schema,
                     Timestamp ttl) override {
    return inner_.CreateTable(table, schema, ttl);
  }
  Status DropTable(const std::string& table) override {
    return inner_.DropTable(table);
  }
  Status Insert(const std::string& table,
                const std::vector<Row>& rows) override {
    return inner_.Insert(table, rows);
  }
  Status QueryAll(const std::string& table, const QueryBounds& bounds,
                  std::vector<Row>* rows,
                  lt::QueryTrace* trace = nullptr) override {
    int64_t span = spans_->Begin("sql.query_all", request_, parent_);
    int64_t t0 = NowNanos();
    Status s = inner_.QueryAll(table, bounds, rows, trace);
    fetch_nanos_ += NowNanos() - t0;
    spans_->End(span);
    return s;
  }
  Status LatestRow(const std::string& table, const lt::Key& prefix, Row* row,
                   bool* found) override {
    return inner_.LatestRow(table, prefix, row, found);
  }
  Status FlushThrough(const std::string& table, Timestamp ts) override {
    return inner_.FlushThrough(table, ts);
  }
  Timestamp Now() override { return inner_.Now(); }

 private:
  lt::sql::ClientBackend inner_;
  SpanRecorder* spans_ = nullptr;
  uint64_t request_ = 0;
  int64_t parent_ = -1;
  int64_t fetch_nanos_ = 0;
};

// One client connection and the recorder of the thread that drives it.
struct Conn {
  std::unique_ptr<lt::Client> client;
  SpanRecorder* spans = nullptr;
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<lt::sql::SqlSession> sql;
};

// Everything an op helper needs from its pass.
struct Ctx {
  const Workload* wl = nullptr;
  const Fleet* model = nullptr;  // What the checks expect.
  Accounting* acct = nullptr;
  SpanSink* sink = nullptr;
};

Status OpenConn(Ctx& c, Stack* st, Conn* conn) {
  LT_RETURN_IF_ERROR(st->Connect(&conn->client));
  conn->spans = c.sink->NewRecorder();
  conn->backend = std::make_unique<TimedBackend>(conn->client.get(),
                                                 st->shared_clock());
  conn->sql = std::make_unique<lt::sql::SqlSession>(conn->backend.get());
  return Status::OK();
}

// One insert batch. `due_ns` is when an open-loop generator meant to send
// it (0 = now), so latency includes any wait a stall imposed.
Status Insert(Ctx& c, Conn& conn, const std::vector<Row>& rows, int64_t due_ns,
              Samples* lat, const char* table = kTable) {
  int64_t span = conn.spans->Begin("client.insert", c.sink->NewRequest());
  int64_t t0 = NowNanos();
  Status s = conn.client->Insert(table, rows);
  int64_t t1 = NowNanos();
  conn.spans->End(span);
  c.acct->Op(s);
  if (s.ok()) {
    lat->Add(t1 - (due_ns ? due_ns : t0), HostFactor());
  } else {
    lat->AddFailed();
  }
  return s;
}

Status Flush(Ctx& c, Conn& conn, Timestamp ts) {
  Status s = conn.client->FlushThrough(kTable, ts);
  c.acct->Op(s);
  return s;
}

QueryBounds DeviceWindow(const Fleet& f, int i, Timestamp from) {
  QueryBounds b = QueryBounds::ForPrefix(
      {lt::Value::Int64(f.NetworkId(i)), lt::Value::Int64(f.DeviceId(i))});
  b.min_ts = from;
  b.limit = kPointLimit;
  return b;
}

Status PointQuery(Ctx& c, Conn& conn, const QueryBounds& b, QueryResult* r,
                  Samples* lat) {
  int64_t span = conn.spans->Begin("client.query", c.sink->NewRequest());
  int64_t t0 = NowNanos();
  Status s = conn.client->Query(kTable, b, r);
  int64_t t1 = NowNanos();
  conn.spans->End(span);
  c.acct->Op(s);
  if (s.ok()) {
    lat->Add(t1 - t0, HostFactor());
  } else {
    lat->AddFailed();
  }
  return s;
}

// A device's rows must be the consecutive polls first, first+1, ... ending
// (exclusive) somewhere in [lo_end, hi_end], each with the model's cells.
void CheckDeviceRows(Ctx& c, int i, int64_t first, int64_t lo_end,
                     int64_t hi_end, const std::vector<Row>& rows) {
  const Fleet& m = *c.model;
  size_t want_lo = static_cast<size_t>(std::max<int64_t>(0, lo_end - first));
  size_t want_hi = static_cast<size_t>(std::max<int64_t>(0, hi_end - first));
  if (rows.size() < want_lo || rows.size() > want_hi) {
    int64_t p0 = -1, p1 = -1;
    if (!rows.empty()) {
      m.PollOf(rows.front()[2].AsInt(), &p0);
      m.PollOf(rows.back()[2].AsInt(), &p1);
    }
    c.acct->Wrong("device " + std::to_string(i) + " returned " +
                  std::to_string(rows.size()) + " rows (polls " +
                  std::to_string(p0) + ".." + std::to_string(p1) +
                  "), model says " + std::to_string(want_lo) + ".." +
                  std::to_string(want_hi) + " from poll " +
                  std::to_string(first));
    return;
  }
  for (size_t j = 0; j < rows.size(); j++) {
    const Row& r = rows[j];
    int64_t p = first + static_cast<int64_t>(j);
    if (r.size() != 5 || r[0].AsInt() != m.NetworkId(i) ||
        r[1].AsInt() != m.DeviceId(i) || r[2].AsInt() != m.PollTime(p) ||
        r[3].AsInt() != m.Rx(i, p) || r[4].AsInt() != m.Tx(i, p)) {
      c.acct->Wrong("device " + std::to_string(i) + " row " +
                    std::to_string(j) + " differs from the model");
      return;
    }
  }
}

std::string SumSql(int64_t network, Timestamp from) {
  return "SELECT network, device, SUM(rx) FROM " + std::string(kTable) +
         " WHERE network = " + std::to_string(network) +
         " AND ts >= " + std::to_string(from) + " GROUP BY network, device";
}

Status SqlQuery(Ctx& c, Conn& conn, const std::string& stmt,
                lt::sql::ResultSet* rs, Samples* lat, Samples* self) {
  uint64_t request = c.sink->NewRequest();
  int64_t span = conn.spans->Begin("sql.execute", request);
  conn.backend->SetParent(conn.spans, request, span);
  conn.backend->TakeFetchNanos();
  int64_t t0 = NowNanos();
  lt::Result<lt::sql::ResultSet> r = conn.sql->Execute(stmt);
  int64_t t1 = NowNanos();
  conn.spans->End(span);
  Status s = r.ok() ? Status::OK() : r.status();
  c.acct->Op(s);
  if (!s.ok()) {
    lat->AddFailed();
    return s;
  }
  const double speed = HostFactor();
  lat->Add(t1 - t0, speed);
  self->Add(t1 - t0 - conn.backend->TakeFetchNanos(), speed);
  *rs = std::move(r.value());
  return s;
}

// SUM(rx) per device of network index `n` over polls [first, end) for one
// end in [lo_end, hi_end] (the group's visible prefix when the query ran).
void CheckNetworkSums(Ctx& c, int n, int64_t first, int64_t lo_end,
                      int64_t hi_end, const lt::sql::ResultSet& rs) {
  const Fleet& m = *c.model;
  const std::string who = "network " + std::to_string(m.NetworkId(
                                           n * m.devices_per_network));
  if (rs.rows.empty()) {
    if (lo_end > first) c.acct->Wrong(who + ": SQL returned no groups");
    return;
  }
  if (rs.rows.size() != static_cast<size_t>(m.devices_per_network)) {
    c.acct->Wrong(who + ": SQL returned " + std::to_string(rs.rows.size()) +
                  " groups");
    return;
  }
  lo_end = std::max(lo_end, first);
  for (size_t j = 0; j < rs.rows.size(); j++) {
    int i = n * m.devices_per_network + static_cast<int>(j);
    const Row& r = rs.rows[j];
    if (r.size() != 3 || r[0].AsInt() != m.NetworkId(i) ||
        r[1].AsInt() != m.DeviceId(i)) {
      c.acct->Wrong(who + ": unexpected SQL group " + std::to_string(j));
      return;
    }
    int64_t sum = 0;
    for (int64_t p = first; p < lo_end; p++) sum += m.Rx(i, p);
    bool match = sum == r[2].AsInt();
    for (int64_t p = lo_end; p < hi_end && !match; p++) {
      sum += m.Rx(i, p);
      match = sum == r[2].AsInt();
    }
    if (!match) {
      c.acct->Wrong(who + ": SUM(rx) of device " + std::to_string(i) +
                    " differs from the model");
      return;
    }
  }
}

struct ScanStats {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  // Time inside QueryPage calls, at the reference host speed: the
  // client-received rate.
  int64_t nanos = 0;
  double factor_sum = 0;  // Host factors the pages were scaled by.
  int pages = 0;
};

// A streaming scan of `b`, page by page (§3.5 continuation). Checks key
// order and every cell against the model as rows arrive, outside the timed
// calls. A projection reads rx only; tx may then come back as its default.
Status Scan(Ctx& c, Conn& conn, QueryBounds b, ScanStats* out,
            const char* table = kTable) {
  const Fleet& m = *c.model;
  const bool projected = !b.projection.empty();
  uint64_t request = c.sink->NewRequest();
  int64_t span = conn.spans->Begin("client.scan", request);
  int64_t prev[3] = {0, 0, 0};
  bool have_prev = false, reported = false;
  Status s;
  while (true) {
    QueryResult r;
    int64_t page = conn.spans->Begin("client.scan_page", request, span);
    int64_t t0 = NowNanos();
    s = conn.client->QueryPage(table, &b, &r);
    const int64_t page_nanos = NowNanos() - t0;
    const double speed = HostFactor();
    out->nanos += static_cast<int64_t>(static_cast<double>(page_nanos) * speed);
    out->factor_sum += speed;
    out->pages++;
    conn.spans->End(page);
    if (!s.ok()) break;
    for (const Row& row : r.rows) {
      int64_t key[3] = {row[0].AsInt(), row[1].AsInt(), row[2].AsInt()};
      int64_t rx = row[3].AsInt(), tx = projected ? 0 : row[4].AsInt();
      int i = 0;
      int64_t p = 0;
      bool ok = row.size() == 5 && m.IndexOf(key[0], key[1], &i) &&
                m.PollOf(key[2], &p) && rx == m.Rx(i, p) &&
                (projected || tx == m.Tx(i, p)) &&
                (!have_prev || std::lexicographical_compare(
                                   prev, prev + 3, key, key + 3));
      if (!ok && !reported) {
        c.acct->Wrong("scan row " + std::to_string(out->rows) +
                      " is out of order or differs from the model");
        reported = true;
      }
      std::copy(key, key + 3, prev);
      have_prev = true;
      out->rows++;
      out->checksum += RowHash(key[0], key[1], key[2], rx, tx);
    }
    if (!r.more_available) break;
  }
  conn.spans->End(span);
  c.acct->Op(s);
  return s;
}

void CheckScan(Ctx& c, const ScanStats& got, const ScanExpectation& want,
               bool projected) {
  uint64_t sum = projected ? want.rx_checksum : want.checksum;
  if (got.rows != want.rows || got.checksum != sum) {
    c.acct->Wrong("scan returned " + std::to_string(got.rows) +
                  " rows (model: " + std::to_string(want.rows) +
                  ")" + (got.checksum != sum ? ", checksum differs" : ""));
  }
}

// Seeded query targets: uniform random devices, and networks in shuffled
// rounds without repeats. A repeated network finds the blocks its earlier
// statement cached; drawn with repeats, how many statements hit the cache
// (and so the SQL p50) would depend on the seed.
class Targets {
 public:
  Targets(const Fleet& f, uint64_t seed) : f_(f), rng_(seed) {}
  int Device() { return static_cast<int>(rng_.Uniform(f_.devices())); }
  int Network() {
    if (next_ == order_.size()) {
      order_.resize(static_cast<size_t>(f_.networks));
      for (size_t k = 0; k < order_.size(); k++) {
        order_[k] = static_cast<int>(k);
      }
      for (size_t k = order_.size() - 1; k > 0; k--) {
        std::swap(order_[k], order_[rng_.Uniform(k + 1)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  const Fleet& f_;
  lt::Random rng_;
  std::vector<int> order_;
  size_t next_ = 0;
};

// Last-hour device queries on `points` devices and per-network SQL sums on
// `sqls` networks, against a table no one is writing: the model (`counts`,
// polls per group) is exact.
Status QueryRound(Ctx& c, Conn& conn, const std::vector<int64_t>& counts,
                  int points, int sqls, Targets* targets, Samples* point_lat,
                  Samples* sql_lat, Samples* sql_self,
                  std::vector<QueryBounds>* keep) {
  const Fleet& f = c.wl->fleet;
  const int64_t newest = *std::max_element(counts.begin(), counts.end()) - 1;
  const Timestamp from = f.PollTime(newest + 1) - kWindow;
  const int64_t first = FirstPollAtOrAfter(f, from);
  for (int k = 0; k < points; k++) {
    const int i = targets->Device();
    const int64_t end = counts[static_cast<size_t>(f.GroupOf(i))];
    QueryBounds b = DeviceWindow(f, i, from);
    QueryResult res;
    LT_RETURN_IF_ERROR(PointQuery(c, conn, b, &res, point_lat));
    CheckDeviceRows(c, i, first, end, end, res.rows);
    if (keep->size() < kKeptBounds) keep->push_back(std::move(b));
  }
  for (int k = 0; k < sqls; k++) {
    const int n = targets->Network();
    const int64_t end =
        counts[static_cast<size_t>(f.GroupOf(n * f.devices_per_network))];
    lt::sql::ResultSet rs;
    LT_RETURN_IF_ERROR(SqlQuery(
        c, conn, SumSql(f.NetworkId(n * f.devices_per_network), from), &rs,
        sql_lat, sql_self));
    CheckNetworkSums(c, n, first, end, end, rs);
  }
  return Status::OK();
}

// ---- Setup ----------------------------------------------------------------

struct SetupResult {
  Samples insert_lat;
  uint64_t rows = 0;
  double load_s = 0;
  uint64_t allocs = 0;
  EngineSnapshot before, after;  // Around the preload.
  double host_factor = 1;        // Mean over the preload.
};

EngineSnapshot Snap(Stack* st) {
  return EngineSnapshot::Take(st->table().get(), st->server(),
                              st->db()->block_cache().get(), st->disk());
}

// Opens the stack, creates the table and preloads it over the wire, one
// connection, 512-row batches; then settles merges and warms the cache when
// the workload asks for it.
Status Setup(Ctx& c, Stack* st, SetupResult* r) {
  const Workload& wl = *c.wl;
  const Fleet& f = wl.fleet;
  StackOptions so = wl.stack;
  so.start_time = f.PollTime(0);
  LT_RETURN_IF_ERROR(st->Open(so));
  Conn conn;
  LT_RETURN_IF_ERROR(OpenConn(c, st, &conn));
  Status s = conn.client->CreateTable(kTable, UsageSchema(), 0);
  c.acct->Op(s);
  LT_RETURN_IF_ERROR(s);
  if (wl.kind == Workload::Kind::kColdScan) {
    s = conn.client->CreateTable(kSideTable, UsageSchema(), 0);
    c.acct->Op(s);
    LT_RETURN_IF_ERROR(s);
  }

  r->before = Snap(st);
  const uint64_t allocs = AllocCount();
  const HostTally h0 = HostTally::Now();
  const int64_t t0 = NowNanos();
  for (int64_t p = 0; p < wl.preload_polls; p++) {
    st->AdvanceTo(f.PollTime(p));
    for (int g = 0; g < f.groups(); g++) {
      LT_RETURN_IF_ERROR(Insert(c, conn, f.Batch(g, p), 0, &r->insert_lat));
    }
    if (wl.preload_flush_every > 0 && (p + 1) % wl.preload_flush_every == 0) {
      LT_RETURN_IF_ERROR(Flush(c, conn, f.PollTime(p)));
    }
  }
  LT_RETURN_IF_ERROR(Flush(c, conn, f.PollTime(wl.preload_polls - 1)));
  r->host_factor = HostTally::Now().MeanSince(h0);
  r->load_s = static_cast<double>(NowNanos() - t0) / 1e9 * r->host_factor;
  r->allocs = AllocCount() - allocs;
  r->rows = static_cast<uint64_t>(wl.preload_polls) * f.devices();
  r->after = Snap(st);

  if (wl.settle) {
    // Past the merge policy's minimum tablet age, then maintain until the
    // policy has nothing left to do: timed queries see steady-state tablets.
    st->AdvanceTo(f.PollTime(wl.preload_polls - 1) + 2 * lt::kMicrosPerMinute);
    std::shared_ptr<lt::Table> table = st->table();
    for (int k = 0; k < 64 && table->HasMaintenanceWork(); k++) {
      Status m = st->db()->MaintainNow();
      c.acct->Op(m);
      LT_RETURN_IF_ERROR(m);
    }
  }
  if (wl.warm) {
    ScanStats warm;
    LT_RETURN_IF_ERROR(Scan(c, conn, QueryBounds(), &warm));
  }
  return Status::OK();
}

// ---- Timed window -----------------------------------------------------------

struct MainResult {
  double wall_s = 0;
  double host_factor = 1;  // Mean over the window.
  double probe_s = 0;      // Wall time of the read probes between traffic.
  uint64_t rows_inserted = 0;
  Samples insert_lat, point_lat, sql_lat, sql_self, late;
  FactoredValues scan_rates;  // Rows/s at reference speed, one per scan.
  uint64_t scan_allocs = 0, scan_alloc_rows = 0;  // Over the first scan.
  std::vector<QueryBounds> bounds;
  std::vector<int64_t> counts;       // Polls per group afterwards.
  std::vector<int64_t> side_counts;  // cold_scan: polls per side group.
};

// One measured scan of `b`, checked against `want`; its rate joins
// r->scan_rates (the first one also counts its allocations).
Status MeasuredScan(Ctx& c, Conn& conn, const QueryBounds& b,
                    const ScanExpectation& want, MainResult* r) {
  ScanStats ss;
  const uint64_t allocs = AllocCount();
  LT_RETURN_IF_ERROR(Scan(c, conn, b, &ss));
  if (r->scan_rates.count() == 0) {
    r->scan_allocs = AllocCount() - allocs;
    r->scan_alloc_rows = ss.rows;
  }
  CheckScan(c, ss, want, !b.projection.empty());
  r->scan_rates.Add(
      Ratio(static_cast<double>(ss.rows), static_cast<double>(ss.nanos) / 1e9),
      Ratio(ss.factor_sum, ss.pages));
  return Status::OK();
}

// ingest: kIngestConnections closed-loop grabbers; connection k polls the
// groups g with g % kIngestConnections == k, one round after another.
void RunIngest(Ctx& c, Stack* st, int seconds, MainResult* r) {
  const Fleet& f = c.wl->fleet;
  const int groups = f.groups();
  const int64_t pre = c.wl->preload_polls;
  const int64_t rounds = kIngestRoundsPerSecond * seconds;
  std::vector<std::atomic<int64_t>> acked(static_cast<size_t>(groups));
  std::vector<Samples> lat(kIngestConnections);
  Conn probe;
  Status ps = OpenConn(c, st, &probe);
  if (!ps.ok()) {
    c.acct->Op(ps);
    return;
  }
  Targets targets(f, Mix64(f.seed ^ 0x1f));
  // The read probe and the maintenance pass run on the last connection to
  // reach the barrier, with both idle, and the clock moves only there, to
  // the round just completed: which tablets flush and merge then depends on
  // the op count alone, never on how the two connections interleaved.
  int64_t done_rounds = 0;
  auto maintain = [&]() noexcept {
    done_rounds += kIngestMaintainRounds;
    st->AdvanceTo(f.PollTime(pre + done_rounds));
    // The last phase ends when both connections leave the barrier after
    // their final round, which need not complete kIngestMaintainRounds.
    if (done_rounds > rounds) {
      c.acct->Op(st->db()->MaintainNow());
      return;
    }
    const int64_t t0 = NowNanos();
    const std::vector<int64_t> counts(static_cast<size_t>(groups),
                                      pre + done_rounds);
    QueryBounds last_hour;
    last_hour.min_ts = f.PollTime(pre + done_rounds) - kWindow;
    if (ps.ok()) {
      ps = MeasuredScan(c, probe, last_hour,
                        ExpectScan(*c.model, counts,
                                   FirstPollAtOrAfter(f, last_hour.min_ts)),
                        r);
    }
    if (ps.ok()) {
      ps = QueryRound(c, probe, counts, kProbePoints, kProbeSqls, &targets,
                      &r->point_lat, &r->sql_lat, &r->sql_self, &r->bounds);
    }
    r->probe_s += static_cast<double>(NowNanos() - t0) / 1e9;
    c.acct->Op(st->db()->MaintainNow());
  };
  std::barrier sync(kIngestConnections, maintain);
  const int64_t t0 = NowNanos();
  std::vector<std::thread> threads;
  for (int k = 0; k < kIngestConnections; k++) {
    threads.emplace_back([&, k] {
      Conn conn;
      Status s = OpenConn(c, st, &conn);
      if (!s.ok()) c.acct->Op(s);
      for (int64_t round = 0; s.ok() && round < rounds; round++) {
        const int64_t p = pre + round;
        for (int g = k; g < groups && s.ok(); g += kIngestConnections) {
          s = Insert(c, conn, f.Batch(g, p), 0, &lat[k]);
          if (s.ok()) acked[static_cast<size_t>(g)]++;
        }
        if (s.ok() && (round + 1) % kIngestMaintainRounds == 0) {
          sync.arrive_and_wait();
        }
      }
      // A connection that stopped early (an insert failed) leaves the
      // barrier, so the other one never waits for it.
      sync.arrive_and_drop();
    });
  }
  for (std::thread& t : threads) t.join();
  r->wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  for (const Samples& s : lat) r->insert_lat.Merge(s);
  for (int g = 0; g < groups; g++) {
    int64_t n = acked[static_cast<size_t>(g)].load();
    r->counts.push_back(pre + n);
    r->rows_inserted += static_cast<uint64_t>(n) * kBatchRows;
  }
}

// dashboard: an open-loop writer at kWriterBatchesPerSecond (batch s goes
// to group s % groups) beside kQueryConnections closed-loop readers issuing
// last-hour device queries and per-network SQL sums, in kDashboardSlices
// slices; between two, one measured scan of the cache-resident history.
void RunDashboard(Ctx& c, Stack* st, int seconds, MainResult* r) {
  const Fleet& f = c.wl->fleet;
  const int groups = f.groups();
  const int64_t pre = c.wl->preload_polls;
  const int64_t period = 1000000000LL / kWriterBatchesPerSecond;
  const int64_t slice = seconds * 1000000000LL / kDashboardSlices;
  std::atomic<int64_t> issued{0}, acked{0};
  std::vector<Samples> point(kQueryConnections), sql(kQueryConnections),
      self(kQueryConnections);
  std::vector<std::vector<QueryBounds>> bounds(kQueryConnections);
  Conn writer_conn, scan_conn;
  std::vector<Conn> readers(kQueryConnections);
  for (Conn* conn : {&writer_conn, &scan_conn}) {
    Status s = OpenConn(c, st, conn);
    if (!s.ok()) {
      c.acct->Op(s);
      return;
    }
  }
  for (Conn& conn : readers) {
    Status s = OpenConn(c, st, &conn);
    if (!s.ok()) {
      c.acct->Op(s);
      return;
    }
  }
  QueryBounds history;
  history.max_ts = f.PollTime(pre - 1);
  const ScanExpectation history_want = ExpectScan(
      *c.model, std::vector<int64_t>(static_cast<size_t>(groups), pre));
  std::vector<lt::Random> rngs;
  for (int q = 0; q < kQueryConnections; q++) {
    rngs.emplace_back(Mix64(f.seed) + static_cast<uint64_t>(q));
  }
  const int64_t start = NowNanos();
  for (int k = 0; k < kDashboardSlices; k++) {
    const int64_t slice_start = NowNanos();
    const int64_t deadline = slice_start + slice;
    const int64_t first_batch = issued.load();
    std::thread writer([&] {
      for (int64_t b = first_batch;; b++) {
        const int64_t due = slice_start + (b - first_batch) * period;
        if (due >= deadline) break;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        r->late.Add(std::max<int64_t>(0, NowNanos() - due));
        const int g = static_cast<int>(b % groups);
        const int64_t p = pre + b / groups;
        issued.store(b + 1);
        st->AdvanceTo(f.PollTime(p));
        if (!Insert(c, writer_conn, f.Batch(g, p), due, &r->insert_lat).ok()) {
          break;
        }
        acked.store(b + 1);
      }
    });
    std::vector<std::thread> threads;
    for (int q = 0; q < kQueryConnections; q++) {
      threads.emplace_back([&, q] {
        Conn& conn = readers[static_cast<size_t>(q)];
        lt::Random& rng = rngs[static_cast<size_t>(q)];
        while (NowNanos() < deadline) {
          const Timestamp from = st->clock()->Now() - kWindow;
          const int64_t first = FirstPollAtOrAfter(f, from);
          const int64_t before = acked.load();
          if (rng.NextDouble() < kPointShare) {
            const int i = static_cast<int>(rng.Uniform(f.devices()));
            const int g = f.GroupOf(i);
            QueryBounds b = DeviceWindow(f, i, from);
            QueryResult res;
            if (PointQuery(c, conn, b, &res, &point[q]).ok()) {
              CheckDeviceRows(c, i, first,
                              pre + WriterGroupCount(before, g, groups),
                              pre + WriterGroupCount(issued.load(), g, groups),
                              res.rows);
            }
            if (bounds[q].size() < kKeptBounds / kQueryConnections) {
              bounds[q].push_back(std::move(b));
            }
          } else {
            const int n = static_cast<int>(rng.Uniform(f.networks));
            const int g = f.GroupOf(n * f.devices_per_network);
            lt::sql::ResultSet rs;
            if (SqlQuery(c, conn,
                         SumSql(f.NetworkId(n * f.devices_per_network), from),
                         &rs, &sql[q], &self[q])
                    .ok()) {
              CheckNetworkSums(
                  c, n, first, pre + WriterGroupCount(before, g, groups),
                  pre + WriterGroupCount(issued.load(), g, groups), rs);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    writer.join();
    const int64_t t0 = NowNanos();
    for (int k = 0; k < kDashboardScansPerSlice; k++) {
      if (!MeasuredScan(c, scan_conn, history, history_want, r).ok()) break;
    }
    r->probe_s += static_cast<double>(NowNanos() - t0) / 1e9;
  }
  r->wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  for (int q = 0; q < kQueryConnections; q++) {
    r->point_lat.Merge(point[q]);
    r->sql_lat.Merge(sql[q]);
    r->sql_self.Merge(self[q]);
    for (QueryBounds& b : bounds[q]) r->bounds.push_back(std::move(b));
  }
  const int64_t done = acked.load();
  for (int g = 0; g < groups; g++) {
    r->counts.push_back(pre + WriterGroupCount(done, g, groups));
  }
  r->rows_inserted = static_cast<uint64_t>(done) * kBatchRows;
}

// cold_scan: one connection; rounds of one verified full scan (simulated
// page cache dropped first), a few cold device and SQL queries, and insert
// batches into the side table, then one projected scan.
void RunColdScan(Ctx& c, Stack* st, int seconds,
                 const std::vector<int64_t>& counts,
                 const ScanExpectation& want, MainResult* r) {
  const Fleet& f = c.wl->fleet;
  Conn conn;
  Status s = OpenConn(c, st, &conn);
  if (!s.ok()) {
    c.acct->Op(s);
    return;
  }
  Targets targets(f, Mix64(f.seed));
  r->side_counts.assign(static_cast<size_t>(f.groups()), 0);
  int64_t side_batches = 0;
  const int64_t start = NowNanos();
  for (int round = 0; round < seconds; round++) {
    st->disk()->ClearCaches();
    if (!MeasuredScan(c, conn, QueryBounds(), want, r).ok()) break;
    if (!QueryRound(c, conn, counts, kColdPointsPerScan, kColdSqlPerScan,
                    &targets,
                    &r->point_lat, &r->sql_lat, &r->sql_self, &r->bounds)
             .ok()) {
      break;
    }
    for (int k = 0; k < kColdInsertsPerScan; k++, side_batches++) {
      const int g = static_cast<int>(side_batches % f.groups());
      int64_t& polls = r->side_counts[static_cast<size_t>(g)];
      if (!Insert(c, conn, f.Batch(g, polls), 0, &r->insert_lat, kSideTable)
               .ok()) {
        break;
      }
      polls++;
      r->rows_inserted += kBatchRows;
    }
  }
  QueryBounds rx_only;
  rx_only.projection = {3};
  ScanStats projected;
  if (Scan(c, conn, rx_only, &projected).ok()) {
    CheckScan(c, projected, want, true);
  }
  // Every acknowledged side row must be readable.
  ScanStats side;
  if (Scan(c, conn, QueryBounds(), &side, kSideTable).ok()) {
    CheckScan(c, side, ExpectScan(*c.model, r->side_counts), false);
  }
  r->wall_s = static_cast<double>(NowNanos() - start) / 1e9;
}

// ---- Check phase --------------------------------------------------------------

struct CheckResult {
  Samples point_lat, sql_lat, sql_self;
  double stored_bytes_per_row = 0;
  std::vector<QueryBounds> bounds;
  EngineSnapshot before, after;
  double host_factor = 1;  // Mean between the snapshots.
};

// With the writers stopped the model is exact: flush, then verified
// last-hour device queries on random devices, per-network SQL sums, and a
// full scan that proves every acknowledged row readable. Nothing here is
// timed for the end-to-end metrics.
Status Check(Ctx& c, Stack* st, const std::vector<int64_t>& counts,
             const ScanExpectation& want, CheckResult* r) {
  const Fleet& f = c.wl->fleet;
  Conn conn;
  LT_RETURN_IF_ERROR(OpenConn(c, st, &conn));
  const int64_t newest = *std::max_element(counts.begin(), counts.end()) - 1;
  LT_RETURN_IF_ERROR(Flush(c, conn, f.PollTime(newest)));
  r->stored_bytes_per_row =
      Ratio(static_cast<double>(st->table()->DiskBytes()),
            static_cast<double>(want.rows));
  r->before = Snap(st);
  const HostTally h0 = HostTally::Now();
  if (c.wl->check_points > 0) {
    // Read the queried last hour once, unmeasured, so every measured query
    // finds its blocks cached; otherwise how many of them miss depends on
    // which devices the seed picks first.
    const int64_t newest = *std::max_element(counts.begin(), counts.end()) - 1;
    QueryBounds last_hour;
    last_hour.min_ts = f.PollTime(newest + 1) - kWindow;
    ScanStats warm;
    LT_RETURN_IF_ERROR(Scan(c, conn, last_hour, &warm));
  }
  Targets targets(f, Mix64(f.seed ^ 0xc0ffee));
  for (int round = 0; round < kCheckRounds; round++) {
    LT_RETURN_IF_ERROR(QueryRound(
        c, conn, counts, c.wl->check_points / kCheckRounds,
        c.wl->check_sqls / kCheckRounds, &targets, &r->point_lat, &r->sql_lat,
        &r->sql_self, &r->bounds));
  }
  ScanStats all;
  LT_RETURN_IF_ERROR(Scan(c, conn, QueryBounds(), &all));
  CheckScan(c, all, want, false);
  r->host_factor = HostTally::Now().MeanSince(h0);
  r->after = Snap(st);
  return Status::OK();
}

void Set(MetricMap* m, const std::string& name, double value,
         const char* unit) {
  (*m)[name] = Metric{value, unit};
}

// "name n=… p50=… p99=… p<q>=…", the last being the highest percentile
// with at least ten samples beyond it.
std::string Describe(const char* what, const Samples& s) {
  char buf[200];
  snprintf(buf, sizeof(buf), "%-12s n=%-7zu p50=%.1fus p99=%.1fus p%g=%.1fus",
           what, s.count(), s.QuantileMicros(0.5), s.QuantileMicros(0.99),
           s.TailQuantile() * 100, s.QuantileMicros(s.TailQuantile()));
  return buf;
}

}  // namespace

bool SpanSink::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tspan\tname\trequest\tparent\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(mu_);
  size_t thread = 0;
  for (const SpanRecorder& rec : recorders_) {
    for (size_t i = 0; i < rec.spans().size(); i++) {
      const Span& s = rec.spans()[i];
      out << thread << '\t' << i << '\t' << s.name << '\t' << s.request << '\t'
          << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    thread++;
  }
  return static_cast<bool>(out);
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  *w = Workload();
  w->fleet.seed = seed;
  Fleet& f = w->fleet;
  if (name == "ingest") {
    // 4096 devices in 8 grabber groups, polled every minute; an hour of
    // history preloaded and flushed, then the grabbers take over.
    w->kind = Workload::Kind::kIngest;
    f.networks = 64;
    f.devices_per_network = 64;
    f.interval = lt::kMicrosPerMinute;
    f.t0 = kBaseTime;
    w->preload_polls = 60;
    w->check_points = 120;
    w->check_sqls = 6;
  } else if (name == "dashboard") {
    // 2048 devices polled every 10 s; the preloaded half hour straddles a
    // 4-hour period boundary and is flushed every 5 minutes of data, so it
    // lands in several time-partitioned tablets. Preload plus everything the
    // writer adds fits the default 64 MB block cache.
    w->kind = Workload::Kind::kDashboard;
    f.networks = 32;
    f.devices_per_network = 64;
    f.interval = 10 * lt::kMicrosPerSecond;
    f.t0 = kBaseTime + 4 * lt::kMicrosPerHour - 20 * lt::kMicrosPerMinute;
    w->preload_polls = 180;
    w->preload_flush_every = 30;
    w->settle = true;
    w->warm = true;
    w->check_points = 120;
    w->check_sqls = 12;
  } else if (name == "cold_scan") {
    // 1024 devices, 1000 polls in 8 unmerged tablets of 125 polls each:
    // every tablet spans the whole key space (the Figure 5 shape), and the
    // table is more than 8x the 1 MB block cache.
    w->kind = Workload::Kind::kColdScan;
    f.networks = 16;
    f.devices_per_network = 64;
    f.interval = 10 * lt::kMicrosPerSecond;
    f.t0 = kBaseTime;
    w->preload_polls = 1000;
    w->preload_flush_every = 125;
    w->stack.block_cache_bytes = 1ull << 20;
    // Large enough that only the explicit flushes cut tablets.
    w->stack.flush_bytes = 256ull << 20;
  } else {
    return false;
  }
  return true;
}

PassOutput RunPass(const Workload& wl, const PassOptions& opt) {
  PassOutput out;
  Accounting acct;
  SpanSink sink(opt.traced);
  Fleet model = wl.fleet;
  if (opt.corrupt_model) model.seed = Mix64(model.seed);
  Ctx c{&wl, &model, &acct, &sink};
  SetAllocCounting(opt.traced);
  auto fail = [&](const std::string& why) {
    out.correct = false;
    out.attempted = acct.attempted();
    out.failed = acct.failed();
    out.notes = acct.notes();
    out.notes.push_back(why);
    return out;
  };

  // One setup per pass; run.py reports the median over its trials. The
  // reference kernel's table is built first, outside every timing.
  HostFactor();
  SetupResult setup;
  auto stack = std::make_unique<Stack>();
  const HostTally setup_h0 = HostTally::Now();
  const int64_t setup_t0 = NowNanos();
  Status ss = Setup(c, stack.get(), &setup);
  const double setup_s = static_cast<double>(NowNanos() - setup_t0) / 1e9 *
                         HostTally::Now().MeanSince(setup_h0);
  if (!ss.ok()) return fail("setup failed: " + ss.ToString());

  const Fleet& f = wl.fleet;
  std::vector<int64_t> counts(static_cast<size_t>(f.groups()),
                              wl.preload_polls);
  MainResult m;
  struct rusage ru0 {};
  getrusage(RUSAGE_SELF, &ru0);
  const EngineSnapshot m0 = Snap(stack.get());
  const HostTally h0 = HostTally::Now();
  switch (wl.kind) {
    case Workload::Kind::kIngest:
      RunIngest(c, stack.get(), opt.seconds, &m);
      break;
    case Workload::Kind::kDashboard:
      RunDashboard(c, stack.get(), opt.seconds, &m);
      break;
    case Workload::Kind::kColdScan:
      RunColdScan(c, stack.get(), opt.seconds, counts,
                  ExpectScan(model, counts), &m);
      break;
  }
  m.host_factor = HostTally::Now().MeanSince(h0);
  const EngineSnapshot m1 = Snap(stack.get());
  struct rusage ru1 {};
  getrusage(RUSAGE_SELF, &ru1);
  if (!m.counts.empty()) counts = m.counts;

  CheckResult chk;
  Status cs = Check(c, stack.get(), counts,
                    ExpectScan(model, counts), &chk);
  if (!cs.ok()) return fail("check phase failed: " + cs.ToString());

  // ---- End-to-end metrics, all from the timed window, where every op type
  // is sampled from its start to its end.
  using Kind = Workload::Kind;
  const Samples& ins = m.insert_lat;
  const bool main_queries = wl.kind != Kind::kIngest;
  const Samples& pq = m.point_lat;
  const Samples& rq = m.sql_lat;
  const Samples& self = m.sql_self;
  const FactoredValues& scans = m.scan_rates;
  double ingest_rate = 0;
  if (wl.kind == Kind::kIngest) {
    ingest_rate = Ratio(static_cast<double>(m.rows_inserted),
                        (m.wall_s - m.probe_s) * m.host_factor);
  } else if (wl.kind == Kind::kDashboard) {
    // The open-loop writer's achieved rate, on the wall clock it runs by.
    ingest_rate =
        Ratio(static_cast<double>(m.rows_inserted), m.wall_s - m.probe_s);
  } else {
    // One closed-loop connection: its inserts' total time.
    ingest_rate = Ratio(static_cast<double>(m.rows_inserted),
                        static_cast<double>(ins.SumNanos()) / 1e9);
  }
  std::shared_ptr<lt::Table> table = stack->table();
  MetricMap& e = out.end_to_end;
  Set(&e, "setup_s", setup_s, "s");
  Set(&e, "ingest_rows_per_s", ingest_rate, "rows/s");
  Set(&e, "insert_p50_us", ins.QuantileMicros(0.5), "us");
  Set(&e, "insert_p99_us", ins.QuantileMicros(0.99), "us");
  Set(&e, "point_query_p50_us", pq.QuantileMicros(0.5), "us");
  Set(&e, "point_query_p99_us", pq.QuantileMicros(0.99), "us");
  Set(&e, "range_query_p50_us", rq.QuantileMicros(0.5), "us");
  Set(&e, "scan_rows_per_s", scans.Quantile(0.5), "rows/s");
  Set(&e, "stored_bytes_per_row", chk.stored_bytes_per_row, "B/row");
  Set(&e, "write_amp", table->stats().WriteAmplification(), "ratio");
  Set(&e, "success_rate",
      1.0 - Ratio(static_cast<double>(acct.failed()),
                  static_cast<double>(acct.attempted())),
      "ratio");
  Set(&e, "peak_rss_mb", PeakRssMb(), "MB");

  out.summary.push_back(Describe("insert", ins));
  out.summary.push_back(Describe("point_query", pq));
  out.summary.push_back(Describe("range_query", rq));
  char line[200];
  const lt::Cache::Stats cache = stack->db()->block_cache()->GetStats();
  snprintf(line, sizeof(line),
           "tablets=%zu table_bytes=%llu cache: capacity=%llu charge=%llu "
           "evictions(check)=%llu",
           table->NumDiskTablets(),
           static_cast<unsigned long long>(table->DiskBytes()),
           static_cast<unsigned long long>(cache.capacity),
           static_cast<unsigned long long>(cache.charge),
           static_cast<unsigned long long>(
               CounterDelta(chk.before, chk.after, "cache.evictions")));
  out.summary.push_back(line);
  auto secs = [](const timeval& a, const timeval& b) {
    return static_cast<double>(b.tv_sec - a.tv_sec) +
           static_cast<double>(b.tv_usec - a.tv_usec) / 1e6;
  };
  snprintf(line, sizeof(line),
           "timed window: wall=%.2fs host_factor=%.3f user=%.2fs sys=%.2fs "
           "minflt=%ld nivcsw=%ld",
           m.wall_s, m.host_factor, secs(ru0.ru_utime, ru1.ru_utime),
           secs(ru0.ru_stime, ru1.ru_stime), ru1.ru_minflt - ru0.ru_minflt,
           ru1.ru_nivcsw - ru0.ru_nivcsw);
  out.summary.push_back(line);
  snprintf(line, sizeof(line),
           "host factor: setup=%.3f window=%.3f check=%.3f",
           setup.host_factor, m.host_factor, chk.host_factor);
  out.summary.push_back(line);
  snprintf(line, sizeof(line), "scan rows/s: n=%zu p50=%.0f", scans.count(),
           scans.Quantile(0.5));
  out.summary.push_back(line);
  if (wl.kind == Kind::kDashboard) {
    snprintf(line, sizeof(line),
             "writer lateness: n=%zu p50=%.1fus p99=%.1fus max=%.1fus",
             m.late.count(), m.late.QuantileMicros(0.5),
             m.late.QuantileMicros(0.99), m.late.QuantileMicros(1.0));
    out.summary.push_back(line);
  }

  if (opt.traced) {
    // ---- Per-layer metrics: engine counters diffed across the timed
    // window (or, for ops the window lacks, across the check phase or the
    // last setup's preload), spans, and in-process replays.
    // Engine-side timings are scaled by their window's mean host factor,
    // like the client-side ones.
    struct Window {
      const EngineSnapshot* before;
      const EngineSnapshot* after;
      double speed;
    };
    const Window windows[] = {{&m0, &m1, m.host_factor},
                              {&chk.before, &chk.after, chk.host_factor},
                              {&setup.before, &setup.after, setup.host_factor}};
    const Window& main_w = windows[0];
    // The first window in which histogram `name` recorded anything.
    auto pick = [&](const std::string& name) -> const Window& {
      for (const Window& w : windows) {
        if (HistogramDelta(*w.before, *w.after, name).count > 0) return w;
      }
      return main_w;
    };
    auto hist = [&](const std::string& name, const Window& w) {
      return HistogramDelta(*w.before, *w.after, name);
    };
    // Quantile q of histogram `name` in microseconds at reference speed.
    auto quantile = [&](const std::string& name, double q, const Window& w) {
      return hist(name, w).Quantile(q) * w.speed;
    };
    auto ctr = [](const Window& w, const std::string& name) {
      return static_cast<double>(CounterDelta(*w.before, *w.after, name));
    };
    MetricMap& l = out.per_layer;
    const std::string ins_op = "server.op.insert.micros";
    const std::string q_op = "server.op.query.micros";
    const Window& ins_w = pick(ins_op);
    const Window& q_w = pick(q_op);
    // The workload's most frequent op: inserts on ingest, device queries
    // elsewhere (they outnumber scan pages in the server's query histogram).
    const double client_p50 =
        main_queries ? pq.QuantileMicros(0.5) : ins.QuantileMicros(0.5);
    const double server_p50 = main_queries ? quantile(q_op, 0.5, q_w)
                                           : quantile(ins_op, 0.5, ins_w);
    const double window_us = m.wall_s * 1e6;
    Set(&l, "host.speed_factor", m.host_factor, "ratio");
    Set(&l, "net.client_overhead_us", client_p50 - server_p50, "us");
    Set(&l, "net.server_op_insert_p50_us", quantile(ins_op, 0.5, ins_w), "us");
    Set(&l, "net.server_op_insert_p99_us", quantile(ins_op, 0.99, ins_w), "us");
    Set(&l, "net.server_op_query_p50_us", quantile(q_op, 0.5, q_w), "us");
    Set(&l, "net.server_op_query_p99_us", quantile(q_op, 0.99, q_w), "us");
    Set(&l, "net.worker_utilization",
        Ratio(ctr(main_w, "server.worker_busy_micros"),
              static_cast<double>(lt::ServerOptions().worker_threads) *
                  window_us),
        "ratio");
    Set(&l, "net.event_loop_lag_p99_us",
        quantile("server.event_loop.lag_micros", 0.99, main_w), "us");
    Set(&l, "net.queue_wait_p50_us",
        quantile("server.queue_wait_micros", 0.5, main_w), "us");
    Set(&l, "net.stream_pauses", ctr(main_w, "server.stream_pauses"), "count");

    const Window& group_w = pick("table.insert_group_size");
    Set(&l, "core.batches_per_group",
        Ratio(ctr(group_w, "table.insert_batches"),
              ctr(group_w, "table.insert_groups")),
        "ratio");
    const Window& flush_w = pick("table.flush_micros");
    const HistDelta flush = hist("table.flush_micros", flush_w);
    Set(&l, "core.flush_ms", flush.Mean() * flush_w.speed / 1000, "ms");
    Set(&l, "core.flush_mb_per_s",
        Ratio(ctr(flush_w, "table.bytes_flushed"),
              static_cast<double>(flush.sum) * flush_w.speed),
        "MB/s");
    Set(&l, "core.merge_ms",
        hist("table.merge_micros", main_w).Mean() * main_w.speed / 1000, "ms");
    Set(&l, "core.merge_bytes_rewritten",
        ctr(main_w, "table.bytes_merge_written"), "B");
    const Window& query_w = pick("table.query_micros");
    Set(&l, "core.rows_scanned_per_returned",
        Ratio(ctr(query_w, "table.rows_scanned"),
              ctr(query_w, "table.rows_returned")),
        "ratio");
    Set(&l, "core.block_read_us",
        quantile("table.block_read_micros", 0.5,
                 pick("table.block_read_micros")),
        "us");
    Set(&l, "core.chunks_decoded", ctr(query_w, "table.column_chunks_decoded"),
        "count");
    Set(&l, "core.chunks_skipped", ctr(query_w, "table.column_chunks_skipped"),
        "count");
    Set(&l, "core.allocs_per_inserted_row",
        Ratio(static_cast<double>(setup.allocs),
              static_cast<double>(setup.rows)),
        "count");
    Set(&l, "core.allocs_per_scanned_row",
        Ratio(static_cast<double>(m.scan_allocs),
              static_cast<double>(m.scan_alloc_rows)),
        "count");

    const double hits = ctr(query_w, "cache.hits");
    Set(&l, "util.cache_hit_rate", Ratio(hits, hits + ctr(query_w, "cache.misses")),
        "ratio");
    Set(&l, "util.cache_evictions", ctr(query_w, "cache.evictions"), "count");
    Set(&l, "util.table_bytes_per_cache_byte",
        Ratio(static_cast<double>(table->DiskBytes()),
              static_cast<double>(wl.stack.block_cache_bytes)),
        "ratio");
    Set(&l, "sql.self_us", self.QuantileMicros(0.5), "us");

    Set(&l, "env.sim_disk_ms",
        static_cast<double>(m1.sim_disk_micros - m0.sim_disk_micros) / 1000,
        "ms");
    Set(&l, "env.seeks", static_cast<double>(m1.seeks - m0.seeks), "count");
    Set(&l, "env.read_bytes_per_row",
        Ratio(static_cast<double>(m1.disk_bytes_read - m0.disk_bytes_read),
              ctr(main_w, "table.rows_returned")),
        "B/row");
    Set(&l, "env.write_bytes_per_row",
        Ratio(static_cast<double>(m1.disk_bytes_written -
                                  m0.disk_bytes_written),
              ctr(main_w, "table.rows_inserted")),
        "B/row");
    Set(&l, "gen.writer_late_p99_us", m.late.QuantileMicros(0.99), "us");
    Set(&l, "gen.writer_late_max_us", m.late.QuantileMicros(1.0), "us");
    Set(&l, "samples.insert", static_cast<double>(ins.count()), "count");
    Set(&l, "samples.point_query", static_cast<double>(pq.count()), "count");
    Set(&l, "samples.range_query", static_cast<double>(rq.count()), "count");
    Set(&l, "samples.scan", static_cast<double>(scans.count()), "count");

    std::vector<QueryBounds> bounds = m.bounds;
    ReplayLayers(f, stack.get(), bounds, &acct, &l);
    if (!opt.spans_path.empty() && !sink.WriteTsv(opt.spans_path)) {
      return fail("cannot write spans to " + opt.spans_path);
    }
  }
  SetAllocCounting(false);

  out.correct = !acct.wrong();
  out.attempted = acct.attempted();
  out.failed = acct.failed();
  out.notes = acct.notes();
  return out;
}

}  // namespace perfbench
