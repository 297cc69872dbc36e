// Overload-resilience coverage: AdmissionController unit tests on SimClock
// (per-tenant token buckets), and end-to-end server tests over SimTransport
// for the streaming query path — byte-budgeted scans, the server-side row
// cap, the scan slots (FIFO queue, queue-full shed, queue-wait expiry at
// each waiter's own deadline answered kServerBusy, wait-time recording),
// cancel-mid-scan releasing its slot, connection-close cancellation, the
// slow-reader bounded-buffering regression, a slot granted to a scan
// between its admission and its park, and a queued scan's cancel racing
// its grant or expiry.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "net/admission.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/sim_transport.h"
#include "tests/test_util.h"
#include "util/coding.h"

namespace lt {
namespace {

using sim::SimTransport;
using sim::SimTransportOptions;
using testutil::UsageRow;
using testutil::UsageSchema;
using wire::ErrCode;
using wire::MsgType;

// The server's clock in the gated tests: readings pass through from a
// SimClock, but a call that an armed hold's rule picks waits until the
// test opens that hold. A rule sees whether the caller is the event loop,
// which the clock learns while the server is otherwise idle.
class GateClock : public Clock {
 public:
  using Rule = std::function<bool(bool event_loop)>;

  explicit GateClock(std::shared_ptr<SimClock> base) : base_(std::move(base)) {}

  Timestamp Now() const override {
    std::unique_lock<std::mutex> lock(mu_);
    const std::thread::id me = std::this_thread::get_id();
    if (learning_) {
      seen_.push_back(me);
      cv_.notify_all();
    }
    for (Hold& h : holds_) {
      if (h.armed && h.rule(me == event_loop_)) {
        h.armed = false;
        h.held = true;
        cv_.notify_all();
        cv_.wait(lock, [&h] { return !h.held; });
        break;
      }
    }
    return base_->Now();
  }

  /// Learns the event loop's thread: while no request runs, it is the one
  /// thread reading the clock (its housekeeping tick).
  bool LearnEventLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    seen_.clear();
    learning_ = true;
    const bool ok = cv_.wait_for(lock, std::chrono::seconds(2),
                                 [this] { return seen_.size() >= 6; });
    learning_ = false;
    if (!ok) return false;
    for (const std::thread::id& t : seen_) {
      if (t != seen_[0]) return false;
    }
    event_loop_ = seen_[0];
    return true;
  }

  /// Arms a hold: the first call `rule` picks waits for Open(id).
  int Arm(Rule rule) {
    std::lock_guard<std::mutex> lock(mu_);
    holds_.push_back({std::move(rule), true, false});
    return static_cast<int>(holds_.size()) - 1;
  }
  /// Waits up to `wait` for hold `id` to catch a call, then disarms it.
  /// True if a call is held.
  bool WaitHeld(int id, std::chrono::milliseconds wait) {
    std::unique_lock<std::mutex> lock(mu_);
    Hold& h = holds_[id];
    cv_.wait_for(lock, wait, [&h] { return h.held; });
    h.armed = false;
    return h.held;
  }
  void Open(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    holds_[id].held = false;
    cv_.notify_all();
  }
  /// Disarms and opens every hold, so a failed test can stop the server.
  void OpenAll() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Hold& h : holds_) h.armed = h.held = false;
    cv_.notify_all();
  }

 private:
  struct Hold {
    Rule rule;
    bool armed;
    bool held;
  };

  const std::shared_ptr<SimClock> base_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool learning_ = false;
  mutable std::vector<std::thread::id> seen_;
  std::thread::id event_loop_;
  mutable std::deque<Hold> holds_;  // A deque: held calls keep references.
};

// ---------------------------------------------------------------------------
// End-to-end server tests over SimTransport.

constexpr uint16_t kPort = 7801;

class OverloadNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    DbOptions dopts;
    dopts.background_maintenance = false;
    ASSERT_TRUE(DB::Open(&env_, clock_, "/srv", dopts, &db_).ok());
  }

  // Builds the transport here, not in SetUp, so tests can set
  // conn_buffer_bytes_ (the slow-reader backpressure surface) first.
  void StartServer() {
    SimTransportOptions topts;
    topts.clock = clock_;
    topts.conn_buffer_bytes = conn_buffer_bytes_;
    transport_ = std::make_unique<SimTransport>(topts);
    sopts_.port = kPort;
    sopts_.transport = transport_.get();
    sopts_.clock = gate_ ? std::static_pointer_cast<Clock>(gate_) : clock_;
    sopts_.poll_interval_ms = 5;
    server_ = std::make_unique<LittleTableServer>(db_.get(), sopts_);
    ASSERT_TRUE(server_->Start().ok());
    ClientOptions copts;
    copts.transport = transport_.get();
    copts.clock = clock_;
    copts.backoff_seed = 7;
    copts.backoff_sleep = [clock = clock_](int64_t ms) {
      clock->Advance(ms * 1000);
    };
    copts.network_id = client_network_id_;
    copts.max_retries = client_max_retries_;
    ASSERT_TRUE(Client::Connect("sim", kPort, copts, &client_).ok());
  }

  void TearDown() override {
    client_.reset();
    if (gate_) gate_->OpenAll();
    if (server_) server_->Stop();
  }

  /// Creates "usage" (unless the test already did) and inserts `n` rows for
  /// network 1 (distinct devices).
  void Fill(int n) {
    if (!db_->GetTable("usage")) {
      ASSERT_TRUE(client_->CreateTable("usage", UsageSchema(), 0).ok());
    }
    std::vector<Row> rows;
    for (int i = 0; i < n; i++) {
      rows.push_back(UsageRow(1, i, clock_->Now() + i, i * 7, 0.5));
      if (rows.size() == 200 || i + 1 == n) {
        ASSERT_TRUE(client_->Insert("usage", rows).ok());
        rows.clear();
      }
    }
    Timestamp ttl;
    ASSERT_TRUE(client_->GetTableInfo("usage", &schema_, &ttl).ok());
  }

  std::unique_ptr<net::Connection> RawConn() {
    std::unique_ptr<net::Connection> conn;
    EXPECT_TRUE(transport_->Connect("sim", kPort, 1000, &conn).ok());
    conn->set_read_timeout_ms(5000);
    conn->set_write_timeout_ms(5000);
    return conn;
  }

  void SendQuery(net::Connection* conn, const QueryBounds& bounds,
                 const std::string& table = "usage") {
    std::string req;
    PutLengthPrefixedSlice(&req, table);
    PutVarint32(&req, schema_.version());
    wire::EncodeBounds(&req, schema_, bounds);
    const std::string f = wire::Frame(MsgType::kQuery, req);
    ASSERT_TRUE(conn->WriteAll(f.data(), f.size()).ok());
  }

  Status ReadFrame(net::Connection* conn, MsgType* type, std::string* body) {
    char len_buf[4];
    LT_RETURN_IF_ERROR(conn->ReadAll(len_buf, 4));
    const uint32_t len = DecodeFixed32(len_buf);
    if (len == 0 || len > wire::kMaxFrameBytes) {
      return Status::NetworkError("bad frame length");
    }
    std::string payload(len, '\0');
    LT_RETURN_IF_ERROR(conn->ReadAll(payload.data(), len));
    *type = static_cast<MsgType>(payload[0]);
    body->assign(payload, 1, payload.size() - 1);
    return Status::OK();
  }

  /// Reads one kQueryChunk; returns its flags and adds its row count.
  uint8_t ReadChunk(net::Connection* conn, uint64_t* rows) {
    MsgType type;
    std::string body;
    EXPECT_TRUE(ReadFrame(conn, &type, &body).ok());
    EXPECT_EQ(type, MsgType::kQueryChunk);
    Slice in(body);
    EXPECT_FALSE(in.empty());
    const uint8_t flags = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    uint32_t version = 0, count = 0;
    EXPECT_TRUE(GetVarint32(&in, &version));
    EXPECT_TRUE(GetVarint32(&in, &count));
    *rows += count;
    return flags;
  }

  void SendCancel(net::Connection* conn) {
    const std::string f = wire::Frame(MsgType::kCancel, "");
    ASSERT_TRUE(conn->WriteAll(f.data(), f.size()).ok());
  }

  /// Reads a query's chunks, adding their rows to *rows, up to its terminal
  /// frame: the error code of a kError terminal, or nullopt after the final
  /// chunk.
  std::optional<ErrCode> ReadTerminal(net::Connection* conn,
                                      uint64_t* rows = nullptr) {
    uint64_t ignored = 0;
    while (true) {
      MsgType type;
      std::string body;
      Status s = ReadFrame(conn, &type, &body);
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok() || body.empty()) return ErrCode::kGeneric;
      if (type == MsgType::kError) return static_cast<ErrCode>(body[0]);
      EXPECT_EQ(type, MsgType::kQueryChunk);
      Slice in(body);
      const uint8_t flags = static_cast<uint8_t>(in[0]);
      in.remove_prefix(1);
      uint32_t version = 0, count = 0;
      EXPECT_TRUE(GetVarint32(&in, &version) && GetVarint32(&in, &count));
      *(rows != nullptr ? rows : &ignored) += count;
      if (flags & wire::kChunkFinal) return std::nullopt;
    }
  }

  /// Reads a kCancel's kOk acknowledgment.
  void ReadAck(net::Connection* conn) {
    MsgType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(conn, &type, &body).ok());
    EXPECT_EQ(type, MsgType::kOk);
  }

  /// Starts a full scan whose reader stops after the first chunk: it holds
  /// a scan slot, parked on backpressure (with a 1 KB pipe).
  std::unique_ptr<net::Connection> StartParkedScan() {
    std::unique_ptr<net::Connection> conn = RawConn();
    SendQuery(conn.get(), QueryBounds{});
    uint64_t rows = 0;
    EXPECT_EQ(ReadChunk(conn.get(), &rows) & wire::kChunkFinal, 0);
    return conn;
  }

  /// Polls (real time, up to 2 s) until `done` holds.
  static bool WaitFor(const std::function<bool()>& done) {
    for (int i = 0; i < 1000; i++) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return done();
  }

  int64_t CounterValue(const std::string& name) {
    return server_->metrics().GetCounter(name)->Value();
  }
  int64_t GaugeValue(const std::string& name) {
    return server_->metrics().GetGauge(name)->Value();
  }
  bool WaitForGauge(const std::string& name, int64_t value) {
    return WaitFor([&] { return GaugeValue(name) == value; });
  }
  uint64_t HistMax(const std::string& name) {
    return server_->metrics().GetHistogram(name)->Snapshot().max;
  }

  // Which event a queued scan B's cancel meets in RunSlotRace; A holds
  // the only slot.
  enum class Race {
    kExpiry,           // B's cancel is read, then its wait expires.
    kCancelThenGrant,  // B's cancel runs before A's cancel frees the slot.
    kGrantThenCancel,  // A's cancel frees the slot for B, then B's runs.
  };

  /// Starts the server for RunSlotRace.
  void StartSlotRaceServer() {
    conn_buffer_bytes_ = 1024;
    // Four chunk targets or more: a stream parked on backpressure stays
    // parked until its reader drains.
    sopts_.query_budget_bytes = 8 * 1024;
    // Never hit (clock_ holds still), but every scan slice reads the clock
    // for it, which is where the gate holds the worker.
    sopts_.query_deadline_ms = 3600 * 1000;
    // One worker: scheduled slices run in run-queue order.
    sopts_.worker_threads = 1;
    sopts_.drain_timeout_ms = 200;
    sopts_.admission.max_concurrent_scans = 1;
    sopts_.admission.queue_wait_timeout_ms = 100;
    gate_ = std::make_shared<GateClock>(clock_);
    ASSERT_TRUE(db_->CreateTable("idle", UsageSchema(), nullptr).ok());
    StartServer();
    Fill(2000);
  }

  /// Parks the only worker inside a small query on the empty table "idle"
  /// (*conn), past its admission and holding no lock: the query's third
  /// clock reading, after its deadline stamp and its quota charge, is the
  /// deadline check in its scan loop. Returns the hold to open.
  int HoldWorker(std::unique_ptr<net::Connection>* conn) {
    const int hold = gate_->Arm(
        [n = 0](bool event_loop) mutable { return !event_loop && ++n == 3; });
    *conn = RawConn();
    QueryBounds small;
    small.limit = 10;
    SendQuery(conn->get(), small, "idle");
    EXPECT_TRUE(gate_->WaitHeld(hold, std::chrono::seconds(2)));
    return hold;
  }

  /// Sends a kCancel and waits until the event loop has scheduled the
  /// cancelled stream behind the held worker (`depth` runnable in all).
  void Cancel(net::Connection* conn, int64_t depth) {
    SendCancel(conn);
    ASSERT_TRUE(WaitForGauge("server.run_queue_depth", depth));
  }

  /// With no scan left, exactly one slot is free: X takes it, Y queues.
  void ExpectOneFreeSlot() {
    ASSERT_TRUE(WaitFor([&] {
      return GaugeValue("server.scans_active") == 0 &&
             GaugeValue("server.scans_queued") == 0;
    }));
    std::unique_ptr<net::Connection> x = StartParkedScan();
    EXPECT_EQ(GaugeValue("server.scans_active"), 1);
    std::unique_ptr<net::Connection> y = RawConn();
    SendQuery(y.get(), QueryBounds{});
    ASSERT_TRUE(WaitForGauge("server.scans_queued", 1));
    EXPECT_EQ(GaugeValue("server.scans_active"), 1);
    x.reset();
    y.reset();
    EXPECT_TRUE(WaitFor([&] {
      return GaugeValue("server.scans_active") == 0 &&
             GaugeValue("server.scans_queued") == 0;
    }));
  }

  /// A queued scan's cancel racing the other events that take it out of
  /// the slot queue: its queue-wait expiry, or the grant of a slot another
  /// scan releases. Whatever the order, the server must count one slot:
  /// no scan runs beside the holder, and the count returns to zero.
  void RunSlotRace(Race race) {
    // A holds the only slot, parked on backpressure; B queues behind it.
    std::unique_ptr<net::Connection> a = StartParkedScan();
    bool learned = false;
    for (int i = 0; i < 5 && !learned; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      learned = gate_->LearnEventLoop();
    }
    ASSERT_TRUE(learned);
    std::unique_ptr<net::Connection> b = RawConn();
    SendQuery(b.get(), QueryBounds{});
    ASSERT_TRUE(WaitForGauge("server.scans_queued", 1));

    std::unique_ptr<net::Connection> d;
    const int worker = HoldWorker(&d);
    int loop = -1;
    switch (race) {
      case Race::kExpiry: {
        Cancel(b.get(), 1);
        // B's wait expires 100 ms after it queued. Hold the event loop's
        // second clock reading past that. When the expiry pass ran outside
        // the scheduling lock, that reading was its own, taken under the
        // slot queue's lock after B's cancel was read: B's worker claimed
        // B, then found it gone from the queue.
        const Timestamp past = clock_->Now() + 200 * 1000;
        loop = gate_->Arm(
            [clock = clock_, past, n = 0](bool event_loop) mutable {
              return event_loop && clock->Now() >= past && ++n == 2;
            });
        clock_->Advance(200 * 1000);
        ASSERT_TRUE(gate_->WaitHeld(loop, std::chrono::seconds(2)));
        break;
      }
      case Race::kCancelThenGrant:
        Cancel(b.get(), 1);
        Cancel(a.get(), 2);
        break;
      case Race::kGrantThenCancel:
        Cancel(a.get(), 1);
        Cancel(b.get(), 2);
        break;
    }
    gate_->Open(worker);
    if (loop >= 0) {
      // Let the worker reach B's cancel before the expiry goes on.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      gate_->Open(loop);
    }
    EXPECT_EQ(ReadTerminal(d.get()), std::nullopt);
    // B ends with an explicit reply: its cancel's, or its expired wait's.
    const std::optional<ErrCode> b_end = ReadTerminal(b.get());
    if (race == Race::kExpiry) {
      EXPECT_TRUE(b_end == ErrCode::kServerBusy ||
                  b_end == ErrCode::kCancelled);
    } else {
      EXPECT_EQ(b_end, ErrCode::kCancelled);
    }
    ReadAck(b.get());
    if (race != Race::kExpiry) {
      EXPECT_EQ(ReadTerminal(a.get()), ErrCode::kCancelled);
      ReadAck(a.get());
      ExpectOneFreeSlot();
      return;
    }

    // A still holds the only slot: C queues rather than run beside it.
    EXPECT_EQ(GaugeValue("server.scans_active"), 1);
    std::unique_ptr<net::Connection> c = RawConn();
    SendQuery(c.get(), QueryBounds{});
    EXPECT_TRUE(WaitForGauge("server.scans_queued", 1));
    // One slot in use until A ends, and then C holds it.
    uint64_t rows = 0;
    uint8_t flags = 0;
    while ((flags & wire::kChunkFinal) == 0) {
      EXPECT_EQ(GaugeValue("server.scans_active"), 1);
      flags = ReadChunk(a.get(), &rows);
      if (::testing::Test::HasFailure()) return;
    }
    rows = 0;
    EXPECT_EQ(ReadTerminal(c.get(), &rows), std::nullopt);
    EXPECT_EQ(rows, 2000u);
    ExpectOneFreeSlot();
  }

  MemEnv env_;
  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<DB> db_;
  ServerOptions sopts_;
  std::shared_ptr<GateClock> gate_;  // Null: the server reads clock_.
  size_t conn_buffer_bytes_ = 0;
  int64_t client_network_id_ = 0;
  int client_max_retries_ = 3;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<Client> client_;
  Schema schema_;
};

// ---------------------------------------------------------------------------
// Admission tests. AdmissionController's per-tenant token buckets are unit
// tests on the fixture's SimClock alone (no server is started). The scan
// slots belong to the server, so their expiry step is tested over the wire.

class AdmissionTest : public OverloadNetTest {};

TEST_F(AdmissionTest, QueryQuotaExhaustsAndRefills) {
  AdmissionOptions opts;
  opts.default_quota.queries_per_sec = 2;  // Burst defaults to 2.
  AdmissionController ac(opts, clock_);
  EXPECT_TRUE(ac.ChargeQuery(7));
  EXPECT_TRUE(ac.ChargeQuery(7));
  EXPECT_FALSE(ac.ChargeQuery(7));
  // Another tenant has its own bucket.
  EXPECT_TRUE(ac.ChargeQuery(8));
  // Half a second refills one token.
  clock_->Advance(500 * 1000);
  EXPECT_TRUE(ac.ChargeQuery(7));
  EXPECT_FALSE(ac.ChargeQuery(7));
}

TEST_F(AdmissionTest, RowQuotaDebtDelaysNextQuery) {
  AdmissionOptions opts;
  opts.default_quota.scanned_rows_per_sec = 1000;
  AdmissionController ac(opts, clock_);
  ASSERT_TRUE(ac.ChargeQuery(7));
  // The first charge takes the bucket deep into debt: the scan is shed.
  EXPECT_TRUE(ac.ChargeScannedRows(7, 900));
  EXPECT_FALSE(ac.ChargeScannedRows(7, 900));
  // While in debt, new queries for the tenant are shed at admission.
  EXPECT_FALSE(ac.ChargeQuery(7));
  // A second of refill clears the debt (800 over, +1000 back).
  clock_->Advance(kMicrosPerSecond);
  EXPECT_TRUE(ac.ChargeQuery(7));
  EXPECT_TRUE(ac.ChargeScannedRows(7, 100));
}

TEST_F(AdmissionTest, AnonymousTenantExemptUnlessExplicit) {
  AdmissionOptions opts;
  opts.default_quota.queries_per_sec = 1;
  AdmissionController ac(opts, clock_);
  // Tenant 0 (never bound) is exempt from the default quota.
  for (int i = 0; i < 10; i++) EXPECT_TRUE(ac.ChargeQuery(0));
  // An explicit entry for 0 binds it like any other tenant.
  AdmissionOptions opts2;
  opts2.tenant_quotas[0].queries_per_sec = 1;
  AdmissionController ac2(opts2, clock_);
  EXPECT_TRUE(ac2.ChargeQuery(0));
  EXPECT_FALSE(ac2.ChargeQuery(0));
}

// Each queued scan's wait expires at its own deadline: the expiry step
// sheds only the waiters whose deadline has passed, keeps a later arrival
// queued, and records each expired wait.
TEST_F(AdmissionTest, QueueWaitExpiry) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.admission.max_concurrent_scans = 1;
  sopts_.admission.queue_wait_timeout_ms = 100;
  StartServer();
  Fill(2000);
  std::unique_ptr<net::Connection> a = StartParkedScan();

  // B queues, then C 50 ms later. Each wait for the gauge comes before
  // the next advance, so the deadlines are 100 ms and 150 ms from now.
  std::unique_ptr<net::Connection> b = RawConn();
  SendQuery(b.get(), QueryBounds{});
  ASSERT_TRUE(WaitForGauge("server.scans_queued", 1));
  clock_->Advance(50 * 1000);
  std::unique_ptr<net::Connection> c = RawConn();
  SendQuery(c.get(), QueryBounds{});
  ASSERT_TRUE(WaitForGauge("server.scans_queued", 2));

  // Past B's deadline, short of C's: B alone is shed, and C keeps
  // waiting through ten event-loop ticks.
  clock_->Advance(51 * 1000);
  EXPECT_EQ(ReadTerminal(b.get()), ErrCode::kServerBusy);
  EXPECT_EQ(GaugeValue("server.scans_queued"), 1);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(10 * sopts_.poll_interval_ms));
  EXPECT_EQ(GaugeValue("server.scans_queued"), 1);
  EXPECT_EQ(CounterValue("server.query_shed.wait_timeout"), 1);

  // Past C's deadline: C is shed and the queue is empty.
  clock_->Advance(50 * 1000);
  EXPECT_EQ(ReadTerminal(c.get()), ErrCode::kServerBusy);
  EXPECT_EQ(GaugeValue("server.scans_queued"), 0);
  EXPECT_EQ(CounterValue("server.query_shed.wait_timeout"), 2);
  // Both waited 101 ms of server-clock time.
  const HistogramSnapshot waits =
      server_->metrics().GetHistogram("server.queue_wait_micros")->Snapshot();
  EXPECT_EQ(waits.count, 2u);
  EXPECT_EQ(waits.sum, 202u * 1000);
  EXPECT_EQ(waits.max, 101u * 1000);

  // A held the slot throughout and still completes.
  EXPECT_EQ(GaugeValue("server.scans_active"), 1);
  EXPECT_EQ(ReadTerminal(a.get()), std::nullopt);
  ExpectOneFreeSlot();
}

// Acceptance criterion: a query whose result is >= 10x the per-query byte
// budget completes via streaming, and the accounted peak stays <= budget.
TEST_F(OverloadNetTest, BudgetedStreamingCompletesLargeResult) {
  sopts_.query_budget_bytes = 4 * 1024;
  StartServer();
  // ~40 encoded bytes/row, 2000 rows ≈ 80 KB ≈ 20x the 4 KB budget.
  Fill(2000);
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 2000u);
  EXPECT_EQ(got[3][3].i64(), 21);
  const uint64_t peak = HistMax("server.query_stream_peak_bytes");
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, sopts_.query_budget_bytes);
}

// S1: the table's row cap (§3.5) truncates uncapped queries and says so via
// the final chunk's more-available flag; paging resumes past it.
TEST_F(OverloadNetTest, DefaultRowCapTruncatesWithMoreAvailable) {
  TableOptions topts = db_->options().table_defaults;
  topts.server_row_limit = 64;
  ASSERT_TRUE(db_->CreateTable("usage", UsageSchema(), &topts).ok());
  StartServer();
  Fill(300);
  QueryResult res;
  ASSERT_TRUE(client_->Query("usage", QueryBounds{}, &res).ok());
  EXPECT_EQ(res.rows.size(), 64u);
  EXPECT_TRUE(res.more_available);
  // An explicit client limit below the cap is honored unchanged.
  QueryBounds small;
  small.limit = 10;
  ASSERT_TRUE(client_->Query("usage", small, &res).ok());
  EXPECT_EQ(res.rows.size(), 10u);
  // QueryAll pages through every truncation to the full result.
  std::vector<Row> all;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &all).ok());
  EXPECT_EQ(all.size(), 300u);
  // QueryPage advances the caller's bounds past each page.
  QueryBounds page;
  uint64_t paged = 0;
  int pages = 0;
  do {
    ASSERT_TRUE(client_->QueryPage("usage", &page, &res).ok());
    paged += res.rows.size();
    pages++;
  } while (res.more_available);
  EXPECT_EQ(paged, 300u);
  EXPECT_EQ(pages, (300 + 63) / 64);
}

// Queue-wait deadline expiry answers kServerBusy (never a silent drop),
// not before the deadline, and records how long the scan waited.
TEST_F(OverloadNetTest, QueueWaitExpiryAnswersServerBusy) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.admission.max_concurrent_scans = 1;
  sopts_.admission.queue_wait_timeout_ms = 100;
  StartServer();
  Fill(2000);

  // A holds the only slot and stalls: we read its first chunk then stop.
  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t a_rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &a_rows) & wire::kChunkFinal, 0);

  // B queues behind it; past the wait deadline it is shed with kServerBusy.
  std::unique_ptr<net::Connection> b = RawConn();
  SendQuery(b.get(), QueryBounds{});
  // Wait (real time) until the event loop has actually queued B: its wait
  // deadline is stamped from SimClock at admission, so advancing before
  // that would put the deadline forever in the future.
  Gauge* queued = server_->metrics().GetGauge("server.scans_queued");
  for (int i = 0; i < 1000 && queued->Value() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(queued->Value(), 1);
  // Short of the deadline, B keeps waiting through ten event-loop ticks.
  clock_->Advance(99 * 1000);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(10 * sopts_.poll_interval_ms));
  EXPECT_EQ(queued->Value(), 1);
  clock_->Advance(2 * 1000);
  MsgType type;
  std::string body;
  ASSERT_TRUE(ReadFrame(b.get(), &type, &body).ok());
  ASSERT_EQ(type, MsgType::kError);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(static_cast<ErrCode>(body[0]), ErrCode::kServerBusy);
  EXPECT_EQ(CounterValue("server.query_shed.wait_timeout"), 1);
  EXPECT_EQ(queued->Value(), 0);
  // Its wait, in server-clock time, is recorded before the reply.
  const HistogramSnapshot waits =
      server_->metrics().GetHistogram("server.queue_wait_micros")->Snapshot();
  EXPECT_EQ(waits.count, 1u);
  EXPECT_EQ(waits.sum, 101u * 1000);

  // A still completes.
  uint8_t flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(a.get(), &a_rows);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(a_rows, 2000u);
}

// kCancel aborts the in-flight scan with an explicit kCancelled terminal
// and releases its slot for the next query.
TEST_F(OverloadNetTest, CancelMidScanReleasesSlot) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.admission.max_concurrent_scans = 1;
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t a_rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &a_rows) & wire::kChunkFinal, 0);

  const std::string cancel = wire::Frame(MsgType::kCancel, "");
  ASSERT_TRUE(a->WriteAll(cancel.data(), cancel.size()).ok());
  // Drain to the terminal: buffered chunks may precede the kCancelled
  // error, and the cancel's own kOk ack follows it.
  bool cancelled = false;
  while (!cancelled) {
    MsgType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(a.get(), &type, &body).ok());
    if (type == MsgType::kQueryChunk) {
      ASSERT_EQ(static_cast<uint8_t>(body[0]) & wire::kChunkFinal, 0)
          << "scan finished before the cancel landed; grow the table";
      continue;
    }
    ASSERT_EQ(type, MsgType::kError);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(static_cast<ErrCode>(body[0]), ErrCode::kCancelled);
    cancelled = true;
  }
  MsgType type;
  std::string body;
  ASSERT_TRUE(ReadFrame(a.get(), &type, &body).ok());
  EXPECT_EQ(type, MsgType::kOk);
  EXPECT_EQ(CounterValue("server.query_cancelled"), 1);

  // The slot is free: a normal query completes (it would hang on the
  // 1-slot admission queue if the cancel leaked the slot).
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  EXPECT_EQ(got.size(), 2000u);
}

// Closing the connection mid-scan cancels the scan and frees its slot.
TEST_F(OverloadNetTest, ConnectionCloseAbortsScanAndFreesSlot) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.admission.max_concurrent_scans = 1;
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t a_rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &a_rows) & wire::kChunkFinal, 0);
  a.reset();  // Peer vanishes with the scan parked on backpressure.

  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  EXPECT_EQ(got.size(), 2000u);
}

// Slow-reader regression: a reader that drains a big result one chunk at a
// time pins bounded server memory (the accounted peak respects the budget)
// and parks the scan instead of a worker thread.
TEST_F(OverloadNetTest, SlowReaderBoundedBuffering) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 4 * 1024;
  StartServer();
  Fill(3000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  // Read nothing until the stream has parked: an unread 1 KB pipe cannot
  // drain a 4 KB budget, so the first pause does not depend on whether
  // the reader happens to fall behind.
  for (int i = 0; i < 1000 && CounterValue("server.stream_pauses") == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t rows = 0;
  uint8_t flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(a.get(), &rows);
    if (::testing::Test::HasFailure()) return;
    clock_->Advance(10 * 1000);  // A genuinely slow reader, in sim time.
  }
  EXPECT_EQ(rows, 3000u);
  EXPECT_GT(CounterValue("server.stream_pauses"), 0);
  const uint64_t peak = HistMax("server.query_stream_peak_bytes");
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, sopts_.query_budget_bytes);
}

// A stream parked on a reader that stops stays parked. With a budget under
// four chunk targets, the low-water mark alone would let the event loop
// resume it on every tick while its next chunk cannot fit, and the slice
// would re-park it at once, counting a pause each time.
TEST_F(OverloadNetTest, StalledReaderStreamStaysParked) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});  // And read nothing yet.
  for (int i = 0; i < 1000 && CounterValue("server.stream_pauses") == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int64_t parked = CounterValue("server.stream_pauses");
  ASSERT_GT(parked, 0);
  // Forty poll intervals of a stalled reader.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(40 * sopts_.poll_interval_ms));
  EXPECT_EQ(CounterValue("server.stream_pauses"), parked);

  // The reader comes back: the stream resumes and completes.
  uint64_t rows = 0;
  uint8_t flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(a.get(), &rows);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(rows, 2000u);
}

// A stream's histograms land before its final chunk: right after each of
// 200 back-to-back queries returns — no sleep, no polling — the server's
// stream peak-bytes and query-latency histograms already count it.
TEST_F(OverloadNetTest, StreamStatsRecordedBeforeFinalChunk) {
  StartServer();
  Fill(50);
  const LatencyHistogram* peak =
      server_->metrics().GetHistogram("server.query_stream_peak_bytes");
  const LatencyHistogram* latency =
      server_->metrics().GetHistogram("server.op.query.micros");
  const uint64_t peaks_before = peak->Snapshot().count;
  const uint64_t latencies_before = latency->Snapshot().count;
  for (uint64_t i = 1; i <= 200; i++) {
    QueryResult result;
    ASSERT_TRUE(client_->Query("usage", QueryBounds{}, &result).ok());
    ASSERT_EQ(result.rows.size(), 50u);
    ASSERT_EQ(peak->Snapshot().count, peaks_before + i) << "query " << i;
    ASSERT_EQ(latency->Snapshot().count, latencies_before + i) << "query " << i;
  }
}

// A bounded point query bypasses the scan slots: while a full scan holds
// the only slot (parked on backpressure), a limit-10 lookup completes
// instead of queueing behind it.
TEST_F(OverloadNetTest, SmallQueryBypassesSlotQueue) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.admission.max_concurrent_scans = 1;
  sopts_.admission.queue_wait_timeout_ms = 0;  // Queued scans wait forever.
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t a_rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &a_rows) & wire::kChunkFinal, 0);

  // The scan is mid-stream and owns the slot; the point query still runs.
  QueryBounds small;
  small.limit = 10;
  QueryResult res;
  ASSERT_TRUE(client_->Query("usage", small, &res).ok());
  EXPECT_EQ(res.rows.size(), 10u);
  EXPECT_EQ(server_->metrics().GetGauge("server.scans_queued")->Value(), 0);

  // An unbounded query from the same client would have queued: sanity-
  // check by draining A and confirming the scan finishes cleanly.
  uint8_t flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(a.get(), &a_rows);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(a_rows, 2000u);
}

// Per-tenant quota over the wire, bound via ClientOptions::network_id:
// exhaustion sheds with kResourceExhausted, SimClock refill restores.
TEST_F(OverloadNetTest, TenantQuotaExhaustionAndRefillOverWire) {
  client_network_id_ = 7;
  client_max_retries_ = 0;  // Surface the shed instead of retrying past it.
  sopts_.admission.default_quota.queries_per_sec = 1;
  StartServer();
  Fill(10);

  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  // The burst (1 token) is spent: the next query is shed, explicitly.
  Status s = client_->QueryAll("usage", QueryBounds{}, &got);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(CounterValue("server.query_shed.quota"), 1);
  // A simulated second refills the bucket.
  clock_->Advance(kMicrosPerSecond);
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  EXPECT_EQ(got.size(), 10u);
}

// The tenant binding survives reconnects: after a server-side reset the
// client rebinds network_id before its next request, so quotas keep
// attributing to the same tenant.
TEST_F(OverloadNetTest, TenantBindingSurvivesReconnect) {
  client_network_id_ = 7;
  sopts_.admission.default_quota.queries_per_sec = 1000;
  StartServer();
  Fill(10);
  std::vector<Row> got;
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  transport_->ResetAllConnections();
  ASSERT_TRUE(client_->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_GE(client_->connect_count(), 2u);
}

// Query deadline: a scan that outlives query_deadline_ms is shed
// mid-stream with kResourceExhausted.
TEST_F(OverloadNetTest, QueryDeadlineShedsMidStream) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 2 * 1024;
  sopts_.query_deadline_ms = 50;
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &rows) & wire::kChunkFinal, 0);
  clock_->Advance(100 * 1000);  // Past the deadline while parked.
  bool terminal = false;
  while (!terminal) {
    MsgType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(a.get(), &type, &body).ok());
    if (type == MsgType::kQueryChunk) {
      ASSERT_EQ(static_cast<uint8_t>(body[0]) & wire::kChunkFinal, 0)
          << "scan finished before the deadline check; grow the table";
      continue;
    }
    ASSERT_EQ(type, MsgType::kError);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(static_cast<ErrCode>(body[0]), ErrCode::kResourceExhausted);
    terminal = true;
  }
  EXPECT_EQ(CounterValue("server.query_deadline_exceeded"), 1);
}

// A scan slot granted to a queued scan before it parked must reach it.
// B queues behind A's slot; the gate clock holds the first worker clock
// reading made while a scan is queued (when the admission request and the
// park were two steps, B's, between them) while A finishes and its slot
// goes to B; then B goes on. B must still get its rows; when the request
// and the park were two steps, the grant found no parked B, B waited for
// good and the slot leaked.
TEST_F(OverloadNetTest, GrantBeforeParkIsNotLost) {
  conn_buffer_bytes_ = 1024;
  // A budget of four chunk targets or more: a stream parked on
  // backpressure stays parked until its reader drains.
  sopts_.query_budget_bytes = 8 * 1024;
  sopts_.query_deadline_ms = 3600 * 1000;  // Never hit: clock_ holds still.
  sopts_.admission.max_concurrent_scans = 1;
  sopts_.admission.queue_wait_timeout_ms = 0;
  gate_ = std::make_shared<GateClock>(clock_);
  StartServer();
  Fill(2000);

  // A holds the only slot, parked on backpressure: its reader stops.
  std::unique_ptr<net::Connection> a = RawConn();
  SendQuery(a.get(), QueryBounds{});
  uint64_t a_rows = 0;
  ASSERT_EQ(ReadChunk(a.get(), &a_rows) & wire::kChunkFinal, 0);
  bool learned = false;
  for (int i = 0; i < 5 && !learned; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    learned = gate_->LearnEventLoop();
  }
  ASSERT_TRUE(learned);

  // Hold the first worker clock reading made while a scan is queued.
  Gauge* queued = server_->metrics().GetGauge("server.scans_queued");
  const int hold = gate_->Arm([queued](bool event_loop) {
    return !event_loop && queued->Value() > 0;
  });
  std::unique_ptr<net::Connection> b = RawConn();
  b->set_read_timeout_ms(3000);
  SendQuery(b.get(), QueryBounds{});
  for (int i = 0; i < 1000 && queued->Value() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(queued->Value(), 1);
  gate_->WaitHeld(hold, std::chrono::milliseconds(200));

  // A finishes; its slot goes to B (the queue empties).
  uint8_t flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(a.get(), &a_rows);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(a_rows, 2000u);
  for (int i = 0; i < 1000 && queued->Value() != 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(queued->Value(), 0);
  gate_->Open(hold);

  uint64_t b_rows = 0;
  flags = 0;
  while ((flags & wire::kChunkFinal) == 0) {
    flags = ReadChunk(b.get(), &b_rows);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(b_rows, 2000u);
  EXPECT_EQ(server_->metrics().GetGauge("server.scans_active")->Value(), 0);
}

// Two slots and a two-deep queue: scans past the slots queue in arrival
// order, the next one is shed at once, and each freed slot goes to the
// longest waiter, whose wait lands in server.queue_wait_micros.
TEST_F(OverloadNetTest, SlotsThenFifoQueueThenShed) {
  conn_buffer_bytes_ = 1024;
  sopts_.query_budget_bytes = 8 * 1024;
  sopts_.admission.max_concurrent_scans = 2;
  sopts_.admission.max_queued_scans = 2;
  sopts_.admission.queue_wait_timeout_ms = 0;
  StartServer();
  Fill(2000);

  std::unique_ptr<net::Connection> a1 = StartParkedScan();
  std::unique_ptr<net::Connection> a2 = StartParkedScan();
  EXPECT_EQ(GaugeValue("server.scans_active"), 2);
  std::unique_ptr<net::Connection> b[3];
  for (int i = 0; i < 2; i++) {
    b[i] = RawConn();
    SendQuery(b[i].get(), QueryBounds{});
    ASSERT_TRUE(WaitForGauge("server.scans_queued", i + 1));
  }
  b[2] = RawConn();
  SendQuery(b[2].get(), QueryBounds{});
  EXPECT_EQ(ReadTerminal(b[2].get()), ErrCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("server.query_shed.queue_full"), 1);
  EXPECT_EQ(GaugeValue("server.scans_active"), 2);
  EXPECT_EQ(GaugeValue("server.scans_queued"), 2);

  // A1 ends 5 ms after the waiters queued: its slot goes to B1, B2 waits.
  clock_->Advance(5 * 1000);
  a1.reset();
  ASSERT_TRUE(WaitForGauge("server.scans_queued", 1));
  // B1 streams to its end at 8 ms, and its slot goes to B2.
  clock_->Advance(3 * 1000);
  uint64_t rows = 0;
  EXPECT_EQ(ReadTerminal(b[0].get(), &rows), std::nullopt);
  EXPECT_EQ(rows, 2000u);
  rows = 0;
  EXPECT_EQ(ReadTerminal(b[1].get(), &rows), std::nullopt);
  EXPECT_EQ(rows, 2000u);
  a2.reset();
  const HistogramSnapshot waits =
      server_->metrics().GetHistogram("server.queue_wait_micros")->Snapshot();
  EXPECT_EQ(waits.count, 2u);
  EXPECT_EQ(waits.sum, (5u + 8u) * 1000);
}

// The over-release this race used to cause: the expiry pass took B out of
// the queue after B's cancel claimed it, so B read "not queued" as
// "granted", returned A's slot, and C ran beside A.
TEST_F(OverloadNetTest, QueuedCancelVsExpiryKeepsOneSlot) {
  StartSlotRaceServer();
  RunSlotRace(Race::kExpiry);
}

// Both orders of a queued scan's cancel and the grant of the slot it waits
// for: a cancelled waiter takes no slot, and a granted one returns it.
TEST_F(OverloadNetTest, QueuedCancelVsGrantKeepsOneSlot) {
  StartSlotRaceServer();
  RunSlotRace(Race::kCancelThenGrant);
  if (::testing::Test::HasFailure()) return;
  RunSlotRace(Race::kGrantThenCancel);
}

}  // namespace
}  // namespace lt
