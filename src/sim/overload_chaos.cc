#include "sim/overload_chaos.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/device_oracle.h"
#include "sim/sim_transport.h"
#include "util/coding.h"
#include "util/random.h"

namespace lt {
namespace sim {
namespace {

using wire::ErrCode;
using wire::MsgType;

constexpr uint16_t kPort = 7713;
constexpr char kRoot[] = "overload";

/// One firehose query in flight on its own raw connection. Until its drain
/// op comes it is a slow reader: the server can only push as much as the
/// simulated send buffer plus its own budget allow.
struct Pending {
  uint64_t qid = 0;
  std::unique_ptr<net::Connection> conn;
  std::string inbuf;       // Frame reassembly buffer.
  int pre_oks = 0;         // kSetTenant acks due before the stream.
  int cancel_acks = 0;     // kCancel acks due after the terminal frame.
  bool terminal_seen = false;
  bool more_available = false;
  uint64_t rows = 0;
  std::string outcome;     // "rows" / "shed_busy" / "shed_exhausted" /
                           // "cancelled" once terminal_seen.
};

class OverloadRun : private SimRecorder {
 public:
  OverloadRun(const OverloadChaosOptions& opts, SimReport* report)
      : SimRecorder(report),
        opts_(opts),
        rng_(opts.seed ^ 0xda3e39cb94b95bdbull) {}

  Status Run();

 private:
  Status Setup();
  Status Preload();

  void DoIssueQuery();
  void DoDrainOldest();
  void DoCancel();
  void DoDisconnect();
  void DoInsert();

  /// Non-blocking: reads whatever every pending connection has, parses
  /// complete frames, retires finished queries. Returns false on an oracle
  /// violation.
  bool PumpAll();
  /// Parses frames out of p's inbuf; returns false on an oracle violation.
  bool ParseFrames(Pending* p);
  /// Blocks (bounded) until the oldest pending query retires.
  void DrainOldestBlocking();
  void Retire(size_t idx);

  void FinalChecks();

  const OverloadChaosOptions opts_;
  Random rng_;

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<Client> client_;

  Schema schema_{EventsSchema()};
  std::deque<Pending> pending_;
  std::map<int64_t, int64_t> next_id_;
  uint64_t next_qid_ = 1;
};

Status OverloadRun::Setup() {
  env_ = std::make_unique<MemEnv>();

  SimTransportOptions topts;
  topts.clock = clock();
  topts.conn_buffer_bytes = opts_.conn_buffer_bytes;
  transport_ = std::make_unique<SimTransport>(topts);

  DbOptions dopts;
  dopts.background_maintenance = false;
  dopts.block_cache_bytes = 4ull << 20;
  dopts.logger = std::make_shared<Logger>(LogLevel::kError,
                                          std::make_shared<CaptureLogSink>());
  LT_RETURN_IF_ERROR(DB::Open(env_.get(), clock(), kRoot, dopts, &db_));
  LT_RETURN_IF_ERROR(
      db_->CreateTable(kEventsTable, schema_, /*options=*/nullptr));

  ServerOptions sopts;
  sopts.port = kPort;
  sopts.transport = transport_.get();
  sopts.clock = clock();
  sopts.poll_interval_ms = 5;
  // Write-stall kills are deliberately out of scope: every undrained
  // connection here is a "slow reader" the schedule will eventually drain,
  // and a server-side kill would make "query never answered" ambiguous.
  sopts.io_timeout_ms = 10 * 60 * 1000;
  sopts.drain_timeout_ms = 200;
  sopts.query_budget_bytes = opts_.query_budget_bytes;
  sopts.default_query_row_cap = opts_.default_query_row_cap;
  sopts.admission.max_concurrent_scans = opts_.max_concurrent_scans;
  sopts.admission.max_queued_scans = opts_.max_queued_scans;
  sopts.admission.queue_wait_timeout_ms = opts_.queue_wait_timeout_ms;
  sopts.admission.default_quota.queries_per_sec = opts_.tenant_queries_per_sec;
  sopts.admission.default_quota.scanned_rows_per_sec = opts_.tenant_rows_per_sec;
  server_ = std::make_unique<LittleTableServer>(db_.get(), sopts);
  LT_RETURN_IF_ERROR(server_->Start());

  ClientOptions copts;
  copts.transport = transport_.get();
  copts.clock = clock();
  copts.connect_timeout_ms = 1000;
  copts.read_timeout_ms = 5000;
  copts.write_timeout_ms = 5000;
  copts.max_retries = 3;
  copts.backoff_seed = opts_.seed;
  copts.backoff_sleep = [clock = clock()](int64_t ms) {
    clock->Advance(ms * 1000);
  };
  LT_RETURN_IF_ERROR(Client::Connect("sim", kPort, copts, &client_));
  Timestamp ttl = 0;
  return client_->GetTableInfo(kEventsTable, &schema_, &ttl);
}

Status OverloadRun::Preload() {
  const std::string detail(64, 'x');
  std::vector<Row> batch;
  int inserted = 0;
  while (inserted < opts_.preload_rows) {
    batch.clear();
    for (int i = 0; i < 50 && inserted < opts_.preload_rows; i++, inserted++) {
      const int64_t device = 1 + inserted % opts_.devices;
      const int64_t id = ++next_id_[device];
      batch.push_back({Value::Int64(device), Value::Int64(id),
                       Value::Ts(clock()->Now()), Value::String("preload"),
                       Value::String(detail)});
    }
    LT_RETURN_IF_ERROR(client_->Insert(kEventsTable, batch));
    clock()->Advance(kMicrosPerSecond);
  }
  Log("preload rows=" + std::to_string(inserted));
  return Status::OK();
}

void OverloadRun::DoIssueQuery() {
  if (pending_.size() >= opts_.max_pending) {
    DoDrainOldest();
    return;
  }
  Pending p;
  p.qid = next_qid_++;
  Status s = transport_->Connect("sim", kPort, 1000, &p.conn);
  if (!s.ok()) {
    Violation("firehose connect failed: " + s.ToString());
    return;
  }
  p.conn->set_read_timeout_ms(1000);
  p.conn->set_write_timeout_ms(1000);
  // Half the connections bind a tenant (1..3, sharing the default quota);
  // the rest stay anonymous, exempt from quotas but not from admission.
  int64_t tenant = 0;
  if (rng_.Bernoulli(0.5)) {
    tenant = 1 + static_cast<int64_t>(rng_.Uniform(3));
    std::string body;
    PutVarint64(&body, static_cast<uint64_t>(tenant));
    const std::string f = wire::Frame(MsgType::kSetTenant, body);
    if (!p.conn->WriteAll(f.data(), f.size()).ok()) {
      Violation("kSetTenant write failed");
      return;
    }
    p.pre_oks = 1;
  }
  QueryBounds bounds;
  std::string what = "all";
  if (rng_.Bernoulli(0.5)) {
    const int64_t device =
        1 + static_cast<int64_t>(rng_.Uniform(opts_.devices));
    bounds = QueryBounds::ForPrefix(Key{Value::Int64(device)});
    what = "dev=" + std::to_string(device);
  }
  std::string req;
  PutLengthPrefixedSlice(&req, kEventsTable);
  PutVarint32(&req, schema_.version());
  wire::EncodeBounds(&req, schema_, bounds);
  const std::string f = wire::Frame(MsgType::kQuery, req);
  if (!p.conn->WriteAll(f.data(), f.size()).ok()) {
    Violation("kQuery write failed");
    return;
  }
  Log("issue qid=" + std::to_string(p.qid) + " " + what +
      " tenant=" + std::to_string(tenant));
  Count("queries_issued");
  pending_.push_back(std::move(p));
}

bool OverloadRun::ParseFrames(Pending* p) {
  while (true) {
    if (p->inbuf.size() < 4) return true;
    const uint32_t len = DecodeFixed32(p->inbuf.data());
    if (len == 0 || len > wire::kMaxFrameBytes) {
      Violation("bad frame length from server");
      return false;
    }
    if (p->inbuf.size() < 4 + len) return true;
    const MsgType type = static_cast<MsgType>(p->inbuf[4]);
    Slice body(p->inbuf.data() + 5, len - 1);
    switch (type) {
      case MsgType::kOk:
        if (!p->terminal_seen && p->pre_oks > 0) {
          p->pre_oks--;
        } else if (p->terminal_seen && p->cancel_acks > 0) {
          p->cancel_acks--;
        } else {
          Violation("unexpected kOk on query connection");
          return false;
        }
        break;
      case MsgType::kQueryChunk: {
        if (p->terminal_seen) {
          Violation("chunk after terminal frame");
          return false;
        }
        if (body.empty()) {
          Violation("empty chunk");
          return false;
        }
        const uint8_t flags = static_cast<uint8_t>(body[0]);
        body.remove_prefix(1);
        uint32_t version = 0, count = 0;
        if (!GetVarint32(&body, &version) || !GetVarint32(&body, &count)) {
          Violation("bad chunk header");
          return false;
        }
        p->rows += count;
        if (flags & wire::kChunkFinal) {
          p->terminal_seen = true;
          p->more_available = (flags & wire::kChunkMoreAvailable) != 0;
          p->outcome = "rows";
        }
        break;
      }
      case MsgType::kError: {
        if (p->terminal_seen || body.empty()) {
          Violation("unexpected kError placement");
          return false;
        }
        p->terminal_seen = true;
        switch (static_cast<ErrCode>(body[0])) {
          case ErrCode::kResourceExhausted:
            p->outcome = "shed_exhausted";
            break;
          case ErrCode::kServerBusy:
            p->outcome = "shed_busy";
            break;
          case ErrCode::kCancelled:
            p->outcome = "cancelled";
            break;
          default:
            Violation("query qid=" + std::to_string(p->qid) +
                      " shed with unexpected error code " +
                      std::to_string(static_cast<int>(body[0])));
            return false;
        }
        break;
      }
      default:
        Violation("unexpected frame type " +
                  std::to_string(static_cast<int>(type)));
        return false;
    }
    p->inbuf.erase(0, 4 + len);
  }
}

void OverloadRun::Retire(size_t idx) {
  Pending& p = pending_[idx];
  Log("done qid=" + std::to_string(p.qid) + " outcome=" + p.outcome +
      " rows=" + std::to_string(p.rows) +
      (p.more_available ? " more_available" : ""));
  Count(p.outcome);
  if (p.outcome == "rows") Count("queries_rows", p.rows);
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(idx));
}

bool OverloadRun::PumpAll() {
  for (size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    char buf[4096];
    while (true) {
      size_t got = 0;
      Status s = p.conn->ReadSome(buf, sizeof(buf), &got);
      if (!s.ok()) {
        Violation("query qid=" + std::to_string(p.qid) +
                  " connection died before terminal: " + s.ToString());
        return false;
      }
      if (got == 0) break;
      p.inbuf.append(buf, got);
    }
    if (!ParseFrames(&p)) return false;
    if (p.terminal_seen && p.pre_oks == 0 && p.cancel_acks == 0) {
      Retire(i);
      continue;  // Same index now holds the next pending entry.
    }
    i++;
  }
  return true;
}

void OverloadRun::DrainOldestBlocking() {
  // Drain-to-completion cannot deadlock: admission is FIFO and queries
  // were issued in qid order, so the oldest pending query either already
  // holds a scan slot (it resumes as we consume its bytes) or has been
  // shed — either way its terminal frame is coming. Everything else gets
  // pumped too, so slot holders other than the oldest also make progress.
  const uint64_t target = pending_.empty() ? 0 : pending_.front().qid;
  int idle_rounds = 0;
  while (report()->ok && !pending_.empty() &&
         pending_.front().qid == target) {
    if (!PumpAll()) return;
    if (pending_.empty() || pending_.front().qid != target) break;
    bool ready = false;
    Status s = pending_.front().conn->WaitReadable(100, &ready);
    if (!s.ok()) {
      Violation("wait on qid=" + std::to_string(target) + " failed: " +
                s.ToString());
      return;
    }
    if (!ready && ++idle_rounds > 100) {
      Violation("query qid=" + std::to_string(target) +
                " never answered (hang)");
      return;
    }
    if (ready) idle_rounds = 0;
  }
}

void OverloadRun::DoDrainOldest() {
  if (pending_.empty()) return;
  Log("drain qid=" + std::to_string(pending_.front().qid));
  DrainOldestBlocking();
}

void OverloadRun::DoCancel() {
  if (pending_.empty()) return;
  const size_t idx = rng_.Uniform(pending_.size());
  Pending& p = pending_[idx];
  const std::string f = wire::Frame(MsgType::kCancel, "");
  if (!p.conn->WriteAll(f.data(), f.size()).ok()) {
    Violation("kCancel write failed");
    return;
  }
  p.cancel_acks++;
  Log("cancel qid=" + std::to_string(p.qid));
  Count("cancels_sent");
}

void OverloadRun::DoDisconnect() {
  if (pending_.empty()) return;
  const size_t idx = rng_.Uniform(pending_.size());
  Log("disconnect qid=" + std::to_string(pending_[idx].qid));
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(idx));
  Count("disconnects");
}

void OverloadRun::DoInsert() {
  const int64_t device = 1 + static_cast<int64_t>(rng_.Uniform(opts_.devices));
  std::vector<Row> rows;
  const std::string detail(64, 'y');
  const size_t n = 1 + rng_.Uniform(4);
  for (size_t i = 0; i < n; i++) {
    rows.push_back({Value::Int64(device), Value::Int64(++next_id_[device]),
                    Value::Ts(clock()->Now()), Value::String("storm"),
                    Value::String(detail)});
  }
  Status s = client_->Insert(kEventsTable, rows);
  Log("insert dev=" + std::to_string(device) + " n=" + std::to_string(n) +
      " status=" + s.ToString());
  if (s.ok()) {
    Count("inserts_ok");
  } else {
    // Ingest runs on its own connection and its own worker task; overload
    // on the scan path must not fail it.
    Violation("insert failed under overload: " + s.ToString());
  }
}

void OverloadRun::FinalChecks() {
  // Every issued query must terminate explicitly.
  while (report()->ok && !pending_.empty()) DrainOldestBlocking();
  if (!report()->ok) return;

  // Service restored: a plain query after the storm succeeds.
  std::vector<Row> rows;
  Status s = client_->QueryAll(
      kEventsTable, QueryBounds::ForPrefix(Key{Value::Int64(1)}), &rows);
  if (!s.ok()) {
    Violation("post-storm query failed: " + s.ToString());
    return;
  }
  const uint64_t expect =
      static_cast<uint64_t>(next_id_.count(1) ? next_id_[1] : 0);
  if (rows.size() != expect) {
    Violation("post-storm query returned " + std::to_string(rows.size()) +
              " rows, want " + std::to_string(expect));
    return;
  }
  Log("post_storm_query rows=" + std::to_string(rows.size()));

  // The accounted per-query peak respected the budget.
  ServerStats stats;
  s = client_->Stats("", &stats);
  if (!s.ok()) {
    Violation("stats fetch failed: " + s.ToString());
    return;
  }
  const auto it = stats.histograms.find("server.query_stream_peak_bytes");
  if (it != stats.histograms.end()) {
    Count("peak_bytes_max", it->second.max);
    if (opts_.query_budget_bytes > 0 &&
        it->second.max > opts_.query_budget_bytes) {
      Violation("accounted peak " + std::to_string(it->second.max) +
                " exceeded budget " +
                std::to_string(opts_.query_budget_bytes));
      return;
    }
  }
  for (const char* key :
       {"server.query_shed", "server.query_shed.quota",
        "server.query_shed.queue_full", "server.query_shed.wait_timeout",
        "server.query_cancelled", "server.stream_pauses"}) {
    const auto c = stats.counters.find(key);
    if (c != stats.counters.end()) Count(std::string("srv.") + key, c->second);
  }
  // Sheds the harness observed as explicit replies cannot exceed what the
  // server says it shed (the server also sheds into dead connections).
  const uint64_t observed = report()->counters["shed_busy"] +
                            report()->counters["shed_exhausted"];
  const auto shed = stats.counters.find("server.query_shed");
  if (shed != stats.counters.end() && observed > shed->second) {
    Violation("observed " + std::to_string(observed) +
              " shed replies but server counted only " +
              std::to_string(shed->second));
  }
}

Status OverloadRun::Run() {
  LT_RETURN_IF_ERROR(Setup());
  LT_RETURN_IF_ERROR(Preload());
  for (int i = 0; i < opts_.ops && report()->ok; i++) {
    clock()->Advance((5 + rng_.Uniform(46)) * 1000);  // 5..50 ms.
    const uint64_t pick = rng_.Uniform(100);
    if (pick < 35) {
      DoIssueQuery();
    } else if (pick < 60) {
      DoDrainOldest();
    } else if (pick < 72) {
      DoCancel();
    } else if (pick < 80) {
      DoDisconnect();
    } else {
      DoInsert();
    }
  }
  if (report()->ok) FinalChecks();
  pending_.clear();
  client_.reset();
  if (server_) server_->Stop();
  server_.reset();
  if (db_) db_->Abandon();
  db_.reset();
  return Status::OK();
}

}  // namespace

Status RunOverloadChaos(const OverloadChaosOptions& options,
                        SimReport* report) {
  *report = SimReport();
  if (options.ops < 0 || options.devices < 1 || options.max_pending < 1) {
    return Status::InvalidArgument("bad overload options");
  }
  OverloadRun run(options, report);
  return run.Run();
}

}  // namespace sim
}  // namespace lt
