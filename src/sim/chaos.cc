#include "sim/chaos.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/db.h"
#include "core/tablet_writer.h"  // kTabletFormatLatest
#include "env/mem_env.h"
#include "env/sim_disk_env.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_sampler.h"
#include "sim/device_oracle.h"
#include "sim/sim_transport.h"
#include "util/fault.h"
#include "util/random.h"

namespace lt {
namespace sim {
namespace {

constexpr uint16_t kPort = 7711;
constexpr char kRoot[] = "chaos";

class ChaosRun : private SimRecorder {
 public:
  ChaosRun(const ChaosOptions& opts, SimReport* report)
      : SimRecorder(report),
        opts_(opts),
        rng_(opts.seed ^ 0x9e3779b97f4a7c15ull),
        oracle_(this, opts.seed, opts.devices, QueryChecks::kSingleNode) {}

  Status Run();

 private:
  Status Setup();
  Status OpenDb();
  Status StartServer();
  Status ConnectClient();
  Status StartSampler();
  void DriveSampler();

  void MaybeInjectFault();
  void DoOneOp();
  void DoFlushThrough();
  void DoMaintain();
  void DoStats();
  void CrashAndRestart();

  /// The post-crash model check; returns false on violation.
  bool OracleCheckAfterCrash();
  /// Checks one system table's §3.1 prefix durability against the
  /// observer-fed model and adopts the surviving prefix, like the events
  /// check does for insert batches. Returns false on violation.
  bool CheckSysTableAfterCrash(const std::string& table_name);
  /// Renders the model's surviving system-table rows into report->sys_metrics.
  void DumpSysMetrics();

  const ChaosOptions opts_;
  Random rng_;
  DeviceOracle oracle_;

  std::unique_ptr<MemEnv> mem_env_;
  std::unique_ptr<SimDiskEnv> sim_disk_;  // Null for plain-MemEnv runs.
  Env* env_ = nullptr;                    // The env the DB runs on.
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<LittleTableServer> server_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<obs::MetricsSampler> sampler_;

  /// Rows the sampler inserted into each system table, in insert order —
  /// the model for the system tables' own prefix-durability check.
  std::map<std::string, std::vector<Row>> sys_model_;
  /// Leading sys_model_ rows known durable (read back after a crash).
  std::map<std::string, size_t> sys_durable_;
  int ops_since_sample_ = 0;
  int partition_ops_left_ = 0;
  int disk_full_ops_left_ = 0;
  uint32_t open_count_ = 0;  // DB opens so far; rotates the flush format.
};

Status ChaosRun::Setup() {
  mem_env_ = std::make_unique<MemEnv>();
  const bool use_sim_disk = rng_.Bernoulli(0.5);
  if (use_sim_disk) {
    SimDiskOptions dopts;
    dopts.page_cache_bytes = 8ull << 20;
    sim_disk_ = std::make_unique<SimDiskEnv>(mem_env_.get(), dopts);
    env_ = sim_disk_.get();
  } else {
    env_ = mem_env_.get();
  }
  Log(std::string("setup env=") + (use_sim_disk ? "sim_disk" : "mem"));

  SimTransportOptions topts;
  topts.clock = clock();
  transport_ = std::make_unique<SimTransport>(topts);

  LT_RETURN_IF_ERROR(OpenDb());
  LT_RETURN_IF_ERROR(
      db_->CreateTable(kEventsTable, EventsSchema(), /*options=*/nullptr));

  if (opts_.sample_every_ops > 0) LT_RETURN_IF_ERROR(StartSampler());
  LT_RETURN_IF_ERROR(StartServer());
  return ConnectClient();
}

Status ChaosRun::OpenDb() {
  DbOptions dopts;
  dopts.background_maintenance = false;  // The schedule drives maintenance.
  dopts.block_cache_bytes = 4ull << 20;
  // Injected faults make flush failures routine; swallow the log chatter
  // (stderr output would also differ run-to-run and is not part of the
  // deterministic event log).
  dopts.logger = std::make_shared<Logger>(LogLevel::kError,
                                          std::make_shared<CaptureLogSink>());
  dopts.table_defaults.flush_bytes = 16 * 1024;  // Seal often: more commits.
  dopts.table_defaults.max_memtablet_age = 60 * kMicrosPerSecond;
  dopts.table_defaults.flush_retry_backoff = 1 * kMicrosPerSecond;
  dopts.table_defaults.flush_retry_max_backoff = 30 * kMicrosPerSecond;
  // Mixed-format coverage: each open (initial + every crash/restart)
  // deterministically rotates the flush format across every supported
  // version, so a single run exercises v0/v1/v2 tablets side by side, the
  // new writer's crash points, and merges that converge them to the latest
  // format. Seed-dependent so the sweep varies the starting version.
  dopts.table_defaults.format_version = static_cast<uint32_t>(
      (opts_.seed + open_count_) % (kTabletFormatLatest + 1));
  open_count_++;
  Log("open_db format_version=" +
      std::to_string(dopts.table_defaults.format_version));
  return DB::Open(env_, clock(), kRoot, dopts, &db_);
}

Status ChaosRun::StartServer() {
  ServerOptions sopts;
  sopts.port = kPort;
  sopts.transport = transport_.get();
  sopts.poll_interval_ms = 5;
  sopts.io_timeout_ms = 2000;
  sopts.drain_timeout_ms = 200;
  server_ = std::make_unique<LittleTableServer>(db_.get(), sopts);
  return server_->Start();
}

Status ChaosRun::ConnectClient() {
  ClientOptions copts;
  copts.transport = transport_.get();
  copts.clock = clock();
  copts.connect_timeout_ms = 1000;
  copts.read_timeout_ms = 1000;
  copts.write_timeout_ms = 1000;
  copts.max_retries = 3;
  copts.backoff_seed = opts_.seed;
  copts.backoff_sleep = [clock = clock()](int64_t ms) {
    clock->Advance(ms * 1000);  // Backoff burns simulated, not real, time.
  };
  return Client::Connect("sim", kPort, copts, &client_);
}

Status ChaosRun::StartSampler() {
  obs::SamplerOptions sopts;
  // The deterministic contract: sample only op-sequence-pure per-table
  // counters, driven manually at op boundaries in simulated time. TTLs are
  // off so the prefix-durability oracle below stays exact (retention is
  // exercised by obs_test, not the chaos schedule).
  sopts.deterministic = true;
  sopts.background = false;
  sopts.ttl_1s = 0;
  sopts.ttl_1m = 0;
  sopts.observer = [this](const std::string& table,
                          const std::vector<Row>& rows) {
    std::vector<Row>& model = sys_model_[table];
    model.insert(model.end(), rows.begin(), rows.end());
  };
  sampler_ = std::make_unique<obs::MetricsSampler>(db_.get(), sopts);
  return sampler_->Start();
}

void ChaosRun::DriveSampler() {
  if (!sampler_ || ++ops_since_sample_ < opts_.sample_every_ops) return;
  ops_since_sample_ = 0;
  Status s = sampler_->SampleOnce(clock()->Now());
  Log("sample status=" + s.ToString());
  if (s.ok()) Count("samples_ok");
}

void ChaosRun::DoFlushThrough() {
  const Timestamp t = clock()->Now();
  Status s = client_->FlushThrough(kEventsTable, t);
  Log("flush_through status=" + s.ToString());
  if (!s.ok()) return;
  Count("flush_through_ok");
  // §4.1.2: everything acknowledged with ts <= t is now guaranteed to
  // survive any crash. Batches with unknown outcomes get no guarantee.
  for (InsertRecord& rec : oracle_.records()) {
    if (rec.state != InsertRecord::kCertain) continue;
    size_t durable = 0;
    while (durable < rec.events.size() && rec.events[durable].ts <= t) {
      durable++;
    }
    rec.durable = std::max(rec.durable, durable);
  }
}

void ChaosRun::DoMaintain() {
  Status s = db_->MaintainNow();
  Log("maintain status=" + s.ToString());
  if (s.ok()) Count("maintain_ok");
}

void ChaosRun::DoStats() {
  ServerStats stats;
  Status s = client_->Stats(kEventsTable, &stats);
  Log("stats status=" + s.ToString());
}

bool ChaosRun::OracleCheckAfterCrash() {
  std::shared_ptr<Table> table = db_->GetTable(kEventsTable);
  if (!table) {
    Violation("table missing after reopen");
    return false;
  }
  QueryBounds all;
  QueryResult res;
  Status s = table->Query(all, &res);
  if (!s.ok()) {
    Violation("post-crash scan failed: " + s.ToString());
    return false;
  }
  if (res.more_available) {
    Violation("post-crash scan truncated by row limit");
    return false;
  }
  std::map<std::pair<int64_t, int64_t>, const Row*> present;
  for (const Row& row : res.rows) {
    if (row.size() != 5) {
      Violation("post-crash row has wrong arity");
      return false;
    }
    auto key = std::make_pair(row[0].AsInt(), row[1].AsInt());
    if (!present.emplace(key, &row).second) {
      Violation("duplicate surviving row: device=" +
                std::to_string(key.first) + " id=" +
                std::to_string(key.second));
      return false;
    }
  }

  // Resolve unknown-outcome batches by presence. A batch that applied and
  // was then entirely lost in the crash is indistinguishable from one that
  // never applied; both are treated as never-applied, which is sound for
  // every check below (absent rows cannot break prefix monotonicity).
  for (InsertRecord& rec : oracle_.records()) {
    if (rec.state != InsertRecord::kUnresolved) continue;
    size_t n = 0;
    for (const apps::SimEvent& ev : rec.events) {
      n += present.count({rec.device, ev.id});
    }
    rec.state = n > 0 ? InsertRecord::kCertain : InsertRecord::kDropped;
  }

  // Prefix durability (§3.1): in global insert order, the surviving rows
  // form a prefix — once one row is lost, every later row is lost too.
  bool lost_one = false;
  for (const InsertRecord& rec : oracle_.records()) {
    if (rec.state == InsertRecord::kDropped) continue;
    for (const apps::SimEvent& ev : rec.events) {
      const bool here = present.count({rec.device, ev.id}) != 0;
      if (here && lost_one) {
        Violation("prefix durability violated: device=" +
                  std::to_string(rec.device) + " id=" + std::to_string(ev.id) +
                  " survived although an earlier row was lost");
        return false;
      }
      if (!here) lost_one = true;
    }
  }

  // FlushThrough guarantees and re-read durability from earlier crashes.
  for (const InsertRecord& rec : oracle_.records()) {
    if (rec.state == InsertRecord::kDropped) continue;
    for (size_t i = 0; i < rec.durable; i++) {
      if (!present.count({rec.device, rec.events[i].id})) {
        Violation("durable row lost: device=" + std::to_string(rec.device) +
                  " id=" + std::to_string(rec.events[i].id) +
                  " was flushed through (or previously recovered)");
        return false;
      }
    }
  }

  // Content equality and phantom detection for every surviving row.
  for (const auto& [key, row] : present) {
    if (!oracle_.CheckRowContent(*row)) return false;
  }

  // Per-device contiguity: surviving ids are exactly 1..k.
  std::map<int64_t, std::pair<int64_t, int64_t>> by_dev;  // max id, count.
  for (const auto& [key, row] : present) {
    auto& [max_id, n] = by_dev[key.first];
    max_id = std::max(max_id, key.second);
    n++;
  }
  for (const auto& [device, mc] : by_dev) {
    if (!oracle_.CheckContiguous(device, mc.first, mc.second)) return false;
  }

  // No orphan files: the table directory holds exactly the descriptor,
  // the tablets the descriptor names, and quarantined (.corrupt) tablets.
  std::set<std::string> allowed = {"DESC"};
  for (const TabletMeta& m : table->DiskTablets()) allowed.insert(m.filename);
  std::vector<std::string> children;
  s = env_->GetChildren(std::string(kRoot) + "/" + kEventsTable, &children);
  if (!s.ok()) {
    Violation("listing table dir failed: " + s.ToString());
    return false;
  }
  for (const std::string& child : children) {
    if (allowed.count(child) || child.ends_with(".corrupt")) continue;
    Violation("orphan file after recovery: " + child);
    return false;
  }

  // The model adopts the post-crash truth: trim each batch to its
  // surviving prefix (rows beyond it are gone for good), and everything
  // that survived is on disk now — durable against the next crash too.
  for (InsertRecord& rec : oracle_.records()) {
    if (rec.state == InsertRecord::kDropped) continue;
    size_t n = 0;
    while (n < rec.events.size() &&
           present.count({rec.device, rec.events[n].id})) {
      n++;
    }
    rec.events.resize(n);
    rec.durable = n;
    if (n == 0) rec.state = InsertRecord::kDropped;
  }
  for (auto& [device, cur] : oracle_.cursors()) {
    cur.last_id = by_dev.count(device) ? by_dev[device].first : 0;
    cur.dirty = false;
  }
  Count("crashes_survived");
  return true;
}

bool ChaosRun::CheckSysTableAfterCrash(const std::string& table_name) {
  std::vector<Row>& model = sys_model_[table_name];
  size_t& durable = sys_durable_[table_name];
  std::shared_ptr<Table> table = db_->GetTable(table_name);
  if (!table) {
    // The whole table vanished (its descriptor was never synced). Legal
    // only if no row of it was ever read back from disk.
    if (durable > 0) {
      Violation("system table " + table_name + " lost after being durable");
      return false;
    }
    model.clear();
    return true;
  }
  QueryBounds all;
  QueryResult res;
  Status s = table->Query(all, &res);
  if (!s.ok()) {
    Violation("post-crash scan of " + table_name + " failed: " + s.ToString());
    return false;
  }
  if (res.more_available) {
    Violation("post-crash scan of " + table_name + " truncated by row limit");
    return false;
  }
  // Surviving rows keyed (metric, ts) for phantom/content checks.
  std::map<std::pair<std::string, Timestamp>, const Row*> present;
  for (const Row& row : res.rows) {
    if (row.size() < 3) {
      Violation("system row in " + table_name + " has wrong arity");
      return false;
    }
    auto key = std::make_pair(row[0].bytes(), Timestamp{row[1].AsInt()});
    if (!present.emplace(key, &row).second) {
      Violation("duplicate system row in " + table_name + ": " + key.first +
                " ts=" + std::to_string(key.second));
      return false;
    }
  }
  // §3.1 prefix durability holds for the system tables exactly as for user
  // tables: in insert order, the surviving rows form a prefix.
  size_t prefix = 0;
  bool lost_one = false;
  for (const Row& row : model) {
    auto it = present.find(
        std::make_pair(row[0].bytes(), Timestamp{row[1].AsInt()}));
    if (it != present.end()) {
      if (lost_one) {
        Violation("prefix durability violated in " + table_name +
                  ": metric " + row[0].bytes() + " ts=" +
                  std::to_string(row[1].AsInt()) +
                  " survived although an earlier row was lost");
        return false;
      }
      if (!(*it->second == row)) {
        Violation("system row content mismatch in " + table_name +
                  ": metric " + row[0].bytes() +
                  " ts=" + std::to_string(row[1].AsInt()));
        return false;
      }
      prefix++;
    } else {
      lost_one = true;
    }
  }
  if (prefix < durable) {
    Violation("durable system row lost in " + table_name + ": only " +
              std::to_string(prefix) + " of " + std::to_string(durable) +
              " recovered rows survived");
    return false;
  }
  if (present.size() > prefix) {
    Violation("phantom system row in " + table_name + ": " +
              std::to_string(present.size()) + " rows present, model has " +
              std::to_string(prefix) + " surviving");
    return false;
  }
  // Adopt the post-crash truth: the surviving prefix is on disk now.
  model.resize(prefix);
  durable = prefix;
  return true;
}

namespace {
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
}  // namespace

void ChaosRun::DumpSysMetrics() {
  for (const auto& [table_name, rows] : sys_model_) {
    for (const Row& row : rows) {
      std::string line = table_name + " " + row[0].bytes() +
                         " ts=" + std::to_string(row[1].AsInt());
      if (row.size() == 3) {  // 1s: value.
        line += " v=" + FormatDouble(row[2].dbl());
      } else if (row.size() == 6) {  // 1m: avg/min/max/n.
        line += " avg=" + FormatDouble(row[2].dbl()) +
                " min=" + FormatDouble(row[3].dbl()) +
                " max=" + FormatDouble(row[4].dbl()) +
                " n=" + std::to_string(row[5].AsInt());
      }
      report()->sys_metrics.push_back(std::move(line));
    }
  }
}

void ChaosRun::CrashAndRestart() {
  Log("crash");
  Count("crashes");
  if (partition_ops_left_ > 0) {
    partition_ops_left_ = 0;
    transport_->SetPartitioned(false);
    Log("partition heal (crash)");
  }
  // Order matters: sever connections (client sees resets, not hangs), drop
  // the client, stop the server, then abandon the DB without flushing —
  // the process is "gone"; only synced bytes survive.
  transport_->ResetAllConnections();
  client_.reset();
  server_->Stop();
  server_.reset();
  // The sampler dies with the "process": no final sample (Stop never
  // samples), so whatever was unflushed is simply lost, like any insert.
  sampler_.reset();
  db_->Abandon();
  db_.reset();
  if (sim_disk_) {
    sim_disk_->PowerCut();
    sim_disk_->ClearDiskFull();
    sim_disk_->FailNthRead(0);
    sim_disk_->FailNthWrite(0);
  } else {
    mem_env_->DropUnsynced();
    mem_env_->FailNthRead(0);
    mem_env_->FailNthWrite(0);
  }
  disk_full_ops_left_ = 0;
  fault::DisarmCrashPoints();

  Status s = OpenDb();
  if (!s.ok()) {
    Violation("reopen after crash failed: " + s.ToString());
    return;
  }
  if (!OracleCheckAfterCrash()) return;
  if (opts_.sample_every_ops > 0) {
    if (!CheckSysTableAfterCrash(obs::kMetricsTable1s)) return;
    if (!CheckSysTableAfterCrash(obs::kMetricsTable1m)) return;
    Status ss = StartSampler();
    if (!ss.ok()) {
      Violation("sampler restart failed: " + ss.ToString());
      return;
    }
  }
  s = StartServer();
  if (!s.ok()) {
    Violation("server restart failed: " + s.ToString());
    return;
  }
  s = ConnectClient();
  Log("restart status=" + s.ToString());
  if (!s.ok()) Violation("client reconnect after restart failed");
}

void ChaosRun::MaybeInjectFault() {
  if (partition_ops_left_ > 0 && --partition_ops_left_ == 0) {
    transport_->SetPartitioned(false);
    Log("partition heal");
  }
  if (disk_full_ops_left_ > 0 && --disk_full_ops_left_ == 0 && sim_disk_) {
    sim_disk_->ClearDiskFull();
    Log("disk full heal");
  }
  if (!rng_.Bernoulli(opts_.fault_rate)) return;
  Count("faults");
  switch (rng_.Uniform(8)) {
    case 0:
      CrashAndRestart();
      break;
    case 1:
      Log("fault reset_all");
      transport_->ResetAllConnections();
      break;
    case 2:
      if (partition_ops_left_ == 0) {
        partition_ops_left_ = 1 + static_cast<int>(rng_.Uniform(4));
        transport_->SetPartitioned(true);
        Log("fault partition ops=" + std::to_string(partition_ops_left_));
      }
      break;
    case 3: {
      const size_t keep = rng_.Uniform(17);
      transport_->TruncateNextServerWrite(keep);
      Log("fault truncate keep=" + std::to_string(keep));
      break;
    }
    case 4: {
      const Timestamp delay = (1 + rng_.Uniform(1000)) * 1000;  // 1ms..1s.
      transport_->DelayNextWrite(delay);
      Log("fault delay micros=" + std::to_string(delay));
      break;
    }
    case 5:
      if (sim_disk_) {
        const int64_t budget = 4096 + rng_.Uniform(128 * 1024);
        sim_disk_->SetDiskFullAfter(budget);
        disk_full_ops_left_ = 2 + static_cast<int>(rng_.Uniform(6));
        Log("fault disk_full budget=" + std::to_string(budget) +
            " ops=" + std::to_string(disk_full_ops_left_));
      } else {
        const int n = 1 + static_cast<int>(rng_.Uniform(5));
        mem_env_->FailNthWrite(n);
        Log("fault fail_write n=" + std::to_string(n));
      }
      break;
    case 6: {
      const int n = 1 + static_cast<int>(rng_.Uniform(8));
      fault::ArmNthCrashPoint(n);
      Log("fault crash_point n=" + std::to_string(n));
      break;
    }
    case 7: {
      const int n = 1 + static_cast<int>(rng_.Uniform(4));
      if (sim_disk_) {
        sim_disk_->FailNthRead(n);
      } else {
        mem_env_->FailNthRead(n);
      }
      Log("fault fail_read n=" + std::to_string(n));
      break;
    }
  }
}

void ChaosRun::DoOneOp() {
  const uint64_t pick = rng_.Uniform(100);
  if (pick < 50) {
    oracle_.Insert(client_.get(), &rng_);
  } else if (pick < 70) {
    oracle_.Query(client_.get(), &rng_);
  } else if (pick < 80) {
    oracle_.LatestRow(client_.get(), &rng_);
  } else if (pick < 88) {
    DoFlushThrough();
  } else if (pick < 98) {
    DoMaintain();
  } else {
    DoStats();
  }
}

Status ChaosRun::Run() {
  fault::DisarmCrashPoints();  // Global state; start from a clean slate.
  LT_RETURN_IF_ERROR(Setup());
  for (int i = 0; i < opts_.ops && report()->ok; i++) {
    clock()->Advance((1 + rng_.Uniform(30)) * kMicrosPerSecond);
    MaybeInjectFault();
    if (!report()->ok) break;
    DoOneOp();
    if (report()->ok) DriveSampler();
  }
  // Final verdict: crash once more and run the full oracle, so every run
  // ends with a durability check even if the schedule drew no crash.
  if (report()->ok) CrashAndRestart();
  if (report()->ok) {
    const uint64_t durable_rows = oracle_.CertainRows();
    report()->counters["durable_rows"] = durable_rows;
    const SimTransportStats ts = transport_->stats();
    report()->counters["transport_connects"] = ts.connects;
    report()->counters["transport_resets"] = ts.resets_injected;
    if (opts_.sample_every_ops > 0) {
      uint64_t sys_rows = 0;
      for (const auto& [tname, rows] : sys_model_) sys_rows += rows.size();
      report()->counters["sys_rows_durable"] = sys_rows;
      DumpSysMetrics();
    }
    Log("done durable_rows=" + std::to_string(durable_rows));
  }
  // Tear down in dependency order before the envs go away.
  client_.reset();
  if (server_) server_->Stop();
  server_.reset();
  sampler_.reset();
  if (db_) db_->Abandon();
  db_.reset();
  fault::DisarmCrashPoints();
  return Status::OK();
}

}  // namespace

Status RunChaos(const ChaosOptions& options, SimReport* report) {
  *report = SimReport();
  if (options.ops < 0 || options.devices < 1) {
    return Status::InvalidArgument("ops must be >= 0 and devices >= 1");
  }
  if (options.fault_rate < 0.0 || options.fault_rate > 1.0) {
    return Status::InvalidArgument("fault_rate must be in [0, 1]");
  }
  ChaosRun run(options, report);
  return run.Run();
}

}  // namespace sim
}  // namespace lt
