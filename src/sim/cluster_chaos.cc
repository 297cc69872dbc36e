#include "sim/cluster_chaos.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/agent.h"
#include "cluster/cluster_client.h"
#include "cluster/coordinator.h"
#include "cluster/shard_map.h"
#include "core/db.h"
#include "core/tablet_writer.h"  // kTabletFormatLatest
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/device_oracle.h"
#include "sim/sim_transport.h"
#include "util/fault.h"
#include "util/random.h"

namespace lt {
namespace sim {
namespace {

constexpr uint16_t kCoordPort = 7790;
constexpr char kRoot[] = "node";

/// One cluster machine: its own simulated disk, DB, and agent.
struct NodeState {
  std::string name;
  uint16_t port = 0;
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<DB> db;
  std::unique_ptr<cluster::ReplicaAgent> agent;
  uint32_t open_count = 0;  // DB opens; rotates the flush format.
};

struct GroupState {
  uint32_t id = 0;
  NodeState a, b;
  int partition_ops_left = 0;  // a<->b link partition countdown.
  /// Primary endpoint the model last saw; a change means a failover the
  /// model must account for (non-durable acks become unresolved).
  cluster::Endpoint known_primary;
};

class ClusterChaosRun : private SimRecorder {
 public:
  ClusterChaosRun(const ClusterChaosOptions& opts, SimReport* report)
      : SimRecorder(report),
        opts_(opts),
        rng_(opts.seed ^ 0xa24baed4963ee407ull),
        oracle_(this, opts.seed, opts.devices, QueryChecks::kReplicated) {}

  Status Run();

 private:
  Status Setup();
  Status OpenNodeDb(NodeState& n);
  Status StartAgent(NodeState& n);
  Status ConnectClient();

  void MaybeInjectFault();
  void DoOneOp();
  void DoShip();
  void DoFullScan();
  void DoProbe();
  void FinalVerdict();

  // ---- Cluster plumbing. ----
  cluster::Endpoint CurrentPrimary(uint32_t g);
  NodeState* NodeForEndpoint(const cluster::Endpoint& ep);
  cluster::ReplicaAgent* PrimaryAgent(uint32_t g);
  void KillNode(NodeState& n);
  Status RestartNode(NodeState& n);
  void HealGroupPartition(GroupState& grp, const char* why);
  /// Crashes the group's current primary. With quick_restart the node is
  /// back before the coordinator's fail threshold and resumes the primary
  /// role on a fresh stream; otherwise probe rounds are driven until the
  /// secondary is promoted and the old primary rejoins as secondary.
  void CrashPrimary(uint32_t g, bool quick_restart);
  void CrashSecondary(uint32_t g);
  /// Drives probe + ship rounds until the group has a serving primary and
  /// a completed replication round; flags a violation if it cannot.
  bool Settle(uint32_t g);
  /// Advances simulated time and pumps the coordinator/shipper — installed
  /// as the ClusterClient's backoff hook, so a routed request waiting out a
  /// retry is what drives failovers forward.
  void Pump(int64_t ms);
  /// Compares the coordinator's map against the model's last view; on a
  /// primary change, demotes that group's non-durable acks to unresolved.
  void NoteClusterView();
  void MarkGroupDurable(uint32_t g);
  void MarkGroupUnresolved(uint32_t g);

  /// Queries every device of group g and verifies each row set.
  void VerifyGroupDevices(uint32_t g);

  const ClusterChaosOptions opts_;
  Random rng_;
  DeviceOracle oracle_;

  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::vector<GroupState> groups_;
  std::unique_ptr<cluster::ClusterClient> client_;

  std::map<int64_t, uint32_t> device_group_;  // Device -> its shard group.
  bool pumping_ = false;  // Reentrancy guard for Pump.
};

Status ClusterChaosRun::Setup() {
  SimTransportOptions topts;
  topts.clock = clock();
  transport_ = std::make_unique<SimTransport>(topts);

  const std::vector<cluster::ShardGroupInfo> ranges =
      cluster::EvenGroups(static_cast<uint32_t>(opts_.groups));
  groups_.resize(opts_.groups);
  for (int g = 0; g < opts_.groups; g++) {
    GroupState& grp = groups_[g];
    grp.id = static_cast<uint32_t>(g);
    grp.a.name = "g" + std::to_string(g) + "a";
    grp.a.port = static_cast<uint16_t>(7801 + g * 10);
    grp.b.name = "g" + std::to_string(g) + "b";
    grp.b.port = static_cast<uint16_t>(7802 + g * 10);
    for (NodeState* n : {&grp.a, &grp.b}) {
      n->env = std::make_unique<MemEnv>();
      LT_RETURN_IF_ERROR(OpenNodeDb(*n));
      LT_RETURN_IF_ERROR(StartAgent(*n));
    }
  }

  cluster::CoordinatorOptions copts;
  copts.port = kCoordPort;
  copts.transport = transport_->ForNode("coord");
  copts.probe_deadline_ms = 200;
  copts.fail_threshold = 3;
  copts.client.clock = clock();
  copts.client.connect_timeout_ms = 500;
  copts.client.read_timeout_ms = 500;
  copts.client.write_timeout_ms = 500;
  coordinator_ = std::make_unique<cluster::Coordinator>(copts);
  for (int g = 0; g < opts_.groups; g++) {
    coordinator_->AddGroup(groups_[g].id, ranges[g].hash_begin,
                           ranges[g].hash_end,
                           {groups_[g].a.name, groups_[g].a.port},
                           {groups_[g].b.name, groups_[g].b.port});
  }
  LT_RETURN_IF_ERROR(coordinator_->Start());
  coordinator_->ProbeOnce();  // Push the initial role assignments.
  const cluster::ShardMap m = coordinator_->Map();
  for (GroupState& grp : groups_) {
    const cluster::ShardGroupInfo* info = m.GroupById(grp.id);
    if (info == nullptr) return Status::InvalidArgument("group missing from map");
    grp.known_primary = info->primary;
  }
  Log("setup groups=" + std::to_string(opts_.groups) +
      " epoch=" + std::to_string(coordinator_->epoch()));

  LT_RETURN_IF_ERROR(ConnectClient());
  LT_RETURN_IF_ERROR(client_->CreateTable(kEventsTable, EventsSchema(), 0));
  // One completed ship round per group before chaos starts: the create is
  // then on both replicas, so even an immediate primary crash leaves a
  // secondary that can serve the (empty) table.
  for (int g = 0; g < opts_.groups; g++) {
    cluster::ReplicaAgent* p = PrimaryAgent(static_cast<uint32_t>(g));
    if (p == nullptr) return Status::InvalidArgument("no primary at setup");
    LT_RETURN_IF_ERROR(p->ShipOnce());
  }

  const Schema schema = EventsSchema();
  for (int d = 1; d <= opts_.devices; d++) {
    const uint64_t h =
        cluster::RouteHashPrefix(schema, Key{Value::Int64(d)});
    const cluster::ShardGroupInfo* gi = m.GroupForHash(h);
    if (gi == nullptr) return Status::InvalidArgument("hash space gap in map");
    device_group_[d] = gi->id;
  }
  return Status::OK();
}

Status ClusterChaosRun::OpenNodeDb(NodeState& n) {
  DbOptions dopts;
  dopts.background_maintenance = false;  // The schedule drives everything.
  dopts.block_cache_bytes = 4ull << 20;
  // Fault-injected flush/ship failures are routine; keep them out of stderr
  // and out of the deterministic event log.
  dopts.logger = std::make_shared<Logger>(LogLevel::kError,
                                          std::make_shared<CaptureLogSink>());
  dopts.table_defaults.flush_bytes = 16 * 1024;
  dopts.table_defaults.max_memtablet_age = 60 * kMicrosPerSecond;
  dopts.table_defaults.flush_retry_backoff = 1 * kMicrosPerSecond;
  dopts.table_defaults.flush_retry_max_backoff = 30 * kMicrosPerSecond;
  // Rotate the flush format per open, like the single-node schedule, so
  // tablet shipping moves mixed-version files between nodes.
  dopts.table_defaults.format_version = static_cast<uint32_t>(
      (opts_.seed + n.open_count) % (kTabletFormatLatest + 1));
  n.open_count++;
  return DB::Open(n.env.get(), clock(), kRoot, dopts, &n.db);
}

Status ClusterChaosRun::StartAgent(NodeState& n) {
  cluster::AgentOptions aopts;
  aopts.port = n.port;
  aopts.transport = transport_->ForNode(n.name);
  aopts.server.poll_interval_ms = 5;
  aopts.server.io_timeout_ms = 2000;
  aopts.server.drain_timeout_ms = 200;
  aopts.client.clock = clock();
  aopts.client.connect_timeout_ms = 500;
  aopts.client.read_timeout_ms = 1000;
  aopts.client.write_timeout_ms = 1000;
  // Small on purpose: a partition that outlives the window turns routed
  // inserts into kServerBusy, exercising the router's backoff path.
  aopts.redo_window = 8;
  n.agent = std::make_unique<cluster::ReplicaAgent>(n.db.get(), aopts);
  return n.agent->Start();
}

Status ClusterChaosRun::ConnectClient() {
  cluster::ClusterClientOptions ccopts;
  ccopts.transport = transport_->ForNode("client");
  ccopts.max_retries = 10;
  ccopts.backoff_initial_ms = 20;
  ccopts.backoff_max_ms = 500;
  ccopts.client.clock = clock();
  ccopts.client.connect_timeout_ms = 500;
  ccopts.client.read_timeout_ms = 1000;
  ccopts.client.write_timeout_ms = 1000;
  ccopts.client.max_retries = 0;  // The router owns the retry protocol.
  ccopts.client.backoff_seed = opts_.seed;
  ccopts.client.backoff_sleep = [this](int64_t ms) { Pump(ms); };
  return cluster::ClusterClient::Connect("coord", kCoordPort, ccopts,
                                         &client_);
}

// ---- Cluster plumbing. ----

cluster::Endpoint ClusterChaosRun::CurrentPrimary(uint32_t g) {
  const cluster::ShardMap m = coordinator_->Map();
  const cluster::ShardGroupInfo* info = m.GroupById(g);
  return info != nullptr ? info->primary : cluster::Endpoint{};
}

NodeState* ClusterChaosRun::NodeForEndpoint(const cluster::Endpoint& ep) {
  for (GroupState& grp : groups_) {
    for (NodeState* n : {&grp.a, &grp.b}) {
      if (n->port == ep.port) return n;
    }
  }
  return nullptr;
}

cluster::ReplicaAgent* ClusterChaosRun::PrimaryAgent(uint32_t g) {
  NodeState* n = NodeForEndpoint(CurrentPrimary(g));
  return n != nullptr ? n->agent.get() : nullptr;
}

void ClusterChaosRun::KillNode(NodeState& n) {
  // Order matters: sever connections first (peers see resets, not hangs),
  // then abandon the DB — only synced bytes survive on the node's disk.
  transport_->ResetNodeConnections(n.name);
  if (n.agent) n.agent->Stop();
  n.agent.reset();
  if (n.db) n.db->Abandon();
  n.db.reset();
  n.env->DropUnsynced();
  // Crash points model the dying process; they die with it.
  fault::DisarmCrashPoints();
  Count("node_crashes");
}

Status ClusterChaosRun::RestartNode(NodeState& n) {
  LT_RETURN_IF_ERROR(OpenNodeDb(n));
  return StartAgent(n);
}

void ClusterChaosRun::HealGroupPartition(GroupState& grp, const char* why) {
  if (grp.partition_ops_left <= 0) return;
  grp.partition_ops_left = 0;
  transport_->SetLinkPartitioned(grp.a.name, grp.b.name, false);
  Log("partition heal (" + std::string(why) + ") g=" +
      std::to_string(grp.id));
}

void ClusterChaosRun::MarkGroupDurable(uint32_t g) {
  // A completed ship round covers everything acknowledged before it; the
  // harness is single-threaded, so that is every record in the model.
  for (InsertRecord& rec : oracle_.records()) {
    if (device_group_[rec.device] == g && rec.state == InsertRecord::kCertain) {
      rec.durable = rec.events.size();
    }
  }
}

void ClusterChaosRun::MarkGroupUnresolved(uint32_t g) {
  // A primary died (or was deposed): acknowledged batches outside the last
  // completed ship round may or may not survive — via the secondary's
  // buffered redo entries — so their fate is unknown until read back.
  for (InsertRecord& rec : oracle_.records()) {
    if (device_group_[rec.device] == g &&
        rec.state == InsertRecord::kCertain && rec.durable == 0) {
      rec.state = InsertRecord::kUnresolved;
    }
  }
  for (auto& [device, cur] : oracle_.cursors()) {
    if (device_group_[device] == g) cur.dirty = true;
  }
}

void ClusterChaosRun::NoteClusterView() {
  const cluster::ShardMap m = coordinator_->Map();
  for (GroupState& grp : groups_) {
    const cluster::ShardGroupInfo* info = m.GroupById(grp.id);
    if (info == nullptr || info->primary == grp.known_primary) continue;
    Log("observe failover g=" + std::to_string(grp.id) + " primary=" +
        info->primary.ToString() + " epoch=" + std::to_string(m.epoch));
    MarkGroupUnresolved(grp.id);
    grp.known_primary = info->primary;
  }
}

void ClusterChaosRun::Pump(int64_t ms) {
  clock()->Advance(ms * 1000);  // Backoff burns simulated, not real, time.
  if (pumping_) return;
  pumping_ = true;
  // A client waiting out a retry is exactly when the cluster makes
  // progress: probes detect the dead primary, and the shipper drains the
  // redo window that made the primary answer kServerBusy.
  coordinator_->ProbeOnce();
  NoteClusterView();
  for (GroupState& grp : groups_) {
    cluster::ReplicaAgent* p = PrimaryAgent(grp.id);
    if (p != nullptr && p->role() == cluster::ReplicaAgent::Role::kPrimary) {
      if (p->ShipOnce().ok()) {
        MarkGroupDurable(grp.id);
        Count("ships_ok");
      }
    }
  }
  pumping_ = false;
}

bool ClusterChaosRun::Settle(uint32_t g) {
  for (int round = 0; round < 50; round++) {
    clock()->Advance(kMicrosPerSecond);
    coordinator_->ProbeOnce();
    NoteClusterView();
    cluster::ReplicaAgent* p = PrimaryAgent(g);
    if (p == nullptr) continue;
    if (p->ShipOnce().ok()) {
      MarkGroupDurable(g);
      Count("ships_ok");
      return true;
    }
  }
  Violation("group " + std::to_string(g) +
            " failed to settle after a crash: no completed ship round");
  return false;
}

void ClusterChaosRun::CrashPrimary(uint32_t g, bool quick_restart) {
  GroupState& grp = groups_[g];
  HealGroupPartition(grp, "crash");
  NodeState* prim = NodeForEndpoint(CurrentPrimary(g));
  if (prim == nullptr || !prim->agent) return;
  Log(std::string("fault crash_primary g=") + std::to_string(g) + " node=" +
      prim->name + (quick_restart ? " quick_restart" : " failover"));
  Count(quick_restart ? "primary_quick_restarts" : "primary_failovers");
  KillNode(*prim);
  MarkGroupUnresolved(g);
  if (!quick_restart) {
    // Drive probe rounds until the coordinator promotes the secondary.
    const uint64_t before = coordinator_->failovers();
    for (int i = 0; i < 20 && coordinator_->failovers() == before; i++) {
      clock()->Advance(kMicrosPerSecond);
      coordinator_->ProbeOnce();
    }
    if (coordinator_->failovers() == before) {
      Violation("coordinator did not fail over group " + std::to_string(g) +
                " with its primary down and secondary reachable");
      return;
    }
    NoteClusterView();
  }
  Status s = RestartNode(*prim);
  if (!s.ok()) {
    Violation("node restart failed: " + s.ToString());
    return;
  }
  if (!Settle(g)) return;
  VerifyGroupDevices(g);
}

void ClusterChaosRun::CrashSecondary(uint32_t g) {
  GroupState& grp = groups_[g];
  HealGroupPartition(grp, "crash");
  const cluster::ShardMap m = coordinator_->Map();
  const cluster::ShardGroupInfo* info = m.GroupById(g);
  if (info == nullptr) return;
  NodeState* sec = NodeForEndpoint(info->secondary);
  if (sec == nullptr || !sec->agent) return;
  Log("fault crash_secondary g=" + std::to_string(g) + " node=" + sec->name);
  Count("secondary_crashes");
  KillNode(*sec);
  // The primary keeps serving; no acknowledged data is at risk. Bring the
  // secondary back and require replication to converge again.
  clock()->Advance(kMicrosPerSecond);
  coordinator_->ProbeOnce();
  Status s = RestartNode(*sec);
  if (!s.ok()) {
    Violation("node restart failed: " + s.ToString());
    return;
  }
  Settle(g);
}

// ---- Model checks. ----

void ClusterChaosRun::VerifyGroupDevices(uint32_t g) {
  for (int64_t d = 1; d <= opts_.devices; d++) {
    if (device_group_[d] != g) continue;
    std::vector<Row> rows;
    Status s = client_->QueryAll(
        kEventsTable, QueryBounds::ForPrefix(Key{Value::Int64(d)}), &rows);
    if (!s.ok()) {
      Violation("post-crash verify query failed for device " +
                std::to_string(d) + ": " + s.ToString());
      return;
    }
    if (!oracle_.VerifyDeviceRows(d, rows)) return;
  }
  Count("crash_verifies");
}

// ---- Workload. ----

void ClusterChaosRun::DoShip() {
  const uint32_t g = static_cast<uint32_t>(rng_.Uniform(opts_.groups));
  cluster::ReplicaAgent* p = PrimaryAgent(g);
  if (p == nullptr || p->role() != cluster::ReplicaAgent::Role::kPrimary) {
    Log("ship g=" + std::to_string(g) + " no_primary");
    return;
  }
  Status s = p->ShipOnce();
  Log("ship g=" + std::to_string(g) + " status=" + s.ToString());
  if (s.ok()) {
    MarkGroupDurable(g);
    Count("ships_ok");
  }
}

void ClusterChaosRun::DoFullScan() {
  std::vector<Row> rows;
  QueryBounds all;
  Status s = client_->QueryAll(kEventsTable, all, &rows);
  Log("scan rows=" + std::to_string(rows.size()) + " status=" + s.ToString());
  if (!s.ok()) return;
  Count("scans_ok");
  for (const Row& row : rows) {
    if (row.size() != 5) {
      Violation("scan row has wrong arity");
      return;
    }
  }
  // The fan-out merge must deliver one globally key-ordered stream even
  // when the rows come from different shard groups.
  for (size_t i = 1; i < rows.size(); i++) {
    const auto prev = std::make_pair(rows[i - 1][0].AsInt(),
                                     rows[i - 1][1].AsInt());
    const auto here = std::make_pair(rows[i][0].AsInt(), rows[i][1].AsInt());
    if (!(prev < here)) {
      Violation("fan-out scan not in key order at row " + std::to_string(i));
      return;
    }
  }
  std::map<int64_t, std::vector<Row>> by_dev;
  for (const Row& row : rows) by_dev[row[0].AsInt()].push_back(row);
  for (int64_t d = 1; d <= opts_.devices; d++) {
    if (!oracle_.VerifyDeviceRows(d, by_dev[d])) return;
  }
}

void ClusterChaosRun::DoProbe() {
  coordinator_->ProbeOnce();
  NoteClusterView();
  Log("probe epoch=" + std::to_string(coordinator_->epoch()));
}

void ClusterChaosRun::MaybeInjectFault() {
  for (GroupState& grp : groups_) {
    if (grp.partition_ops_left > 0 && --grp.partition_ops_left == 0) {
      transport_->SetLinkPartitioned(grp.a.name, grp.b.name, false);
      Log("partition heal g=" + std::to_string(grp.id));
    }
  }
  if (!rng_.Bernoulli(opts_.fault_rate)) return;
  Count("faults");
  const uint32_t g = static_cast<uint32_t>(rng_.Uniform(opts_.groups));
  switch (rng_.Uniform(8)) {
    case 0:
      CrashPrimary(g, /*quick_restart=*/rng_.Bernoulli(0.5));
      break;
    case 1:
      CrashSecondary(g);
      break;
    case 2:
      if (groups_[g].partition_ops_left == 0) {
        groups_[g].partition_ops_left = 1 + static_cast<int>(rng_.Uniform(4));
        transport_->SetLinkPartitioned(groups_[g].a.name, groups_[g].b.name,
                                       true);
        Log("fault partition g=" + std::to_string(g) +
            " ops=" + std::to_string(groups_[g].partition_ops_left));
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
    case 5: {
      // Sever one machine's connections without killing it.
      std::vector<std::string> names;
      for (const GroupState& grp : groups_) {
        names.push_back(grp.a.name);
        names.push_back(grp.b.name);
      }
      names.push_back("client");
      const std::string& victim = names[rng_.Uniform(names.size())];
      transport_->ResetNodeConnections(victim);
      Log("fault reset_node node=" + victim);
      break;
    }
    case 6: {
      const int n = 1 + static_cast<int>(rng_.Uniform(8));
      fault::ArmNthCrashPoint(n);
      Log("fault crash_point n=" + std::to_string(n));
      break;
    }
    case 7:
      Log("fault reset_all");
      transport_->ResetAllConnections();
      break;
  }
}

void ClusterChaosRun::DoOneOp() {
  const uint64_t pick = rng_.Uniform(100);
  if (pick < 45) {
    oracle_.Insert(client_.get(), &rng_);
  } else if (pick < 60) {
    oracle_.Query(client_.get(), &rng_);
  } else if (pick < 70) {
    oracle_.LatestRow(client_.get(), &rng_);
  } else if (pick < 82) {
    DoShip();
  } else if (pick < 90) {
    DoFullScan();
  } else {
    DoProbe();
  }
}

void ClusterChaosRun::FinalVerdict() {
  // Every run ends the same way: kill each group's primary, require the
  // coordinator to promote, and verify the promoted node serves the full
  // surviving history — durability judged on the failed-over cluster.
  for (uint32_t g = 0; g < static_cast<uint32_t>(opts_.groups) && report()->ok;
       g++) {
    Log("final failover g=" + std::to_string(g));
    CrashPrimary(g, /*quick_restart=*/false);
  }
  if (!report()->ok) return;
  const uint64_t durable_rows = oracle_.CertainRows();
  report()->counters["durable_rows"] = durable_rows;
  report()->counters["failovers"] = coordinator_->failovers();
  const SimTransportStats ts = transport_->stats();
  report()->counters["transport_connects"] = ts.connects;
  report()->counters["transport_resets"] = ts.resets_injected;
  Log("done durable_rows=" + std::to_string(durable_rows) +
      " failovers=" + std::to_string(coordinator_->failovers()));
}

Status ClusterChaosRun::Run() {
  fault::DisarmCrashPoints();  // Global state; start from a clean slate.
  LT_RETURN_IF_ERROR(Setup());
  for (int i = 0; i < opts_.ops && report()->ok; i++) {
    clock()->Advance((1 + rng_.Uniform(30)) * kMicrosPerSecond);
    MaybeInjectFault();
    if (!report()->ok) break;
    DoOneOp();
  }
  if (report()->ok) FinalVerdict();
  // Tear down in dependency order before the envs go away.
  client_.reset();
  if (coordinator_) coordinator_->Stop();
  for (GroupState& grp : groups_) {
    for (NodeState* n : {&grp.a, &grp.b}) {
      if (n->agent) n->agent->Stop();
      n->agent.reset();
      if (n->db) n->db->Abandon();
      n->db.reset();
    }
  }
  coordinator_.reset();
  fault::DisarmCrashPoints();
  return Status::OK();
}

}  // namespace

Status RunClusterChaos(const ClusterChaosOptions& options,
                       SimReport* report) {
  *report = SimReport();
  if (options.ops < 0 || options.devices < 1) {
    return Status::InvalidArgument("ops must be >= 0 and devices >= 1");
  }
  if (options.groups < 1 || options.groups > 4) {
    return Status::InvalidArgument("groups must be in [1, 4]");
  }
  if (options.fault_rate < 0.0 || options.fault_rate > 1.0) {
    return Status::InvalidArgument("fault_rate must be in [0, 1]");
  }
  ClusterChaosRun run(options, report);
  return run.Run();
}

}  // namespace sim
}  // namespace lt
