// Tests for the replicated-cluster layer (src/cluster): the versioned
// shard map and routing hash, the coordinator's probe/failover protocol,
// the ClusterClient's routed inserts, fan-out query merge and retry
// protocol, primary→secondary tablet shipping (idempotent re-ship,
// CRC-verified receipt, redo-window replay on promotion), the __sys
// namespace guards on every cluster surface, and a scripted failover
// workload where no client request may fail.
//
// Everything runs on SimTransport under a SimClock — node death and
// network partitions are exact, and client retry backoffs pump the
// coordinator instead of sleeping.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/agent.h"
#include "cluster/cluster_client.h"
#include "cluster/coordinator.h"
#include "cluster/shard_map.h"
#include "core/db.h"
#include "core/row_codec.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/sim_transport.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace lt {
namespace {

using cluster::Endpoint;
using cluster::ReplicaAgent;
using cluster::ShardGroupInfo;
using cluster::ShardMap;
using sim::SimTransport;
using sim::SimTransportOptions;
using wire::ErrCode;
using wire::MsgType;

constexpr Timestamp kEpochTs = Timestamp{1700000000} * 1000000;
constexpr uint16_t kCoordPort = 9000;

/// (device, ts) -> (v). First key cell is the routing column.
Schema DevSchema() {
  return Schema({Column("device", ColumnType::kInt64),
                 Column("ts", ColumnType::kTimestamp),
                 Column("v", ColumnType::kDouble)},
                /*num_key_columns=*/2);
}

Row DevRow(int64_t device, Timestamp ts, double v) {
  return {Value::Int64(device), Value::Ts(ts), Value::Double(v)};
}

/// A kInsert wire body, exactly as Client::Insert encodes one.
std::string InsertBody(const std::string& table, const Schema& schema,
                       const std::vector<Row>& rows) {
  std::string body;
  PutLengthPrefixedSlice(&body, table);
  PutVarint32(&body, schema.version());
  PutVarint32(&body, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) EncodeRow(&body, schema, row);
  return body;
}

// ---- Shard map unit tests (no cluster needed). ----

TEST(ShardMapTest, EvenGroupsCoverTheHashSpace) {
  for (uint32_t n : {1u, 2u, 3u, 4u, 7u}) {
    const std::vector<ShardGroupInfo> groups = cluster::EvenGroups(n);
    ASSERT_EQ(groups.size(), n);
    EXPECT_EQ(groups.front().hash_begin, 0u);
    EXPECT_EQ(groups.back().hash_end, UINT64_MAX);
    for (uint32_t i = 0; i < n; i++) {
      EXPECT_EQ(groups[i].id, i);
      if (i > 0) {
        EXPECT_EQ(groups[i].hash_begin, groups[i - 1].hash_end + 1)
            << "gap or overlap between groups " << i - 1 << " and " << i;
      }
    }
  }
}

TEST(ShardMapTest, EncodeDecodeRoundTrip) {
  ShardMap map;
  map.epoch = 42;
  map.groups = cluster::EvenGroups(2);
  map.groups[0].primary = {"alpha", 7001};
  map.groups[0].secondary = {"beta", 7002};
  map.groups[1].primary = {"gamma", 7003};
  map.groups[1].secondary = {"delta", 7004};

  std::string wire_bytes;
  map.Encode(&wire_bytes);
  Slice in(wire_bytes);
  ShardMap got;
  ASSERT_TRUE(ShardMap::Decode(&in, &got).ok());
  EXPECT_EQ(got.epoch, 42u);
  ASSERT_EQ(got.groups.size(), 2u);
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(got.groups[i].id, map.groups[i].id);
    EXPECT_EQ(got.groups[i].hash_begin, map.groups[i].hash_begin);
    EXPECT_EQ(got.groups[i].hash_end, map.groups[i].hash_end);
    EXPECT_TRUE(got.groups[i].primary == map.groups[i].primary);
    EXPECT_TRUE(got.groups[i].secondary == map.groups[i].secondary);
  }

  // Truncation anywhere must fail cleanly, never crash or half-decode.
  for (size_t cut = 0; cut < wire_bytes.size(); cut++) {
    Slice torn(wire_bytes.data(), cut);
    ShardMap ignored;
    EXPECT_FALSE(ShardMap::Decode(&torn, &ignored).ok()) << "cut=" << cut;
  }
}

TEST(ShardMapTest, GroupForHashRespectsRangeBoundaries) {
  ShardMap map;
  map.epoch = 1;
  map.groups = cluster::EvenGroups(2);
  const uint64_t split = map.groups[0].hash_end;
  EXPECT_EQ(map.GroupForHash(0)->id, 0u);
  EXPECT_EQ(map.GroupForHash(split)->id, 0u);
  EXPECT_EQ(map.GroupForHash(split + 1)->id, 1u);
  EXPECT_EQ(map.GroupForHash(UINT64_MAX)->id, 1u);
  EXPECT_EQ(map.GroupById(1)->id, 1u);
  EXPECT_EQ(map.GroupById(9), nullptr);
}

TEST(ShardMapTest, RouteHashUsesOnlyTheFirstKeyCell) {
  const Schema schema = DevSchema();
  const uint64_t h1 = cluster::RouteHash(schema, DevRow(7, kEpochTs, 0.5));
  const uint64_t h2 =
      cluster::RouteHash(schema, DevRow(7, kEpochTs + 999, 123.0));
  EXPECT_EQ(h1, h2) << "same series must always route to the same group";
  EXPECT_EQ(cluster::RouteHashPrefix(schema, Key{Value::Int64(7)}), h1);
  EXPECT_NE(cluster::RouteHash(schema, DevRow(8, kEpochTs, 0.5)), h1);
}

// ---- Cluster fixture: groups of two agents + coordinator on
// SimTransport, driven deterministically. ----

struct Node {
  std::string name;
  uint16_t port = 0;
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<DB> db;
  std::unique_ptr<ReplicaAgent> agent;
};

class ClusterTest : public ::testing::Test {
 protected:
  void StartCluster(int ngroups) {
    clock_ = std::make_shared<SimClock>(kEpochTs);
    SimTransportOptions topts;
    topts.clock = clock_;
    topts.conn_buffer_bytes = conn_buffer_bytes_;
    transport_ = std::make_unique<SimTransport>(topts);

    const std::vector<ShardGroupInfo> ranges =
        cluster::EvenGroups(static_cast<uint32_t>(ngroups));
    for (int g = 0; g < ngroups; g++) {
      for (int j = 0; j < 2; j++) {
        nodes_.push_back(std::make_unique<Node>());
        Node& n = *nodes_.back();
        n.name = "g" + std::to_string(g) + (j == 0 ? "a" : "b");
        n.port = static_cast<uint16_t>(9001 + g * 10 + j);
        n.env = std::make_unique<MemEnv>();
        OpenDb(n);
        StartAgent(n);
      }
    }

    cluster::CoordinatorOptions copts;
    copts.port = kCoordPort;
    copts.transport = transport_->ForNode("coord");
    copts.probe_deadline_ms = 200;
    copts.fail_threshold = 3;
    copts.client.clock = clock_;
    copts.client.connect_timeout_ms = 500;
    copts.client.read_timeout_ms = 500;
    copts.client.write_timeout_ms = 500;
    coord_ = std::make_unique<cluster::Coordinator>(copts);
    for (int g = 0; g < ngroups; g++) {
      Node& a = *nodes_[g * 2];
      Node& b = *nodes_[g * 2 + 1];
      coord_->AddGroup(static_cast<uint32_t>(g), ranges[g].hash_begin,
                       ranges[g].hash_end, {a.name, a.port}, {b.name, b.port});
    }
    ASSERT_TRUE(coord_->Start().ok());
    coord_->ProbeOnce();  // Push the initial role assignments.
  }

  void OpenDb(Node& n) {
    DbOptions dopts;
    dopts.background_maintenance = false;
    // Injected faults make flush/ship errors routine; keep them quiet.
    dopts.logger = std::make_shared<Logger>(LogLevel::kError,
                                            std::make_shared<CaptureLogSink>());
    ASSERT_TRUE(DB::Open(n.env.get(), clock_, "node", dopts, &n.db).ok());
  }

  void StartAgent(Node& n) {
    cluster::AgentOptions aopts;
    aopts.port = n.port;
    aopts.transport = transport_->ForNode(n.name);
    aopts.server = server_opts_;
    aopts.server.poll_interval_ms = 5;
    aopts.client.clock = clock_;
    aopts.client.connect_timeout_ms = 500;
    aopts.client.read_timeout_ms = 1000;
    aopts.client.write_timeout_ms = 1000;
    n.agent = std::make_unique<ReplicaAgent>(n.db.get(), aopts);
    ASSERT_TRUE(n.agent->Start().ok());
  }

  void ConnectRouter() {
    cluster::ClusterClientOptions ccopts;
    ccopts.transport = transport_->ForNode("client");
    ccopts.max_retries = 10;
    ccopts.client.clock = clock_;
    ccopts.client.connect_timeout_ms = 500;
    ccopts.client.read_timeout_ms = 1000;
    ccopts.client.write_timeout_ms = 1000;
    ccopts.client.max_retries = 0;  // The router owns the retry protocol.
    ccopts.client.backoff_sleep = [this](int64_t ms) { Pump(ms); };
    ASSERT_TRUE(
        cluster::ClusterClient::Connect("coord", kCoordPort, ccopts, &router_)
            .ok());
  }

  /// Installed as the router's backoff hook: a retrying request is what
  /// advances time and drives probe + ship rounds forward.
  void Pump(int64_t ms) {
    clock_->Advance(ms * 1000);
    if (pumping_) return;
    pumping_ = true;
    coord_->ProbeOnce();
    const ShardMap m = coord_->Map();
    for (const ShardGroupInfo& g : m.groups) {
      ReplicaAgent* p = AgentAt(g.primary);
      if (p != nullptr && p->role() == ReplicaAgent::Role::kPrimary) {
        (void)p->ShipOnce();
      }
    }
    pumping_ = false;
  }

  Node* NodeAt(const Endpoint& ep) {
    for (auto& n : nodes_) {
      if (n->name == ep.host && n->port == ep.port) return n.get();
    }
    return nullptr;
  }
  ReplicaAgent* AgentAt(const Endpoint& ep) {
    Node* n = NodeAt(ep);
    return n == nullptr ? nullptr : n->agent.get();
  }
  ReplicaAgent* PrimaryAgent(uint32_t g) {
    return AgentAt(coord_->Map().GroupById(g)->primary);
  }
  ReplicaAgent* SecondaryAgent(uint32_t g) {
    return AgentAt(coord_->Map().GroupById(g)->secondary);
  }

  /// Machine death: connections reset, server gone. The env (the "disk")
  /// survives for RestartNode.
  void KillNode(Node& n) {
    transport_->ResetNodeConnections(n.name);
    n.agent->Stop();
    n.agent.reset();
    n.db->Abandon();
    n.db.reset();
  }

  void RestartNode(Node& n) {
    OpenDb(n);
    StartAgent(n);
  }

  /// Drives probe rounds until the coordinator performs its next failover.
  void DriveFailover() {
    const uint64_t before = coord_->failovers();
    for (int i = 0; i < 20 && coord_->failovers() == before; i++) {
      clock_->Advance(1000000);
      coord_->ProbeOnce();
    }
    ASSERT_GT(coord_->failovers(), before) << "failover never happened";
  }

  /// A raw (non-routing) client straight to one node.
  std::unique_ptr<Client> RawClient(const Node& n) {
    ClientOptions copts;
    copts.clock = clock_;
    copts.transport = transport_->ForNode("raw");
    copts.connect_timeout_ms = 500;
    copts.read_timeout_ms = 1000;
    copts.write_timeout_ms = 1000;
    copts.max_retries = 0;
    std::unique_ptr<Client> c;
    EXPECT_TRUE(Client::Connect(n.name, n.port, copts, &c).ok());
    return c;
  }

  /// Local row count via the node's plain query path (works regardless of
  /// the node's cluster role).
  size_t LocalRowCount(const Node& n, const std::string& table) {
    std::unique_ptr<Client> c = RawClient(n);
    if (!c) return 0;
    std::vector<Row> rows;
    if (!c->QueryAll(table, QueryBounds{}, &rows).ok()) return 0;
    return rows.size();
  }

  /// The routed-request header every cluster opcode starts with.
  std::string RoutedHeader(ReplicaAgent* agent) {
    std::string h;
    PutVarint32(&h, agent->group());
    PutVarint64(&h, agent->epoch());
    return h;
  }

  std::shared_ptr<SimClock> clock_;
  std::unique_ptr<SimTransport> transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<cluster::Coordinator> coord_;
  std::unique_ptr<cluster::ClusterClient> router_;
  bool pumping_ = false;
  // Set before StartCluster: every agent's server options, and the
  // transport's per-direction buffer (0 = unbounded).
  ServerOptions server_opts_;
  size_t conn_buffer_bytes_ = 0;
};

TEST_F(ClusterTest, CoordinatorAssignsRolesOnFirstProbe) {
  StartCluster(1);
  EXPECT_EQ(nodes_[0]->agent->role(), ReplicaAgent::Role::kPrimary);
  EXPECT_EQ(nodes_[1]->agent->role(), ReplicaAgent::Role::kSecondary);
  EXPECT_EQ(nodes_[0]->agent->epoch(), coord_->epoch());
  EXPECT_EQ(nodes_[1]->agent->epoch(), coord_->epoch());
  const ShardMap m = coord_->Map();
  ASSERT_EQ(m.groups.size(), 1u);
  EXPECT_TRUE(m.GroupById(0)->primary == Endpoint({"g0a", 9001}));
}

TEST_F(ClusterTest, RoutedInsertQueryAndLatestRow) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  for (int64_t d = 1; d <= 3; d++) {
    std::vector<Row> rows;
    for (int i = 0; i < 5; i++) {
      rows.push_back(DevRow(d, kEpochTs + i * 1000000, d + i * 0.5));
    }
    ASSERT_TRUE(router_->Insert("dev", rows).ok());
  }
  std::vector<Row> all;
  ASSERT_TRUE(router_->QueryAll("dev", QueryBounds{}, &all).ok());
  ASSERT_EQ(all.size(), 15u);
  // Key order: by device, then ts.
  for (size_t i = 1; i < all.size(); i++) {
    const int64_t pd = all[i - 1][0].i64(), cd = all[i][0].i64();
    ASSERT_TRUE(pd < cd || (pd == cd && all[i - 1][1].i64() < all[i][1].i64()));
  }
  Row latest;
  bool found = false;
  ASSERT_TRUE(
      router_->LatestRow("dev", Key{Value::Int64(2)}, &latest, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(latest[0].i64(), 2);
  EXPECT_EQ(latest[1].i64(), kEpochTs + 4 * 1000000);
}

TEST_F(ClusterTest, QueryFansOutAndMergesAcrossGroups) {
  StartCluster(2);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  const Schema schema = DevSchema();
  const ShardMap m = coord_->Map();
  // Pick four devices from each group so the fan-out path is guaranteed
  // to have rows on both sides (the routing hash is not uniform over tiny
  // consecutive id ranges).
  std::vector<int64_t> devices;
  int per_group[2] = {0, 0};
  for (int64_t d = 1; d <= 1000 && (per_group[0] < 4 || per_group[1] < 4);
       d++) {
    const uint64_t h = cluster::RouteHashPrefix(schema, Key{Value::Int64(d)});
    const uint32_t gid = m.GroupForHash(h)->id;
    if (per_group[gid] >= 4) continue;
    per_group[gid]++;
    devices.push_back(d);
  }
  ASSERT_TRUE(per_group[0] == 4 && per_group[1] == 4)
      << "could not find devices hashing into both groups";
  int inserted = 0;
  for (int64_t d : devices) {
    std::vector<Row> rows;
    for (int i = 0; i < 3; i++) {
      rows.push_back(DevRow(d, kEpochTs + i * 1000000, 0.25 * i));
    }
    ASSERT_TRUE(router_->Insert("dev", rows).ok());
    inserted += 3;
  }

  std::vector<Row> all;
  ASSERT_TRUE(router_->QueryAll("dev", QueryBounds{}, &all).ok());
  ASSERT_EQ(all.size(), static_cast<size_t>(inserted));
  for (size_t i = 1; i < all.size(); i++) {
    const int64_t pd = all[i - 1][0].i64(), cd = all[i][0].i64();
    ASSERT_TRUE(pd < cd || (pd == cd && all[i - 1][1].i64() < all[i][1].i64()))
        << "fan-out merge broke global key order at row " << i;
  }

  // A bounded query returns the FIRST rows of that same global order.
  QueryBounds bounds;
  bounds.limit = 5;
  QueryResult limited;
  ASSERT_TRUE(router_->Query("dev", bounds, &limited).ok());
  ASSERT_EQ(limited.rows.size(), 5u);
  for (size_t i = 0; i < limited.rows.size(); i++) {
    EXPECT_EQ(limited.rows[i][0].i64(), all[i][0].i64());
    EXPECT_EQ(limited.rows[i][1].i64(), all[i][1].i64());
  }

  // A single-prefix query touches exactly one group and still answers.
  QueryBounds one;
  const int64_t pin = devices[2];
  one.min_key = KeyBound{Key{Value::Int64(pin)}, true};
  one.max_key = KeyBound{Key{Value::Int64(pin)}, true};
  std::vector<Row> pinned;
  ASSERT_TRUE(router_->QueryAll("dev", one, &pinned).ok());
  ASSERT_EQ(pinned.size(), 3u);
  for (const Row& r : pinned) EXPECT_EQ(r[0].i64(), pin);
}

// A routed scan passes the same admission as a direct one: with the one
// scan slot held and no wait queue, the next routed scan is shed.
TEST_F(ClusterTest, RoutedScanGoesThroughAdmission) {
  conn_buffer_bytes_ = 1024;
  server_opts_.query_budget_bytes = 2 * 1024;
  server_opts_.admission.max_concurrent_scans = 1;
  server_opts_.admission.max_queued_scans = 0;
  StartCluster(1);
  ConnectRouter();
  const Schema schema = DevSchema();
  ASSERT_TRUE(router_->CreateTable("dev", schema, 0).ok());
  for (int b = 0; b < 10; b++) {
    std::vector<Row> rows;
    for (int i = 0; i < 200; i++) {
      rows.push_back(DevRow(i % 20, kEpochTs + (b * 200 + i) * 1000, 0.5));
    }
    ASSERT_TRUE(router_->Insert("dev", rows).ok());
  }
  ReplicaAgent* primary = PrimaryAgent(0);
  const Node& node = *NodeAt(coord_->Map().GroupById(0)->primary);
  std::string req = RoutedHeader(primary);
  req.push_back(static_cast<char>(MsgType::kQuery));
  PutLengthPrefixedSlice(&req, "dev");
  PutVarint32(&req, schema.version());
  wire::EncodeBounds(&req, schema, QueryBounds{});

  // A routed scan whose reader stops holds the slot, parked on
  // backpressure.
  std::unique_ptr<net::Connection> hold;
  ASSERT_TRUE(
      transport_->ForNode("raw")->Connect(node.name, node.port, 1000, &hold)
          .ok());
  const std::string frame = wire::Frame(MsgType::kRoutedQuery, req);
  ASSERT_TRUE(hold->WriteAll(frame.data(), frame.size()).ok());
  MetricsRegistry& m = primary->server()->metrics();
  for (int i = 0; i < 1000 && m.GetGauge("server.scans_active")->Value() == 0;
       i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(m.GetGauge("server.scans_active")->Value(), 1);

  std::unique_ptr<Client> raw = RawClient(node);
  MsgType rt;
  std::string rb;
  ASSERT_TRUE(raw->Call(MsgType::kRoutedQuery, req, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  Slice in(rb);
  ASSERT_FALSE(in.empty());
  EXPECT_EQ(static_cast<ErrCode>(in[0]), ErrCode::kResourceExhausted);
  in.remove_prefix(1);
  Slice msg;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &msg));
  EXPECT_EQ(msg.ToString(), "admission queue full");
  EXPECT_EQ(m.GetCounter("server.query_shed.queue_full")->Value(), 1);
  EXPECT_GE(m.GetHistogram("server.op.routed_query.micros")->Snapshot().count,
            1u);
  EXPECT_EQ(m.GetHistogram("server.op.query.micros")->Snapshot().count, 0u);
}

TEST_F(ClusterTest, StaleEpochGetsWrongShard) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  ReplicaAgent* primary = PrimaryAgent(0);
  std::unique_ptr<Client> raw = RawClient(*NodeAt(coord_->Map().GroupById(0)->primary));
  ASSERT_TRUE(raw != nullptr);

  std::string req;
  PutVarint32(&req, primary->group());
  PutVarint64(&req, primary->epoch() + 5);  // From the "future": stale node.
  req += InsertBody("dev", DevSchema(), {DevRow(1, kEpochTs, 1.0)});
  MsgType rt;
  std::string rb;
  ASSERT_TRUE(raw->Call(MsgType::kRoutedInsert, req, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  ASSERT_FALSE(rb.empty());
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kWrongShard);

  // A secondary must refuse routed primary traffic the same way.
  ReplicaAgent* secondary = SecondaryAgent(0);
  std::unique_ptr<Client> raw2 =
      RawClient(*NodeAt(coord_->Map().GroupById(0)->secondary));
  std::string req2 = RoutedHeader(secondary);
  req2 += InsertBody("dev", DevSchema(), {DevRow(1, kEpochTs, 1.0)});
  ASSERT_TRUE(raw2->Call(MsgType::kRoutedInsert, req2, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kWrongShard);
}

TEST_F(ClusterTest, SysNamespaceIsWalledOffOnEveryClusterSurface) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());

  // Router-side guards.
  EXPECT_FALSE(router_->CreateTable("__sys_evil", DevSchema(), 0).ok());
  EXPECT_FALSE(
      router_->Insert("__sys_metrics_1s", {DevRow(1, kEpochTs, 1.0)}).ok());

  // Agent-side guards, for a client that bypasses the router.
  ReplicaAgent* primary = PrimaryAgent(0);
  std::unique_ptr<Client> raw =
      RawClient(*NodeAt(coord_->Map().GroupById(0)->primary));
  MsgType rt;
  std::string rb;

  std::string create = RoutedHeader(primary);
  {
    std::string inner;
    PutLengthPrefixedSlice(&inner, "__sys_evil");
    DevSchema().EncodeTo(&inner);
    PutVarint64(&inner, 0);  // ttl
    create += inner;
  }
  ASSERT_TRUE(raw->Call(MsgType::kRoutedCreate, create, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kInvalidArgument);

  std::string ins = RoutedHeader(primary);
  ins += InsertBody("__sys_metrics_1s", DevSchema(), {DevRow(1, kEpochTs, 1.0)});
  ASSERT_TRUE(raw->Call(MsgType::kRoutedInsert, ins, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kInvalidArgument);

  // Replication-stream guard on the secondary: a redo entry naming a
  // __sys table is rejected, not buffered.
  ReplicaAgent* secondary = SecondaryAgent(0);
  std::unique_ptr<Client> raw2 =
      RawClient(*NodeAt(coord_->Map().GroupById(0)->secondary));
  std::string rep = RoutedHeader(secondary);
  PutVarint64(&rep, 777);  // stream
  PutVarint64(&rep, 0);    // floor
  PutVarint64(&rep, 1);    // first_seq
  PutVarint32(&rep, 1);    // count
  rep.push_back(static_cast<char>(1));
  PutLengthPrefixedSlice(
      &rep, InsertBody("__sys_metrics_1s", DevSchema(),
                       {DevRow(1, kEpochTs, 1.0)}));
  ASSERT_TRUE(raw2->Call(MsgType::kReplicateRows, rep, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kInvalidArgument);
  EXPECT_EQ(secondary->redo_size(), 0u);

  // Ship guard: __sys tablets never cross the wire.
  std::string ship = RoutedHeader(secondary);
  PutLengthPrefixedSlice(&ship, "__sys_metrics_1s");
  DevSchema().EncodeTo(&ship);
  PutVarint64(&ship, 0);  // ttl
  TabletMeta meta;
  meta.filename = "000001.tab";
  cluster::EncodeTabletMeta(&ship, meta);
  PutFixed32(&ship, crc32c::Mask(crc32c::Value("", 0)));
  ASSERT_TRUE(raw2->Call(MsgType::kShipTablet, ship, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kInvalidArgument);
}

TEST_F(ClusterTest, ShipOnceMakesSecondaryCatchUpAndIsIdempotent) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 50; i++) {
    rows.push_back(DevRow(1 + i % 4, kEpochTs + i * 1000000, i * 0.5));
  }
  ASSERT_TRUE(router_->Insert("dev", rows).ok());

  Node* sec_node = NodeAt(coord_->Map().GroupById(0)->secondary);
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 0u);
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 50u);

  // Re-shipping an already-synced pair is a no-op, not a duplication.
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 50u);
}

TEST_F(ClusterTest, DuplicateShipFrameIsIdempotent) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20; i++) rows.push_back(DevRow(1, kEpochTs + i, 1.0));
  ASSERT_TRUE(router_->Insert("dev", rows).ok());
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());

  // Replay one of the primary's tablets at the secondary verbatim — as a
  // torn ship round would after a reconnect.
  Node* pri_node = NodeAt(coord_->Map().GroupById(0)->primary);
  Node* sec_node = NodeAt(coord_->Map().GroupById(0)->secondary);
  std::shared_ptr<Table> table = pri_node->db->GetTable("dev");
  ASSERT_TRUE(table != nullptr);
  const std::vector<TabletMeta> tablets = table->DiskTablets();
  ASSERT_FALSE(tablets.empty());
  TabletMeta meta;
  std::string bytes;
  ASSERT_TRUE(table->ExportTablet(tablets[0].filename, &meta, &bytes).ok());

  ReplicaAgent* secondary = SecondaryAgent(0);
  std::string ship = RoutedHeader(secondary);
  PutLengthPrefixedSlice(&ship, "dev");
  table->schema()->EncodeTo(&ship);
  PutVarint64(&ship, 0);
  cluster::EncodeTabletMeta(&ship, meta);
  PutFixed32(&ship, crc32c::Mask(crc32c::Value(bytes.data(), bytes.size())));
  ship += bytes;

  std::unique_ptr<Client> raw = RawClient(*sec_node);
  MsgType rt;
  std::string rb;
  ASSERT_TRUE(raw->Call(MsgType::kShipTablet, ship, &rt, &rb).ok());
  EXPECT_EQ(rt, MsgType::kOk);
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 20u)
      << "duplicate tablet install duplicated rows";
}

TEST_F(ClusterTest, TornShipIsRejectedByCrc) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20; i++) rows.push_back(DevRow(1, kEpochTs + i, 1.0));
  ASSERT_TRUE(router_->Insert("dev", rows).ok());
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());

  Node* pri_node = NodeAt(coord_->Map().GroupById(0)->primary);
  Node* sec_node = NodeAt(coord_->Map().GroupById(0)->secondary);
  std::shared_ptr<Table> table = pri_node->db->GetTable("dev");
  const std::vector<TabletMeta> tablets = table->DiskTablets();
  ASSERT_FALSE(tablets.empty());
  TabletMeta meta;
  std::string bytes;
  ASSERT_TRUE(table->ExportTablet(tablets[0].filename, &meta, &bytes).ok());

  const size_t sec_tablets_before =
      sec_node->db->GetTable("dev")->NumDiskTablets();

  // CRC computed over the intact bytes, payload corrupted in flight.
  ReplicaAgent* secondary = SecondaryAgent(0);
  std::string ship = RoutedHeader(secondary);
  PutLengthPrefixedSlice(&ship, "dev");
  table->schema()->EncodeTo(&ship);
  PutVarint64(&ship, 0);
  cluster::EncodeTabletMeta(&ship, meta);
  PutFixed32(&ship, crc32c::Mask(crc32c::Value(bytes.data(), bytes.size())));
  std::string torn = bytes;
  torn[torn.size() / 2] ^= 0x40;
  ship += torn;

  std::unique_ptr<Client> raw = RawClient(*sec_node);
  MsgType rt;
  std::string rb;
  ASSERT_TRUE(raw->Call(MsgType::kShipTablet, ship, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kCorruption);
  EXPECT_EQ(sec_node->db->GetTable("dev")->NumDiskTablets(),
            sec_tablets_before)
      << "a corrupt ship must not install anything";

  // Truncated payload fails the same check.
  std::string short_ship = RoutedHeader(secondary);
  PutLengthPrefixedSlice(&short_ship, "dev");
  table->schema()->EncodeTo(&short_ship);
  PutVarint64(&short_ship, 0);
  cluster::EncodeTabletMeta(&short_ship, meta);
  PutFixed32(&short_ship,
             crc32c::Mask(crc32c::Value(bytes.data(), bytes.size())));
  short_ship += bytes.substr(0, bytes.size() / 2);
  ASSERT_TRUE(raw->Call(MsgType::kShipTablet, short_ship, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kError);
  EXPECT_EQ(static_cast<ErrCode>(rb[0]), ErrCode::kCorruption);
}

TEST_F(ClusterTest, FailoverPromotesSecondaryAndRouterRidesThrough) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; i++) rows.push_back(DevRow(1, kEpochTs + i, i * 1.0));
  ASSERT_TRUE(router_->Insert("dev", rows).ok());
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());  // Make them durable.

  const uint64_t epoch_before = coord_->epoch();
  const Endpoint old_primary = coord_->Map().GroupById(0)->primary;
  const Endpoint old_secondary = coord_->Map().GroupById(0)->secondary;
  KillNode(*NodeAt(old_primary));

  // The next routed insert hits the dead node; its retry backoffs pump
  // probe rounds until the coordinator promotes the secondary, and then
  // the refetched map routes the same request to the new primary.
  std::vector<Row> rows2;
  for (int i = 0; i < 10; i++) {
    rows2.push_back(DevRow(2, kEpochTs + i, i * 2.0));
  }
  ASSERT_TRUE(router_->Insert("dev", rows2).ok());

  EXPECT_EQ(coord_->failovers(), 1u);
  EXPECT_GT(coord_->epoch(), epoch_before);
  EXPECT_TRUE(coord_->Map().GroupById(0)->primary == old_secondary);
  EXPECT_EQ(AgentAt(old_secondary)->role(), ReplicaAgent::Role::kPrimary);

  std::vector<Row> all;
  ASSERT_TRUE(router_->QueryAll("dev", QueryBounds{}, &all).ok());
  EXPECT_EQ(all.size(), 20u)
      << "shipped rows or post-failover rows went missing";
}

TEST_F(ClusterTest, BufferedRedoEntriesReplayOnPromotion) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());  // Create on both nodes.

  // Hand the secondary a redo entry the way a mid-round primary crash
  // would leave one: acknowledged rows that never made it into a shipped
  // tablet. It must buffer, not apply.
  ReplicaAgent* secondary = SecondaryAgent(0);
  Node* sec_node = NodeAt(coord_->Map().GroupById(0)->secondary);
  const std::vector<Row> acked = {DevRow(5, kEpochTs + 1, 1.5),
                                  DevRow(5, kEpochTs + 2, 2.5),
                                  DevRow(5, kEpochTs + 3, 3.5)};
  std::string rep = RoutedHeader(secondary);
  PutVarint64(&rep, 4242);  // stream
  PutVarint64(&rep, 0);     // floor
  PutVarint64(&rep, 1);     // first_seq
  PutVarint32(&rep, 1);     // count
  rep.push_back(static_cast<char>(1));
  PutLengthPrefixedSlice(&rep, InsertBody("dev", DevSchema(), acked));

  std::unique_ptr<Client> raw = RawClient(*sec_node);
  MsgType rt;
  std::string rb;
  ASSERT_TRUE(raw->Call(MsgType::kReplicateRows, rep, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kRedoAck);
  {
    Slice in(rb);
    uint64_t ack = 0;
    ASSERT_TRUE(GetVarint64(&in, &ack));
    EXPECT_EQ(ack, 1u);
  }
  EXPECT_EQ(secondary->redo_size(), 1u);
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 0u)
      << "redo entries must not apply before promotion";

  // Resending the same entry is absorbed, not double-buffered.
  ASSERT_TRUE(raw->Call(MsgType::kReplicateRows, rep, &rt, &rb).ok());
  ASSERT_EQ(rt, MsgType::kRedoAck);
  EXPECT_EQ(secondary->redo_size(), 1u);

  // Primary dies; promotion replays the buffer. The acked-but-unflushed
  // batch survives the failover.
  KillNode(*NodeAt(coord_->Map().GroupById(0)->primary));
  DriveFailover();
  EXPECT_EQ(secondary->role(), ReplicaAgent::Role::kPrimary);
  EXPECT_EQ(secondary->redo_size(), 0u);
  EXPECT_EQ(LocalRowCount(*sec_node, "dev"), 3u);

  std::vector<Row> all;
  ASSERT_TRUE(router_->QueryAll("dev", QueryBounds{}, &all).ok());
  EXPECT_EQ(all.size(), 3u);
}

TEST_F(ClusterTest, StaleExPrimaryRejoinsAsAStrictPrefixSecondary) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());
  std::vector<Row> shared;
  for (int i = 0; i < 10; i++) shared.push_back(DevRow(1, kEpochTs + i, 1.0));
  ASSERT_TRUE(router_->Insert("dev", shared).ok());
  ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());

  // Divergence: the primary flushes rows the secondary never receives.
  Node* old_pri = NodeAt(coord_->Map().GroupById(0)->primary);
  std::vector<Row> divergent;
  for (int i = 0; i < 5; i++) divergent.push_back(DevRow(2, kEpochTs + i, 2.0));
  ASSERT_TRUE(router_->Insert("dev", divergent).ok());
  ASSERT_TRUE(old_pri->db->FlushAll().ok());  // On disk — survives restart.

  KillNode(*old_pri);
  DriveFailover();
  Node* new_pri = NodeAt(coord_->Map().GroupById(0)->primary);
  ASSERT_NE(new_pri, old_pri);

  // The new primary moves on without ever seeing the divergent rows.
  std::vector<Row> fresh;
  for (int i = 0; i < 7; i++) fresh.push_back(DevRow(3, kEpochTs + i, 3.0));
  ASSERT_TRUE(router_->Insert("dev", fresh).ok());

  // Old primary restarts with its divergent tablet still on disk and is
  // demoted by the next assignment push.
  RestartNode(*old_pri);
  for (int i = 0;
       i < 10 && old_pri->agent->role() != ReplicaAgent::Role::kSecondary;
       i++) {
    clock_->Advance(1000000);
    coord_->ProbeOnce();
  }
  ASSERT_EQ(old_pri->agent->role(), ReplicaAgent::Role::kSecondary);
  EXPECT_EQ(LocalRowCount(*old_pri, "dev"), 15u)
      << "divergent history still visible before the first ship round";

  // One ship round from the new primary makes its on-disk set
  // authoritative: the divergent tablet is pruned, missing tablets land,
  // and the rejoined node is a strict prefix again.
  ASSERT_TRUE(new_pri->agent->ShipOnce().ok());
  EXPECT_EQ(LocalRowCount(*new_pri, "dev"), 17u);
  EXPECT_EQ(LocalRowCount(*old_pri, "dev"), 17u)
      << "rejoined secondary did not converge to the new primary's history";
  std::unique_ptr<Client> raw = RawClient(*old_pri);
  std::vector<Row> dev2;
  QueryBounds b2;
  b2.min_key = KeyBound{Key{Value::Int64(2)}, true};
  b2.max_key = KeyBound{Key{Value::Int64(2)}, true};
  ASSERT_TRUE(raw->QueryAll("dev", b2, &dev2).ok());
  EXPECT_TRUE(dev2.empty())
      << "rows outside the promoted primary's history must be pruned";
}

TEST_F(ClusterTest, ScriptedFailoverWorkloadHasZeroFailedRequests) {
  StartCluster(1);
  ConnectRouter();
  ASSERT_TRUE(router_->CreateTable("dev", DevSchema(), 0).ok());

  int inserted = 0;
  int failed = 0;
  for (int i = 0; i < 20; i++) {
    if (i == 10) {
      // Ship first so everything acked so far is on both replicas, then
      // lose the primary mid-workload.
      ASSERT_TRUE(PrimaryAgent(0)->ShipOnce().ok());
      KillNode(*NodeAt(coord_->Map().GroupById(0)->primary));
    }
    std::vector<Row> batch = {
        DevRow(1 + i % 4, kEpochTs + i * 1000000, i * 0.5)};
    if (router_->Insert("dev", batch).ok()) {
      inserted++;
    } else {
      failed++;
    }
    std::vector<Row> probe_rows;
    if (!router_->QueryAll("dev", QueryBounds{}, &probe_rows).ok()) failed++;
  }
  EXPECT_EQ(failed, 0) << "client-visible failures across a primary kill";
  EXPECT_EQ(inserted, 20);
  EXPECT_EQ(coord_->failovers(), 1u);

  std::vector<Row> all;
  ASSERT_TRUE(router_->QueryAll("dev", QueryBounds{}, &all).ok());
  EXPECT_EQ(all.size(), 20u) << "acked rows lost across the failover";
}

TEST_F(ClusterTest, CoordinatorProbesUseTheInlinePingPath) {
  StartCluster(1);
  // A raw ping against a node answers under the probe deadline even while
  // the event loop is the only thread serving it.
  std::unique_ptr<Client> raw =
      RawClient(*NodeAt(coord_->Map().GroupById(0)->primary));
  ASSERT_TRUE(raw->Ping(200).ok());

  // A dead node fails the probe instead of hanging it.
  Node* sec = NodeAt(coord_->Map().GroupById(0)->secondary);
  std::unique_ptr<Client> raw2 = RawClient(*sec);
  KillNode(*sec);
  EXPECT_FALSE(raw2->Ping(200).ok());
  RestartNode(*sec);
  // The first push after a restart fails on the coordinator's stale
  // cached connection and drops it; the next round reconnects.
  for (int i = 0;
       i < 5 && sec->agent->role() != ReplicaAgent::Role::kSecondary; i++) {
    clock_->Advance(1000000);
    coord_->ProbeOnce();
  }
  EXPECT_EQ(sec->agent->role(), ReplicaAgent::Role::kSecondary);
}

}  // namespace
}  // namespace lt
