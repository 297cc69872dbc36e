// Tests for the deterministic simulation stack: SimTransport fault
// semantics, client retry policy under an injected clock, the crash-point
// spec registry, bounded DB shutdown, the device-workload oracle
// (sim/device_oracle.h) on hand-built inputs, and the seeded chaos harness's
// determinism and oracle (sim/chaos.h, wired into CI as the pinned-seed
// sweep — override the seed count with LT_SIM_SEED_COUNT).
//
// The robustness cases that used to run over real TCP with sleeps (hung
// server, server restart + reconnect) live here now on SimTransport, where
// the failure schedule is exact instead of raced; net_test keeps the
// real-TCP smoke suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/chaos.h"
#include "sim/cluster_chaos.h"
#include "sim/device_oracle.h"
#include "sim/sim_transport.h"
#include "tests/test_util.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace lt {
namespace {

using testutil::UsageRow;
using testutil::UsageSchema;

int64_t RealElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ----- SimTransport: the byte-stream contract and each fault knob. -----

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest() {
    sim::SimTransportOptions opts;
    opts.clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
    transport_ = std::make_unique<sim::SimTransport>(opts);
  }

  // One established client/server connection pair on `port`.
  void MakePair(uint16_t port, std::unique_ptr<net::Listener>* listener,
                std::unique_ptr<net::Connection>* client,
                std::unique_ptr<net::Connection>* server) {
    ASSERT_TRUE(transport_->Listen(port, listener).ok());
    ASSERT_TRUE(
        transport_->Connect("sim", port, /*timeout_ms=*/1000, client).ok());
    ASSERT_TRUE((*listener)->Accept(server).ok());
  }

  std::unique_ptr<sim::SimTransport> transport_;
};

TEST_F(SimTransportTest, ConnectSucceedsBeforeAcceptLikeTcpBacklog) {
  std::unique_ptr<net::Listener> listener;
  ASSERT_TRUE(transport_->Listen(9000, &listener).ok());
  EXPECT_EQ(listener->port(), 9000);

  // The handshake completes against the backlog; no Accept has run yet.
  std::unique_ptr<net::Connection> client;
  ASSERT_TRUE(transport_->Connect("sim", 9000, 1000, &client).ok());
  ASSERT_TRUE(client->WriteAll("hi", 2).ok());

  // The server accepts later and finds the bytes already waiting.
  std::unique_ptr<net::Connection> server;
  ASSERT_TRUE(listener->Accept(&server).ok());
  char buf[2];
  ASSERT_TRUE(server->ReadAll(buf, 2).ok());
  EXPECT_EQ(std::string(buf, 2), "hi");

  // And the reply flows back.
  ASSERT_TRUE(server->WriteAll("ok!", 3).ok());
  char rbuf[3];
  ASSERT_TRUE(client->ReadAll(rbuf, 3).ok());
  EXPECT_EQ(std::string(rbuf, 3), "ok!");
  EXPECT_EQ(transport_->stats().accepts, 1u);
  EXPECT_EQ(transport_->stats().connects, 1u);
}

TEST_F(SimTransportTest, WaitReadableSeesPendingData) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9001, &listener, &client, &server);

  bool ready = true;
  ASSERT_TRUE(server->WaitReadable(0, &ready).ok());
  EXPECT_FALSE(ready);
  ASSERT_TRUE(client->WriteAll("x", 1).ok());
  ASSERT_TRUE(server->WaitReadable(0, &ready).ok());
  EXPECT_TRUE(ready);
}

TEST_F(SimTransportTest, EofTaxonomyMatchesSockets) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9002, &listener, &client, &server);

  // Peer closes cleanly with a partial frame in flight: the first ReadAll
  // consumes what was delivered, the next read at byte 0 is Unavailable,
  // and a read that got some bytes then hit EOF is a NetworkError.
  ASSERT_TRUE(client->WriteAll("abc", 3).ok());
  client.reset();
  char buf[2];
  ASSERT_TRUE(server->ReadAll(buf, 2).ok());
  // 1 byte remains, 4 wanted: EOF mid-read -> torn frame.
  char big[4];
  Status s = server->ReadAll(big, 4);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  EXPECT_NE(s.ToString().find("mid-read"), std::string::npos) << s.ToString();
  // Nothing left at all: EOF before the first byte.
  s = server->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST_F(SimTransportTest, ReadDeadlineOnSilentPeer) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9003, &listener, &client, &server);

  client->set_read_timeout_ms(50);
  char buf[1];
  Status s = client->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST_F(SimTransportTest, ResetAllConnectionsDrainsDeliveredBytesFirst) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9004, &listener, &client, &server);

  // Bytes already in flight when the reset hits stay readable — the reset
  // models the peer machine dying, not the network un-sending data.
  ASSERT_TRUE(client->WriteAll("ab", 2).ok());
  transport_->ResetAllConnections();
  char buf[2];
  ASSERT_TRUE(server->ReadAll(buf, 2).ok());
  EXPECT_EQ(std::string(buf, 2), "ab");

  // Past the delivered bytes both ends see the reset.
  Status s = server->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  EXPECT_NE(s.ToString().find("reset"), std::string::npos) << s.ToString();
  s = client->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  s = client->WriteAll("x", 1);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  EXPECT_GE(transport_->stats().resets_injected, 1u);
}

TEST_F(SimTransportTest, TruncatedServerWriteDeliversPrefixThenResets) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9005, &listener, &client, &server);

  // The server's next write is torn after 3 bytes — what a crash mid
  // response leaves on the wire.
  transport_->TruncateNextServerWrite(3);
  ASSERT_TRUE(server->WriteAll("abcdef", 6).ok());
  char buf[3];
  ASSERT_TRUE(client->ReadAll(buf, 3).ok());
  EXPECT_EQ(std::string(buf, 3), "abc");
  Status s = client->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  EXPECT_EQ(transport_->stats().writes_truncated, 1u);
}

TEST_F(SimTransportTest, DelayedWriteLeapsSimClockInsteadOfSleeping) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9006, &listener, &client, &server);

  const Timestamp before = transport_->clock()->Now();
  transport_->DelayNextWrite(5 * kMicrosPerSecond);
  ASSERT_TRUE(client->WriteAll("z", 1).ok());

  auto start = std::chrono::steady_clock::now();
  char buf[1];
  ASSERT_TRUE(server->ReadAll(buf, 1).ok());
  EXPECT_EQ(buf[0], 'z');
  // The reader leapt the clock to the delivery time; no real 5 s passed.
  EXPECT_GE(transport_->clock()->Now(), before + 5 * kMicrosPerSecond);
  EXPECT_LT(RealElapsedMs(start), 2000);
  EXPECT_EQ(transport_->stats().writes_delayed, 1u);
}

TEST_F(SimTransportTest, PartitionBlackholesWritesAndChargesReadsToSimClock) {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Connection> client, server;
  MakePair(9007, &listener, &client, &server);

  transport_->SetPartitioned(true);
  EXPECT_TRUE(transport_->partitioned());

  // Writes vanish silently (the sender cannot tell), reads run out their
  // deadline on SimClock and fail in microseconds of real time.
  ASSERT_TRUE(client->WriteAll("lost", 4).ok());
  EXPECT_EQ(transport_->stats().bytes_blackholed, 4u);

  const Timestamp before = transport_->clock()->Now();
  server->set_read_timeout_ms(30'000);
  auto start = std::chrono::steady_clock::now();
  char buf[1];
  Status s = server->ReadAll(buf, 1);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_GE(transport_->clock()->Now(), before + 30 * kMicrosPerSecond);
  EXPECT_LT(RealElapsedMs(start), 2000);

  // New connects are refused during the partition.
  std::unique_ptr<net::Connection> extra;
  EXPECT_FALSE(transport_->Connect("sim", 9007, 100, &extra).ok());

  // Healing restores the stream for traffic written after the partition.
  transport_->SetPartitioned(false);
  ASSERT_TRUE(client->WriteAll("ok", 2).ok());
  char buf2[2];
  ASSERT_TRUE(server->ReadAll(buf2, 2).ok());
  EXPECT_EQ(std::string(buf2, 2), "ok");
}

TEST_F(SimTransportTest, FailNextConnectsRefusesExactlyN) {
  std::unique_ptr<net::Listener> listener;
  ASSERT_TRUE(transport_->Listen(9008, &listener).ok());

  transport_->FailNextConnects(2);
  std::unique_ptr<net::Connection> conn;
  for (int i = 0; i < 2; i++) {
    Status s = transport_->Connect("sim", 9008, 100, &conn);
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(s.ToString().find("refused"), std::string::npos) << s.ToString();
  }
  EXPECT_TRUE(transport_->Connect("sim", 9008, 100, &conn).ok());
  EXPECT_EQ(transport_->stats().connects, 3u);
  EXPECT_EQ(transport_->stats().connects_failed, 2u);
}

TEST_F(SimTransportTest, ConnectWithoutListenerIsRefused) {
  std::unique_ptr<net::Connection> conn;
  Status s = transport_->Connect("sim", 9999, 100, &conn);
  EXPECT_TRUE(s.IsNetworkError()) << s.ToString();
  EXPECT_NE(s.ToString().find("refused"), std::string::npos) << s.ToString();
}

TEST_F(SimTransportTest, ReorderNextAcceptJumpsTheQueue) {
  std::unique_ptr<net::Listener> listener;
  ASSERT_TRUE(transport_->Listen(9009, &listener).ok());

  // First connection queues normally; the second overtakes it.
  std::unique_ptr<net::Connection> c1, c2;
  ASSERT_TRUE(transport_->Connect("sim", 9009, 100, &c1).ok());
  ASSERT_TRUE(c1->WriteAll("1", 1).ok());
  transport_->ReorderNextAccept();
  ASSERT_TRUE(transport_->Connect("sim", 9009, 100, &c2).ok());
  ASSERT_TRUE(c2->WriteAll("2", 1).ok());

  std::unique_ptr<net::Connection> first, second;
  char buf[1];
  ASSERT_TRUE(listener->Accept(&first).ok());
  ASSERT_TRUE(first->ReadAll(buf, 1).ok());
  EXPECT_EQ(buf[0], '2');
  ASSERT_TRUE(listener->Accept(&second).ok());
  ASSERT_TRUE(second->ReadAll(buf, 1).ok());
  EXPECT_EQ(buf[0], '1');
}

TEST_F(SimTransportTest, CloseReleasesPortAndResetsPendingBacklog) {
  std::unique_ptr<net::Listener> listener;
  ASSERT_TRUE(transport_->Listen(9010, &listener).ok());

  // Binding the same port twice fails while the first listener is live.
  std::unique_ptr<net::Listener> dup;
  EXPECT_FALSE(transport_->Listen(9010, &dup).ok());

  // A connection parked in the backlog when the listener closes is reset.
  std::unique_ptr<net::Connection> pending;
  ASSERT_TRUE(transport_->Connect("sim", 9010, 100, &pending).ok());
  listener->Close();
  char buf[1];
  EXPECT_TRUE(pending->ReadAll(buf, 1).IsNetworkError());

  // Accept after Close reports the closure, and the port is reusable — the
  // restart-on-same-port sequence servers perform.
  std::unique_ptr<net::Connection> conn;
  Status s = listener->Accept(&conn);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  std::unique_ptr<net::Listener> again;
  EXPECT_TRUE(transport_->Listen(9010, &again).ok());
}

// ----- Server + Client running unchanged over the simulated network. -----

TEST(SimServerTest, EndToEndRoundTripOverSimTransport) {
  sim::SimTransportOptions topts;
  topts.clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  sim::SimTransport transport(topts);

  MemEnv env;
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, topts.clock, "/srv", dopts, &db).ok());

  ServerOptions sopts;
  sopts.port = 7500;
  sopts.transport = &transport;
  sopts.poll_interval_ms = 5;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.transport = &transport;
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("sim", 7500, copts, &client).ok());

  ASSERT_TRUE(client->CreateTable("usage", UsageSchema(), 0).ok());
  Timestamp t = topts.clock->Now();
  std::vector<Row> rows;
  for (int i = 0; i < 700; i++) rows.push_back(UsageRow(1, i, t + i, i, 0.5));
  ASSERT_TRUE(client->Insert("usage", rows).ok());
  std::vector<Row> got;
  ASSERT_TRUE(client->QueryAll("usage", QueryBounds{}, &got).ok());
  ASSERT_EQ(got.size(), 700u);
  EXPECT_EQ(got[42][3].i64(), 42);

  client.reset();
  server.Stop();
}

// Migrated from net_test's real-TCP version: a listener that never accepts.
// Over SimTransport the handshake's backlog semantics are guaranteed, not
// an artifact of kernel timing.
TEST(SimServerTest, ClientDeadlineOnHungServer) {
  sim::SimTransport transport;
  std::unique_ptr<net::Listener> listener;
  ASSERT_TRUE(transport.Listen(7501, &listener).ok());

  ClientOptions copts;
  copts.transport = &transport;
  copts.connect_timeout_ms = 2000;
  copts.read_timeout_ms = 100;
  copts.max_retries = 0;
  std::unique_ptr<Client> client;
  auto start = std::chrono::steady_clock::now();
  Status s = Client::Connect("sim", 7501, copts, &client);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_LT(RealElapsedMs(start), 2000);
}

// Migrated from net_test's real-TCP version, which needed a timed restart
// thread; here the outage window is exact: the retrying client fails while
// the port is dead and recovers the moment a new server binds it.
TEST(SimServerTest, ClientReconnectsAfterServerRestartOnSamePort) {
  sim::SimTransportOptions topts;
  topts.clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  sim::SimTransport transport(topts);

  MemEnv env;
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, topts.clock, "/srv", dopts, &db).ok());

  ServerOptions sopts;
  sopts.port = 7502;
  sopts.transport = &transport;
  auto server1 = std::make_unique<LittleTableServer>(db.get(), sopts);
  ASSERT_TRUE(server1->Start().ok());

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 4;
  copts.backoff_sleep = [&](int64_t ms) {
    topts.clock->Advance(ms * 1000);  // Backoff costs simulated time only.
  };
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("sim", 7502, copts, &client).ok());
  ASSERT_TRUE(client->Ping().ok());
  EXPECT_EQ(client->connect_count(), 1u);

  // Server gone, port dead: the retry loop runs dry and reports the
  // outage without consuming real time.
  server1->Stop();
  server1.reset();
  EXPECT_FALSE(client->Ping().ok());

  // A replacement binds the same port; the next request rides one
  // reconnect and succeeds.
  auto server2 = std::make_unique<LittleTableServer>(db.get(), sopts);
  ASSERT_TRUE(server2->Start().ok());
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(client->connect_count(), 2u);

  client.reset();
  server2->Stop();
}

TEST(SimServerTest, TornResponseFrameIsRetriedTransparently) {
  sim::SimTransportOptions topts;
  topts.clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  sim::SimTransport transport(topts);

  MemEnv env;
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, topts.clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.port = 7503;
  sopts.transport = &transport;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 3;
  copts.read_timeout_ms = 1000;
  copts.backoff_sleep = [&](int64_t ms) { topts.clock->Advance(ms * 1000); };
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("sim", 7503, copts, &client).ok());
  const uint64_t connects_before = client->connect_count();

  // The next reply arrives torn after 2 bytes and the connection resets:
  // an idempotent request reconnects and retries to success.
  transport.TruncateNextServerWrite(2);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GT(client->connect_count(), connects_before);

  client.reset();
  server.Stop();
}

TEST(SimServerTest, ConnectionCapRejectsWithServerBusy) {
  sim::SimTransport transport;
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ServerOptions sopts;
  sopts.port = 7504;
  sopts.transport = &transport;
  sopts.max_connections = 1;
  LittleTableServer server(db.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 0;
  std::unique_ptr<Client> holder;
  ASSERT_TRUE(Client::Connect("sim", 7504, copts, &holder).ok());

  std::unique_ptr<Client> extra;
  Status s = Client::Connect("sim", 7504, copts, &extra);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_NE(s.ToString().find("busy"), std::string::npos) << s.ToString();

  holder.reset();
  server.Stop();
}

// ----- Client retry policy under injected clock and transport. -----

TEST(ClientRetryTest, MaxRetriesBoundsConnectAttempts) {
  sim::SimTransport transport;  // No listener anywhere: connects refused.
  std::vector<int64_t> sleeps;

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 3;
  copts.backoff_sleep = [&](int64_t ms) { sleeps.push_back(ms); };
  std::unique_ptr<Client> client;
  Status s = Client::Connect("sim", 7600, copts, &client);
  EXPECT_FALSE(s.ok());

  // Exactly the initial attempt plus max_retries reconnects, with a
  // backoff sleep between consecutive attempts and none after the last.
  EXPECT_EQ(transport.stats().connects, 4u);
  EXPECT_EQ(transport.stats().connects_failed, 4u);
  EXPECT_EQ(sleeps.size(), 3u);
}

TEST(ClientRetryTest, BackoffJitterStaysWithinDocumentedBounds) {
  sim::SimTransport transport;
  std::vector<int64_t> sleeps;

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 8;
  copts.backoff_initial_ms = 20;
  copts.backoff_max_ms = 200;
  copts.backoff_seed = 12345;
  copts.backoff_sleep = [&](int64_t ms) { sleeps.push_back(ms); };
  std::unique_ptr<Client> client;
  EXPECT_FALSE(Client::Connect("sim", 7601, copts, &client).ok());

  // Attempt k's nominal delay doubles from the initial value and caps at
  // the max; the jittered sleep lies in [nominal/2, nominal].
  ASSERT_EQ(sleeps.size(), 8u);
  for (size_t k = 0; k < sleeps.size(); k++) {
    int64_t nominal = 20;
    for (size_t i = 0; i < k && nominal < 200; i++) nominal *= 2;
    nominal = std::min<int64_t>(nominal, 200);
    EXPECT_GE(sleeps[k], nominal / 2) << "attempt " << k;
    EXPECT_LE(sleeps[k], nominal) << "attempt " << k;
  }

  // Same seed, same schedule: the jitter PRNG is deterministic.
  std::vector<int64_t> replay;
  copts.backoff_sleep = [&](int64_t ms) { replay.push_back(ms); };
  EXPECT_FALSE(Client::Connect("sim", 7601, copts, &client).ok());
  EXPECT_EQ(replay, sleeps);
}

TEST(ClientRetryTest, TotalDeadlineCapsTheRetryStormOnSimClock) {
  sim::SimTransport transport;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);

  ClientOptions copts;
  copts.transport = &transport;
  copts.max_retries = 1000;  // Policy alone would retry for a long time.
  copts.backoff_initial_ms = 400;
  copts.backoff_max_ms = 400;
  copts.total_deadline_ms = 1000;
  copts.clock = clock;
  copts.backoff_sleep = [&](int64_t ms) { clock->Advance(ms * 1000); };

  const Timestamp start_sim = clock->Now();
  auto start = std::chrono::steady_clock::now();
  std::unique_ptr<Client> client;
  Status s = Client::Connect("sim", 7602, copts, &client);
  EXPECT_FALSE(s.ok());

  // Jittered 400 ms backoffs (each >= 200 ms) burn the 1 s budget within a
  // handful of attempts — nowhere near max_retries — and the whole storm
  // cost simulated time only.
  EXPECT_LE(transport.stats().connects, 8u);
  EXPECT_GE(transport.stats().connects, 2u);
  EXPECT_GE(clock->Now() - start_sim, 1000 * 1000);
  EXPECT_LT(RealElapsedMs(start), 2000);
}

// ----- LT_CRASH_POINT spec parsing and the crash-point registry. -----

class CrashPointSpecTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmCrashPoints(); }
};

TEST_F(CrashPointSpecTest, RegistryListsEveryKnownPoint) {
  const auto& names = fault::KnownCrashPoints();
  EXPECT_FALSE(names.empty());
  for (const auto& name : names) {
    EXPECT_TRUE(fault::IsKnownCrashPoint(name)) << name;
  }
  EXPECT_TRUE(fault::IsKnownCrashPoint("flush:after_commit"));
  EXPECT_FALSE(fault::IsKnownCrashPoint("flush:after_committ"));
}

TEST_F(CrashPointSpecTest, NumericSpecArmsNthHit) {
  ASSERT_TRUE(fault::ArmCrashPointFromSpec("2").ok());
  EXPECT_FALSE(fault::CrashPointFire("flush:after_commit"));
  EXPECT_TRUE(fault::CrashPointFire("flush:after_commit"));
  EXPECT_FALSE(fault::CrashPointFire("flush:after_commit"));
}

TEST_F(CrashPointSpecTest, NamedSpecArmsThatPoint) {
  ASSERT_TRUE(fault::ArmCrashPointFromSpec("descriptor:rename").ok());
  EXPECT_FALSE(fault::CrashPointFire("flush:after_commit"));
  EXPECT_TRUE(fault::CrashPointFire("descriptor:rename"));
}

TEST_F(CrashPointSpecTest, UnknownNameIsRejectedWithTheKnownList) {
  Status s = fault::ArmCrashPointFromSpec("flush:after_comit");  // Typo.
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("unknown crash point"), std::string::npos)
      << s.ToString();
  // The error teaches the caller the valid vocabulary.
  EXPECT_NE(s.ToString().find("flush:after_commit"), std::string::npos)
      << s.ToString();
}

TEST_F(CrashPointSpecTest, DegenerateNumericSpecsAreRejected) {
  EXPECT_TRUE(fault::ArmCrashPointFromSpec("0").IsInvalidArgument());
  EXPECT_TRUE(fault::ArmCrashPointFromSpec("99999999999").IsInvalidArgument());
  EXPECT_TRUE(fault::ArmCrashPointFromSpec("").IsInvalidArgument());
}

TEST_F(CrashPointSpecTest, ValidEnvSpecArmsViaStartupPath) {
  ASSERT_EQ(setenv("LT_CRASH_POINT", "merge:after_commit", 1), 0);
  fault::ReArmFromEnvForTest();
  unsetenv("LT_CRASH_POINT");
  EXPECT_TRUE(fault::CrashPointFire("merge:after_commit"));
}

using CrashPointSpecDeathTest = CrashPointSpecTest;

TEST_F(CrashPointSpecDeathTest, MisspelledEnvSpecAbortsLoudly) {
  // The historic failure mode: a typo'd LT_CRASH_POINT armed nothing and
  // the crash test silently passed without crashing anything. Now the
  // process refuses to start.
  ASSERT_EQ(setenv("LT_CRASH_POINT", "flush:after_comit", 1), 0);
  EXPECT_DEATH(fault::ReArmFromEnvForTest(), "LT_CRASH_POINT");
  unsetenv("LT_CRASH_POINT");
}

// ----- Bounded shutdown: Close under backoff, Abandon for crashes. -----

TEST(ShutdownTest, CloseFlushesPromptlyDespiteArmedRetryBackoff) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  // A failed flush would back off for an hour of SimClock time — which
  // never advances, so anything that waited out the window would hang.
  dopts.table_defaults.flush_retry_backoff = kMicrosPerHour;
  dopts.table_defaults.flush_retry_max_backoff = kMicrosPerHour;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ASSERT_TRUE(db->CreateTable("usage", UsageSchema(), nullptr).ok());
  auto table = db->GetTable("usage");
  std::vector<Row> rows;
  Timestamp t = clock->Now();
  for (int i = 0; i < 10; i++) rows.push_back(UsageRow(1, i, t + i, i, 0.5));
  ASSERT_TRUE(table->InsertBatch(rows).ok());

  // Fail the next write: the flush fails and arms the backoff window.
  env.FailNthWrite(1);
  EXPECT_FALSE(db->FlushAll().ok());
  env.FailNthWrite(0);

  // Close ignores the hour-long window: it shuts maintenance down, runs
  // the final flush immediately, and returns.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(db->Close().ok());
  EXPECT_LT(RealElapsedMs(start), 10'000);
  db.reset();

  // The close-time flush made the rows durable.
  std::unique_ptr<DB> db2;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db2).ok());
  QueryResult result;
  ASSERT_TRUE(db2->GetTable("usage")->Query(QueryBounds{}, &result).ok());
  EXPECT_EQ(result.rows.size(), 10u);
}

TEST(ShutdownTest, AbandonSkipsTheFinalFlushForCrashSimulation) {
  MemEnv env;
  auto clock = std::make_shared<SimClock>(100 * kMicrosPerWeek);
  DbOptions dopts;
  dopts.background_maintenance = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db).ok());
  ASSERT_TRUE(db->CreateTable("usage", UsageSchema(), nullptr).ok());
  auto table = db->GetTable("usage");
  Timestamp t = clock->Now();
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 1, t, 1, 0)}).ok());
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(table->InsertBatch({UsageRow(1, 2, t + 1, 2, 0)}).ok());
  table.reset();

  // Abandon models the process dying: no flush, then unsynced bytes are
  // lost. Only the flushed prefix survives reopen.
  db->Abandon();
  db.reset();
  env.DropUnsynced();

  std::unique_ptr<DB> db2;
  ASSERT_TRUE(DB::Open(&env, clock, "/srv", dopts, &db2).ok());
  QueryResult result;
  ASSERT_TRUE(db2->GetTable("usage")->Query(QueryBounds{}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][1].i64(), 1);
}

// ----- The device-workload oracle (sim/device_oracle.h) on hand-built
// inputs: every check must fire on the input it exists for, and stay quiet
// on a correct answer. -----

class DeviceOracleTest : public ::testing::Test {
 protected:
  DeviceOracleTest()
      : rec_(&report_),
        single_(&rec_, /*seed=*/1, /*devices=*/2,
                sim::QueryChecks::kSingleNode),
        replicated_(&rec_, /*seed=*/1, /*devices=*/2,
                    sim::QueryChecks::kReplicated) {}

  static apps::SimEvent Event(int64_t id) {
    apps::SimEvent ev;
    ev.id = id;
    ev.ts = sim::kSimEpoch + id * kMicrosPerSecond;
    ev.kind = "assoc";
    ev.detail = "client-" + std::to_string(id);
    return ev;
  }

  static Row RowOf(int64_t device, int64_t id) {
    const apps::SimEvent ev = Event(id);
    return {Value::Int64(device), Value::Int64(id), Value::Ts(ev.ts),
            Value::String(ev.kind), Value::String(ev.detail)};
  }

  static std::vector<Row> Rows(int64_t device, std::vector<int64_t> ids) {
    std::vector<Row> rows;
    for (int64_t id : ids) rows.push_back(RowOf(device, id));
    return rows;
  }

  /// Appends a batch of device 1's events [first, last] to `oracle`'s
  /// model; returns its index in records().
  static size_t AddBatch(sim::DeviceOracle& oracle, int64_t first,
                         int64_t last, sim::InsertRecord::State state,
                         size_t durable = 0) {
    sim::InsertRecord rec;
    rec.device = 1;
    rec.state = state;
    rec.durable = durable;
    for (int64_t id = first; id <= last; id++) rec.events.push_back(Event(id));
    oracle.records().push_back(std::move(rec));
    return oracle.records().size() - 1;
  }

  void ExpectViolation(const std::string& message) {
    EXPECT_FALSE(report_.ok);
    EXPECT_EQ(report_.failure, message);
    ASSERT_FALSE(report_.event_log.empty());
    EXPECT_EQ(report_.event_log.back(),
              "t=0 ORACLE VIOLATION: " + message);
  }

  sim::SimReport report_;
  sim::SimRecorder rec_;
  sim::DeviceOracle single_;
  sim::DeviceOracle replicated_;
};

TEST_F(DeviceOracleTest, CorrectAnswerResolvesUnresolvedBatches) {
  for (sim::DeviceOracle* oracle : {&single_, &replicated_}) {
    AddBatch(*oracle, 1, 2, sim::InsertRecord::kCertain);
    const size_t applied =
        AddBatch(*oracle, 3, 4, sim::InsertRecord::kUnresolved);
    const size_t absent =
        AddBatch(*oracle, 5, 6, sim::InsertRecord::kUnresolved);
    oracle->cursors()[1].dirty = true;
    EXPECT_TRUE(oracle->VerifyDeviceRows(1, Rows(1, {1, 2, 3, 4})));
    EXPECT_EQ(oracle->records()[applied].state, sim::InsertRecord::kCertain);
    EXPECT_EQ(oracle->records()[absent].state, sim::InsertRecord::kDropped);
    EXPECT_EQ(oracle->cursors()[1].last_id, 4);
    EXPECT_FALSE(oracle->cursors()[1].dirty);
    EXPECT_TRUE(oracle->ResolveFromLatest(1, 4));
    EXPECT_TRUE(oracle->VerifyDeviceRows(2, {}));  // No rows, none modeled.
    EXPECT_EQ(oracle->CertainRows(), 4u);
  }
  EXPECT_TRUE(report_.ok) << report_.failure;
  EXPECT_TRUE(report_.event_log.empty());
}

TEST_F(DeviceOracleTest, LatestRowResolvesUnresolvedBatches) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  const size_t applied =
      AddBatch(single_, 3, 3, sim::InsertRecord::kUnresolved);
  const size_t absent =
      AddBatch(single_, 4, 5, sim::InsertRecord::kUnresolved);
  EXPECT_TRUE(single_.ResolveFromLatest(1, 3));
  EXPECT_EQ(single_.records()[applied].state, sim::InsertRecord::kCertain);
  EXPECT_EQ(single_.records()[absent].state, sim::InsertRecord::kDropped);
  EXPECT_EQ(single_.cursors()[1].last_id, 3);
  // Dropped events are no longer in the model: reading one is a phantom.
  EXPECT_EQ(single_.FindEvent(1, 4), nullptr);
  EXPECT_NE(single_.FindEvent(1, 3), nullptr);
  EXPECT_TRUE(report_.ok) << report_.failure;
}

TEST_F(DeviceOracleTest, PhantomRow) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.VerifyDeviceRows(1, Rows(1, {1, 2, 9})));
  ExpectViolation(
      "phantom row: device=1 id=9 was never (or never certainly) inserted");
}

TEST_F(DeviceOracleTest, ContentMismatch) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  std::vector<Row> rows = Rows(1, {1, 2});
  rows[1][4] = Value::String("someone-else");
  EXPECT_FALSE(single_.VerifyDeviceRows(1, rows));
  ExpectViolation("row content mismatch: device=1 id=2");
}

TEST_F(DeviceOracleTest, DuplicateId) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.VerifyDeviceRows(1, Rows(1, {1, 1, 2})));
  ExpectViolation("duplicate row id 1 for device 1");
}

TEST_F(DeviceOracleTest, AcknowledgedBatchMissingFromQuery) {
  // A flushed-through batch still reports as acknowledged rows missing.
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain, /*durable=*/2);
  EXPECT_FALSE(single_.VerifyDeviceRows(1, Rows(1, {1})));
  ExpectViolation(
      "query missing acknowledged rows: device=1 batch through id 2");
}

TEST_F(DeviceOracleTest, ShipDurableBatchLost) {
  AddBatch(replicated_, 1, 2, sim::InsertRecord::kCertain, /*durable=*/2);
  EXPECT_FALSE(replicated_.VerifyDeviceRows(1, {}));
  ExpectViolation("ship-durable batch lost: device=1 batch through id 2");
}

TEST_F(DeviceOracleTest, UnshippedBatchMissingOnReplicatedQuery) {
  AddBatch(replicated_, 1, 2, sim::InsertRecord::kCertain);
  EXPECT_FALSE(replicated_.VerifyDeviceRows(1, {}));
  ExpectViolation(
      "query missing acknowledged rows: device=1 batch through id 2");
}

TEST_F(DeviceOracleTest, PartialBatchVisible) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kUnresolved);
  EXPECT_FALSE(single_.VerifyDeviceRows(1, Rows(1, {1})));
  ExpectViolation("partial batch visible: device=1");
}

TEST_F(DeviceOracleTest, LatestIdBehindAcknowledgedInsert) {
  AddBatch(single_, 1, 3, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.ResolveFromLatest(1, 2));
  ExpectViolation("latest row id 2 behind acknowledged insert through 3 for "
                  "device 1");
}

TEST_F(DeviceOracleTest, LatestIdInsideUnresolvedBatch) {
  AddBatch(single_, 1, 1, sim::InsertRecord::kCertain);
  AddBatch(single_, 2, 4, sim::InsertRecord::kUnresolved);
  EXPECT_FALSE(single_.ResolveFromLatest(1, 3));
  ExpectViolation("partial batch application: device=1 latest=3 inside batch "
                  "[2,4]");
}

TEST_F(DeviceOracleTest, LatestIdAheadOfTheModel) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.ResolveFromLatest(1, 5));
  ExpectViolation("latest row mismatch for device 1: got 5 want 2");
}

TEST_F(DeviceOracleTest, QueryReturnsAnotherDevice) {
  AddBatch(single_, 1, 1, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.VerifyDeviceRows(2, Rows(1, {1})));
  ExpectViolation("query for device 2 returned device 1");
}

TEST_F(DeviceOracleTest, NonContiguousIds) {
  // The unresolved batch [1,2] was lost while the later [3] survived:
  // consistent batch by batch, but a hole in the device's id sequence.
  for (sim::DeviceOracle* oracle : {&single_, &replicated_}) {
    AddBatch(*oracle, 1, 2, sim::InsertRecord::kUnresolved);
    AddBatch(*oracle, 3, 3, sim::InsertRecord::kCertain);
  }
  // Single-node queries leave contiguity to the post-crash scan...
  EXPECT_TRUE(single_.VerifyDeviceRows(1, Rows(1, {3})));
  EXPECT_TRUE(report_.ok) << report_.failure;
  // ...which checks it through CheckContiguous; replicated queries check it
  // on every answer.
  EXPECT_FALSE(replicated_.VerifyDeviceRows(1, Rows(1, {3})));
  ExpectViolation("event ids not contiguous for device 1: max=3 count=1");
}

TEST_F(DeviceOracleTest, CheckContiguous) {
  EXPECT_TRUE(single_.CheckContiguous(1, 4, 4));
  EXPECT_TRUE(report_.ok);
  EXPECT_FALSE(single_.CheckContiguous(1, 5, 4));
  ExpectViolation("event ids not contiguous for device 1: max=5 count=4");
}

TEST_F(DeviceOracleTest, OnlyTheFirstViolationIsRecorded) {
  AddBatch(single_, 1, 2, sim::InsertRecord::kCertain);
  EXPECT_FALSE(single_.VerifyDeviceRows(1, Rows(1, {1, 1})));
  EXPECT_FALSE(single_.ResolveFromLatest(1, 1));
  ExpectViolation("duplicate row id 1 for device 1");
  EXPECT_EQ(report_.event_log.size(), 1u);
}

// ----- The chaos harness: determinism contract and pinned-seed sweep. -----

// The chaos logs are pinned across commits, not just across two runs of
// one build: digest = CRC32C over the lines, each followed by "\n".
uint32_t LinesDigest(const std::vector<std::string>& lines) {
  uint32_t crc = 0;
  for (const std::string& line : lines) {
    crc = crc32c::Extend(crc, line.data(), line.size());
    crc = crc32c::Extend(crc, "\n", 1);
  }
  return crc;
}

void ExpectPinnedDigest(const std::vector<std::string>& lines,
                        uint32_t pinned, const char* what) {
  const uint32_t got = LinesDigest(lines);
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08x", got);
  EXPECT_EQ(got, pinned)
      << what << " changed; its digest is now " << hex
      << ". A change that alters the chaos logs re-pins this digest and "
         "explains why in CHANGES.md.";
}

TEST(ChaosSimTest, SameSeedYieldsByteIdenticalEventLogs) {
  sim::ChaosOptions opts;
  opts.seed = 20260806;
  opts.ops = 120;
  sim::SimReport a, b;
  ASSERT_TRUE(sim::RunChaos(opts, &a).ok());
  ASSERT_TRUE(sim::RunChaos(opts, &b).ok());
  EXPECT_TRUE(a.ok) << a.failure;
  EXPECT_TRUE(b.ok) << b.failure;
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (size_t i = 0; i < a.event_log.size(); i++) {
    ASSERT_EQ(a.event_log[i], b.event_log[i]) << "logs diverge at line " << i;
  }
  EXPECT_EQ(a.counters, b.counters);
  ExpectPinnedDigest(a.event_log, 0x110ca801u, "the single-node event log");
}

// With the deterministic self-monitoring sampler enabled, the surviving
// __sys_metrics rows are part of the determinism contract too: same seed,
// byte-identical dump — and the run must still pass the oracle, which now
// also checks the system tables' prefix durability across crashes.
TEST(ChaosSimTest, SameSeedYieldsByteIdenticalSysMetrics) {
  sim::ChaosOptions opts;
  opts.seed = 20260809;
  opts.ops = 120;
  opts.sample_every_ops = 4;
  sim::SimReport a, b;
  ASSERT_TRUE(sim::RunChaos(opts, &a).ok());
  ASSERT_TRUE(sim::RunChaos(opts, &b).ok());
  EXPECT_TRUE(a.ok) << a.failure;
  EXPECT_TRUE(b.ok) << b.failure;
  EXPECT_GT(a.counters.at("samples_ok"), 0u);
  ASSERT_FALSE(a.sys_metrics.empty());
  EXPECT_EQ(a.sys_metrics, b.sys_metrics);
  EXPECT_EQ(a.event_log, b.event_log);
  ExpectPinnedDigest(a.sys_metrics, 0xdd1fd08du, "the sys-metrics dump");
}

TEST(ChaosSimTest, SampledRunSurvivesHighFaultRate) {
  sim::ChaosOptions opts;
  opts.seed = 88001;
  opts.ops = 120;
  opts.fault_rate = 0.5;
  opts.sample_every_ops = 3;
  sim::SimReport report;
  ASSERT_TRUE(sim::RunChaos(opts, &report).ok());
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_GT(report.counters.at("crashes"), 0u);
}

TEST(ChaosSimTest, FaultFreeRunPassesTheOracle) {
  sim::ChaosOptions opts;
  opts.seed = 7;
  opts.ops = 80;
  opts.fault_rate = 0.0;
  sim::SimReport report;
  ASSERT_TRUE(sim::RunChaos(opts, &report).ok());
  EXPECT_TRUE(report.ok) << report.failure;
  // Even a fault-free run ends with one simulated crash + oracle check.
  EXPECT_GE(report.counters.at("crashes"), 1u);
  EXPECT_EQ(report.counters.at("crashes"),
            report.counters.at("crashes_survived"));
  EXPECT_GT(report.counters.at("inserts_ok"), 0u);
}

// The pinned-seed sweep CI runs under ASan/UBSan. Locally it covers a
// handful of seeds to keep the tier-1 wall clock low; CI raises the count
// with LT_SIM_SEED_COUNT=100. A failure prints the exact repro command.
TEST(ChaosSimTest, PinnedSeedSweepPassesTheOracle) {
  int count = 10;
  if (const char* env = std::getenv("LT_SIM_SEED_COUNT")) {
    count = std::max(1, std::atoi(env));
  }
  for (int i = 0; i < count; i++) {
    sim::ChaosOptions opts;
    opts.seed = 1000 + static_cast<uint64_t>(i);
    opts.ops = 100;
    sim::SimReport report;
    Status s = sim::RunChaos(opts, &report);
    ASSERT_TRUE(s.ok()) << "seed " << opts.seed << ": " << s.ToString();
    ASSERT_TRUE(report.ok)
        << "seed " << opts.seed << ": " << report.failure
        << "\nreproduce with: lt_sim --seed=" << opts.seed
        << " --ops=100 --print-log";
  }
}

TEST(ChaosSimTest, HighFaultRateStillSatisfiesTheOracle) {
  sim::ChaosOptions opts;
  opts.seed = 424242;
  opts.ops = 150;
  opts.fault_rate = 0.6;
  sim::SimReport report;
  ASSERT_TRUE(sim::RunChaos(opts, &report).ok());
  EXPECT_TRUE(report.ok) << report.failure << "\nreproduce with: lt_sim "
                         << "--seed=424242 --ops=150 --faults=0.6 --print-log";
  EXPECT_GT(report.counters.at("faults"), 0u);
}

// ---- Multi-node cluster chaos (sim/cluster_chaos.h): coordinator + 2-node
// shard groups under the same seeded fault schedule, checked against the
// replication oracle (prefix durability on the promoted primary, no lost
// ship-durable batch, per-device id contiguity). CI raises the seed count
// with LT_CLUSTER_SEED_COUNT. ----

TEST(ClusterChaosTest, PinnedSeedSweepPassesTheOracle) {
  int count = 3;
  if (const char* env = std::getenv("LT_CLUSTER_SEED_COUNT")) {
    count = std::max(1, std::atoi(env));
  }
  for (int i = 0; i < count; i++) {
    sim::ClusterChaosOptions opts;
    opts.seed = 2000 + static_cast<uint64_t>(i);
    opts.ops = 80;
    sim::SimReport report;
    Status s = sim::RunClusterChaos(opts, &report);
    ASSERT_TRUE(s.ok()) << "seed " << opts.seed << ": " << s.ToString();
    ASSERT_TRUE(report.ok)
        << "seed " << opts.seed << ": " << report.failure
        << "\nreproduce with: lt_sim --cluster --seed=" << opts.seed
        << " --ops=80 --print-log";
    // Every run must actually exercise replication, and the final verdict
    // forces at least one failover per group.
    EXPECT_GT(report.counters["ships_ok"], 0u) << "seed " << opts.seed;
    EXPECT_GT(report.counters["failovers"], 0u) << "seed " << opts.seed;
  }
}

TEST(ClusterChaosTest, TwoGroupSweepPassesTheOracle) {
  sim::ClusterChaosOptions opts;
  opts.seed = 31;
  opts.ops = 80;
  opts.groups = 2;
  opts.devices = 6;
  sim::SimReport report;
  ASSERT_TRUE(sim::RunClusterChaos(opts, &report).ok());
  ASSERT_TRUE(report.ok)
      << report.failure << "\nreproduce with: lt_sim --cluster --seed=31 "
      << "--ops=80 --groups=2 --devices=6 --print-log";
}

TEST(ClusterChaosTest, SameSeedYieldsByteIdenticalEventLogs) {
  sim::ClusterChaosOptions opts;
  opts.seed = 7;
  opts.ops = 60;
  sim::SimReport a, b;
  ASSERT_TRUE(sim::RunClusterChaos(opts, &a).ok());
  ASSERT_TRUE(sim::RunClusterChaos(opts, &b).ok());
  ASSERT_TRUE(a.ok) << a.failure;
  ASSERT_TRUE(b.ok) << b.failure;
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (size_t i = 0; i < a.event_log.size(); i++) {
    ASSERT_EQ(a.event_log[i], b.event_log[i]) << "first divergence at line "
                                              << i;
  }
  EXPECT_EQ(a.counters, b.counters);
  ExpectPinnedDigest(a.event_log, 0x86febb62u, "the cluster event log");
}

}  // namespace
}  // namespace lt
