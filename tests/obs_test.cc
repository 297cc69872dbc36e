// Tests for the self-monitoring subsystem: the MetricsSampler writing
// LittleTable's own metrics into reserved __sys tables, rollup and TTL
// retention, queryability through every path (engine, SQL, wire), the
// reserved-namespace guard, shutdown ordering via DB pre-close hooks, and
// the stats-export parity pin (every registry metric visible through
// kStatsV2 and the Prometheus rendering).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "core/db.h"
#include "env/mem_env.h"
#include "net/client.h"
#include "net/server.h"
#include "net/stats_text.h"
#include "obs/metrics_sampler.h"
#include "sql/executor.h"
#include "tests/test_util.h"

namespace lt {
namespace {

// Minute-aligned so the rollup test's first window spans full minutes.
constexpr Timestamp kEpoch = Timestamp{1700000040} * 1000000;

struct ObsFixture {
  MemEnv env;
  std::shared_ptr<SimClock> clock = std::make_shared<SimClock>();
  std::unique_ptr<DB> db;

  explicit ObsFixture(DbOptions options = {}) {
    clock->Set(kEpoch);
    options.background_maintenance = false;
    EXPECT_TRUE(DB::Open(&env, clock, "/obs", options, &db).ok());
    EXPECT_TRUE(db->CreateTable("usage", testutil::UsageSchema()).ok());
  }

  void InsertUsage(int64_t device, int64_t bytes) {
    auto table = db->GetTable("usage");
    ASSERT_TRUE(table
                    ->InsertBatch({testutil::UsageRow(1, device, clock->Now(),
                                                      bytes, 1.0)})
                    .ok());
  }

  std::vector<Row> SysRows(const std::string& table_name) {
    auto table = db->GetTable(table_name);
    if (!table) return {};
    QueryResult result;
    EXPECT_TRUE(table->Query(QueryBounds(), &result).ok());
    return result.rows;
  }
};

obs::SamplerOptions ManualSampler() {
  obs::SamplerOptions sopts;
  sopts.background = false;
  return sopts;
}

// ----- Sampler basics: table creation, sampling, dedupe, alignment. -----

TEST(MetricsSamplerTest, StartCreatesSystemTablesWithConfiguredTtls) {
  ObsFixture fx;
  obs::SamplerOptions sopts = ManualSampler();
  sopts.ttl_1s = 2 * kMicrosPerHour;
  sopts.ttl_1m = 14 * kMicrosPerDay;
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  ASSERT_TRUE(sampler.Start().ok());
  auto t1s = fx.db->GetTable(obs::kMetricsTable1s);
  auto t1m = fx.db->GetTable(obs::kMetricsTable1m);
  ASSERT_NE(t1s, nullptr);
  ASSERT_NE(t1m, nullptr);
  EXPECT_EQ(t1s->ttl(), 2 * kMicrosPerHour);
  EXPECT_EQ(t1m->ttl(), 14 * kMicrosPerDay);
  EXPECT_EQ(t1s->schema()->num_key_columns(), 2u);
}

TEST(MetricsSamplerTest, StartRejectsIntervalThatDoesNotDivideAMinute) {
  ObsFixture fx;
  obs::SamplerOptions sopts = ManualSampler();
  sopts.interval = 7 * kMicrosPerSecond;  // 60 s is not a multiple of 7 s.
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  EXPECT_TRUE(sampler.Start().IsInvalidArgument());
  EXPECT_EQ(fx.db->GetTable(obs::kMetricsTable1s), nullptr);
}

TEST(MetricsSamplerTest, SampleOnceWritesPerTableCountersWithAlignedTs) {
  ObsFixture fx;
  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  fx.InsertUsage(7, 100);
  fx.InsertUsage(8, 200);  // Distinct key: same device + ts would be a dupe.

  const Timestamp unaligned = fx.clock->Now() + 123456;
  ASSERT_TRUE(sampler.SampleOnce(unaligned).ok());
  EXPECT_EQ(sampler.samples_taken(), 1u);

  std::vector<Row> rows = fx.SysRows(obs::kMetricsTable1s);
  ASSERT_FALSE(rows.empty());
  const Timestamp aligned = unaligned - (unaligned % kMicrosPerSecond);
  bool found_rows_inserted = false;
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].AsInt(), aligned) << row[0].bytes();
    if (row[0].bytes() == "table.usage.rows_inserted") {
      found_rows_inserted = true;
      EXPECT_DOUBLE_EQ(row[2].dbl(), 2.0);
    }
    // No self-feedback: the sampler never samples the __sys tables.
    EXPECT_EQ(row[0].bytes().find("table.__sys"), std::string::npos);
  }
  EXPECT_TRUE(found_rows_inserted);

  // Re-sampling inside the same aligned second is a no-op, not a dupe.
  const size_t before = rows.size();
  ASSERT_TRUE(sampler.SampleOnce(unaligned + 1000).ok());
  EXPECT_EQ(sampler.samples_taken(), 1u);
  EXPECT_EQ(fx.SysRows(obs::kMetricsTable1s).size(), before);
}

TEST(MetricsSamplerTest, RegisteredSourcesAndSelfMetricsAreSampled) {
  ObsFixture fx;
  MetricsRegistry registry;
  registry.GetCounter("server.requests")->Add(41);
  registry.GetGauge("server.run_queue_depth")->Set(5);
  registry.GetHistogram("server.op.ping.micros")->Record(10);

  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  sampler.AddSource("", &registry);
  ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());

  std::set<std::string> names;
  for (const Row& row : fx.SysRows(obs::kMetricsTable1s)) {
    names.insert(row[0].bytes());
  }
  EXPECT_TRUE(names.count("server.requests"));
  EXPECT_TRUE(names.count("server.run_queue_depth"));
  EXPECT_TRUE(names.count("server.op.ping.micros.p99"));
  EXPECT_TRUE(names.count("server.op.ping.micros.count"));
  EXPECT_TRUE(names.count("obs.samples"));
  EXPECT_TRUE(names.count("cache.hits"));
}

TEST(MetricsSamplerTest, DeterministicModeRestrictsToWhitelistedCounters) {
  ObsFixture fx;
  MetricsRegistry registry;
  registry.GetCounter("server.requests")->Add(1);
  obs::SamplerOptions sopts = ManualSampler();
  sopts.deterministic = true;
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  ASSERT_TRUE(sampler.Start().ok());
  sampler.AddSource("", &registry);
  fx.InsertUsage(1, 1);
  ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());
  for (const Row& row : fx.SysRows(obs::kMetricsTable1s)) {
    const std::string& name = row[0].bytes();
    // Only op-sequence-pure per-table counters; no registry sources, no
    // latency histograms, no scheduling-dependent counters.
    EXPECT_EQ(name.rfind("table.usage.", 0), 0u) << name;
    EXPECT_EQ(name.find("micros"), std::string::npos) << name;
    EXPECT_EQ(name.find("insert_groups"), std::string::npos) << name;
  }
}

// ----- Rollup. -----

TEST(MetricsSamplerTest, RollupEmitsAvgMinMaxAtMinuteBoundaries) {
  ObsFixture fx;
  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  // Sample every second across one full minute window, inserting as we go
  // so table.usage.rows_inserted climbs 1, 2, ..., 60.
  for (int i = 0; i < 60; i++) {
    fx.InsertUsage(1, i);
    ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());
    fx.clock->Advance(kMicrosPerSecond);
  }
  EXPECT_EQ(sampler.rollups_emitted(), 0u);  // Window not crossed yet...
  ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());
  EXPECT_EQ(sampler.rollups_emitted(), 1u);  // ...now it is.

  bool found = false;
  for (const Row& row : fx.SysRows(obs::kMetricsTable1m)) {
    ASSERT_EQ(row.size(), 6u);
    if (row[0].bytes() != "table.usage.rows_inserted") continue;
    found = true;
    EXPECT_EQ(row[1].AsInt() % kMicrosPerMinute, 0);
    EXPECT_DOUBLE_EQ(row[3].dbl(), 1.0);   // min: first sample saw 1 row.
    EXPECT_DOUBLE_EQ(row[4].dbl(), 60.0);  // max: last sample saw 60.
    EXPECT_DOUBLE_EQ(row[2].dbl(), 30.5);  // avg of 1..60.
    EXPECT_EQ(row[5].AsInt(), 60);
  }
  EXPECT_TRUE(found);
}

// ----- TTL retention through the ordinary maintenance path. -----

TEST(MetricsSamplerTest, OldSamplesAgeOutViaReclaimExpired) {
  ObsFixture fx;
  obs::SamplerOptions sopts = ManualSampler();
  sopts.ttl_1s = kMicrosPerHour;
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  ASSERT_TRUE(sampler.Start().ok());
  fx.InsertUsage(1, 1);
  ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());
  ASSERT_FALSE(fx.SysRows(obs::kMetricsTable1s).empty());

  auto t1s = fx.db->GetTable(obs::kMetricsTable1s);
  ASSERT_TRUE(t1s->FlushAll().ok());
  // Age past the TTL: queries already filter the expired rows, and
  // maintenance reclaims their tablets.
  fx.clock->Advance(2 * kMicrosPerHour);
  EXPECT_TRUE(fx.SysRows(obs::kMetricsTable1s).empty());
  ASSERT_TRUE(fx.db->MaintainNow().ok());
  EXPECT_EQ(t1s->NumDiskTablets(), 0u);
}

// ----- Queryability: SQL and the wire see system tables as ordinary. -----

TEST(MetricsSamplerTest, SystemTablesQueryableThroughSqlAndWire) {
  ObsFixture fx;
  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  fx.InsertUsage(3, 300);
  ASSERT_TRUE(sampler.SampleOnce(fx.clock->Now()).ok());

  // SQL, embedded backend.
  sql::DbBackend backend(fx.db.get());
  sql::SqlSession session(&backend);
  auto result = session.Execute(
      "SELECT metric, value FROM __sys_metrics_1s "
      "WHERE metric = 'table.usage.rows_inserted'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].dbl(), 1.0);

  // Wire: ListTables includes the system tables, and Query reads them.
  LittleTableServer server(fx.db.get(), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &client).ok());
  std::vector<std::string> tables;
  ASSERT_TRUE(client->ListTables(&tables).ok());
  EXPECT_NE(std::find(tables.begin(), tables.end(), obs::kMetricsTable1s),
            tables.end());
  QueryResult qr;
  ASSERT_TRUE(client->Query(obs::kMetricsTable1s, QueryBounds(), &qr).ok());
  EXPECT_FALSE(qr.rows.empty());
  server.Stop();
}

// ----- The reserved __sys namespace. -----

TEST(SystemTableGuardTest, UserPathsRejectSysNamesEverySurface) {
  ObsFixture fx;
  // Engine.
  EXPECT_FALSE(fx.db->CreateTable("__sys_fake", testutil::TsOnlySchema()).ok());
  EXPECT_FALSE(fx.db->CreateTable("__sysjunk", testutil::TsOnlySchema()).ok());
  EXPECT_TRUE(fx.db->GetTable("__sys_fake") == nullptr);
  // CreateSystemTable enforces the prefix in BOTH directions.
  EXPECT_FALSE(
      fx.db->CreateSystemTable("not_sys", testutil::TsOnlySchema()).ok());
  EXPECT_TRUE(
      fx.db->CreateSystemTable("__sys_mine", testutil::TsOnlySchema()).ok());

  // Wire.
  LittleTableServer server(fx.db.get(), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &client).ok());
  EXPECT_FALSE(
      client->CreateTable("__sys_wire", testutil::TsOnlySchema(), 0).ok());

  // SQL.
  sql::ClientBackend backend(client.get(), fx.clock);
  sql::SqlSession session(&backend);
  auto result = session.Execute(
      "CREATE TABLE __sys_sql (ts TIMESTAMP, v INT64, PRIMARY KEY (ts))");
  EXPECT_FALSE(result.ok());
  server.Stop();
}

TEST(SystemTableGuardTest, IsSystemTableName) {
  EXPECT_TRUE(DB::IsSystemTableName("__sys_metrics_1s"));
  EXPECT_TRUE(DB::IsSystemTableName("__sys"));
  EXPECT_FALSE(DB::IsSystemTableName("_sys"));
  EXPECT_FALSE(DB::IsSystemTableName("sys__"));
  EXPECT_FALSE(DB::IsSystemTableName("usage"));
}

// ----- Shutdown ordering. -----

TEST(MetricsSamplerTest, DbCloseStopsTheSamplerFirst) {
  ObsFixture fx;
  obs::SamplerOptions sopts = ManualSampler();
  sopts.background = true;  // Real sampling thread, polling the SimClock.
  sopts.poll_ms = 1;
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  ASSERT_TRUE(sampler.Start().ok());
  EXPECT_FALSE(sampler.stopped());
  ASSERT_TRUE(fx.db->Close().ok());
  // The pre-close hook ran Stop before tables flushed: no insert can race
  // table shutdown, and the thread is joined.
  EXPECT_TRUE(sampler.stopped());
}

TEST(MetricsSamplerTest, AbandonStopsTheSamplerWithoutASample) {
  ObsFixture fx;
  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  const uint64_t taken = sampler.samples_taken();
  fx.db->Abandon();
  EXPECT_TRUE(sampler.stopped());
  EXPECT_EQ(sampler.samples_taken(), taken);  // Stop never samples.
}

TEST(MetricsSamplerTest, StopIsIdempotentAndDetaches) {
  ObsFixture fx;
  obs::MetricsSampler sampler(fx.db.get(), ManualSampler());
  ASSERT_TRUE(sampler.Start().ok());
  sampler.Stop();
  sampler.Stop();
  EXPECT_TRUE(sampler.stopped());
  ASSERT_TRUE(fx.db->Close().ok());  // Hook already removed; no double-stop.
}

// ----- Background sampling under an accelerated SimClock. -----

TEST(MetricsSamplerTest, BackgroundThreadFollowsSimClock) {
  ObsFixture fx;
  obs::SamplerOptions sopts;
  sopts.background = true;
  sopts.poll_ms = 1;
  obs::MetricsSampler sampler(fx.db.get(), sopts);
  ASSERT_TRUE(sampler.Start().ok());
  fx.InsertUsage(1, 1);
  // Advance simulated time one second at a time; the poller (1 ms real
  // time) notices each step. Generous real-time bound for slow CI.
  for (int i = 0; i < 3; i++) {
    fx.clock->Advance(kMicrosPerSecond);
    for (int spin = 0; spin < 2000; spin++) {
      if (sampler.samples_taken() > static_cast<uint64_t>(i)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GE(sampler.samples_taken(), 3u);
  sampler.Stop();
}

// ----- Stats-export parity pin. -----
//
// Every metric the process knows about — registry counters, gauges,
// recorded histograms, and every TableStats counter/histogram — must be
// visible through kStatsV2 and the Prometheus text rendering. The lists
// are generated from the same visitors the server uses, so this pins that
// no export surface silently falls behind.
TEST(StatsParityTest, EveryMetricReachesStatsV2AndPrometheusText) {
  ObsFixture fx;
  LittleTableServer server(fx.db.get(), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect("127.0.0.1", server.port(), &client).ok());

  // Drive every op kind once so per-op histograms have counts.
  std::vector<std::string> tables;
  ASSERT_TRUE(client->ListTables(&tables).ok());
  ASSERT_TRUE(
      client
          ->Insert("usage", {testutil::UsageRow(1, 2, fx.clock->Now(), 3, 4.0)})
          .ok());
  QueryResult qr;
  ASSERT_TRUE(client->Query("usage", QueryBounds(), &qr).ok());
  ASSERT_TRUE(fx.db->GetTable("usage")->FlushAll().ok());

  ServerStats stats;
  // Prime the stats op's own latency histogram: its recording lands after
  // its response is built, so the first scrape can't include it yet.
  ASSERT_TRUE(client->Stats("usage", &stats).ok());
  stats = {};
  ASSERT_TRUE(client->Stats("usage", &stats).ok());
  const std::string text = RenderStatsText(stats, "usage");

  auto expect_counter = [&](const std::string& name) {
    EXPECT_TRUE(stats.counters.count(name)) << name << " missing in kStatsV2";
    std::string prom = "littletable_";
    for (char c : name) prom.push_back(c == '.' ? '_' : c);
    EXPECT_NE(text.find(prom), std::string::npos)
        << name << " missing in Prometheus text";
  };

  // Registry counters and gauges (includes the PR's deep instrumentation).
  for (const auto& [name, v] : server.metrics().CounterValues()) {
    expect_counter(name);
  }
  for (const auto& [name, v] : server.metrics().GaugeValues()) {
    expect_counter(name);
  }
  EXPECT_TRUE(stats.counters.count("server.run_queue_depth"));
  EXPECT_TRUE(stats.counters.count("server.workers_busy"));
  EXPECT_TRUE(stats.counters.count("server.pending_frames"));
  EXPECT_TRUE(stats.counters.count("server.worker_busy_micros"));

  // Every TableStats counter, via the same canonical visitor the server
  // renders from — including the PR 6/7 counters this PR adds to the wire
  // (insert_groups, column chunk and block byte counters).
  fx.db->GetTable("usage")->stats().ForEachCounter(
      [&](const char* name, uint64_t) { expect_counter(name); });
  EXPECT_TRUE(stats.counters.count("table.insert_groups"));
  EXPECT_TRUE(stats.counters.count("table.column_chunks_decoded"));
  EXPECT_TRUE(stats.counters.count("table.column_chunks_skipped"));
  EXPECT_TRUE(stats.counters.count("table.block_bytes_raw"));
  EXPECT_TRUE(stats.counters.count("table.block_bytes_compressed"));

  // Histograms with recordings: registry side and table side.
  for (const auto& [name, snap] : server.metrics().HistogramSnapshots()) {
    if (snap.count == 0) continue;
    EXPECT_TRUE(stats.histograms.count(name)) << name;
  }
  fx.db->GetTable("usage")->stats().ForEachHistogram(
      [&](const char* name, const LatencyHistogram& h) {
        if (h.Snapshot().count == 0) return;
        EXPECT_TRUE(stats.histograms.count(name)) << name;
        std::string prom = "littletable_";
        for (char c : std::string(name)) prom.push_back(c == '.' ? '_' : c);
        EXPECT_NE(text.find(prom + "_count"), std::string::npos) << name;
      });
  // The group-commit group-size histogram records on the insert path.
  EXPECT_TRUE(stats.histograms.count("table.insert_group_size"));

  server.Stop();
}

}  // namespace
}  // namespace lt
