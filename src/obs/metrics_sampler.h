// MetricsSampler: the self-monitoring subsystem — LittleTable storing its
// own telemetry in LittleTable, the way the paper's Meraki deployment stores
// fleets of per-device monitoring series (§2, §4).
//
// Every `interval` (default 1 s) the sampler snapshots its sources — the
// registered MetricsRegistry instances (the server registers its
// "server.*" metrics), the DB-wide block cache, and every user table's
// TableStats counters and latency quantiles — and inserts one row per
// metric into the reserved `__sys_metrics_1s` table:
//
//     (metric STRING, ts TIMESTAMP, value DOUBLE)   key = (metric, ts)
//
// Metric names are hierarchical dot paths ("server.requests",
// "table.usage.rows_inserted", "server.op.insert.micros.p99"), so a key
// prefix selects a subsystem and the (metric, ts) clustering makes "one
// metric's trajectory over a window" the cheap 2-D scan LittleTable is
// built for (§3.1). Counters are stored cumulative (consumers rate() them
// from deltas, which survives missed samples); gauges are stored as-is;
// histograms expand to .count/.p50/.p90/.p99/.p999/.max rows carrying the
// lifetime distribution so far.
//
// At every minute boundary the 1 s samples of the elapsed minute are
// rolled up — the §4.1.2 aggregator pattern turned inward — into
// `__sys_metrics_1m`:
//
//     (metric STRING, ts TIMESTAMP, avg, min, max DOUBLE, n INT64)
//
// Both tables get TTLs (2 h of seconds, 14 d of minutes by default) and age
// out through the ordinary ReclaimExpired maintenance path. They are
// ordinary tables in every other way too: queryable over the wire, through
// SQL, and by `lt_top`. Creation of `__sys*` names is reserved to this
// subsystem (DB::CreateSystemTable).
//
// Clock discipline: sampling is driven by the injected Clock, so under
// SimClock (lt_sim) the sample timestamps — and, in deterministic mode, the
// sampled values — are a pure function of the simulation schedule. The
// determinism contract: `deterministic = true` restricts sampling to
// per-table counters whose values depend only on the operation sequence
// (rows_inserted, queries, flushes, ...), excluding anything tainted by
// wall-clock time or thread scheduling (latency quantiles, group-commit
// coalescing, queue-depth gauges). Two same-seed lt_sim runs then produce
// byte-identical `__sys_metrics_1s` contents, which sim_test pins.
//
// Shutdown ordering: Start() registers a DB pre-close hook that runs
// Stop(), so DB::Close()/Abandon() always quiesces the sampler before any
// table flushes or closes — the final sample cannot race table shutdown.
#ifndef LITTLETABLE_OBS_METRICS_SAMPLER_H_
#define LITTLETABLE_OBS_METRICS_SAMPLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "util/metrics.h"

namespace lt {
namespace obs {

/// Reserved system-table names the sampler writes.
inline constexpr char kMetricsTable1s[] = "__sys_metrics_1s";
inline constexpr char kMetricsTable1m[] = "__sys_metrics_1m";

/// Schemas of the system tables (exposed for tests and tools).
Schema MetricsSchema1s();
Schema MetricsSchema1m();

struct SamplerOptions {
  /// Sampling period for __sys_metrics_1s. Must divide a minute, the
  /// rollup window of __sys_metrics_1m.
  Timestamp interval = kMicrosPerSecond;
  /// Retention for the two tables (0 = keep forever).
  Timestamp ttl_1s = 2 * kMicrosPerHour;
  Timestamp ttl_1m = 14 * kMicrosPerDay;
  /// Restrict sampling to the seed-deterministic per-table counter subset
  /// (see the determinism contract above). lt_sim sets this.
  bool deterministic = false;
  /// Run a background thread that samples on schedule. When false the
  /// caller drives SampleOnce() itself (deterministic harnesses do this at
  /// fixed points in their schedule).
  bool background = true;
  /// The background thread re-reads the clock at this real-time
  /// granularity, so a SimClock advanced by a test is noticed promptly
  /// while a SystemClock sampler burns ~no CPU between samples.
  int poll_ms = 10;
  /// Observed after every successful insert into a system table, with the
  /// exact rows inserted (the chaos oracle builds its durability model
  /// from this). Called on the sampling thread.
  std::function<void(const std::string& table, const std::vector<Row>& rows)>
      observer;
};

class MetricsSampler {
 public:
  /// `db` must outlive the sampler (Stop() runs via the DB pre-close hook
  /// at the latest).
  MetricsSampler(DB* db, SamplerOptions options);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Creates the __sys tables if missing, registers the pre-close hook,
  /// and (in background mode) starts the sampling thread.
  Status Start();

  /// Stops the background thread (if any) and detaches from the DB.
  /// Idempotent; called automatically by DB::Close()/Abandon() via the
  /// pre-close hook, and by the destructor.
  void Stop();

  /// Takes one sample stamped at `now` aligned down to the sampling
  /// interval, rolling up the elapsed 1m window first when `now` crossed a
  /// rollup boundary. Re-sampling an already-sampled aligned timestamp is
  /// a no-op (OK). Callers in background mode never need this; harnesses
  /// drive it directly.
  Status SampleOnce(Timestamp now);

  /// Registers/unregisters a named metrics registry as a sampling source
  /// (the server registers its own under no extra prefix: its metric names
  /// already carry "server."). The registry must stay valid until
  /// RemoveSource or Stop. `prefix` is prepended verbatim to metric names
  /// (pass "" when names are already fully qualified).
  void AddSource(const std::string& prefix, const MetricsRegistry* registry);
  void RemoveSource(const std::string& prefix);

  uint64_t samples_taken() const { return samples_.load(); }
  uint64_t sample_failures() const { return sample_failures_.load(); }
  uint64_t rollups_emitted() const { return rollups_.load(); }
  bool stopped() const { return stopped_.load(); }

 private:
  struct Accumulator {
    double sum = 0, min = 0, max = 0;
    int64_t n = 0;
  };

  void SamplerLoop();
  /// Collects the current sample as sorted (metric, value) pairs.
  std::vector<std::pair<std::string, double>> Collect();
  /// Emits the 1m rollup rows for the window starting at `window_start`.
  Status EmitRollup(Timestamp window_start);

  DB* const db_;
  const SamplerOptions opts_;
  std::shared_ptr<Clock> clock_;

  std::mutex mu_;  // Guards sources_, sample/rollup bookkeeping.
  std::map<std::string, const MetricsRegistry*> sources_;
  Timestamp last_sample_ts_ = -1;  // Aligned ts of the newest sample.
  Timestamp window_start_ = -1;    // Current 1m accumulation window.
  std::map<std::string, Accumulator> window_;

  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> sample_failures_{0};
  std::atomic<uint64_t> rollups_{0};

  std::atomic<bool> stopped_{true};
  size_t hook_id_ = 0;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace lt

#endif  // LITTLETABLE_OBS_METRICS_SAMPLER_H_
