#include "obs/metrics_sampler.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

namespace lt {
namespace obs {
namespace {

/// Per-table counters whose values are a pure function of the operation
/// sequence: safe to sample under the determinism contract. Everything
/// measured in wall-clock time (latency histograms) or dependent on thread
/// scheduling (insert_groups coalescing, queue-depth gauges) is excluded —
/// those values differ between two same-seed runs even though the durable
/// state does not.
constexpr const char* kDeterministicTableCounters[] = {
    "table.insert_batches", "table.rows_inserted", "table.duplicates_rejected",
    "table.queries",        "table.rows_returned", "table.flushes",
    "table.flush_failures", "table.merges",        "table.tablets_merged",
    "table.tablets_expired",
};

bool DeterministicCounter(const char* name) {
  for (const char* ok : kDeterministicTableCounters) {
    if (std::string_view(name) == ok) return true;
  }
  return false;
}

/// "table.rows_inserted" + "usage" -> "table.usage.rows_inserted".
std::string PerTableName(const std::string& table, const char* stat_name) {
  std::string out = "table." + table + ".";
  out.append(stat_name + sizeof("table.") - 1);
  return out;
}

void AppendHistogram(std::map<std::string, double>* out,
                     const std::string& name, const HistogramSnapshot& snap) {
  if (snap.count == 0) return;  // Proportional to actual traffic, like kStatsV2.
  (*out)[name + ".count"] = static_cast<double>(snap.count);
  (*out)[name + ".p50"] = static_cast<double>(snap.P50());
  (*out)[name + ".p90"] = static_cast<double>(snap.P90());
  (*out)[name + ".p99"] = static_cast<double>(snap.P99());
  (*out)[name + ".p999"] = static_cast<double>(snap.P999());
  (*out)[name + ".max"] = static_cast<double>(snap.max);
}

}  // namespace

Schema MetricsSchema1s() {
  return Schema({Column("metric", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("value", ColumnType::kDouble)},
                /*num_key_columns=*/2);
}

Schema MetricsSchema1m() {
  return Schema({Column("metric", ColumnType::kString),
                 Column("ts", ColumnType::kTimestamp),
                 Column("avg", ColumnType::kDouble),
                 Column("min", ColumnType::kDouble),
                 Column("max", ColumnType::kDouble),
                 Column("n", ColumnType::kInt64)},
                /*num_key_columns=*/2);
}

MetricsSampler::MetricsSampler(DB* db, SamplerOptions options)
    : db_(db), opts_(std::move(options)), clock_(db->clock()) {}

MetricsSampler::~MetricsSampler() { Stop(); }

Status MetricsSampler::Start() {
  if (opts_.interval <= 0 || kMicrosPerMinute % opts_.interval != 0) {
    return Status::InvalidArgument(
        "interval must be positive and divide a minute");
  }
  if (db_->GetTable(kMetricsTable1s) == nullptr) {
    TableOptions topts = db_->options().table_defaults;
    topts.ttl = opts_.ttl_1s;
    LT_RETURN_IF_ERROR(
        db_->CreateSystemTable(kMetricsTable1s, MetricsSchema1s(), &topts));
  }
  if (db_->GetTable(kMetricsTable1m) == nullptr) {
    TableOptions topts = db_->options().table_defaults;
    topts.ttl = opts_.ttl_1m;
    LT_RETURN_IF_ERROR(
        db_->CreateSystemTable(kMetricsTable1m, MetricsSchema1m(), &topts));
  }
  stopped_.store(false);
  // The hook makes shutdown ordering structural: DB::Close()/Abandon()
  // quiesces this sampler before any table is flushed or closed.
  hook_id_ = db_->AddPreCloseHook([this] { Stop(); });
  if (opts_.background) {
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_stop_ = false;
    }
    thread_ = std::thread([this] { SamplerLoop(); });
  }
  return Status::OK();
}

void MetricsSampler::Stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // No-op if Stop is running from inside the pre-close hook (the DB has
  // already taken the hooks out); needed when the sampler stops first.
  db_->RemovePreCloseHook(hook_id_);
}

void MetricsSampler::SamplerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(bg_mu_);
      bg_cv_.wait_for(lock, std::chrono::milliseconds(opts_.poll_ms),
                      [this] { return bg_stop_; });
      if (bg_stop_) return;
    }
    // SampleOnce aligns and dedups, so polling faster than the interval
    // costs one clock read + one short lock per poll.
    SampleOnce(clock_->Now());
  }
}

std::vector<std::pair<std::string, double>> MetricsSampler::Collect() {
  // A map keyed by metric name gives a deterministic (sorted) row order —
  // part of the byte-identical-contents contract.
  std::map<std::string, double> out;

  for (const std::string& name : db_->ListTables()) {
    if (DB::IsSystemTableName(name)) continue;  // No self-feedback loop.
    std::shared_ptr<Table> table = db_->GetTable(name);
    if (!table) continue;  // Dropped between list and get.
    const TableStats& ts = table->stats();
    ts.ForEachCounter([&](const char* stat, uint64_t v) {
      if (opts_.deterministic && !DeterministicCounter(stat)) return;
      out[PerTableName(name, stat)] = static_cast<double>(v);
    });
    if (!opts_.deterministic) {
      ts.ForEachHistogram([&](const char* stat, const LatencyHistogram& h) {
        AppendHistogram(&out, PerTableName(name, stat), h.Snapshot());
      });
      out[PerTableName(name, "table.disk_tablets")] =
          static_cast<double>(table->NumDiskTablets());
      out[PerTableName(name, "table.disk_bytes")] =
          static_cast<double>(table->DiskBytes());
      out[PerTableName(name, "table.mem_bytes")] =
          static_cast<double>(table->ApproxMemBytes());
    }
  }

  if (!opts_.deterministic) {
    if (const std::shared_ptr<Cache>& cache = db_->block_cache()) {
      Cache::Stats cs = cache->GetStats();
      out["cache.hits"] = static_cast<double>(cs.hits);
      out["cache.misses"] = static_cast<double>(cs.misses);
      out["cache.inserts"] = static_cast<double>(cs.inserts);
      out["cache.evictions"] = static_cast<double>(cs.evictions);
      out["cache.charge_bytes"] = static_cast<double>(cs.charge);
      out["cache.capacity_bytes"] = static_cast<double>(cs.capacity);
    }
    for (const auto& [prefix, registry] : sources_) {
      for (const auto& [name, v] : registry->CounterValues()) {
        out[prefix + name] = static_cast<double>(v);
      }
      for (const auto& [name, v] : registry->GaugeValues()) {
        out[prefix + name] = static_cast<double>(v);
      }
      for (const auto& [name, snap] : registry->HistogramSnapshots()) {
        AppendHistogram(&out, prefix + name, snap);
      }
    }
    // The sampler monitors itself too (values as of the previous sample).
    out["obs.samples"] = static_cast<double>(samples_.load());
    out["obs.sample_failures"] = static_cast<double>(sample_failures_.load());
    out["obs.rollups"] = static_cast<double>(rollups_.load());
  }

  return {out.begin(), out.end()};
}

Status MetricsSampler::EmitRollup(Timestamp window_start) {
  if (window_.empty()) return Status::OK();
  std::shared_ptr<Table> table = db_->GetTable(kMetricsTable1m);
  if (!table) return Status::NotFound("missing __sys_metrics_1m");
  std::vector<Row> rows;
  rows.reserve(window_.size());
  for (const auto& [metric, acc] : window_) {
    rows.push_back({Value::String(metric), Value::Ts(window_start),
                    Value::Double(acc.sum / static_cast<double>(acc.n)),
                    Value::Double(acc.min), Value::Double(acc.max),
                    Value::Int64(acc.n)});
  }
  LT_RETURN_IF_ERROR(table->InsertBatch(rows));
  rollups_.fetch_add(1);
  if (opts_.observer) opts_.observer(kMetricsTable1m, rows);
  return Status::OK();
}

Status MetricsSampler::SampleOnce(Timestamp now) {
  if (stopped_.load() && !opts_.background) {
    // Manual drivers may race their own Stop; fail soft.
    return Status::Unavailable("sampler stopped");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp aligned = now - (now % opts_.interval);
  if (aligned <= last_sample_ts_) return Status::OK();  // Interval not due.
  last_sample_ts_ = aligned;

  // Rollup the elapsed 1m window before sampling into the new one.
  const Timestamp window = aligned - (aligned % kMicrosPerMinute);
  Status rollup_status;
  if (window_start_ >= 0 && window > window_start_) {
    rollup_status = EmitRollup(window_start_);
    window_.clear();
  }
  if (window != window_start_) window_start_ = window;

  std::shared_ptr<Table> table = db_->GetTable(kMetricsTable1s);
  if (!table) {
    sample_failures_.fetch_add(1);
    return Status::NotFound("missing __sys_metrics_1s");
  }
  std::vector<std::pair<std::string, double>> sample = Collect();
  std::vector<Row> rows;
  rows.reserve(sample.size());
  for (const auto& [metric, value] : sample) {
    rows.push_back(
        {Value::String(metric), Value::Ts(aligned), Value::Double(value)});
  }
  if (rows.empty()) return rollup_status;
  Status s = table->InsertBatch(rows);
  if (!s.ok()) {
    // Backpressure or a sick disk: drop this sample (telemetry is lossy by
    // design — §3.1 weak durability applies doubly to self-monitoring) and
    // keep the schedule.
    sample_failures_.fetch_add(1);
    return s;
  }
  samples_.fetch_add(1);
  for (const auto& [metric, value] : sample) {
    Accumulator& acc = window_[metric];
    if (acc.n == 0) {
      acc.min = acc.max = value;
    } else {
      acc.min = std::min(acc.min, value);
      acc.max = std::max(acc.max, value);
    }
    acc.sum += value;
    acc.n++;
  }
  if (opts_.observer) opts_.observer(kMetricsTable1s, rows);
  return rollup_status.ok() ? Status::OK() : rollup_status;
}

void MetricsSampler::AddSource(const std::string& prefix,
                               const MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_[prefix] = registry;
}

void MetricsSampler::RemoveSource(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.erase(prefix);
}

}  // namespace obs
}  // namespace lt
